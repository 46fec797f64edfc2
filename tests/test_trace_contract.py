"""The benchmark's trace contract.

``perfbench/layers.py`` wraps ``pgl3dops`` functions by name and lists, per
workload, the spans a traced run must record.  A route that stops calling one
of them (say a Casimir that no longer goes through ``apply_generator``)
keeps every report byte and still fails the traced benchmark run, so the
contract is checked here.  The harness is imported without writing bytecode
beside it.
"""

import sys
from pathlib import Path

from pgl3dops import certify as C
from pgl3dops import checks, conics, pgl3

BENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _harness():
    saved = sys.dont_write_bytecode
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode = True
    try:
        import layers
        import spans
        import worker
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(BENCH)
    return layers, spans, worker


def _missing_spans(run, workloads) -> dict[str, list[str]]:
    """Fill the shared caches, run ``run`` under the benchmark's patcher and
    list, per workload, the required spans that recorded nothing."""
    layers, spans, worker = _harness()
    worker.fill_shared_caches(pgl3, conics)
    patcher, rec = spans.Patcher(), spans.SpanRecorder()
    try:
        layers.install(patcher, rec, layers.Counters())
        run()
    finally:
        patcher.restore()
    calls = {name: t["calls"] for name, t in rec.reduce().items()}
    return {w: [name for name in layers.REQUIRED_SPANS[w] if not calls.get(name)]
            for w in workloads}


def test_certify_records_every_required_span():
    def run():
        cert = C.certify((3, 4))
        assert C.validate_certificate(cert) == []

    missing = _missing_spans(run, ("verify_grids", "certify_sweep"))
    assert not any(missing.values()), missing


def test_symbolic_checks_record_every_required_span():
    def run():
        cfg = checks.CheckConfig()
        for check_id in ("twists.operator_identity", "casimir.routes_agree"):
            assert checks.run_check(check_id, cfg).status == "pass", check_id

    missing = _missing_spans(run, ("verify_symbolic",))
    assert not any(missing.values()), missing
