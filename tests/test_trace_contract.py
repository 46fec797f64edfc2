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
from pgl3dops import conics, pgl3

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


def test_certify_records_every_required_span():
    layers, spans, worker = _harness()
    worker.fill_shared_caches(pgl3, conics)
    patcher, rec = spans.Patcher(), spans.SpanRecorder()
    try:
        layers.install(patcher, rec, layers.Counters())
        cert = C.certify((3, 4))
        assert C.validate_certificate(cert) == []
    finally:
        patcher.restore()
    calls = {name: t["calls"] for name, t in rec.reduce().items()}
    for workload in ("verify_grids", "certify_sweep"):
        missing = [name for name in layers.REQUIRED_SPANS[workload]
                   if not calls.get(name)]
        assert not missing, (workload, missing)
