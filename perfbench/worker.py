"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes the spec and reads the result file the spec names.  The
worker times set-up (import plus filling the shared caches), runs the
pass's CLI calls in-process, then - outside the timed region - hashes each
JSON report and reads back what the checks and certificates say.  With
``"trace": true`` it wraps the layer functions and writes their spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import layers
import workloads
from spans import Patcher, SpanRecorder


def fill_shared_caches(pgl3, conics) -> None:
    """Call each shared cached constructor once."""
    pgl3.big_cell_in_matrix()
    pgl3.matrix_ratios_in_big_cell()
    for label in pgl3.GENERATOR_LABELS:
        for factor in ("left", "right"):
            gen = pgl3.Generator(label, factor)
            pgl3.action_field_matrix(gen)
            pgl3.twisted_field_matrix(gen)
        left = pgl3.Generator(label, "left")
        pgl3.action_field_big_cell(left)
        pgl3.twisted_field_big(left)
        conics.generator_field_cone(label)
    pgl3.mixed_second_order_matrix()
    pgl3.canonical_section()
    pgl3.casimir_operator()
    conics.parametrization()
    conics.entry_formulas()
    conics.map_conic_to_entry()
    conics.mixed_derivative_conic()
    conics.mixed_derivative_entry()
    conics.mixed_derivative_cone()


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def read_report(label: str, path: str, code: int) -> dict:
    out = {"label": label, "exit_code": code, "sha256": None}
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return out
    out["sha256"] = hashlib.sha256(raw).hexdigest()
    data = json.loads(raw)
    out["checks"] = {c["id"]: c["status"] for c in data["checks"]}
    out["details"] = {c["id"]: c["details"] for c in data["checks"]}
    out["certificates"] = [_certificate_summary(c)
                           for c in data["certificates"]]
    return out


def _certificate_summary(cert: dict) -> dict:
    """Status, checker verdict, and edges whose scalar is not the closed form."""
    from pgl3dops import certify
    wrong = []
    lam = tuple(cert["lambda"])
    for e in cert["edges"]:
        m1, m2 = e["from"]
        point = certify.SupportPoint(m1, m2, *certify.weight_at(lam, m1, m2))
        got = Fraction(e["scalar_num"], e["scalar_den"])
        if got != certify.closed_form_value(e["case"], point):
            wrong.append([e["from"], e["case"]])
    return {"lambda": list(lam), "status": cert["status"],
            "edges": len(cert["edges"]),
            "checker_problems": cert["checker_problems"],
            "scalar_mismatches": wrong}


def main(spec_path: str) -> int:
    t0 = time.perf_counter()
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import pgl3dops.cli as cli
    from pgl3dops import checks, conics, pgl3
    t1 = time.perf_counter()
    fill_shared_caches(pgl3, conics)
    t2 = time.perf_counter()
    result = {"setup_s": t2 - t0, "import_s": t1 - t0, "caches_s": t2 - t1,
              "registered_checks": sorted(checks.checks_for("all"))}
    if spec["mode"] == "pass":
        result.update(run_pass(spec, cli))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def run_pass(spec: dict, cli) -> dict:
    workload, outdir = spec["workload"], spec["outdir"]
    trace = spec.get("trace", False)
    # the traced pass runs grid checks serially so every span is recorded
    # here; its untraced twin is serial too
    jobs = 1 if trace or spec.get("serial") else workloads.GRID_JOBS
    commands = workloads.pass_commands(workload, spec["seed"], outdir,
                                       [tuple(lam) for lam in spec["lams"]],
                                       jobs=jobs)
    patcher = Patcher()
    rec, counters = SpanRecorder(), layers.Counters()
    check_log = os.path.join(outdir, "check-times.jsonl")
    if spec.get("check_times"):
        layers.hook_check_times(patcher, check_log)
    if trace:
        hits0, misses0 = layers.cache_totals()
        layers.install(patcher, rec, counters)
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            for _, argv, _ in commands:
                codes.append(cli.main(argv))
        wall = time.perf_counter() - start
    finally:
        patcher.restore()
    out = {"wall_s": wall, "peak_rss_mb": peak_rss_mb(),
           "reports": [read_report(label, path, code)
                       for (label, _, path), code in zip(commands, codes)]}
    if spec.get("check_times"):
        out["check_times"] = layers.read_check_times(check_log)
    if trace:
        hits1, misses1 = layers.cache_totals()
        totals = rec.reduce()
        metrics = layers.layer_metrics(totals, counters)
        metrics["pgl3.cache.hits"] = hits1 - hits0
        metrics["pgl3.cache.misses"] = misses1 - misses0
        out["layers"] = metrics
        out["span_calls"] = {name: t["calls"] for name, t in totals.items()}
        out["spans"] = len(rec)
        out["covered_s"] = rec.top_level_s()
        rec.dump(spec["spans"])
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
