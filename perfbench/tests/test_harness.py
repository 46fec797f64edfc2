"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads as W  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds a [2, 3]) and b [5, 6];
    # the inner a recurses, so only the outer a counts toward busy time
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    outer, a, b = rec.intern("outer"), rec.intern("a"), rec.intern("b")
    i0 = rec.open(outer)
    i1 = rec.open(a)
    i2 = rec.open(a)
    rec.close(i2)
    rec.close(i1)
    i3 = rec.open(b)
    rec.close(i3)
    rec.close(i0)
    totals = rec.reduce()
    assert totals["outer"] == {"calls": 1, "busy_s": 10, "self_s": 6}
    assert totals["a"] == {"calls": 2, "busy_s": 3, "self_s": 3}
    assert totals["b"] == {"calls": 1, "busy_s": 1, "self_s": 1}
    assert rec.top_level_s() == 10


def test_spans_dump_round_trip(tmp_path):
    rec = SpanRecorder(clock=FakeClock([0.5, 1.5]))
    rec.close(rec.open(rec.intern("x")))
    path = tmp_path / "spans.bin"
    rec.dump(str(path))
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        assert header["names"] == ["x"] and header["count"] == 1
        assert len(fh.read()) == 4 + 4 + 8 + 8


def test_lambda_draw_is_seeded_and_never_repeats():
    expected = W.load_expected()["certify"]
    for seed in range(20):
        lams = W.draw_lambdas(seed)
        assert lams == W.draw_lambdas(seed)
        assert len(lams) == len(set(lams))
        assert sorted(lams) == sorted(W.LAMBDAS)
        assert all(W.lambda_key(lam) in expected for lam in lams)
    assert W.draw_lambdas(1) != W.draw_lambdas(2)


def test_scalar_count_matches_the_grid_checks():
    from pgl3dops import checks
    cfg = checks.CheckConfig(grid=W.GRID)
    counts = W.grid_scalar_counts(W.GRID)
    for check_id in ("cases.case2.grid", "cases.case3a.grid",
                     "cases.case3b.grid"):
        result = checks.run_check(check_id, cfg)
        assert result.status == "pass"
        reported = int(re.search(r"all (\d+) grid points", result.details)[1])
        assert reported == counts[check_id]
    result = checks.run_check("cases.case2b.interpolation", cfg)
    bounds = re.search(r"degree bounds ([\d,]+)", result.details)[1]
    assert tuple(int(d) for d in bounds.split(",")) == W.INTERPOLATION_DEGREES


def test_expected_status_table_lists_every_registered_check():
    from pgl3dops import checks
    assert set(W.EXPECTED_STATUS) == set(checks.checks_for("all"))
    for suite, ids in W.CHECK_IDS.items():
        assert set(ids) == set(checks.checks_for(suite))


def test_patcher_reaches_every_binding_and_restores():
    from pgl3dops import certify, weyl
    original = weyl.op_apply_section
    assert certify.op_apply_section is original
    patcher = Patcher()
    rec = SpanRecorder()
    layers.install(patcher, rec, layers.Counters())
    try:
        assert certify.op_apply_section is weyl.op_apply_section
        assert weyl.op_apply_section is not original
    finally:
        patcher.restore()
    assert certify.op_apply_section is original
    assert weyl.op_apply_section is original


def test_pool_metrics():
    records = [["a", 1, 0.0, 4.0, 4.0], ["b", 2, 0.0, 1.0, 1.0],
               ["c", 2, 1.0, 2.0, 1.0]]
    m = layers.pool_metrics(records)
    assert m["checks.pool.workers"] == 2
    assert m["checks.pool.critical_path_s"] == 4.0
    assert m["checks.pool.idle_s"] == 2.0
    assert m["checks.pool.imbalance"] == 4.0 / 3.0


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == layers.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
