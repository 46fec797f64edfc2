"""CLI behaviour: subcommands, exit codes, JSON reports, determinism."""

import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

import pytest

from pgl3dops import checks as CK
from pgl3dops import cli
from pgl3dops import pgl3 as P
from pgl3dops import reference as REF
from pgl3dops.ring import RatFunc


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_suite_exit_zero(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(["verify", "cdv", "--json", str(path)], capsys)
    assert code == 0
    assert "cdv.roundtrip.forward_backward" in out
    data = json.loads(path.read_text())
    assert data["schema_version"] == "1"
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)
    assert all(set(c) == {"id", "status", "details"} for c in data["checks"])
    statuses = {c["id"]: c["status"] for c in data["checks"]}
    assert statuses["cdv.backward.reference"] == "mismatch-reported"
    assert all(s != "fail" for s in statuses.values())


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "cdv", "--seed", "7", "--json", str(p1)], capsys)
    run(["verify", "cdv", "--seed", "7", "--json", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_certify_connected(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out = run(["certify", "--lambda", "1", "1", "--json", str(path)],
                    capsys)
    assert code == 0
    assert "irreducible" in out
    data = json.loads(path.read_text())
    cert = data["certificates"][0]
    assert cert["status"] == "irreducible"
    assert cert["checker_problems"] == []
    assert len(cert["support"]) == 2


def test_certify_zero_module(capsys):
    code, out = run(["certify", "--lambda", "-1", "0"], capsys)
    assert code == 0
    assert "zero_module" in out


def test_certify_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["certify", "--lambda", "2", "2", "--json", str(p1)], capsys)
    run(["certify", "--lambda", "2", "2", "--json", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_concordance(tmp_path, capsys):
    path = tmp_path / "conc.json"
    code, out = run(["concordance", "--json", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    items = {i["id"]: i for i in data["concordance"]}
    assert items["cdv.forward.a1"]["status"] == "matched"
    assert items["cdv.backward.g32"]["status"] == "mismatch"
    assert items["fields.matrix.left.Y3"]["status"] == "mismatch"
    assert items["cases.2b.scalar"]["status"] == "mismatch"
    assert "residual" in items["cases.2b.scalar"]
    assert items["cases.2b.scalar"]["engine"] == REF.CASE2B_SCALAR_ENGINE


def test_concordance_engine_column_is_the_computed_scalar(monkeypatch):
    # a drifted 2b scalar must show in the engine column, not the recorded text
    real = CK._sym_case_scalar
    one = RatFunc.const(P.MATRIX_TABLE, 1)
    monkeypatch.setattr(CK, "_sym_case_scalar",
                        lambda case: real(case) + one if case == "2b" else real(case))
    item = {i["id"]: i for i in CK.concordance_items()}["cases.2b.scalar"]
    assert item["engine"] != REF.CASE2B_SCALAR_ENGINE
    assert item["engine"] == (real("2b") + one).to_text()


# the check that compares each display family with the engine
DISPLAY_CHECKS = {"cdv.forward": "cdv.forward.reference",
                  "cdv.backward": "cdv.backward.reference",
                  "fields.matrix.left": "fields.matrix.reference",
                  "fields.big_cell.left": "fields.big_cell.reference",
                  "partials": "partials.reference",
                  "order2": "d0.reference",
                  "twists.correction": "twists.corrections"}


def test_display_checks_agree_with_the_concordance():
    assert set(DISPLAY_CHECKS) == set(CK.DISPLAY)
    items = CK.concordance_items()
    for family, check_id in DISPLAY_CHECKS.items():
        prefix = family + "."
        mismatched = [i["id"][len(prefix):] for i in items
                      if i["id"].startswith(prefix) and i["status"] == "mismatch"]
        res = CK.run_check(check_id, CK.CheckConfig())
        assert (res.status == "pass") == (not mismatched), (family, res)
        for name in mismatched:
            assert name in res.details, (family, name, res.details)


def test_op_subcommands(capsys):
    code, out = run(["op", "apply", "d/da1 d/da2", "a1^3*a2^2",
                     "--chart", "big_cell"], capsys)
    assert code == 0 and out.strip() == "6*a1^2*a2"
    code, out = run(["op", "compose", "d/dg11", "g11 * d/dg11"], capsys)
    assert code == 0 and out.strip() == "(g11) * d/dg11^2 + d/dg11"
    code, out = run(["op", "print", "d/dx^2 + x * d/dy", "--chart", "conic"],
                    capsys)
    assert code == 0 and out.strip() == "d/dx^2 + (x) * d/dy"


def test_op_composes_high_derivative_orders(capsys):
    # the memoised derivative walks down to order 0 without recursing
    code, out = run(["op", "compose", "d/dg11^1000", "d/dg11^1000"], capsys)
    assert code == 0 and out.strip() == "d/dg11^2000"


def test_op_compose_visits_only_the_derivatives_a_polynomial_has():
    # 3001^2 sub-indices J <= K, of which only the four with K - J <= (1, 1)
    # give a nonzero derivative of g11*g12; a bounded run proves the others
    # are never visited
    code = ("import sys; from pgl3dops import cli; sys.exit(cli.main(["
            "'op', 'compose', 'd/dg11^3000 * d/dg12^3000', 'g11*g12']))")
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == (
        "(g11*g12) * d/dg11^3000 d/dg12^3000"
        " + (3000*g11) * d/dg11^3000 d/dg12^2999"
        " + (3000*g12) * d/dg11^2999 d/dg12^3000"
        " + (9000000) * d/dg11^2999 d/dg12^2999")


def test_op_wrong_arity(capsys):
    code = cli.main(["op", "apply", "d/dg11"])
    assert code == 2


def test_op_unreadable_expression(capsys):
    for argv in (["op", "print", "g11 + + d/dg11"],
                 ["op", "print", "g11/0 * d/dg11"],
                 ["op", "compose", "d/dg11", "g11 *"],
                 ["op", "apply", "d/dg11", "g11/0"],
                 ["op", "apply", "d/dg11", "g11^70000"],
                 # text that parses but whose product overflows the exponents
                 ["op", "compose", "g11^20000 * d/dg11", "g11^20000"],
                 ["op", "apply", "g11^20000 * d/dg11", "g11^20000"],
                 # a non-ASCII digit
                 ["op", "apply", "d/dg11", "\u00b2"],
                 ["op", "print", "d/dg11^\u00b2"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"op {argv[1]}: ") and err.count("\n") == 1, err


def test_usage_error_exit_two():
    for argv in (["verify", "nonsense"],
                 ["verify", "cases", "--grid", "-1"],
                 ["verify", "cases", "--jobs", "0"],
                 ["verify", "cases", "--grid", "-1", "--jobs", "0"],
                 ["verify", "d0", "--nilpotency-limit", "0"],
                 ["verify", "cases", "--grid", "two"],
                 ["verify", "cases", "--param-mode", "sampled"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv", [["verify", "cdv"],
                                  ["certify", "--lambda", "1", "1"],
                                  ["concordance"]],
                         ids=["verify", "certify", "concordance"])
def test_unwritable_json_path_exits_two_before_any_work(tmp_path, capsys,
                                                       argv):
    # a missing directory, a directory and an empty path are refused with
    # one stderr line naming the path, before anything is computed or printed
    for path in (tmp_path / "missing" / "report.json", tmp_path, ""):
        assert cli.main(argv + ["--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_vacuous_grid_checks_fail():
    # a grid check that examined no point must not report a pass
    for check_id, grid in (("cases.case2.grid", -1),
                           ("cases.case3a.grid", 0),
                           ("cases.case3b.grid", 0)):
        res = CK.run_check(check_id, CK.CheckConfig(grid=grid))
        assert res.status == "fail", (check_id, res.details)
        assert "vacuous" in res.details


def test_entry_point_parity(capsys):
    # `verify --jobs 2` must agree with the sequential run
    code1, _ = run(["verify", "conics"], capsys)
    code2, _ = run(["verify", "conics", "--jobs", "2"], capsys)
    assert code1 == code2 == 0


def test_jobs_do_not_change_the_report(tmp_path, capsys):
    p1, p2 = tmp_path / "seq.json", tmp_path / "par.json"
    run(["verify", "conics", "--json", str(p1)], capsys)
    run(["verify", "conics", "--jobs", "3", "--json", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_jobs_start_at_most_one_worker_per_check(monkeypatch):
    # a stand-in pool runs the jobs inline and records its size, so no
    # process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = CK.CheckConfig()
    serial = CK.run_suite("cdv", cfg)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(CK, "_cpu_count", lambda: 64)
    pooled = CK.run_suite("cdv", cfg, jobs=64)
    assert sizes == [len(serial)] == [6]
    assert [(r.check_id, r.status, r.details) for r in pooled] == \
        [(r.check_id, r.status, r.details) for r in serial]
    # and at most one worker per CPU
    monkeypatch.setattr(CK, "_cpu_count", lambda: 2)
    pooled = CK.run_suite("cdv", cfg, jobs=64)
    assert sizes == [6, 2]
    assert [(r.check_id, r.status, r.details) for r in pooled] == \
        [(r.check_id, r.status, r.details) for r in serial]
