"""Benchmark of ``pgl3dops verify`` and ``pgl3dops certify``.

    python3 perfbench/run.py --workload verify_grids --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/pgl3dops`` must exist).  A run
is a closed loop of passes, one after another, each in a fresh interpreter
started by this process (``worker.py``); the only extra processes are the
two pool workers of ``verify cases --jobs 2``.  A new pass starts only while
a typical pass still fits in ``--seconds``.  Every pass has a wall-clock
ceiling; a pass past it is killed with its process group and all of its
operations count as failed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median cold
set-up: import and shared caches), ``wall_s`` (median pass wall time),
``items_per_s`` (median over passes of work items per second: checks, grid
case scalars or certificate edges) and ``peak_rss_mb`` (median per-pass
peak, pool workers included).

``--trace 1`` runs one untraced pass and the same pass traced, and prints
the per-layer metrics.  The full layer report, including per-check times,
goes to ``.perfbench_out/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is a
check or a certificate edge; it fails on a wrong status, a scalar that
differs from the closed form, a checker problem, a report whose sha256
differs from ``expected.json``, or a timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

PASS_CEILING_S = 120.0   # one pass
RUN_CEILING_S = 165.0    # everything a run starts
SETUP_SAMPLES = 11     # a set-up takes ~0.2 s, so its median needs many

class HarnessError(RuntimeError):
    """The benchmark itself cannot be trusted; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.expected = W.load_expected()
        self.outdir = os.path.join(OUT_ROOT, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.outdir, exist_ok=True)
        self.started = time.monotonic()
        self.setups: list[float] = []
        self.cache_fills: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._n = 0
        # string hashing orders some of the engine's set iterations, and so
        # its work: tie it to the seed so that counts repeat run to run
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    # -- child processes ---------------------------------------------------------

    def spawn(self, mode: str, lams=(), **extra) -> tuple[dict | None, float]:
        """Run one worker; returns (its result or None, elapsed seconds)."""
        self._n += 1
        tag = f"{self._n:03d}"
        passdir = os.path.join(self.outdir, tag)
        os.makedirs(passdir)
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed,
                "lams": [list(lam) for lam in lams], "src": SRC,
                "outdir": passdir, "result": os.path.join(passdir, "result.json"),
                **extra}
        spec_path = os.path.join(passdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        timeout = min(PASS_CEILING_S,
                      RUN_CEILING_S - (time.monotonic() - self.started))
        start = time.monotonic()
        with open(os.path.join(passdir, "stderr.txt"), "w") as err:
            proc = subprocess.Popen([sys.executable, WORKER, spec_path],
                                    cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _kill_group(proc)
        elapsed = time.monotonic() - start
        if code != 0:
            with open(os.path.join(passdir, "stderr.txt")) as fh:
                tail = fh.read()[-2000:]
            what = "timed out" if code is None else f"exited {code}"
            self.problems.append(f"{mode} worker {what}: {tail.strip()}")
            return None, elapsed
        with open(spec["result"]) as fh:
            result = json.load(fh)
        self._check_registry(result)
        self.setups.append(result["setup_s"])
        self.cache_fills.append(result["caches_s"])
        return result, elapsed

    def _check_registry(self, result: dict) -> None:
        registered = set(result["registered_checks"])
        listed = set(W.EXPECTED_STATUS)
        if registered != listed:
            raise HarnessError(
                "the check registry changed; update workloads.CHECK_IDS: "
                f"new {sorted(registered - listed)}, "
                f"gone {sorted(listed - registered)}")

    def setup_only(self, count: int) -> None:
        for _ in range(count):
            self.spawn("setup")

    # -- judging a pass ------------------------------------------------------------

    def judge(self, result: dict | None, lams=()) -> int:
        """Count the pass's operations and failures; returns its work items."""
        ops = W.expected_ops(self.workload, self.expected, lams)
        if result is None:
            self.attempted += ops
            self.failed += ops
            return 0
        if self.workload == "certify_sweep":
            attempted, failed = self._judge_certificates(result["reports"])
        else:
            attempted, failed = self._judge_checks(result["reports"])
        self.attempted += attempted
        self.failed += failed
        return W.pass_items(self.workload, attempted) if not failed else 0

    def _judge_checks(self, reports) -> tuple[int, int]:
        want = self.expected[self.workload]
        attempted = failed = 0
        for rep in reports:
            suite = rep["label"]
            ids = W.CHECK_IDS[suite]
            attempted += len(ids)
            key = f"grid={W.GRID}" if suite == "cases" else suite
            if rep["sha256"] is None:
                self.problems.append(f"{suite}: no JSON report written")
                failed += len(ids)
                continue
            digest_ok = rep["sha256"] == want[key]
            if not digest_ok:
                self.problems.append(f"{suite}: report sha256 {rep['sha256']} "
                                     f"differs from the recorded {want[key]}")
            if rep["exit_code"] != 0:
                self.problems.append(f"{suite}: exit code {rep['exit_code']}")
            for check_id in ids:
                status = rep["checks"].get(check_id)
                ok = (status == W.EXPECTED_STATUS[check_id] and digest_ok
                      and rep["exit_code"] == 0)
                if status != W.EXPECTED_STATUS[check_id]:
                    self.problems.append(
                        f"{check_id}: {status}, expected "
                        f"{W.EXPECTED_STATUS[check_id]}: "
                        f"{rep['details'].get(check_id)}")
                failed += not ok
        return attempted, failed

    def _judge_certificates(self, reports) -> tuple[int, int]:
        want = self.expected["certify"]
        attempted = failed = 0
        for rep in reports:
            key = rep["label"]
            if rep["sha256"] is None:
                self.problems.append(f"certify {key}: no JSON report written")
                attempted += want[key]["edges"]
                failed += want[key]["edges"]
                continue
            [cert] = rep["certificates"]
            edges = cert["edges"]
            attempted += edges
            whole = []
            if cert["status"] != "irreducible":
                whole.append(f"status {cert['status']}")
            if cert["checker_problems"]:
                whole.append(f"checker: {cert['checker_problems']}")
            if rep["sha256"] != want[key]["sha256"]:
                whole.append(f"report sha256 {rep['sha256']} differs from "
                             f"the recorded {want[key]['sha256']}")
            if rep["exit_code"] != 0:
                whole.append(f"exit code {rep['exit_code']}")
            if whole:
                self.problems.append(f"certify {key}: " + "; ".join(whole))
                failed += edges
            elif cert["scalar_mismatches"]:
                self.problems.append(f"certify {key}: scalars differ from the "
                                     f"closed form at {cert['scalar_mismatches']}")
                failed += len(cert["scalar_mismatches"])
        return attempted, failed

    # -- the two kinds of run -----------------------------------------------------------

    def batches(self):
        """Weights per pass; certify_sweep has one pass, as none may repeat."""
        if self.workload == "certify_sweep":
            return [W.draw_lambdas(self.seed)]
        return None

    def _warm_up(self) -> None:
        """One uncounted worker, which writes the bytecode caches."""
        self.spawn("setup")
        self.setups.clear()
        self.cache_fills.clear()

    def measure(self) -> tuple[dict, dict]:
        self._warm_up()
        batches = self.batches()
        deadline = time.monotonic() + self.seconds
        walls, rss, items, elapsed = [], [], [], []
        k = 0
        while batches is None or k < len(batches):
            if elapsed and time.monotonic() + _median(elapsed) > deadline:
                break
            lams = batches[k] if batches else ()
            k += 1
            result, took = self.spawn("pass", lams)
            elapsed.append(took)
            items.append(self.judge(result, lams))
            if result is None:
                walls.append(took)
                break
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        self.setup_only(max(0, SETUP_SAMPLES - len(self.setups)))
        return {
            "setup_s": (_median(self.setups), "s"),
            "wall_s": (_median(walls), "s"),
            "items_per_s": (_median([n / w for n, w in zip(items, walls)]),
                            "1/s"),
            "peak_rss_mb": (_median(rss), "MiB"),
        }, {"passes": len(walls), "setup samples": len(self.setups)}

    def trace(self) -> dict:
        self._warm_up()
        self.setup_only(3)
        batches = self.batches()
        lams = batches[0] if batches else ()
        base, _ = self.spawn("pass", lams, check_times=True)
        self.judge(base, lams)
        spans_dir = os.path.join(OUT_ROOT, "trace")
        os.makedirs(spans_dir, exist_ok=True)
        stem = os.path.join(spans_dir, f"{self.workload}-seed{self.seed}")
        traced, _ = self.spawn("pass", lams, trace=True, spans=stem + ".spans")
        self.judge(traced, lams)
        if base is None or traced is None:
            raise HarnessError("; ".join(self.problems))
        missing = [name for name in layers.REQUIRED_SPANS[self.workload]
                   if not traced["span_calls"].get(name)]
        if missing:
            raise HarnessError(f"no spans recorded for {missing} on "
                               f"{self.workload}: a wrapper missed its target")
        times = base["check_times"]
        if self.workload != "certify_sweep" and \
                len(times) != sum(len(r["checks"]) for r in base["reports"]):
            raise HarnessError("the check timing hook missed pool workers")
        untraced = base["wall_s"]
        if self.workload == "verify_grids":
            # the traced pass is serial; compare it with an untraced serial one
            serial, _ = self.spawn("pass", lams, serial=True)
            self.judge(serial, lams)
            if serial is None:
                raise HarnessError("; ".join(self.problems))
            untraced = serial["wall_s"]
        metrics = dict(traced["layers"])
        metrics.update(layers.pool_metrics(times))
        layers.add_shares(metrics, times, traced["wall_s"])
        metrics["certify.edge_yield"] = (
            _certificate_edges(traced) / metrics["certify.case_scalar.calls"]
            if metrics["certify.case_scalar.calls"] else 0.0)
        metrics["pgl3.caches.cold_s"] = _median(self.cache_fills)
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead"] = traced["wall_s"] / untraced
        metrics["trace.coverage"] = traced["covered_s"] / traced["wall_s"]
        metrics["trace.spans"] = traced["spans"]
        with open(stem + ".json", "w") as fh:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "lambdas": [list(lam) for lam in lams],
                       "metrics": metrics}, fh, indent=1, sort_keys=True)
        return metrics


def _certificate_edges(result: dict) -> int:
    return sum(c["edges"] for r in result["reports"]
               for c in r.get("certificates", []))


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pgl3dops", "cli.py")):
        print(f"no pgl3dops sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            layer = runner.trace()
            units = {name: unit for name, unit, _ in layers.per_layer_spec()}
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in units.items()}
            for name in sorted(layer):
                print(f"{name} = {layer[name]:.6g} {units.get(name, '')}")
        else:
            values, info = runner.measure()
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in values.items()}
            for name, (v, u) in values.items():
                print(f"{name} = {v:.6g} {u}")
            print(f"{W.ITEMS[args.workload]} = "
                  f"{values['items_per_s'][0]:.6g} 1/s")
            print(f"samples: {info}")
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"fail_ratio = {ratio:.6g} ({runner.failed}/{runner.attempted})")
    print(json.dumps({"correct": runner.failed == 0 and runner.attempted > 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
