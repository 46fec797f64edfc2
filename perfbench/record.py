"""Record the sha256 of every JSON report the workloads write.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``.  The reports are deterministic, so a run
whose bytes differ from the recorded digest counts as failed; re-record only
when a change to a report is intended and reviewed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import workloads as W

ROOT = os.path.dirname(W.HERE)


def _digest(cli, argv: list[str], path: str) -> tuple[str, dict]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    with open(path, "rb") as fh:
        raw = fh.read()
    return hashlib.sha256(raw).hexdigest(), json.loads(raw)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pgl3dops.cli as cli

    out: dict = {"verify_symbolic": {}, "verify_grids": {}, "certify": {}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_rec") as tmp:
        for label, argv, path in W.pass_commands("verify_symbolic", 0, tmp):
            out["verify_symbolic"][label], _ = _digest(cli, argv, path)
        digests = set()
        for seed in (0, 1, 2):
            [(_, argv, path)] = W.pass_commands("verify_grids", seed, tmp)
            digests.add(_digest(cli, argv, path)[0])
        if len(digests) != 1:
            raise SystemExit("verify cases reports depend on --seed")
        out["verify_grids"][f"grid={W.GRID}"] = digests.pop()
        lams = sorted(W.LAMBDAS)
        for label, argv, path in W.pass_commands("certify_sweep", 0, tmp, lams):
            sha, data = _digest(cli, argv, path)
            [cert] = data["certificates"]
            out["certify"][label] = {"sha256": sha, "edges": len(cert["edges"])}
    with open(W.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
