"""Report bytes: the JSON reports hash to the digests the benchmark records.

``perfbench/expected.json`` holds the sha256 of every report the benchmark
writes; it is only read here.  The reports covered are ``verify <suite>`` for
each symbolic suite, ``verify cases --grid N`` and ``certify`` for the four
recorded weights with the fewest edges, so a change that alters a printed
byte of any of them fails tier-1 and not only the benchmark.  The benchmark
does not run ``concordance``, the one report that prints the big-cell fields
and twist corrections, so its digest is pinned here, and so are the digest
of ``verify all`` (every suite, ``cases`` at its default grid), one digest
over the ``certify`` reports and exit codes of every small weight and one
over their transcripts.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import pytest

from pgl3dops import cli

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json")
    .read_text())

CONCORDANCE_SHA256 = \
    "3dca4100ca7ae0688615e280403e70641d9962f5564cc68947a244cc4a9aa54b"

# `verify all --json`; the check-level pool leaves the bytes as the serial
# run writes them
VERIFY_ALL_SHA256 = \
    "588af6dc48d0389efa728b09a915e800c86f3f5ec95df65f201d1253f37bb0af"

# sha256 over one line "l1,l2 exit_code sha256(report)" per weight of
# [0,4]^2 and (-1, 0), joined by newlines
SMALL_CERTIFICATES_SHA256 = \
    "03b20188dbb882a4f411d4835526bc92d458d798c9633b967521810122564e10"

# the same over the stdout of `certify` without --json: "l1,l2 exit_code
# sha256(stdout)"
SMALL_TRANSCRIPTS_SHA256 = \
    "ef0982bfa34d6c3e72fe74eee0e06676c5fbc8929f8c027ef9c82eb61feb3ab5"


def _reports():
    out = [(f"verify {suite}", ["verify", suite], digest)
           for suite, digest in sorted(EXPECTED["verify_symbolic"].items())]
    for key, digest in sorted(EXPECTED["verify_grids"].items()):
        grid = key.removeprefix("grid=")
        out.append((f"verify cases --grid {grid}",
                    ["verify", "cases", "--grid", grid], digest))
    fewest = sorted(EXPECTED["certify"].items(),
                    key=lambda kv: (kv[1]["edges"], kv[0]))[:4]
    for key, rec in fewest:
        l1, l2 = key.split(",")
        out.append((f"certify {l1} {l2}", ["certify", "--lambda", l1, l2],
                    rec["sha256"]))
    out.append(("concordance", ["concordance"], CONCORDANCE_SHA256))
    return out


@pytest.mark.parametrize("argv, digest",
                         [pytest.param(argv, digest, id=label)
                          for label, argv, digest in _reports()])
def test_report_digest(tmp_path, argv, digest):
    path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv + ["--json", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_verify_all_digest(tmp_path):
    path = tmp_path / "all.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "all", "--jobs", "2", "--json", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_ALL_SHA256


def test_small_certificates_digest(tmp_path):
    lines = []
    for l1, l2 in [*itertools.product(range(5), repeat=2), (-1, 0)]:
        path = tmp_path / f"certify_{l1}_{l2}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certify", "--lambda", str(l1), str(l2),
                             "--json", str(path)])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{l1},{l2} {code} {digest}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SMALL_CERTIFICATES_SHA256


def test_small_certificate_transcripts_digest():
    lines = []
    for l1, l2 in [*itertools.product(range(5), repeat=2), (-1, 0)]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["certify", "--lambda", str(l1), str(l2)])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        lines.append(f"{l1},{l2} {code} {digest}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SMALL_TRANSCRIPTS_SHA256
