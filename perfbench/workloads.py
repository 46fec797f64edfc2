"""Workload definitions: inputs drawn from the seed, and expected outcomes.

Three workloads drive the ``pgl3dops`` command line in-process, one pass per
fresh interpreter (every real CLI call starts cold):

* ``verify_symbolic`` - ``verify <suite> --json`` for the six symbolic suites;
* ``verify_grids``    - ``verify cases --jobs 2 --grid GRID --seed <seed>``;
* ``certify_sweep``   - ``certify --lambda L1 L2 --json`` for every weight
  of a fixed set, in an order drawn from the seed.

Nothing here imports ``pgl3dops``: ``run.py`` only spawns workers and
judges what they report.
"""

from __future__ import annotations

import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("verify_symbolic", "verify_grids", "certify_sweep")

# What ``items_per_s`` counts on each workload.
ITEMS = {"verify_symbolic": "checks_per_s", "verify_grids": "scalars_per_s",
         "certify_sweep": "edges_per_s"}

SYMBOLIC_SUITES = ("cdv", "vectorfields", "d0", "twists", "casimir", "conics")

# Sampling range of the grid checks in ``verify_grids``; a pass takes a few
# seconds on two cores, so one run holds several passes.
GRID = 2
GRID_JOBS = 2

# Weights for ``certify_sweep`` (lambda1 + lambda2 from 7 to 13; about
# 0.7 to 2.5 s each).  One pass certifies all of them, so every run does the
# same work and only the order, which decides what the caches hold, follows
# the seed; splitting them into smaller seeded batches made the pass time
# depend on which weights shared a batch.
LAMBDAS = (
    (8, 1), (7, 2), (5, 3), (3, 4), (4, 4), (3, 5),
    (10, 1), (12, 0), (5, 4), (5, 5), (4, 5), (9, 1),
    (11, 1), (10, 2), (7, 3), (8, 3), (6, 4), (7, 4),
)

# Hand-written expected status of every registered check.  Five checks
# report known display defects; everything else passes.
MISMATCH_REPORTED = frozenset({
    "cdv.backward.reference",
    "fields.matrix.reference",
    "fields.big_cell.reference",
    "cases.case2b.displayed_form",
    "cases.signs",
})

CHECK_IDS = {
    "cdv": (
        "cdv.forward.reference", "cdv.backward.reference",
        "cdv.roundtrip.forward_backward", "cdv.roundtrip.backward_forward",
        "cdv.identity_values", "cdv.homogeneous",
    ),
    "vectorfields": (
        "fields.matrix.reference", "fields.brackets.left",
        "fields.brackets.right", "fields.brackets.cross",
        "fields.big_cell.reference", "fields.big_cell.roundtrip",
        "fields.homogeneous",
    ),
    "d0": (
        "partials.reference", "partials.action", "d0.reference",
        "d0.polynomial", "d0.monomial_action", "d0.nilpotency", "d0.euler",
    ),
    "twists": (
        "twists.corrections", "twists.regular.big_cell",
        "twists.regular.bminusb", "twists.nilpotency",
        "twists.section_example", "twists.descent_example",
        "twists.operator_identity", "twists.bracket_table",
    ),
    "casimir": (
        "casimir.centrality", "casimir.routes_agree", "casimir.eigenvalue",
        "casimir.chi_values", "casimir.alpha_free", "casimir.lemma_operator",
    ),
    "cases": (
        "cases.case1.symbolic", "cases.case2b.engine_form",
        "cases.case2b.displayed_form", "cases.case2a.engine_form",
        "cases.case2b.interpolation", "cases.case2.grid", "cases.case3a.grid",
        "cases.case3b.grid", "cases.case4.scalar", "cases.signs",
        "cases.certificates_small",
    ),
    "conics": (
        "conics.membership", "conics.boundary_rank", "conics.roundtrip",
        "conics.regular", "conics.monomial_action", "conics.nilpotency",
        "conics.euler", "conics.brackets", "conics.twisted",
    ),
}

EXPECTED_STATUS = {
    check_id: ("mismatch-reported" if check_id in MISMATCH_REPORTED else "pass")
    for ids in CHECK_IDS.values() for check_id in ids
}

# Degree bounds of the case-2b interpolation check, and its extra samples.
INTERPOLATION_DEGREES = (1, 3, 3, 4)
INTERPOLATION_EXTRA = 3


def weight_at(lam, m1, m2):
    return lam[1] - 2 * m1 + m2, lam[0] + m1 - 2 * m2


def grid_scalar_counts(grid: int) -> dict[str, int]:
    """Case scalars the grid checks of ``verify cases --grid`` evaluate."""
    case2 = case3a = case3b = 0
    for l1, l2, m1, m2 in itertools.product(range(grid + 1), repeat=4):
        nu1, nu2 = weight_at((l1, l2), m1, m2)
        case2 += 1
        case3a += nu1 >= 2
        case3b += nu2 >= 2
    nodes = 1
    for d in INTERPOLATION_DEGREES:
        nodes *= d + 1
    return {"cases.case2.grid": case2, "cases.case3a.grid": case3a,
            "cases.case3b.grid": case3b,
            "cases.case2b.interpolation": nodes + INTERPOLATION_EXTRA}


def draw_lambdas(seed: int) -> list[tuple[int, int]]:
    """The weights of one ``certify_sweep`` pass: each once, seeded order."""
    return random.Random(f"certify_sweep/{seed}").sample(LAMBDAS, len(LAMBDAS))


def pass_commands(workload: str, seed: int, outdir: str, lams=(),
                  jobs: int = GRID_JOBS) -> list[tuple[str, list[str], str]]:
    """(label, argv, json path) for each CLI call of one pass."""
    if workload == "verify_symbolic":
        return [(suite, ["verify", suite, "--json", path], path)
                for suite in SYMBOLIC_SUITES
                for path in [os.path.join(outdir, f"verify-{suite}.json")]]
    if workload == "verify_grids":
        path = os.path.join(outdir, "verify-cases.json")
        return [("cases", ["verify", "cases", "--jobs", str(jobs), "--grid",
                           str(GRID), "--seed", str(seed), "--json", path],
                 path)]
    if workload == "certify_sweep":
        out = []
        for l1, l2 in lams:
            path = os.path.join(outdir, f"certify-{l1}-{l2}.json")
            out.append((lambda_key((l1, l2)),
                        ["certify", "--lambda", str(l1), str(l2), "--json",
                         path], path))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def lambda_key(lam) -> str:
    return f"{lam[0]},{lam[1]}"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def expected_ops(workload: str, expected: dict, lams=()) -> int:
    """Operations one pass attempts: checks, or certificate edges."""
    if workload == "verify_symbolic":
        return sum(len(CHECK_IDS[s]) for s in SYMBOLIC_SUITES)
    if workload == "verify_grids":
        return len(CHECK_IDS["cases"])
    return sum(expected["certify"][lambda_key(lam)]["edges"] for lam in lams)


def pass_items(workload: str, ops: int) -> int:
    """Work items behind ``items_per_s``: checks, grid scalars or edges."""
    if workload == "verify_grids":
        return sum(grid_scalar_counts(GRID).values())
    return ops
