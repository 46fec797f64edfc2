"""Exact symbolic engine for the global twisted differential operators on the
wonderful compactification of PGL3, with machine-checkable irreducibility
certificates for the spaces of global sections.

Layers:

* :mod:`pgl3dops.ring`    -- exact rationals, sparse polynomials, fractions;
* :mod:`pgl3dops.weyl`    -- differential operators on charts, transport,
  power sections whose exponents are parameter polynomials;
* :mod:`pgl3dops.pgl3`    -- the group compactification model (charts, the
  infinitesimal action, the global order-2 operator, twists, Casimir);
* :mod:`pgl3dops.conics`  -- the complete-conics analogue;
* :mod:`pgl3dops.certify` -- dominant supports and generation certificates;
* :mod:`pgl3dops.checks`  -- registered verification suites and concordance;
* :mod:`pgl3dops.cli`     -- the command-line front end.
"""

from .ring import Poly, RatFunc, VarTable, parse_ratfunc
from .weyl import (Chart, ChartMap, DiffOp, PowerSection,
                   ad_nilpotency_depth, commutator, conjugate,
                   express_as_multiple, op_apply, op_apply_section,
                   op_compose, parse_operator, regular_on, transport)

__version__ = "0.1.0"

__all__ = [
    "Chart", "ChartMap", "DiffOp", "Poly", "PowerSection",
    "RatFunc", "VarTable", "ad_nilpotency_depth", "commutator", "conjugate",
    "express_as_multiple", "op_apply", "op_apply_section", "op_compose",
    "parse_operator", "parse_ratfunc", "regular_on", "transport",
]
