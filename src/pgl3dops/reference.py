"""Reference display forms that the engine's derivations are checked against.

These are the formulas as displayed in the classical reference treatment of
this construction, transcribed verbatim (including their typos).  The
concordance report compares each of them with the engine-derived form; a
mismatch, once the engine form has passed its independent validation
(round trips, bracket tables, eigenvalue checks, sampled re-evaluation),
indicates a typo in the display rather than an engine defect.
"""

from __future__ import annotations

from .pgl3 import BIG, BIG_TABLE, MATRIX, MATRIX_TABLE
from .ring import parse_ratfunc
from .weyl import parse_operator

# -- change of variables: big-cell coordinates as fractions of matrix entries --------
# Delta = det g, Delta_ij = minor with row i, column j deleted.

CDV_FORWARD = {
    "a1": "g33 * (g11*g22*g33 + g12*g23*g31 + g13*g21*g32 - g13*g22*g31"
          " - g11*g23*g32 - g12*g21*g33) / (g22*g33 - g23*g32)^2",
    "a2": "(g22*g33 - g23*g32) / g33^2",
    "U12": "(g12*g33 - g13*g32) / (g22*g33 - g23*g32)",
    "U21": "(g21*g33 - g23*g31) / (g22*g33 - g23*g32)",
    "U13": "g13 / g33",
    "U31": "g31 / g33",
    "U23": "g23 / g33",
    "U32": "g32 / g33",
}

# the reciprocal list: ratios g_ij/g33 in big-cell coordinates; the last line
# is displayed as U23 (the engine derives U32 there)
CDV_BACKWARD = {
    "g11": "a1*a2 + a2*U12*U21 + U13*U31",
    "g12": "a2*U12 + U13*U32",
    "g13": "U13",
    "g21": "a2*U21 + U23*U31",
    "g22": "a2 + U23*U32",
    "g23": "U23",
    "g31": "U31",
    "g32": "U23",
}

# -- infinitesimal action, matrix chart (left factor), as displayed -------------------

FIELDS_MATRIX_LEFT = {
    "Y1": "-g11 * d/dg21 - g12 * d/dg22 - g13 * d/dg23",
    "Y2": "-g21 * d/dg31 - g22 * d/dg32 - g23 * d/dg33",
    "Y3": "-g31 * d/dg21 - g12 * d/dg32 - g13 * d/dg33",
    "X1": "-g21 * d/dg11 - g22 * d/dg12 - g23 * d/dg13",
    "X2": "-g31 * d/dg21 - g32 * d/dg22 - g33 * d/dg23",
    "X3": "-g31 * d/dg11 - g32 * d/dg12 - g33 * d/dg13",
    "H1": "-g11 * d/dg11 - g12 * d/dg12 - g13 * d/dg13"
          " + g21 * d/dg21 + g22 * d/dg22 + g23 * d/dg23",
    "H2": "-g21 * d/dg21 - g22 * d/dg22 - g23 * d/dg23"
          " + g31 * d/dg31 + g32 * d/dg32 + g33 * d/dg33",
}
# engine-verified corrected form of Y3 (coefficient of d/dg_ij is -(E31 g)_ij):
# the display's first term -g31 * d/dg21 is a typo for -g11 * d/dg31; the
# other two terms and the seven other fields are displayed correctly
FIELD_MATRIX_LEFT_Y3_ENGINE = "-g11 * d/dg31 - g12 * d/dg32 - g13 * d/dg33"

# -- infinitesimal action, big cell (left factor), as displayed ------------------------

FIELDS_BIG_LEFT = {
    "Y1": "2*U12*a1 * d/da1 - U12*a2 * d/da2"
          " - U13 * d/dU23 - U12^2 * d/dU12 - a1 * d/dU21",
    "Y2": "-U23*a1 * d/da1 + 2*U23*a2 * d/da2"
          " + (U13 - U12*U23) * d/dU12 + U23^2 * d/dU23 - U13*U23 * d/dU13"
          " - a2*U21 * d/dU31 - a2 * d/dU32",
    "Y3": "(U13 - 2*U13*U32)*a1 * d/da1 + (U13 + U12*U23)*a2 * d/da2"
          " + (U13 - U12*U23)*U12 * d/dU12 + U13*U23 * d/dU23 + U13^2 * d/dU13"
          " + a1*U23 * d/dU21 - a2*U12 * d/dU32 - a2*U12*U21 * d/dU31"
          " - a1*a2 * d/dU31",
    "X1": "-d/dU12 - U23 * d/dU13",
    "X2": "-d/dU23",
    "X3": "-d/dU13",
}

# -- boundary derivations, as displayed -------------------------------------------------

PARTIAL_A1 = "((g22*g33 - g23*g32) / g33) * d/dg11"
PARTIAL_A2 = ("((g11*g33 - g13*g31) * g33 / (g22*g33 - g23*g32)) * d/dg11"
              " + g33 * d/dg22"
              " + ((g12*g33 - g13*g32) * g33 / (g22*g33 - g23*g32)) * d/dg12"
              " + ((g21*g33 - g23*g31) * g33 / (g22*g33 - g23*g32)) * d/dg21")

# the displayed expansion of the order-2 global operator:
# d/dg11 ( Delta22 d/dg11 + Delta11 d/dg22 + Delta21 d/dg12 + Delta12 d/dg21 )
ORDER2_FACTORS = ("d/dg11",
                  "(g11*g33 - g13*g31) * d/dg11 + (g22*g33 - g23*g32) * d/dg22"
                  " + (g12*g33 - g13*g32) * d/dg12 + (g21*g33 - g23*g31) * d/dg21")

# -- twisted corrections, as displayed ---------------------------------------------------

TWIST_CORRECTIONS = {
    "Y1": "-lam2*U12",
    "Y2": "-lam1*U23",
    "Y3": "-lam1*U13 + lam2*(U12*U23 - U13)",
    "X1": "0",
    "X2": "0",
    "X3": "0",
}

# -- case scalars, as displayed ----------------------------------------------------------
# texts over the parameters; nu1, nu2 are substituted by their expressions in
# (lam, m) before comparing

CASE1_SCALAR = "m1*m2"
CASE2B_SCALAR_DISPLAYED = "-(m2/3)*((m1 + nu1)*(nu1 + 1) + nu1)"
# engine-verified corrected form (the display's middle factor (nu1+1) should
# read nu1; the mirrored 2a variant is only cited as "likewise")
CASE2B_SCALAR_ENGINE = "-(m2/3)*nu1*(m1 + nu1 + 1)"
CASE3A_SCALAR_DISPLAYED = (
    "-(2/243)*(nu2+3)*(nu1+m1+1)*(nu1+nu2+1)*(nu1+nu2+m2+2)"
    "*(2*nu1+nu2+3)*nu1*(nu1-1)")
CASE4_SCALAR = "-(2/3)*(m1+4)*(m2+4)"

CHI_TEXT = "(nu1 + nu2)/3 + (nu1^2 + nu1*nu2 + nu2^2)/9"


def op_matrix(text: str):
    return parse_operator(text, MATRIX)


def op_big(text: str):
    return parse_operator(text, BIG)


def rf_matrix(text: str):
    return parse_ratfunc(text, MATRIX_TABLE)


def rf_big(text: str):
    return parse_ratfunc(text, BIG_TABLE)
