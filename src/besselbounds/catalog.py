r"""Immutable catalog of two-sided bounds for modified-Bessel quantities.

Each entry is one inequality for one derived quantity (normalised
Turanians phiI/phiK/phiP, log-derivatives y/z, consecutive-order ratios,
and the application quantities b2hat, veff, ns).  Entries carry:

* a closed-form formula in (nu, x, mu) with its printable string,
* a domain predicate (total on the supported box: singular denominators,
  logs and square roots are pre-rejected by the guard, and so is tiny x where
  a bound with a pole at x = 0 overflows),
* a status flag: ``proved`` entries must never be violated by the
  reference evaluator anywhere in their domain (the master test),
  ``conjecture`` and ``refuted`` entries are probed but never trusted,
* strictness, and sharpness tags (``sharp_at``), each naming a limit, its
  sense and the order it is checked at: ``"x->inf rel nu=1"`` (the relative
  error tends to 0 as x grows), ``"x->inf abs nu=1"`` (only the absolute
  error does), ``"x->0 nu=2"`` (the relative error tends to 0 as x -> 0) and
  ``"nu=1/2"`` (equality at that order).  They are the one record of
  sharpness: the harness checks each tag of a proved entry once.

Domains tightened relative to their classical statements are flagged via
``guard_note``; the headline cases are the phiI lower/upper families,
whose stated extension to -1 <= nu < 0 is numerically false near x = 0
(the x->0 limit of phiI is 1/(nu+1), which the bound formulas overshoot
for nu < 0), so those entries are guarded to nu >= 0.

The radicand x^2 + mu of the sqrt(x^2 + mu) bounds and their guards is formed
by ``_radicand`` alone: a change to how it rounds near |nu| = 1/2, where it
cancels at small x (an open ROADMAP item), is one edit there.

``CATALOG`` is the one source of entries.  Point queries scan a view of it
built at import (_BY_QUANTITY): for each quantity, its entries in declaration
order, and from them its proved lower and its proved upper entries, each side
in declaration order.  ``ids`` and ``applicable`` walk the
entries, ``best_bounds`` only the two proved sides.  The three point queries
(``evaluate_bound``, ``applicable``, ``best_bounds``) test x once per call: at
an x that is not positive and finite no entry applies, whatever its guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Callable, NamedTuple

from .core import QuantityKind

__all__ = [
    "Side",
    "Status",
    "BoundSpec",
    "BoundEvaluation",
    "UnknownBoundError",
    "CATALOG",
    "get",
    "ids",
    "evaluate_bound",
    "applicable",
    "best_bounds",
    "catalog_rows",
]

Side = str  # "lower" | "upper"
Status = str  # "proved" | "conjecture" | "refuted"


class UnknownBoundError(KeyError):
    """No catalog entry with the requested id."""


@dataclass(frozen=True)
class BoundSpec:
    """One cataloged inequality for a derived quantity."""

    id: str
    quantity: QuantityKind
    side: Side
    status: Status
    domain: Callable[[float, float], bool]
    domain_str: str
    formula: Callable[[float, float], float]
    formula_str: str
    strictness: str = "strict"
    sharp_at: tuple[str, ...] = ()
    note: str = ""
    guard_note: str | None = None


@dataclass(frozen=True, slots=True, init=False)
class BoundEvaluation:
    """Formula value of one entry at one point (NaN when inapplicable)."""

    id: str
    value: float
    applicable: bool
    status: Status
    side: Side
    quantity: QuantityKind

    def __init__(self, id: str, value: float, applicable: bool, status: Status, side: Side,
                 quantity: QuantityKind):
        _set_id(self, id)
        _set_value(self, value)
        _set_applicable(self, applicable)
        _set_status(self, status)
        _set_side(self, side)
        _set_quantity(self, quantity)


# BoundEvaluation, built per query, writes each frozen field once through its slot
(_set_id, _set_value, _set_applicable, _set_status, _set_side,
 _set_quantity) = (getattr(BoundEvaluation, f.name).__set__ for f in fields(BoundEvaluation))


def _radicand(nu: float, x: float) -> float:
    # x^2 + mu, mu = nu^2 - 1/4, in the one rounding order of every bound and guard
    return x * x + nu * nu - 0.25


# A bound with a pole at x = 0 overflows double precision at tiny x: one of
# order 1/x (coefficients up to 2 nu + 1 <= 41 on the box) below about 1e-307,
# of order 1/x^2 below about 1e-154, of order 1/x^3 below about 1e-102.  Guards
# admit such a bound only at or above the floor of its order: x >= 1e-300,
# 1e-150 or 1e-100, or, where only some orders have the pole, only at those
# orders (at |nu| = 1/2, say) or where its denominator is >= 1e-300.
_POLE_NOTE = "x floor added: the bound has a pole at x = 0 and overflows double precision below it"


def _hyp_plus_over_x(s: float, x: float) -> float:
    # (s + sqrt(x^2 + s^2))/x; for s < 0 the sum cancels at small x and is
    # formed as x^2/(sqrt(x^2 + s^2) - s)
    h = math.hypot(x, s)
    return (s + h) / x if s >= 0.0 else x / (h - s)


def _turan18_lower(nu: float, x: float) -> float:
    # -2/(a + sqrt(x^2 + a^2)), a = |nu| - 1, the sum formed as in
    # _hyp_plus_over_x for a < 0, x divided out one factor at a time
    a = abs(nu) - 1.0
    h = math.hypot(x, a)
    return -2.0 / (a + h) if a >= 0.0 else -2.0 * ((h - a) / x) / x


def _entries() -> list[BoundSpec]:
    Q = QuantityKind
    e: list[BoundSpec] = []

    def add(id, quantity, side, status, domain, domain_str, formula, formula_str,
            strictness="strict", sharp_at=(), note="", guard_note=None):
        e.append(BoundSpec(id, quantity, side, status, domain, domain_str,
                           formula, formula_str, strictness, tuple(sharp_at), note, guard_note))

    # ---- normalised Turanian of I: phiI ------------------------------------
    add("turan1_lower", Q.PHI_I, "lower", "proved",
        lambda nu, x: nu > -1.0, "nu > -1",
        lambda nu, x: 0.0, "0",
        sharp_at=("x->inf abs nu=1",), note="constant 0 is best possible")
    add("turan1_upper", Q.PHI_I, "upper", "proved",
        lambda nu, x: nu > -1.0, "nu > -1",
        lambda nu, x: 1.0 / (nu + 1.0), "1/(nu+1)",
        sharp_at=("x->0 nu=1",), note="constant 1/(nu+1) is best possible")
    add("turan8_lower", Q.PHI_I, "lower", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: 1.0 / (nu + 0.5 + math.hypot(x, nu + 0.5)),
        "1/(nu+1/2+sqrt(x^2+(nu+1/2)^2))",
        sharp_at=("x->inf rel nu=1",),
        guard_note="stated range nu >= -1 fails on -1 <= nu < 0 near x = 0 "
                   "(bound exceeds the x->0 limit 1/(nu+1)); guarded to nu >= 0")
    add("turan8_upper", Q.PHI_I, "upper", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: 2.0 / (nu + 1.0 + math.hypot(x, nu + 1.0)),
        "2/(nu+1+sqrt(x^2+(nu+1)^2))",
        sharp_at=("x->0 nu=1", "x->inf abs nu=1"),
        guard_note="stated range nu > -1 fails on -1 < nu < 0 near x = 0; guarded to nu >= 0")
    add("turan9_lower", Q.PHI_I, "lower", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: 1.0 / (x + 2.0 * nu + 1.0), "1/(x+2nu+1)",
        sharp_at=("x->inf rel nu=0",),
        guard_note="stated range nu >= -1 is singular at x = -(2nu+1) and fails "
                   "for nu < 0 near x = 0; guarded to nu >= 0")
    add("turan9_upper", Q.PHI_I, "upper", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: 2.0 / (x + nu + 1.0), "2/(x+nu+1)",
        sharp_at=("x->inf abs nu=1",),
        guard_note="stated range nu >= -1 fails at e.g. nu = -3/4, x = 1/2; guarded to nu >= 0")
    add("turan10_upper", Q.PHI_I, "upper", "proved",
        lambda nu, x: nu >= 0.0 and x + nu >= 1e-300, "nu >= 0 and x+nu >= 1e-300",
        lambda nu, x: 2.0 / (x + nu), "2/(x+nu)",
        note="corrected form of the refuted joshi_turan7 (factor 2)", guard_note=_POLE_NOTE)
    add("turan11_upper", Q.PHI_I, "upper", "proved",
        lambda nu, x: nu >= 0.5 and x >= 1e-300, "nu >= 1/2 and x >= 1e-300",
        lambda nu, x: 1.0 / x, "1/x",
        sharp_at=("x->inf rel nu=1",), note="equivalent to b2hat < -1 for nu >= 1/2", guard_note=_POLE_NOTE)
    add("turan16_lower", Q.PHI_I, "lower", "proved",
        lambda nu, x: nu >= -0.5, "nu >= -1/2",
        lambda nu, x: ((nu + 0.5) / (nu + 1.0)) / math.hypot(x, nu + 0.5),
        "((nu+1/2)/(nu+1))/sqrt(x^2+(nu+1/2)^2)",
        sharp_at=("x->0 nu=1", "x->inf abs nu=1"))
    add("turan16_upper", Q.PHI_I, "upper", "proved",
        # x^2 + nu^2 - 1/4 rounds to 0 at nu = 1/2 below x ~ 1e-8: the guard
        # admits only points where the formula's radicand is positive
        lambda nu, x: nu >= 0.5 and _radicand(nu, x) > 0.0, "nu >= 1/2",
        lambda nu, x: 1.0 / math.sqrt(_radicand(nu, x)),
        "1/sqrt(x^2+nu^2-1/4)",
        sharp_at=("x->inf rel nu=1",), note="tighter than 1/x for nu > 1/2")
    add("turanconj_lower", Q.PHI_I, "lower", "conjecture",
        lambda nu, x: nu >= -0.5, "nu >= -1/2",
        lambda nu, x: 1.0 / math.hypot(x, nu + 1.0), "1/sqrt(x^2+(nu+1)^2)",
        sharp_at=("x->0 nu=1", "x->inf rel nu=1"),
        note="equivalent to lambda = y - sqrt(x^2+(nu+1)^2) being increasing")
    add("joshi_turan7", Q.PHI_I, "upper", "refuted",
        lambda nu, x: nu >= 0.0 and x + nu >= 1e-300, "nu >= 0 and x+nu >= 1e-300",
        lambda nu, x: 1.0 / (x + nu), "1/(x+nu)",
        note="reversed on roughly 1/2 <= x <= nu(nu+1); witness at nu=2, x=3", guard_note=_POLE_NOTE)

    # ---- log-derivative of I: y --------------------------------------------
    add("turan3_upper", Q.Y, "upper", "proved",
        lambda nu, x: nu > -1.0, "nu > -1",
        lambda nu, x: math.hypot(x, nu), "sqrt(x^2+nu^2)")
    add("turan13_lower", Q.Y, "lower", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: x - 0.5, "x-1/2",
        sharp_at=("x->inf rel nu=1",))
    add("turan14_lower", Q.Y, "lower", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: math.hypot(x, nu - 0.5) - 0.5, "sqrt(x^2+(nu-1/2)^2)-1/2",
        sharp_at=("x->inf rel nu=1",))
    add("turan15_lower", Q.Y, "lower", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: math.sqrt(_radicand(nu, x)) - 0.5,
        "sqrt(x^2+nu^2-1/4)-1/2",
        sharp_at=("x->inf rel nu=1",))
    add("tuseg_lower", Q.Y, "lower", "proved",
        lambda nu, x: nu >= -1.0, "nu >= -1",
        lambda nu, x: math.hypot(x, nu + 1.0) - 1.0, "sqrt(x^2+(nu+1)^2)-1",
        sharp_at=("x->0 nu=1", "x->inf rel nu=1"))
    add("tuseg_upper", Q.Y, "upper", "proved",
        lambda nu, x: nu >= -0.5, "nu >= -1/2",
        lambda nu, x: math.hypot(x, nu + 0.5) - 0.5, "sqrt(x^2+(nu+1/2)^2)-1/2",
        sharp_at=("x->0 nu=1", "x->inf rel nu=1"))
    add("ylog_lower", Q.Y, "lower", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: x + nu + (2.0 * nu + 1.0) * math.log((2.0 * nu + 1.0) / (x + 2.0 * nu + 1.0)),
        "x+nu+(2nu+1)*log((2nu+1)/(x+2nu+1))",
        sharp_at=("x->0 nu=1",),
        guard_note="integrated form of turan9_lower; inherits its nu >= 0 guard "
                   "(fails for nu < 0 near x = 0)")
    add("ylog_upper", Q.Y, "upper", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: 2.0 * x + nu + 2.0 * (nu + 1.0) * math.log((nu + 1.0) / (x + nu + 1.0)),
        "2x+nu+2(nu+1)*log((nu+1)/(x+nu+1))",
        sharp_at=("x->0 nu=1",),
        guard_note="integrated form of turan9_upper; inherits its nu >= 0 guard "
                   "(fails near nu = -1, e.g. nu = -0.999, x = 0.18)")
    add("gro_lower", Q.Y, "lower", "proved",
        lambda nu, x: nu >= 0.5 and x * x <= 2.0 * nu ** 3 * (nu + math.hypot(nu, 1.0)),
        "nu >= 1/2 and x^2 <= 2 nu^3 (nu + sqrt(nu^2+1))",
        lambda nu, x: math.hypot(x, nu) - (x * x + 2.0 * nu * nu) / (2.0 * x * x + 2.0 * nu * nu),
        "sqrt(x^2+nu^2)-(x^2+2nu^2)/(2x^2+2nu^2)",
        note="restricted domain: proved only inside the stated x-range")
    add("turanconj2_upper", Q.Y, "upper", "conjecture",
        lambda nu, x: nu >= -0.5, "nu >= -1/2",
        lambda nu, x: math.hypot(x, nu + 1.0)
        - 0.5 * (x * x + 2.0 * (nu + 1.0) ** 2) / (x * x + (nu + 1.0) ** 2),
        "sqrt(x^2+(nu+1)^2)-(x^2+2(nu+1)^2)/(2(x^2+(nu+1)^2))",
        note="would imply turanconj_lower")

    # ---- consecutive-order ratios ------------------------------------------
    add("turan5_lower", Q.I_RATIO, "lower", "proved",
        lambda nu, x: nu >= 0.0, "nu >= 0",
        lambda nu, x: _hyp_plus_over_x(-nu, x), "(-nu+sqrt(x^2+nu^2))/x",
        note="equivalent to turan3_upper")
    add("turan5p_upper", Q.K_RATIO, "upper", "proved",
        lambda nu, x: nu <= 0.0 or x >= 1e-300, "nu <= 0 or x >= 1e-300",
        _hyp_plus_over_x, "(nu+sqrt(x^2+nu^2))/x",
        note="equivalent to turan4_upper", guard_note=_POLE_NOTE)

    # ---- normalised Turanian of K: phiK ------------------------------------
    add("turan2_lower", Q.PHI_K, "lower", "proved",
        lambda nu, x: abs(nu) > 1.0, "|nu| > 1",
        lambda nu, x: 1.0 / (1.0 - abs(nu)), "1/(1-|nu|)",
        sharp_at=("x->0 nu=2",), note="constant 1/(1-|nu|) is the x->0 limit")
    add("turan2_upper", Q.PHI_K, "upper", "proved",
        lambda nu, x: abs(nu) > 1.0, "|nu| > 1",
        lambda nu, x: 0.0, "0")
    add("turan18_lower", Q.PHI_K, "lower", "proved",
        lambda nu, x: abs(nu) > 1.0 or abs(nu) >= 0.5 and x >= 1e-150,
        "|nu| > 1 or (|nu| >= 1/2 and x >= 1e-150)",
        _turan18_lower,
        "-2/(|nu|-1+sqrt(x^2+(|nu|-1)^2))",
        sharp_at=("x->0 nu=2", "x->inf abs nu=1"), guard_note=_POLE_NOTE)
    add("turan18_upper", Q.PHI_K, "upper", "proved",
        lambda nu, x: abs(nu) > 0.5 or abs(nu) == 0.5 and x >= 1e-300,
        "|nu| > 1/2 or (|nu| = 1/2 and x >= 1e-300)",
        lambda nu, x: -1.0 / (abs(nu) - 0.5 + math.hypot(x, abs(nu) - 0.5)),
        "-1/(|nu|-1/2+sqrt(x^2+(|nu|-1/2)^2))",
        sharp_at=("x->inf rel nu=1",), guard_note=_POLE_NOTE)
    add("turan19_lower", Q.PHI_K, "lower", "proved",
        lambda nu, x: abs(nu) >= 0.5 and x + abs(nu) - 1.0 > 0.0,
        "|nu| >= 1/2 and x+|nu|-1 > 0",
        lambda nu, x: -2.0 / (x + abs(nu) - 1.0), "-2/(x+|nu|-1)",
        guard_note="x+|nu|-1 > 0 added: the formula is singular/sign-flipped "
                   "at x <= 1-|nu| for 1/2 <= |nu| < 1")
    add("turan19_upper", Q.PHI_K, "upper", "proved",
        # x + (2|nu| - 1): the sum has no cancellation at |nu| = 1/2
        lambda nu, x: abs(nu) > 0.5 or abs(nu) == 0.5 and x >= 1e-300,
        "|nu| > 1/2 or (|nu| = 1/2 and x >= 1e-300)",
        lambda nu, x: -1.0 / (x + (2.0 * abs(nu) - 1.0)), "-1/(x+2|nu|-1)",
        sharp_at=("x->inf rel nu=1",), guard_note=_POLE_NOTE)
    add("turan20_lower", Q.PHI_K, "lower", "proved",
        lambda nu, x: abs(nu) >= 0.5 and x >= 1e-300, "|nu| >= 1/2 and x >= 1e-300",
        lambda nu, x: -1.0 / x, "-1/x",
        strictness="non-strict", sharp_at=("x->inf rel nu=2", "nu=1/2"),
        note="equality at |nu| = 1/2", guard_note=_POLE_NOTE)
    add("turan20_upper", Q.PHI_K, "upper", "proved",
        lambda nu, x: abs(nu) >= 0.5 and x >= 1e-100, "|nu| >= 1/2 and x >= 1e-100",
        lambda nu, x: -(1.0 - (nu * nu - 0.25) / (x * x)) / x, "-(1-mu/x^2)/x",
        strictness="non-strict", sharp_at=("x->inf rel nu=2", "nu=1/2"),
        note="equality at |nu| = 1/2", guard_note=_POLE_NOTE)
    add("turan21_lower", Q.PHI_K, "lower", "proved",
        lambda nu, x: abs(nu) < 0.5 and x >= 1e-100, "|nu| < 1/2 and x >= 1e-100",
        lambda nu, x: -(1.0 - (nu * nu - 0.25) / (x * x)) / x, "-(1-mu/x^2)/x",
        sharp_at=("x->inf rel nu=0",), note="turan20_upper reversed for |nu| < 1/2",
        guard_note=_POLE_NOTE)
    add("turan21_upper", Q.PHI_K, "upper", "proved",
        lambda nu, x: abs(nu) < 0.5 and x >= 1e-300, "|nu| < 1/2 and x >= 1e-300",
        lambda nu, x: -1.0 / x, "-1/x",
        sharp_at=("x->inf rel nu=0",), note="turan20_lower reversed for |nu| < 1/2",
        guard_note=_POLE_NOTE)
    add("turan23_lower", Q.PHI_K, "lower", "proved",
        # x^2 + mu can round to 0 (or below) just above x = sqrt(-mu); the
        # guard admits only points where the formula's radicand is positive
        lambda nu, x: (abs(nu) <= 0.5 and x > math.sqrt(0.25 - nu * nu)
                       and _radicand(nu, x) > 0.0),
        "|nu| <= 1/2 and x > sqrt(-mu)",
        lambda nu, x: -(4.0 / math.pi) * (
            math.acos(math.sqrt(0.25 - nu * nu) / x) / (2.0 * math.sqrt(_radicand(nu, x)))
            + math.sqrt(0.25 - nu * nu) / (2.0 * x * x)),
        "-(4/pi)*[arccos(sqrt(-mu)/x)/(2*sqrt(x^2+mu)) + sqrt(-mu)/(2x^2)]",
        strictness="non-strict", sharp_at=("x->inf rel nu=0", "nu=1/2"),
        note="tightens turan21_lower; equality at |nu| = 1/2")
    add("turan24_upper", Q.PHI_K, "upper", "proved",
        # the radicand rounds to 0 at |nu| = 1/2 below x ~ 1e-8 (as in turan16_upper)
        lambda nu, x: abs(nu) >= 0.5 and _radicand(nu, x) > 0.0, "|nu| >= 1/2",
        lambda nu, x: -1.0 / math.sqrt(_radicand(nu, x)), "-1/sqrt(x^2+mu)",
        strictness="non-strict", sharp_at=("x->inf rel nu=2", "nu=1/2"),
        note="tightens turan20_upper for |nu| > 1/2 and turan18_upper for |nu| >= 3/2")
    add("turan25_upper", Q.PHI_K, "upper", "proved",
        lambda nu, x: x + abs(nu) >= 1e-300, "x+|nu| >= 1e-300",
        lambda nu, x: -1.0 / math.hypot(x, nu), "-1/sqrt(x^2+nu^2)",
        strictness="non-strict", sharp_at=("x->inf rel nu=1",),
        note="weaker than turan24_upper for |nu| >= 1/2 but valid for every order",
        guard_note=_POLE_NOTE)

    # ---- log-derivative of K: z --------------------------------------------
    add("turan4_upper", Q.Z, "upper", "proved",
        lambda nu, x: True, "all nu",
        lambda nu, x: -math.hypot(x, nu), "-sqrt(x^2+nu^2)")
    add("turan22_lower", Q.Z, "lower", "proved",
        lambda nu, x: abs(nu) >= 0.5, "|nu| >= 1/2",
        lambda nu, x: -math.sqrt(_radicand(nu, x)) - 0.5, "-sqrt(x^2+mu)-1/2",
        strictness="non-strict", sharp_at=("x->inf rel nu=1", "nu=1/2"),
        note="equality at |nu| = 1/2 where z = -x-1/2")
    add("paltsev_lower", Q.Z, "lower", "proved",
        lambda nu, x: True, "all nu",
        lambda nu, x: -math.hypot(x, nu) - 0.5, "-sqrt(x^2+nu^2)-1/2",
        sharp_at=("x->inf rel nu=1",))
    add("segura74_lower", Q.Z, "lower", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: -math.hypot(x, nu + 0.5) - 0.5, "-sqrt(x^2+(nu+1/2)^2)-1/2",
        note="order range not restated by the source; guarded conservatively to nu >= 1/2",
        guard_note="conservative order guard nu >= 1/2")
    add("segura75_upper", Q.Z, "upper", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: -math.hypot(x, nu - 0.5) - 0.5, "-sqrt(x^2+(nu-1/2)^2)-1/2",
        strictness="non-strict", sharp_at=("nu=1/2",),
        note="equality at nu = 1/2")
    add("zint_upper", Q.Z, "upper", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: -math.sqrt(_radicand(nu, x)) + math.sqrt(nu * nu - 0.25) - nu,
        "-sqrt(x^2+mu)+sqrt(mu)-nu",
        strictness="non-strict", sharp_at=("x->0 nu=1", "nu=1/2"),
        note="integrated form of turan24_upper; tighter than turan4_upper")
    add("zlog_lower", Q.Z, "lower", "proved",
        lambda nu, x: abs(nu) > 1.0, "|nu| > 1",
        lambda nu, x: -2.0 * x - abs(nu) + 2.0 * (abs(nu) - 1.0) * math.log1p(x / (abs(nu) - 1.0)),
        "-2x-|nu|+2(|nu|-1)*log(1+x/(|nu|-1))",
        sharp_at=("x->0 nu=2",),
        guard_note="|nu| > 1 added: the log coefficient is undefined/sign-flipped "
                   "for |nu| <= 1")
    add("zlog_upper", Q.Z, "upper", "proved",
        lambda nu, x: abs(nu) >= 0.5, "|nu| >= 1/2",
        lambda nu, x: -x - abs(nu) + (
            (2.0 * abs(nu) - 1.0) * math.log1p(x / (2.0 * abs(nu) - 1.0))
            if 2.0 * abs(nu) - 1.0 > 1e-12 else 0.0),
        "-x-|nu|+(2|nu|-1)*log(1+x/(2|nu|-1))",
        strictness="non-strict", sharp_at=("x->0 nu=1", "nu=1/2"),
        note="value at |nu| = 1/2 defined by continuity as -x-1/2 (equality there)")

    # ---- normalised Turanian of the product: phiP ---------------------------
    add("turan26_lower", Q.PHI_P, "lower", "proved",
        # the radicand rounds to 0 at nu = 1/2 below x ~ 1e-8 (as in turan16_upper)
        lambda nu, x: nu >= 0.5 and x >= 1e-300 and _radicand(nu, x) > 0.0,
        "nu >= 1/2 and x >= 1e-300",
        lambda nu, x: (
            ((x - (nu + 0.5) - math.hypot(x, nu + 0.5)) * math.sqrt(_radicand(nu, x)) + x)
            / (x * math.sqrt(_radicand(nu, x)) * (nu + 0.5 + math.hypot(x, nu + 0.5)))),
        "([x-(nu+1/2)-sqrt(x^2+(nu+1/2)^2)]*sqrt(x^2+mu)+x)"
        "/(x*sqrt(x^2+mu)*[nu+1/2+sqrt(x^2+(nu+1/2)^2)])",
        sharp_at=("x->inf abs nu=1",), guard_note=_POLE_NOTE)
    add("turan26_upper", Q.PHI_P, "upper", "proved",
        lambda nu, x: nu >= 0.5 and x >= 1e-300 and _radicand(nu, x) > 0.0,
        "nu >= 1/2 and x >= 1e-300",
        lambda nu, x: 1.0 / (x * math.sqrt(_radicand(nu, x))), "1/(x*sqrt(x^2+mu))",
        sharp_at=("x->inf rel nu=1",), guard_note=_POLE_NOTE)

    # ---- application-level bounds -------------------------------------------
    add("b2hat_upper", Q.B2HAT, "upper", "proved",
        lambda nu, x: nu > 0.0 and x >= 1e-300, "nu > 0 and x >= 1e-300",
        lambda nu, x: -(x + nu) / (2.0 * x), "-(x+nu)/(2x)",
        note="corrected hyperplane-bias bound (from turan10_upper); implies b2hat < -1/2",
        guard_note=_POLE_NOTE)
    add("b2hat_upper_strong", Q.B2HAT, "upper", "proved",
        lambda nu, x: nu >= 0.5, "nu >= 1/2",
        lambda nu, x: -1.0, "-1",
        note="equivalent to turan11_upper; false for 0 < nu < 1/2 at large x")
    add("veff_lower", Q.V_EFF, "lower", "proved",
        lambda nu, x: nu > 1.0, "mu_gig > 1  (nu plays mu_gig, x plays 1/w)",
        lambda nu, x: 0.0, "0",
        sharp_at=("x->inf abs nu=2",))
    add("veff_upper", Q.V_EFF, "upper", "proved",
        lambda nu, x: nu > 1.0, "mu_gig > 1  (nu plays mu_gig, x plays 1/w)",
        lambda nu, x: 1.0 / (nu - 1.0), "1/(mu_gig-1)",
        sharp_at=("x->0 nu=2",), note="equivalent to turan2_lower at order mu_gig")
    add("ncns", Q.N_S, "lower", "proved",
        lambda nu, x: nu >= -1.0, "nu >= -1",
        lambda nu, x: 0.25 * x * x / (nu + 1.0 + math.hypot(x, nu + 1.0)),
        "n_c = (x^2/4)/(nu+1+sqrt(x^2+(nu+1)^2))",
        note="classical mean molecule count n_c is a strict lower bound for "
             "the stochastic one n_s")

    return e


CATALOG: MappingProxyType[str, BoundSpec] = MappingProxyType({b.id: b for b in _entries()})


class _View(NamedTuple):
    """One quantity's entries, and its proved ones per side, each in declaration order."""

    entries: tuple[BoundSpec, ...]
    lower: tuple[BoundSpec, ...]
    upper: tuple[BoundSpec, ...]


def _view(entries: tuple[BoundSpec, ...]) -> _View:
    proved = [b for b in entries if b.status == "proved"]
    return _View(entries, tuple(b for b in proved if b.side == "lower"),
                 tuple(b for b in proved if b.side == "upper"))


_BY_QUANTITY: dict[QuantityKind, _View] = {
    q: _view(tuple(b for b in CATALOG.values() if b.quantity is q)) for q in QuantityKind}


def _view_of(quantity: QuantityKind) -> _View:
    view = _BY_QUANTITY.get(quantity)  # a member hits; a str value is converted
    return _BY_QUANTITY[QuantityKind(quantity)] if view is None else view


def ids(status: Status | None = None, quantity: QuantityKind | None = None) -> list[str]:
    """Catalog ids in declaration order, optionally filtered."""
    entries = CATALOG.values() if quantity is None else _view_of(quantity).entries
    return [b.id for b in entries if status is None or b.status == status]


def get(bound_id: str) -> BoundSpec:
    try:
        return CATALOG[bound_id]
    except KeyError:
        raise UnknownBoundError(bound_id) from None


def _evaluation(b: BoundSpec, value: float, applies: bool = True) -> BoundEvaluation:
    return BoundEvaluation(b.id, value, applies, b.status, b.side, b.quantity)


def evaluate_bound(bound_id: str, nu: float, x: float) -> BoundEvaluation:
    """Evaluate one entry's formula at (nu, x); inapplicable points never raise.

    No entry applies at an x that is not positive and finite (0, -1, inf, NaN):
    each query tests x once, before any domain predicate.
    """
    b = get(bound_id)
    if not (0.0 < x < math.inf and b.domain(nu, x)):
        return _evaluation(b, math.nan, False)
    return _evaluation(b, b.formula(nu, x))


def applicable(quantity: QuantityKind, nu: float, x: float,
               statuses: tuple[Status, ...] = ("proved",)) -> list[BoundEvaluation]:
    """All evaluated entries for a quantity whose domain holds at (nu, x)."""
    entries = _view_of(quantity).entries
    if not 0.0 < x < math.inf:
        return []
    return [_evaluation(b, b.formula(nu, x)) for b in entries if b.status in statuses and b.domain(nu, x)]


def best_bounds(quantity: QuantityKind, nu: float, x: float
                ) -> tuple[BoundEvaluation | None, BoundEvaluation | None]:
    """Tightest applicable proved bounds: (max lower, min upper).

    Ties are broken by lexicographic id; an absent side returns None.  One
    walk over each side's proved entries keeps the largest lower and the
    smallest upper value, and on an equal value (-0.0 == 0.0 too) the smaller
    id; a NaN never displaces a winner.  Evaluations are built only for the
    two winners.
    """
    _, lowers, uppers = _view_of(quantity)
    if not 0.0 < x < math.inf:
        return None, None
    lo = hi = None
    for b in lowers:
        if b.domain(nu, x):
            v = b.formula(nu, x)
            if lo is None or v > lo_v or v == lo_v and b.id < lo.id:
                lo, lo_v = b, v
    for b in uppers:
        if b.domain(nu, x):
            v = b.formula(nu, x)
            if hi is None or v < hi_v or v == hi_v and b.id < hi.id:
                hi, hi_v = b, v
    return (None if lo is None else _evaluation(lo, lo_v),
            None if hi is None else _evaluation(hi, hi_v))


def catalog_rows() -> list[dict]:
    """JSON-ready catalog metadata (one row per entry, declaration order)."""
    return [{"id": b.id, "quantity": b.quantity.value, "side": b.side, "status": b.status,
             "domain": b.domain_str, "formula": b.formula_str, "strictness": b.strictness,
             "sharp_at": list(b.sharp_at), "note": b.note, "guard_note": b.guard_note}
            for b in CATALOG.values()]
