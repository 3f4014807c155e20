r"""Reference evaluation of modified Bessel functions and derived quantities.

Everything in this package ultimately reduces to the modified Bessel
functions of the first and second kind,

    I_nu(x) = sum_{n>=0} (x/2)^(2n+nu) / (n! Gamma(n+nu+1)),
    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt,

and to quantities built from them: the logarithmic derivatives
y = x I'/I and z = x K'/K, the normalised Turanians
phiI = 1 - I_{nu-1} I_{nu+1} / I_nu^2 (and phiK, phiP analogously), the
product P = I_nu K_nu, and a handful of shifted/compared forms (w, u,
lambda, q, t) used by the bounds catalog.

Evaluation strategy by region
-----------------------------
Each base result has one route function; evaluation_path reads the same ones.

* I (_i_route): power series below x = 30 + nu^2 (_i_switch); large-argument
  expansion at and above it.
* K (_k_route): at mu = |nu| - round(|nu|) in [-1/2, 1/2], K_mu and K_{mu+1}
  by Temme's series for x < 2 and by Steed's continued fraction CF2 for
  x >= 2; then forward recurrence in the order up to |nu|, which is stable
  because K is the dominant solution.
* ratio_I = I_{nu+1}/I_nu (_ratio_i_asym, _ratio_i_two_term): where I's route
  is the expansion at nu and at nu + 1, the quotient of the two expansion
  sums, without their common factor e^x/sqrt(2 pi x);
  elsewhere the continued fraction CF1, cut after its first element, with a
  series tail, at tiny x where the Lentz start is not negligible.
* K_{nu-1}, K_nu, K_{nu+1} (ratio_K, z, phiK, kratio, deltaK and the rest of
  the K side): one ladder, i.e. one base evaluation and one climb for each
  distinct mu among the three orders: one climb, except at a sign change
  near nu = 0 or a round() tie at .5.  The ladder gives each order the bits
  it gets alone.

Every evaluation returns a ``ValueWithError`` carrying a claimed bound on
the relative error (truncation tail + rounding).  The ratio_I claim is
derived from its route: for CF1 the Lentz start, the truncation that the
stop test bounds (convergents of a fraction with positive elements
alternate about the limit) and a running-error bound on the Lentz steps;
for the quotient the two expansion sums' claims.  The power-series quotient is
a check, not a route: the harness compares it with CF1
(consistency:ratio_I_dual_path) and the claim tests compare every tag with
40-digit mpmath.  ratio_K is cross-checked against the three-term
recurrence at run time; disagreement raises ``CrossCheckError`` since it
signals an evaluator bug, not an unlucky input.

No value needs exponential scaling: at the box's edge x = 500 (nu in [-10, 20],
x in (0, 500]), e^500 ~ 1.4e217, I_0(500) ~ 2.5e215 and K_0(500) ~ 4.0e-219
are all normal doubles.

Caching
-------
Results are cached where points repeat, and nowhere else.  _ratio_i and
_k_ladder serve the several tags computed at one point (y, phiI, u, ... all
read ratio_I; z, phiK, kratio, ... all read the K ladder).  _p_at caches
P's result object, which P and omega share: the applications suite draws
160 000 distinct P points, and a warm verify replays exactly those.
I and K themselves are not cached: nothing else asks for them twice at a
point, and caching each would hold every P point twice, once per function.

Kernel rules
------------
The hot loops (_i_series, _asym_bracket, _k_temme, _k_cf2, _k_climb,
_ratio_i_cf) follow these rules, and each rewrite under them does the same
floating-point operations in the same order, so every value and claim keeps
its bits; keep it that way.

* Float loop counters.  Where the loop index meets a float (m (m + nu),
  nu + k, k k - mu^2, y / k, ...) a float counter stepped by 1.0 stands in
  for it: small integers are exact in double, and Python converts an int
  operand exactly before the IEEE operation, but mixed int/float arithmetic
  is not specialised by the interpreter and pays that conversion each time.
  An index that is only counted stays an int.
* No abs() where the sign is known.  The I series has a loop of its own
  for nu > -1, where every term is positive, and tests t <= 1e-18 s.
* No test that cannot fire inside a loop.  CF1's first Lentz step, the
  only one where C or D can be 0 (b_1 = 0 at nu = -1), is done before the
  loop; the loop's stop test is a chained comparison against a local
  tolerance.
* One division per term where a ratio is reused (the I series' stop test
  feeds the next term), and a product formed once where it is used twice
  (na d in CF2; left-associative, so the same rounding).
* Compensated sums written inline, in Kahan's operation order.

Around the kernels, the fixed cost of an evaluation: build nothing on a
cache hit (a cache holds the finished result, P's ValueWithError), and no
container bookkeeping around a kernel call (_k_ladder picks its climbs in
straight-line code); the per-point objects are slotted.

All functions are pure and cache only immutable results; they are safe to
call concurrently from any number of threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

__all__ = [
    "SUPPORTED_NU",
    "SUPPORTED_X",
    "DEFAULT_TARGET_REL_ERR",
    "DomainError",
    "AccuracyError",
    "CrossCheckError",
    "EvalContext",
    "ValueWithError",
    "QuantityKind",
    "QuantitySpec",
    "QUANTITIES",
    "QUANTITY_EXPRESSIONS",
    "I_PATHS",
    "K_PATHS",
    "RATIO_I_PATHS",
    "eval_I",
    "eval_K",
    "ratio_I",
    "ratio_K",
    "quantity",
    "numeric_derivative",
    "evaluation_path",
    "quantity_reads",
]

SUPPORTED_NU = (-10.0, 20.0)
SUPPORTED_X = (0.0, 500.0)
DEFAULT_TARGET_REL_ERR = 1e-12

_EPS = 2.220446049250313e-16
_INF = math.inf
# large-argument expansions are used for x >= _ASYM_BASE + nu^2
_ASYM_BASE = 30.0
_LN2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min
_MIN_SUBNORMAL = math.ulp(0.0)
(_NU_LO, _NU_HI), (_X_LO, _X_HI) = SUPPORTED_NU, SUPPORTED_X


class DomainError(ValueError):
    """Argument or order outside the supported evaluation box."""


class AccuracyError(ArithmeticError):
    """The requested relative-error target cannot be certified."""


class CrossCheckError(AccuracyError):
    """Two independent evaluation paths disagree: evaluator bug."""


@dataclass(frozen=True, slots=True, init=False)
class EvalContext:
    """Point (nu, x) at which quantities are evaluated; mu = nu^2 - 1/4 is derived."""

    nu: float
    x: float
    mu: float = field(init=False)

    def __init__(self, nu: float, x: float):
        nu, x = float(nu), float(x)
        if not _NU_LO <= nu <= _NU_HI:
            raise DomainError(f"order nu={nu!r} outside supported [{_NU_LO}, {_NU_HI}]")
        if not _X_LO < x <= _X_HI:
            raise DomainError(f"argument x={x!r} outside supported ({_X_LO}, {_X_HI}]")
        _set_nu(self, nu)
        _set_x(self, x)
        _set_mu(self, nu * nu - 0.25)


@dataclass(frozen=True, slots=True, init=False)
class ValueWithError:
    """A computed value together with a claimed relative-error bound."""

    value: float
    rel_error_bound: float

    def __init__(self, value: float, rel_error_bound: float):
        _set_value(self, value)
        _set_rel(self, rel_error_bound)

    def __float__(self) -> float:
        return self.value

    @property
    def abs_error_bound(self) -> float:
        return self.rel_error_bound * abs(self.value)


# EvalContext and ValueWithError, built per evaluation, write each frozen field once through its slot
_set_nu, _set_x, _set_mu = EvalContext.nu.__set__, EvalContext.x.__set__, EvalContext.mu.__set__
_set_value, _set_rel = ValueWithError.value.__set__, ValueWithError.rel_error_bound.__set__


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def _i_series(nu: float, x: float) -> tuple[float, float]:
    """Power series for I_nu(x); returns (value, rel error bound).

    Terms are generated by the ratio recurrence and accumulated with
    compensated summation; the error bound tracks the truncation tail
    (geometric once the term ratio drops below 1) plus rounding inflated by
    the observed cancellation sum|t|/|sum t| (cancellation only occurs for
    nu < -1).
    The loop follows the module's kernel rules: nu > -1, where every term is
    positive, has its own loop without abs().
    """
    if nu < 0 and nu == round(nu):
        nu = -nu  # integer-order symmetry; also dodges Gamma poles
    q = 0.25 * x * x
    try:
        if x >= 2.0 * _MIN_NORMAL:
            t = math.pow(0.5 * x, nu) / math.gamma(nu + 1.0)
        else:  # halving a subnormal x may round: scale the power instead
            try:
                t = math.pow(x, nu) * math.pow(0.5, nu) / math.gamma(nu + 1.0)
            except OverflowError:
                t = math.inf
            if t == math.inf:  # x^nu overflows near nu = -1, where I need not: halve the power
                p = math.pow(x, 0.5 * nu)
                t = p * (math.pow(0.5, nu) / math.gamma(nu + 1.0)) * p
    except (OverflowError, ValueError) as exc:
        raise AccuracyError(f"I_{nu}({x}): leading series term not representable") from exc
    if t == 0.0 or not math.isfinite(t):
        raise AccuracyError(f"I_{nu}({x}): leading series term over/underflows")
    s, comp = t, 0.0
    s_abs = abs(t)
    tail = math.inf
    ratio = q / (1.0 + nu)  # term n is term n-1 times q / (n (n + nu))
    m = 1.0  # n + 1 while term n is added
    # q and 1e-18 s may underflow to 0 at tiny x, where the tail is nil
    if nu > -1.0:  # every term positive
        for n in range(1, 2001):
            t *= ratio
            y = t - comp
            u = s + y
            comp = (u - s) - y
            s = u
            s_abs += t
            m += 1.0
            ratio = q / (m * (m + nu))
            if ratio < 0.5 and t <= 1e-18 * s:
                tail = t * ratio / (1.0 - ratio)
                break
    else:  # non-integer nu < -1: the terms change sign
        for n in range(1, 2001):
            t *= ratio
            y = t - comp
            u = s + y
            comp = (u - s) - y
            s = u
            s_abs += abs(t)
            m += 1.0
            ratio = q / (m * (m + nu))
            if ratio < 0.5 and 0.0 <= ratio and abs(t) <= 1e-18 * abs(s):
                tail = abs(t) * ratio / (1.0 - ratio)
                break
    if not math.isfinite(tail):
        raise AccuracyError(f"I_{nu}({x}): series did not converge within 2000 terms")
    if not _MIN_NORMAL <= abs(s) < math.inf:
        raise AccuracyError(f"I_{nu}({x}): series sum not a normal double")
    cancel = s_abs / abs(s)
    return s, tail / abs(s) + (3.0 * n + 4.0) * _EPS * cancel


def _asym_bracket(nu: float, x: float) -> tuple[float, float]:
    """Sum of the bracket of I's large-argument expansion, with the whole expansion's rel error.

    I (_i_asym) and ratio_I (_ratio_i) both read it.  The loop follows the module's kernel rules.
    """
    four_nu2 = 4.0 * nu * nu
    c = 1.0
    s, comp = 1.0, 0.0
    err_term = math.inf
    prev = math.inf
    k, m = 0.0, -1.0  # m = 2k - 1
    for _ in range(79):
        k += 1.0
        m += 2.0
        c *= (m * m - four_nu2) / (8.0 * k * x)
        ac = abs(c)
        if ac >= prev:
            err_term = prev  # divergence onset: bound by last decreasing term
            break
        y = c - comp
        u = s + y
        comp = (u - s) - y
        s = u
        prev = ac
        if ac < 1e-18:
            err_term = ac
            break
    if not math.isfinite(err_term):
        err_term = prev
    # second exponential series contributes at relative size ~ e^(-2x)
    return s, err_term / abs(s) + 30.0 * _EPS + 2.0 * math.exp(-2.0 * x)


def _i_asym(nu: float, x: float) -> tuple[float, float]:
    """Large-argument expansion for I: the bracket times e^x/sqrt(2 pi x), its claim unchanged."""
    s, rel = _asym_bracket(nu, x)
    return s / math.sqrt(2.0 * math.pi * x) * math.exp(x), rel


I_PATHS = ("series", "asymptotic")  # indexed by _i_route


def _i_switch(nu: float) -> float:
    # I's large-argument expansion holds from x = 30 + nu^2 on
    return _ASYM_BASE + nu * nu


def _i_route(nu: float, x: float) -> bool:
    # I's route: the expansion at and above the switch, the power series below
    return x >= _i_switch(nu)


def _besseli(nu: float, x: float) -> tuple[float, float]:
    """(value, rel error) for I_nu(x)."""
    return (_i_asym if _i_route(nu, x) else _i_series)(nu, x)


# ---------------------------------------------------------------------------
# modified Bessel function of the second kind
# ---------------------------------------------------------------------------

K_PATHS = ("temme", "cf2")  # indexed by _k_route
_TEMME_X = 2.0


def _k_route(x: float) -> bool:
    # K's route at mu: Steed's CF2 at and above _TEMME_X, Temme's series below
    return x >= _TEMME_X


# 1/Gamma(1+z) = sum_j g_j z^j (A&S 6.1.34 shifted by one) as pairs
# (g_2i, g_2i+1), i = 10 down to 0; the omitted terms are < 1e-20 for |z| <= 1/2
_RGAMMA1P = (
    (-3.696805618642206e-12, 5.100370287454476e-13), (1.0434267116911005e-10, 7.782263439905071e-12),
    (5.002007644469223e-09, -1.18127457048702e-09), (-2.056338416977607e-07, 6.116095104481416e-09),
    (-1.2504934821426706e-06, 1.133027231981696e-06), (0.0001280502823881162, -2.013485478078824e-05),
    (-0.0011651675918590652, -0.00021524167411495098), (-0.009621971527876973, 0.0072189432466631),
    (0.16653861138229148, -0.04219773455554433), (-0.6558780715202539, -0.04200263503409524),
    (1.0, 0.5772156649015329),
)


def _k_temme(mu: float, x: float) -> tuple[float, float, float, float]:
    """Temme's series: (K_mu, K_{mu+1}, rel0, rel1) for |mu| <= 1/2, x < 2.

    K_mu = sum c_k f_k, K_{mu+1} = (2/x) sum c_k (p_k - k f_k), c_k = (x^2/4)^k/k!
    (Temme 1975; Numerical Recipes ``bessik``); gam1, gam2 come from the Taylor
    series of 1/Gamma(1+mu), which cannot cancel as mu -> 0.  Error budget in
    eps = 2u: r0 bounds the start (Horner sums within 2 eps, 1/Gamma(1 +- mu)
    >= 0.56 within 7, e = mu ln(2/x) off by 2|e| + 1/2) for p0, q0, and f0
    against F0; past k = 0 every c_k, f_k, p_k, q_k is positive, f_1's
    cancellation scales r0 to rr, a term gains <= 6 eps per step (weights w), a
    partial sum costs u, and the tail is under twice the last term.  The loop
    follows the module's kernel rules.
    """
    d = _LN2 - math.log(x)  # ln(2/x)
    e, m2 = mu * d, mu * mu
    ev = od = 0.0  # gam2, -gam1
    for g_even, g_odd in _RGAMMA1P:
        ev, od = g_even + m2 * ev, g_odd + m2 * od
    fact = math.pi * mu / math.sin(math.pi * mu) if mu else 1.0
    a = od * math.cosh(e)
    b = ev * (math.sinh(e) / e if e else 1.0) * d
    ee = math.exp(e)
    f0 = ff = fact * (b - a)
    p0 = p = 0.5 * ee / (ev + mu * od)
    q = 0.5 / (ee * (ev - mu * od))
    big_f = fact * (a + abs(b))
    r0 = (2.0 * abs(e) + 13.0) * _EPS
    rr = (r0 + 1.5 * _EPS) * (big_f + p + q) / (ff + p + q)
    s0, s1, v, w, c, y = ff, p, 0.0, 0.0, 1.0, 0.25 * x * x
    k = 0.0
    for _ in range(199):
        k += 1.0
        ff = (k * ff + p + q) / (k * k - m2)
        c *= y / k
        p /= k - mu
        q /= k + mu
        kf = k * ff
        t0, t1, m = c * ff, c * (p - kf), c * (p + kf)
        s0 += t0
        s1 += t1
        v += m
        w += k * m
        if t0 < 1e-17 * s0 and abs(t1) < 1e-17 * abs(s1):
            break
    err0 = r0 * big_f + rr * (s0 - f0) + 6.0 * _EPS * w + 0.5 * k * _EPS * (s0 - f0 + abs(f0)) + 2.0 * t0
    err1 = r0 * p0 + rr * v + 6.0 * _EPS * w + 0.5 * k * _EPS * (p0 + v) + 2.0 * abs(t1)
    return s0, s1 * 2.0 / x, err0 / s0, err1 / abs(s1) + _EPS


def _k_cf2(mu: float, x: float) -> tuple[float, float, float, float]:
    """Steed's CF2: (K_mu, K_{mu+1}, rel0, rel1).

    K_mu = sqrt(pi/2x) e^-x / s, s = 1 + sum q_i dh_i summed alongside the
    continued fraction h = sum dh_i (Thompson-Barnett; Numerical Recipes
    ``bessik``); all terms are positive.  Error budget in eps = 2u: an iteration
    adds <= 34 eps to a term of s, 27 to one of h (c 1.6; q 5, a dominant
    recurrence cancelling < 3x; dh 26, d contracting by dh_i/dh_{i-1} < 0.7 at
    x >= 2); a partial sum costs u.  Terms fall like exp(-2 sqrt(2 x i)): the
    tail is within twice the geometric tail at the last ratio.  The loop
    follows the module's kernel rules.
    """
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = h = dh = 1.0 / b
    q1, q2, q, c = 0.0, 1.0, a1, a1
    s, prev = 1.0 + a1 * dh, a1 * dh
    i = 1.0
    for _ in range(998):
        i += 1.0
        na = i * (i - 1.0) + a1  # (i - 1/2)^2 - mu^2
        c *= na / i
        q1, q2 = q2, (b * q2 - q1) / na
        q += c * q2
        b += 2.0
        nad = na * d
        dn = 1.0 / (b - nad)
        dh *= nad * dn  # = b dn - 1 without its cancellation
        d = dn
        h += dh
        dels = q * dh
        s += dels
        if dels < 1e-17 * s:
            break
        prev = dels
    tail = 2.0 * dels / (1.0 - dels / prev) if dels else 0.0
    k0 = math.sqrt(0.5 * math.pi / x) / s * math.exp(-x)
    g = mu + x + 0.5 - a1 * h
    rel0 = i * _EPS * (0.5 + 34.0 * (s - 1.0) / s) + tail / s + 4.0 * _EPS
    return k0, k0 * g / x, rel0, rel0 + 27.0 * i * _EPS * a1 * h / g + 3.0 * _EPS


def _k_climb(mu: float, x: float, top: int) -> tuple[float, float, float, float, float]:
    """(K_{mu+top-2}, K_{mu+top-1}, K_{mu+top}, rel0, rel) for top >= 1.

    K_mu and K_{mu+1}, with claims rel0 and rel1, then forward recurrence in
    the order: K is its dominant solution and every term is positive past
    mu + 1, so a step adds at most its five roundings, 2.5 eps (the claims
    of the levels are read by _k_level).  The loop follows the module's
    kernel rules.
    """
    k0, k1, rel0, rel1 = (_k_cf2 if _k_route(x) else _k_temme)(mu, x)
    xi2 = 2.0 / x
    kp = i = 0.0
    for _ in range(top - 1):
        i += 1.0
        kp, k0, k1 = k0, k1, (mu + i) * xi2 * k1 + k0
    return kp, k0, k1, rel0, max(rel0, rel1)


def _k_level(climb: tuple[float, float, float, float, float], top: int, n: int) -> tuple[float, float]:
    # K at level n (top - 2 .. top) of a climb to top, with its claim: rel0 at
    # level 0; rel + 2.5 (n - 1) eps at n >= 1, one step's roundings per level
    return climb[n - top + 2], (climb[4] + 2.5 * (n - 1) * _EPS if n else climb[3])


def _besselk(nu: float, x: float) -> tuple[float, float]:
    """(value, rel error) for K_nu(x).

    mu = |nu| - round(|nu|) lies in [-1/2, 1/2]; evaluating at |nu|
    realises K_{-nu} = K_nu exactly.
    """
    an = abs(nu)
    nl = round(an)
    top = nl or 1
    val, rel = _k_level(_k_climb(an - nl, x, top), top, nl)
    if not math.isfinite(val):
        raise AccuracyError(f"K_{nu}({x}) overflows double precision")
    return val, rel


# ---------------------------------------------------------------------------
# public point evaluation
# ---------------------------------------------------------------------------

def _check_target(rel: float, target: float, fn: str, ctx: EvalContext) -> None:
    if not target >= 1e-14:  # NaN fails too
        raise DomainError(f"target_rel_err={target} must be a number >= 1e-14")
    if rel > target:
        raise AccuracyError(f"{fn}_{ctx.nu}({ctx.x}): certified error {rel:.3e} exceeds target {target:.3e}")


def eval_I(ctx: EvalContext, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> ValueWithError:
    """I_nu(x) with a certified relative-error bound."""
    val, rel = _besseli(ctx.nu, ctx.x)
    _check_target(rel, target_rel_err, "I", ctx)
    if not math.isfinite(val):
        raise AccuracyError(f"I_{ctx.nu}({ctx.x}) overflows double precision")
    return ValueWithError(val, rel)


def eval_K(ctx: EvalContext, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> ValueWithError:
    """K_nu(x) with a certified relative-error bound; K_{-nu} = K_nu."""
    val, rel = _besselk(ctx.nu, ctx.x)
    _check_target(rel, target_rel_err, "K", ctx)
    if not math.isfinite(val) or val <= 0.0:
        raise AccuracyError(f"K_{ctx.nu}({ctx.x}) not representable in double precision")
    return ValueWithError(val, rel)


def evaluation_path(fn: str, nu: float, x: float) -> str:
    """Name of the evaluation path ('series', 'cf1', ...) used for I, K or ratio_I.

    Answered from the route functions that _besseli, _k_climb and _ratio_i
    take, without evaluating anything.  A point the evaluator refuses (outside
    the box, or ratio_I below nu = -1) raises the evaluator's DomainError.
    """
    ctx = EvalContext(nu, x)
    nu, x = ctx.nu, ctx.x
    if fn == "I":
        return I_PATHS[_i_route(nu, x)]
    if fn == "K":
        return K_PATHS[_k_route(x)]
    if fn == "ratio_I":
        _check_ratio_i_order(nu)
        return RATIO_I_PATHS[1 if _ratio_i_asym(nu, x) else 0 if _ratio_i_two_term(nu, x) is None else 2]
    raise DomainError(f"unknown function tag {fn!r}")


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

_LENTZ_TINY = 1e-30
# below this x the Lentz start may stop being negligible, and the two-term
# form below is within eps/400 of the ratio
_SMALL_X = 1e-9


def _ratio_i_cf(nu: float, x: float) -> tuple[float, float]:
    """(I_{nu+1}/I_nu, rel error bound) by the continued fraction CF1, nu >= -1.

    r = 1/(b_1 + 1/(b_2 + ...)), b_k = 2(nu+k)/x, from the three-term
    recurrence, by the modified Lentz method started at f_0 = tiny = 1e-30.
    The claim, in eps = 2u, after k steps with last step factor delta:

    * start: Lentz computes the convergents of tiny + 1/(b_1 + 1/(b_2 + ...)),
      whose limit is r + tiny.  At nu = -1, b_1 = 0 is replaced by tiny
      (D_1 = 1/tiny), the limit is tiny + 1/(tiny + 1/r), and it lies within
      tiny (r + 1/r) of r; tiny (f + 1/f) covers both.
    * truncation: every element is positive, so successive convergents lie
      on opposite sides of the limit and |f - f_k| <= |f_k - f_{k-1}|
      = f_k |1 - 1/delta_k|, which the stop test |delta - 1| < 4 eps bounds.
      The exact delta_k = C_k D_k differs from the computed one by the errors
      of C_k and D_k, at most eps per step each (below), and the product's
      rounding: |delta - 1| + (2k + 1/2) eps.
    * rounding (running error analysis, Higham 3.3): the computed b_k are
      within eps of 2(nu+k)/x, and a continued fraction with positive
      elements moves by at most the largest relative change of an element
      (each level 1/(b + t) is a weighted mean), so the data cost eps.  A
      step makes two roundings in C_k = b_k + 1/C_{k-1}, two in
      D_k = 1/(b_k + D_{k-1}) and two in f *= C_k D_k.  An error theta in C_j
      reaches C_{j+1} as -theta w_{j+1}, C_{j+2} as +theta w_{j+1} w_{j+2}, ...
      with every w in [0, 1], so it moves the product C_j C_{j+1} ... by
      theta (1 - w + w w' - ...), at most theta; likewise for D.  Each step
      therefore adds at most 6u = 3 eps to f: 3k eps.

    Together tiny (f + 1/f) + |delta - 1| + (5k + 2) eps (first order; the
    second-order terms stay below eps/2 for k < 10^5).

    Where the start is not negligible, that is where tiny (r + 1/r) exceeds
    eps/16 (only at x < _SMALL_X; about x < 1e-13 (nu + 1) for nu > -1), the
    fraction is cut after b_1 with the tail 1/(b_2 + ...) = I_{nu+2}/I_{nu+1}
    replaced by the leading term of its power series, s = x / (2 (nu + 2)):
    r = x / (2 (nu + 1) + x s), or 1/s = 2/x at nu = -1.  s overestimates the
    tail by a relative q (1 + q) at most, q = x^2/4, so the truncation is below
    2q; the roundings cost at most 3 eps, and a subnormal r is off by up to
    2^-1074 more.

    The Lentz loop follows the module's kernel rules.  Its first step is
    done apart: for nu >= -1 every b_k with k >= 2 is positive, so C_k and
    D_k are too, and b_1 = 0 (nu = -1, D_1 = 1/tiny) is the only zero.  That
    step cannot meet the stop test: delta_1 = (b_1 + 1/tiny)/b_1 would need
    b_1 above 1e45, and the two-term form takes every x that small.
    """
    r = _ratio_i_two_term(nu, x)
    if r is not None:
        if r == 0.0:
            raise AccuracyError(f"ratio_I underflows at nu={nu}, x={x}")
        rel = 0.5 * x * x + 3.0 * _EPS
        return r, rel + _MIN_SUBNORMAL / r if r < _MIN_NORMAL else rel
    tiny = _LENTZ_TINY
    b = 2.0 * (nu + 1.0) / x
    d = 1.0 / (b if b else tiny)
    c = b + 1.0 / tiny
    f = tiny * (c * d)
    tol = 4.0 * _EPS
    k = 1.0
    for _ in range(99_998):
        k += 1.0
        b = 2.0 * (nu + k) / x
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f *= delta
        if -tol < delta - 1.0 < tol:
            return f, tiny * (f + 1.0 / f) + abs(delta - 1.0) + (5.0 * k + 2.0) * _EPS
    raise AccuracyError(f"ratio_I continued fraction failed to converge at nu={nu}, x={x}")


def _ratio_i_two_term(nu: float, x: float) -> float | None:
    # the route test that _ratio_i_cf and evaluation_path share: r by the
    # two-term form where x < _SMALL_X and the Lentz start is not negligible
    # (or where the form underflows to 0), else None
    if x < _SMALL_X:
        e = nu + 1.0  # exact for nu <= -1/2, where it may be small
        r = 2.0 / x if e == 0.0 else x / (2.0 * e + x * x / (2.0 * (e + 1.0)))
        if r == 0.0 or _LENTZ_TINY * (r + 1.0 / r) > _EPS / 16.0:
            return r
    return None


def _ratio_i_asym(nu: float, x: float) -> bool:
    # whether I's route is the expansion at nu and at nu + 1: x >= 30 + max(nu^2, (nu+1)^2)
    return _i_route(nu, x) and _i_route(nu + 1.0, x)


RATIO_I_PATHS = ("cf1", "asymptotic", "two_term")  # CF1, expansion quotient, CF1 cut at tiny x


@lru_cache(maxsize=200_000)
def _ratio_i(nu: float, x: float) -> tuple[float, float]:
    """(I_{nu+1}/I_nu, rel error bound) by one route per region.

    Where I's route is the large-argument expansion at both orders
    (_ratio_i_asym), the quotient of the two expansion sums, which never forms
    their common factor e^x/sqrt(2 pi x): their claims e0 + e1 and one
    rounding, eps covering the second-order terms.
    Elsewhere the continued fraction CF1 (_ratio_i_cf, claim derived there).
    The power-series quotient is no route; it is the harness check
    consistency:ratio_I_dual_path and the claim tests.
    """
    if _ratio_i_asym(nu, x):
        num, e1 = _asym_bracket(nu + 1.0, x)
        den, e0 = _asym_bracket(nu, x)
        r, rel = num / den, e0 + e1 + _EPS
    else:
        r, rel = _ratio_i_cf(nu, x)
    if nu >= -0.5 and r > 1.0:
        r = 1.0  # provably < 1 there; rounding may land a few ulp above
    return r, rel


def _check_ratio_i_order(nu: float) -> None:
    # the order test that ratio_I and evaluation_path share
    if nu < -1.0:
        raise DomainError(f"ratio_I needs nu >= -1 (I_nu > 0); got nu={nu}")


def ratio_I(ctx: EvalContext) -> ValueWithError:
    """I_{nu+1}(x)/I_nu(x): the continued fraction, or the expansion sums' quotient at large x."""
    _check_ratio_i_order(ctx.nu)
    r, rel = _ratio_i(ctx.nu, ctx.x)
    if not _MIN_NORMAL <= r < math.inf:
        raise AccuracyError(f"ratio_I at nu={ctx.nu}, x={ctx.x} not a normal double")
    return ValueWithError(r, rel)


RATIO_K_CROSSCHECK_REL = 1e-9


@lru_cache(maxsize=200_000)
def _k_ladder(nu: float, x: float) -> tuple[float, float, float, float, float, float]:
    """(K_{nu-1}, em, K_nu, e0, K_{nu+1}/K_nu, er), cross-checked.

    Order v is level round(|v|) of the climb from mu = |v| - round(|v|); one
    climb per distinct mu, taken to the highest level read (the levels lie
    within 2 of each other), gives each order the bits _besselk gives it.
    """
    am, a0, ap = abs(nu - 1.0), abs(nu), abs(nu + 1.0)
    lm, l0, lp = round(am), round(a0), round(ap)
    mm, m0, mp = am - lm, a0 - l0, ap - lp
    tm = tp = t0 = max(1, l0, lm if mm == m0 else 0, lp if mp == m0 else 0)
    cm = cp = c0 = _k_climb(m0, x, t0)
    if mm != m0:
        tm = max(1, lm, lp if mp == mm else 0)
        cm = _k_climb(mm, x, tm)
    if mp == mm != m0:
        cp, tp = cm, tm
    elif mp != m0:
        tp = lp or 1
        cp = _k_climb(mp, x, tp)
    km, em = _k_level(cm, tm, lm)
    k0, e0 = _k_level(c0, t0, l0)
    k1, e1 = _k_level(cp, tp, lp)
    if not (km < _INF and k0 < _INF and k1 < _INF):  # K > 0, so < inf is isfinite
        order = nu - 1.0 if not km < _INF else nu if not k0 < _INF else nu + 1.0
        raise AccuracyError(f"K_{order}({x}) overflows double precision")
    # upward recurrence K_{nu+1} = K_{nu-1} + (2nu/x) K_nu; the residual is
    # compared against the dominant term since the recurrence may produce a
    # small K_{nu+1} from the difference of two huge terms (nu << 0, x small)
    rec = 2.0 * nu / x * k0
    scale = abs(km) + abs(rec) + abs(k1)
    resid = abs(k1 - (km + rec))
    if resid > max(RATIO_K_CROSSCHECK_REL, 50.0 * (e0 + e1 + em)) * scale:
        raise CrossCheckError(
            f"ratio_K recurrence cross-check failed at nu={nu}, x={x}: "
            f"quotient {k1!r} vs recurrence {km + rec!r}"
        )
    return km, em, k0, e0, k1 / k0, e0 + e1 + 2.0 * _EPS


def ratio_K(ctx: EvalContext) -> ValueWithError:
    """K_{nu+1}(x)/K_nu(x) from the order ladder, recurrence cross-checked."""
    return ValueWithError(*_k_ladder(ctx.nu, ctx.x)[4:])


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

class QuantityKind(str, Enum):
    Y = "y"
    Z = "z"
    PHI_I = "phiI"
    PHI_K = "phiK"
    PHI_P = "phiP"
    P = "P"
    OMEGA = "omega"
    DELTA_I = "deltaI"
    DELTA_K = "deltaK"
    W = "w"
    U = "u"
    LAMBDA = "lambda"
    Q = "q"
    T = "t"
    B2HAT = "b2hat"
    V_EFF = "veff"
    N_C = "nc"
    N_S = "ns"
    I_RATIO = "iratio"
    K_RATIO = "kratio"


def _from_abs(val: float, abs_err: float) -> ValueWithError:
    # val with the relative claim of abs_err; an exact 0 claims inf, as quantity() needs
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else _INF)


def _phi_i(ctx: EvalContext) -> ValueWithError:
    # phiI = 1 - (I_{nu-1}/I_nu)(I_{nu+1}/I_nu) with
    # I_{nu-1}/I_nu = 2 nu/x + r via the three-term recurrence; never forms
    # the Turanian by direct subtraction of function values
    nu, x = ctx.nu, ctx.x
    r, er = _ratio_i(nu, x)
    a = 2.0 * nu / x + r
    if nu > -1.0 and not (r >= _MIN_NORMAL and math.isfinite(a)):
        # x so small (below 1e-307 (nu + 1)) that r is not a normal double or
        # 2 nu / x overflows: the series give phiI = (1 + O(x^2/(nu + 1)))/(nu + 1),
        # and the O term is far below eps there
        return ValueWithError(1.0 / (nu + 1.0), 2.0 * _EPS)
    val = 1.0 - a * r
    abs_err = (abs(a) + r) * r * er + 4.0 * _EPS * (1.0 + abs(a) * r)
    return _from_abs(val, abs_err)


def _phi_k(ctx: EvalContext) -> ValueWithError:
    # phiK = 1 - (K_{nu-1}/K_nu)(K_{nu+1}/K_nu); the first factor equals
    # ratio_K - 2 nu/x by the recurrence (which _k_ladder cross-checks) but is
    # computed as a direct quotient to dodge the small-x cancellation
    km, em, k0, e0, r, er = _k_ladder(ctx.nu, ctx.x)
    a = km / k0
    val = 1.0 - a * r
    abs_err = a * r * (er + em + e0) + 4.0 * _EPS * (1.0 + a * r)
    return _from_abs(val, abs_err)


def _y_abs(ctx: EvalContext) -> tuple[float, float]:
    # y = nu + x r with its absolute error, which stays finite where y is 0
    # (x r underflows at tiny x, or cancels against nu)
    r, er = _ratio_i(ctx.nu, ctx.x)
    xr = ctx.x * r
    abs_err = xr * er + 2.0 * _EPS * (abs(ctx.nu) + xr)
    if xr < _MIN_NORMAL:
        abs_err += _MIN_SUBNORMAL
    return ctx.nu + xr, abs_err


def _y(ctx: EvalContext) -> ValueWithError:
    return _from_abs(*_y_abs(ctx))


def _z(ctx: EvalContext) -> ValueWithError:
    r, er = _k_ladder(ctx.nu, ctx.x)[4:]
    val = ctx.nu - ctx.x * r
    abs_err = ctx.x * r * er + 2.0 * _EPS * (abs(ctx.nu) + ctx.x * r)
    return _from_abs(val, abs_err)


@lru_cache(maxsize=200_000)
def _p_at(nu: float, x: float) -> ValueWithError:
    # P with its claim, cached as the result object: a hit builds nothing
    vi, ei = _besseli(nu, x)
    vk, ek = _besselk(nu, x)
    return ValueWithError(vi * vk, ei + ek + 2.0 * _EPS)


def _shifted(base: float, base_err: float, sign: float, shift: float,
             shift_err: float = 0.0) -> ValueWithError:
    # sign * base + shift, propagating the absolute errors; shift_err is the
    # shift's error beyond its last rounding
    return _from_abs(sign * base + shift, base_err + 2.0 * _EPS * (abs(shift) + abs(base)) + shift_err)


def _mu_shift(ctx: EvalContext) -> tuple[float, float]:
    # sqrt(x^2 + mu), mu = nu^2 - 1/4, with the error that the roundings of
    # nu^2, mu, x^2 and their sum carry into it: t = x^2 + mu is off by at most
    # d = 2 eps (x^2 + nu^2 + 1/4), so sqrt(t) by min(d / sqrt(t), sqrt(d)),
    # amplified where t is small (nu near +-1/2 at small x)
    t = ctx.x * ctx.x + ctx.mu
    s = math.sqrt(t)
    d = 2.0 * _EPS * (ctx.x * ctx.x + ctx.nu * ctx.nu + 0.25)
    return s, d / s if d < t else math.sqrt(d)


def _phi_p(ctx: EvalContext) -> ValueWithError:
    fi = _phi_i(ctx)
    fk = _phi_k(ctx)
    if math.isfinite(fk.value):
        val = fi.value + fk.value - fi.value * fk.value
        abs_err = fi.abs_error_bound * (1.0 + abs(fk.value)) + fk.abs_error_bound * (1.0 + abs(fi.value))
        return _from_abs(val, abs_err)
    # 1 - phiK = a_K r_K = (K_{nu-1}/K_nu)(K_{nu+1}/K_nu) overflows (x below
    # about 1e-154), while 1 - phiI = a_I r_I may be as small as nu or x^2:
    # phiP = 1 - T, T = a_I r_I a_K r_K, whose partial products may leave
    # the double range where T does not, so the exponents are summed apart
    nu, x = ctx.nu, ctx.x
    r, er = _ratio_i(nu, x)
    a = 2.0 * nu / x + r
    km, em, k0, e0, rk, erk = _k_ladder(nu, x)
    t, e = 1.0, 0
    for f in (a, r, km / k0, rk):
        fm, fe = math.frexp(f)
        t, e = t * fm, e + fe
    if e > sys.float_info.max_exp:
        raise AccuracyError(f"quantity 'phiP' overflows at nu={nu}, x={x}")
    t = math.ldexp(t, e)
    rel_t = (r * er + 2.0 * _EPS * (abs(2.0 * nu / x) + r)) / abs(a) + er + em + e0 + erk + 4.0 * _EPS
    val = 1.0 - t
    abs_err = abs(t) * rel_t + _EPS * (1.0 + abs(t))
    return _from_abs(val, abs_err)


def _omega_by_wronskian(p: float) -> bool:
    # whether omega leaves x P for the Wronskian form: P not a normal double
    return not _MIN_NORMAL <= p < math.inf


def _omega(ctx: EvalContext) -> ValueWithError:
    p = _p_at(ctx.nu, ctx.x)
    if not _omega_by_wronskian(p.value):
        return ValueWithError(ctx.x * p.value, p.rel_error_bound + _EPS)
    # P = I K over- or underflows (tiny x, -1 < nu < 0): the Wronskian
    # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x gives omega = 1/(r_I + r_K), a sum
    # of two positive ratios; their absolute errors add, plus two roundings
    ri, ei = _ratio_i(ctx.nu, ctx.x)
    k0, e0 = _besselk(ctx.nu, ctx.x)
    k1, e1 = _besselk(ctx.nu + 1.0, ctx.x)
    rk = k1 / k0
    den = ri + rk
    return ValueWithError(1.0 / den, (ri * ei + rk * (e0 + e1 + 2.0 * _EPS)) / den + _EPS)


def _delta_i(ctx: EvalContext) -> ValueWithError:
    fi = _phi_i(ctx)
    iv, ei = _besseli(ctx.nu, ctx.x)
    val = iv * iv * fi.value  # inf (not OverflowError) when I^2 overflows
    return ValueWithError(val, 2.0 * ei + fi.rel_error_bound + 2.0 * _EPS)


def _delta_k(ctx: EvalContext) -> ValueWithError:
    fk = _phi_k(ctx)
    _, _, kv, ek, _, _ = _k_ladder(ctx.nu, ctx.x)
    val = kv * kv * fk.value
    return ValueWithError(val, 2.0 * ek + fk.rel_error_bound + 2.0 * _EPS)


def _u(ctx: EvalContext) -> ValueWithError:
    if ctx.x * ctx.x + ctx.mu < 0.0:
        raise DomainError(f"quantity 'u' needs x^2 + nu^2 - 1/4 >= 0; got nu={ctx.nu}, x={ctx.x}")
    return _shifted(*_y_abs(ctx), -1.0, *_mu_shift(ctx))


def _q(ctx: EvalContext) -> ValueWithError:
    if ctx.mu < 0.0:
        raise DomainError(f"quantity 'q' needs mu = nu^2 - 1/4 >= 0; got nu={ctx.nu}")
    z = _z(ctx)
    return _shifted(z.value, z.abs_error_bound, +1.0, *_mu_shift(ctx))


def _t(ctx: EvalContext) -> ValueWithError:
    z = _z(ctx)
    return _shifted(z.value, z.abs_error_bound, +1.0, math.hypot(ctx.x, ctx.nu))


def _b2hat(ctx: EvalContext) -> ValueWithError:
    fi = _phi_i(ctx)
    return ValueWithError(-1.0 / (ctx.x * fi.value), fi.rel_error_bound + 2.0 * _EPS)


def _veff(ctx: EvalContext) -> ValueWithError:
    fk = _phi_k(ctx)
    return ValueWithError(-fk.value, fk.rel_error_bound)


def _nc(ctx: EvalContext) -> ValueWithError:
    # x times x / (b + hypot) <= 1 is formed last: x^2 alone would leave the
    # normal range below x ~ 1e-154 though nc = x/4 at nu = -1 does not
    b = ctx.nu + 1.0
    return ValueWithError(0.25 * ctx.x * (ctx.x / (b + math.hypot(ctx.x, b))), 6.0 * _EPS)


def _ns(ctx: EvalContext) -> ValueWithError:
    r, er = _ratio_i(ctx.nu, ctx.x)
    return ValueWithError(0.25 * ctx.x * r, er + 2.0 * _EPS)


def _iratio(ctx: EvalContext) -> ValueWithError:
    # I_nu/I_{nu-1} = 1/(2 nu/x + r) with r = I_{nu+1}/I_nu
    r, er = _ratio_i(ctx.nu, ctx.x)
    a = 2.0 * ctx.nu / ctx.x + r
    return ValueWithError(1.0 / a, er * r / abs(a) + 4.0 * _EPS)


def _kratio(ctx: EvalContext) -> ValueWithError:
    km, em, k0, e0, _, _ = _k_ladder(ctx.nu, ctx.x)
    return ValueWithError(k0 / km, e0 + em + 2.0 * _EPS)


@dataclass(frozen=True)
class QuantitySpec:
    """One derived quantity: its expression, the least order it takes, the base
    results it reads ("ratio_I", "I", "K": the paths ``eval`` reports) and its
    evaluator.  The I-side quantities need I_nu > 0, hence nu >= -1 via the
    integer-order symmetry; the K side takes every supported order."""

    expression: str
    min_nu: float
    reads: tuple[str, ...]
    evaluate: Callable[[EvalContext], ValueWithError]


_RI, _K = ("ratio_I",), ("K",)  # the rows' common reads
QUANTITIES: dict[QuantityKind, QuantitySpec] = {
    QuantityKind.Y: QuantitySpec("x*I'(nu,x)/I(nu,x)", -1.0, _RI, _y),
    QuantityKind.Z: QuantitySpec("x*K'(nu,x)/K(nu,x)", -math.inf, _K, _z),
    QuantityKind.PHI_I: QuantitySpec("1 - I(nu-1,x)*I(nu+1,x)/I(nu,x)^2", -1.0, _RI, _phi_i),
    QuantityKind.PHI_K: QuantitySpec("1 - K(nu-1,x)*K(nu+1,x)/K(nu,x)^2", -math.inf, _K, _phi_k),
    QuantityKind.PHI_P: QuantitySpec("1 - P(nu-1,x)*P(nu+1,x)/P(nu,x)^2 = phiI + phiK - phiI*phiK",
                                     -1.0, ("ratio_I", "K"), _phi_p),
    QuantityKind.P: QuantitySpec("I(nu,x)*K(nu,x)", -1.0, ("I", "K"), lambda c: _p_at(c.nu, c.x)),
    QuantityKind.OMEGA: QuantitySpec("x*I(nu,x)*K(nu,x)", -1.0, ("I", "K"), _omega),
    QuantityKind.DELTA_I: QuantitySpec("I(nu,x)^2 - I(nu-1,x)*I(nu+1,x) = I(nu,x)^2*phiI",
                                       -1.0, ("ratio_I", "I"), _delta_i),
    QuantityKind.DELTA_K: QuantitySpec("K(nu,x)^2 - K(nu-1,x)*K(nu+1,x) = K(nu,x)^2*phiK",
                                       -math.inf, _K, _delta_k),
    QuantityKind.W: QuantitySpec("sqrt(x^2+nu^2) - y", -1.0, _RI,
                                 lambda c: _shifted(*_y_abs(c), -1.0, math.hypot(c.x, c.nu))),
    QuantityKind.U: QuantitySpec("sqrt(x^2+mu) - y,  mu = nu^2 - 1/4", -1.0, _RI, _u),
    QuantityKind.LAMBDA: QuantitySpec("y - sqrt(x^2+(nu+1)^2)", -1.0, _RI,
                                      lambda c: _shifted(*_y_abs(c), +1.0, -math.hypot(c.x, c.nu + 1.0))),
    QuantityKind.Q: QuantitySpec("z + sqrt(x^2+mu),  mu = nu^2 - 1/4", -math.inf, _K, _q),
    QuantityKind.T: QuantitySpec("z + sqrt(x^2+nu^2)", -math.inf, _K, _t),
    QuantityKind.B2HAT: QuantitySpec("-1/(x*phiI)", 0.0, _RI, _b2hat),
    QuantityKind.V_EFF: QuantitySpec("K(nu-1,x)*K(nu+1,x)/K(nu,x)^2 - 1 = -phiK  (nu=mu_gig, x=1/w_gig)",
                                     -math.inf, _K, _veff),
    QuantityKind.N_C: QuantitySpec("(x^2/4)/(nu+1+sqrt(x^2+(nu+1)^2))", -1.0, (), _nc),
    QuantityKind.N_S: QuantitySpec("(x/4)*I(nu+1,x)/I(nu,x)", -1.0, _RI, _ns),
    QuantityKind.I_RATIO: QuantitySpec("I(nu,x)/I(nu-1,x)", 0.0, _RI, _iratio),
    QuantityKind.K_RATIO: QuantitySpec("K(nu,x)/K(nu-1,x)", -math.inf, _K, _kratio),
}
QUANTITY_EXPRESSIONS: dict[QuantityKind, str] = {k: q.expression for k, q in QUANTITIES.items()}


def quantity(kind: QuantityKind, ctx: EvalContext) -> ValueWithError:
    """Evaluate one derived quantity at (nu, x) with a propagated error bound."""
    # a member or its str value (equal, same hash); an unknown kind raises ValueError
    spec = QUANTITIES.get(kind) or QUANTITIES[QuantityKind(kind)]
    if ctx.nu < spec.min_nu:
        raise DomainError(f"quantity {QuantityKind(kind).value!r} needs nu >= {spec.min_nu}; got nu={ctx.nu}")
    v = spec.evaluate(ctx)
    # products and quotients of representable factors may still overflow, or
    # underflow below the normal range where they lose bits their claim keeps;
    # an exact 0 stands only with an infinite claim
    val, rel = v.value, v.rel_error_bound
    if not (_MIN_NORMAL <= abs(val) < _INF or (val == 0.0 and rel == _INF)) or rel != rel:
        raise AccuracyError(f"quantity {QuantityKind(kind).value!r} not representable at nu={ctx.nu}, x={ctx.x}")
    return v


def quantity_reads(kind: QuantityKind, nu: float, x: float) -> tuple[str, ...]:
    """The base results ("ratio_I", "I", "K") that quantity(kind) read at (nu, x).

    The row's reads, except for omega where P = I K is not a normal double and
    the Wronskian form reads ratio_I and K.  Meant for after quantity() has
    evaluated the point: omega's answer comes from the cached P, so nothing is
    evaluated a second time.
    """
    kind = QuantityKind(kind)
    if kind is QuantityKind.OMEGA and _omega_by_wronskian(_p_at(nu, x).value):
        return ("ratio_I", "K")
    return QUANTITIES[kind].reads


def numeric_derivative(kind: QuantityKind, ctx: EvalContext, order: int = 1) -> float:
    """d/dx (order=1) or d^2/dx^2 (order=2) of a quantity at (nu, x).

    Central differences with one Richardson extrapolation level; the base
    step is h = max(1e-5, 1e-5*x).
    """
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2; got {order}")
    h = max(1e-5, 1e-5 * ctx.x)
    if ctx.x - 2.0 * h <= 0.0 or ctx.x + 2.0 * h > SUPPORTED_X[1]:
        raise DomainError(f"x={ctx.x} not interior to the domain by 2h={2*h}")

    def f(t: float) -> float:
        return quantity(kind, EvalContext(ctx.nu, t)).value

    f0 = f(ctx.x) if order == 2 else 0.0

    def d(step: float) -> float:  # the central difference of the order asked for
        if order == 1:
            return (f(ctx.x + step) - f(ctx.x - step)) / (2.0 * step)
        return (f(ctx.x + step) - 2.0 * f0 + f(ctx.x - step)) / (step * step)

    return (4.0 * d(0.5 * h) - d(h)) / 3.0
