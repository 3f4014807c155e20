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
* I: power series everywhere below the asymptotic threshold
  x >= 30 + nu^2; large-argument expansion above it.
* K: at mu = |nu| - round(|nu|) in [-1/2, 1/2], K_mu and K_{mu+1} by
  Temme's series for x < 2 and by Steed's continued fraction CF2 for
  x >= 2; then forward recurrence in the order up to |nu|, which is stable
  because K is the dominant solution.
* ratio_I = I_{nu+1}/I_nu: one route per region.  Below
  x = 30 + max(nu^2, (nu+1)^2) the continued fraction CF1 (cut after its
  first element, with a series tail, at tiny x where the Lentz start is not
  negligible); at and above it, where I takes the large-argument expansion
  at both orders, the quotient of the two expansions.
* K_{nu-1}, K_nu, K_{nu+1} (ratio_K, z, phiK, kratio, deltaK and the rest of
  the K side): one ladder, i.e. one base evaluation and one climb for all
  orders whose mu has the same bits; an order whose mu differs (a sign
  change near nu = 0, a round() tie at .5) gets its own.  The ladder gives
  each order the bits it gets alone.

Every evaluation returns a ``ValueWithError`` carrying a claimed bound on
the relative error (truncation tail + rounding).  The ratio_I claim is
derived from its route: for CF1 the Lentz start, the truncation that the
stop test bounds (convergents of a fraction with positive elements
alternate about the limit) and a running-error bound on the Lentz steps;
for the quotient the two expansions' claims.  The power-series quotient is
a check, not a route: the harness compares it with CF1
(consistency:ratio_I_dual_path) and the claim tests compare every tag with
40-digit mpmath.  ratio_K is cross-checked against the three-term
recurrence at run time; disagreement raises ``CrossCheckError`` since it
signals an evaluator bug, not an unlucky input.

Values are kept exponentially scaled (e^-x I, e^x K) internally once
x > 50 so that no intermediate overflows inside the supported box
nu in [-10, 20], x in (0, 500].

All functions are pure and cache only immutable results; they are safe to
call concurrently from any number of threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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
    "dual_path_checks",
]

SUPPORTED_NU = (-10.0, 20.0)
SUPPORTED_X = (0.0, 500.0)
DEFAULT_TARGET_REL_ERR = 1e-12

_EPS = 2.220446049250313e-16
# exponential scaling (e^-x I, e^x K) kicks in beyond this argument
_SCALE_X = 50.0
# large-argument expansions are used for x >= _ASYM_BASE + nu^2
_ASYM_BASE = 30.0
_LN2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min
_MIN_SUBNORMAL = math.ulp(0.0)


class DomainError(ValueError):
    """Argument or order outside the supported evaluation box."""


class AccuracyError(ArithmeticError):
    """The requested relative-error target cannot be certified."""


class CrossCheckError(AccuracyError):
    """Two independent evaluation paths disagree: evaluator bug."""


@dataclass(frozen=True)
class EvalContext:
    """Point (nu, x) at which quantities are evaluated; mu = nu^2 - 1/4."""

    nu: float
    x: float
    mu: float = 0.0

    def __post_init__(self):
        nu = float(self.nu)
        x = float(self.x)
        if not (SUPPORTED_NU[0] <= nu <= SUPPORTED_NU[1]):
            raise DomainError(f"order nu={nu!r} outside supported [{SUPPORTED_NU[0]}, {SUPPORTED_NU[1]}]")
        if not (SUPPORTED_X[0] < x <= SUPPORTED_X[1]):
            raise DomainError(f"argument x={x!r} outside supported ({SUPPORTED_X[0]}, {SUPPORTED_X[1]}]")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "mu", nu * nu - 0.25)


@dataclass(frozen=True)
class ValueWithError:
    """A computed value together with a claimed relative-error bound."""

    value: float
    rel_error_bound: float

    def __float__(self) -> float:
        return self.value

    @property
    def abs_error_bound(self) -> float:
        return self.rel_error_bound * abs(self.value)


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind
# ---------------------------------------------------------------------------

def _i_series(nu: float, x: float) -> tuple[float, float]:
    """Power series for I_nu(x); returns (value, rel error bound).

    The value is exponentially scaled by e^-x when x > _SCALE_X.  Terms are
    generated by the ratio recurrence and accumulated with compensated
    summation; the error bound tracks the truncation tail (geometric once
    the term ratio drops below 1) plus rounding inflated by the observed
    cancellation sum|t|/|sum t| (cancellation only occurs for nu < -1).

    Kernel rule: one division per term (the stop test's ratio is reused as
    the next term's factor) and the compensated step written inline, in
    Kahan's operation order.  Both repeat the plain loop's operations in the
    same order, so every value and claim keeps its bits; keep it that way.
    """
    if nu < 0 and nu == round(nu):
        nu = -nu  # integer-order symmetry; also dodges Gamma poles
    q = 0.25 * x * x
    try:
        if x >= 2.0 * _MIN_NORMAL:
            t = math.pow(0.5 * x, nu) / math.gamma(nu + 1.0)
        else:  # halving a subnormal x may round: scale the power instead
            t = math.pow(x, nu) * math.pow(0.5, nu) / math.gamma(nu + 1.0)
    except (OverflowError, ValueError) as exc:
        raise AccuracyError(f"I_{nu}({x}): leading series term not representable") from exc
    if t == 0.0 or not math.isfinite(t):
        raise AccuracyError(f"I_{nu}({x}): leading series term over/underflows")
    s, comp = t, 0.0
    s_abs = abs(t)
    tail = math.inf
    ratio = q / (1.0 + nu)  # term n is term n-1 times q / (n (n + nu))
    for m in range(2, 2002):  # m = n + 1 while term n is added
        t *= ratio
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        s_abs += abs(t)
        ratio = q / (m * (m + nu))
        # q and 1e-18 s may underflow to 0 at tiny x, where the tail is nil
        if ratio < 0.5 and 0.0 <= ratio and abs(t) <= 1e-18 * abs(s):
            tail = abs(t) * ratio / (1.0 - ratio)
            break
    if not math.isfinite(tail):
        raise AccuracyError(f"I_{nu}({x}): series did not converge within 2000 terms")
    n = m - 1
    if not _MIN_NORMAL <= abs(s) < math.inf:
        raise AccuracyError(f"I_{nu}({x}): series sum not a normal double")
    cancel = s_abs / abs(s)
    rel = tail / abs(s) + (3.0 * n + 4.0) * _EPS * cancel
    if x > _SCALE_X:
        s *= math.exp(-x)
        rel += 2.0 * _EPS
    return s, rel


def _asym_bracket(nu: float, x: float) -> tuple[float, float]:
    """Sum of the bracket of I's large-argument expansion, with its rel error.

    Same kernel rule as _i_series: the compensated step is written inline,
    in Kahan's operation order, and every value and claim keeps its bits.
    """
    four_nu2 = 4.0 * nu * nu
    c = 1.0
    s, comp = 1.0, 0.0
    err_term = math.inf
    prev = math.inf
    for k in range(1, 80):
        m = 2 * k - 1
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
    rel = err_term / abs(s) + 30.0 * _EPS
    return s, rel


def _i_asym(nu: float, x: float) -> tuple[float, float]:
    """Large-argument expansion for I; scaled by e^-x when x > _SCALE_X."""
    s, rel = _asym_bracket(nu, x)
    val = s / math.sqrt(2.0 * math.pi * x)
    # second exponential series contributes at relative size ~ e^(-2x)
    rel += 2.0 * math.exp(-2.0 * x)
    if x <= _SCALE_X:
        val *= math.exp(x)
    return val, rel


I_PATHS = ("series", "asymptotic")  # power series below _ASYM_BASE + nu^2, expansion above


@lru_cache(maxsize=200_000)
def _besseli(nu: float, x: float) -> tuple[float, float, str]:
    """(value, rel error, path) for I_nu(x), e^-x-scaled when x > _SCALE_X."""
    asym = x >= _ASYM_BASE + nu * nu
    val, rel = (_i_asym if asym else _i_series)(nu, x)
    return val, rel, I_PATHS[asym]


# ---------------------------------------------------------------------------
# modified Bessel function of the second kind
# ---------------------------------------------------------------------------

K_PATHS = ("temme", "cf2")  # Temme's series for x < _TEMME_X, Steed's CF2 above
_TEMME_X = 2.0

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
    partial sum costs u, and the tail is under twice the last term.
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
    for k in range(1, 200):
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
    """Steed's CF2: (K_mu, K_{mu+1}, rel0, rel1), e^x-scaled when x > _SCALE_X.

    K_mu = sqrt(pi/2x) e^-x / s, s = 1 + sum q_i dh_i summed alongside the
    continued fraction h = sum dh_i (Thompson-Barnett; Numerical Recipes
    ``bessik``); all terms are positive.  Error budget in eps = 2u: an iteration
    adds <= 34 eps to a term of s, 27 to one of h (c 1.6; q 5, a dominant
    recurrence cancelling < 3x; dh 26, d contracting by dh_i/dh_{i-1} < 0.7 at
    x >= 2); a partial sum costs u.  Terms fall like exp(-2 sqrt(2 x i)): the
    tail is within twice the geometric tail at the last ratio.
    """
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = h = dh = 1.0 / b
    q1, q2, q, c = 0.0, 1.0, a1, a1
    s, prev = 1.0 + a1 * dh, a1 * dh
    for i in range(2, 1000):
        na = i * (i - 1) + a1  # (i - 1/2)^2 - mu^2
        c *= na / i
        q1, q2 = q2, (b * q2 - q1) / na
        q += c * q2
        b += 2.0
        dn = 1.0 / (b - na * d)
        dh *= na * d * dn  # = b dn - 1 without its cancellation
        d = dn
        h += dh
        dels = q * dh
        s += dels
        if dels < 1e-17 * s:
            break
        prev = dels
    tail = 2.0 * dels / (1.0 - dels / prev) if dels else 0.0
    k0 = math.sqrt(0.5 * math.pi / x) / s * (math.exp(-x) if x <= _SCALE_X else 1.0)
    g = mu + x + 0.5 - a1 * h
    rel0 = i * _EPS * (0.5 + 34.0 * (s - 1.0) / s) + tail / s + 4.0 * _EPS
    return k0, k0 * g / x, rel0, rel0 + 27.0 * i * _EPS * a1 * h / g + 3.0 * _EPS


def _k_climb(mu: float, x: float, top: int) -> tuple[float, float, float, float, float]:
    """(K_{mu+top-2}, K_{mu+top-1}, K_{mu+top}, rel0, rel1) for top >= 1, e^x-scaled when x > _SCALE_X.

    K_mu and K_{mu+1}, with claims rel0 and rel1, then forward recurrence in
    the order: K is its dominant solution and every term is positive past
    mu + 1, so a step adds at most its five roundings, 2.5 eps, and K at
    level n >= 1 claims max(rel0, rel1) + 2.5 (n - 1) eps.
    """
    k0, k1, rel0, rel1 = (_k_cf2 if x >= _TEMME_X else _k_temme)(mu, x)
    xi2 = 2.0 / x
    kp = 0.0
    for i in range(1, top):
        kp, k0, k1 = k0, k1, (mu + i) * xi2 * k1 + k0
    return kp, k0, k1, rel0, rel1


@lru_cache(maxsize=200_000)
def _besselk(nu: float, x: float) -> tuple[float, float, str]:
    """(value, rel error, path) for K_nu(x), e^x-scaled when x > _SCALE_X.

    mu = |nu| - round(|nu|) lies in [-1/2, 1/2]; evaluating at |nu|
    realises K_{-nu} = K_nu exactly.
    """
    an = abs(nu)
    nl = round(an)
    _, k0, k1, rel0, rel1 = _k_climb(an - nl, x, nl or 1)
    val, rel = (k1, max(rel0, rel1) + 2.5 * (nl - 1) * _EPS) if nl else (k0, rel0)
    if not math.isfinite(val):
        raise AccuracyError(f"K_{nu}({x}) overflows double precision")
    return val, rel, K_PATHS[x >= _TEMME_X]


# ---------------------------------------------------------------------------
# public point evaluation
# ---------------------------------------------------------------------------

def _unscale_i(val: float, x: float) -> float:
    return val * math.exp(x) if x > _SCALE_X else val


def _unscale_k(val: float, x: float) -> float:
    return val * math.exp(-x) if x > _SCALE_X else val


def _check_target(rel: float, target: float, what: str) -> None:
    if target < 1e-14:
        raise DomainError(f"target_rel_err={target} below the 1e-14 floor")
    if rel > target:
        raise AccuracyError(f"{what}: certified error {rel:.3e} exceeds target {target:.3e}")


def eval_I(ctx: EvalContext, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> ValueWithError:
    """I_nu(x) with a certified relative-error bound."""
    val, rel, _ = _besseli(ctx.nu, ctx.x)
    _check_target(rel, target_rel_err, f"I_{ctx.nu}({ctx.x})")
    out = _unscale_i(val, ctx.x)
    if not math.isfinite(out):
        raise AccuracyError(f"I_{ctx.nu}({ctx.x}) overflows double precision")
    return ValueWithError(out, rel)


def eval_K(ctx: EvalContext, target_rel_err: float = DEFAULT_TARGET_REL_ERR) -> ValueWithError:
    """K_nu(x) with a certified relative-error bound; K_{-nu} = K_nu."""
    val, rel, _ = _besselk(ctx.nu, ctx.x)
    _check_target(rel, target_rel_err, f"K_{ctx.nu}({ctx.x})")
    out = _unscale_k(val, ctx.x)
    if not math.isfinite(out) or out <= 0.0:
        raise AccuracyError(f"K_{ctx.nu}({ctx.x}) not representable in double precision")
    return ValueWithError(out, rel)


def evaluation_path(fn: str, nu: float, x: float) -> str:
    """Name of the evaluation path ('series', 'cf1', ...) used for I, K or ratio_I."""
    if fn == "I":
        return _besseli(nu, x)[2]
    if fn == "K":
        return _besselk(nu, x)[2]
    if fn == "ratio_I":
        return RATIO_I_PATHS[_ratio_i_asym(nu, x)]
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
    """
    if x < _SMALL_X:
        e = nu + 1.0  # exact for nu <= -1/2, where it may be small
        r = 2.0 / x if e == 0.0 else x / (2.0 * e + x * x / (2.0 * (e + 1.0)))
        if r == 0.0:
            raise AccuracyError(f"ratio_I underflows at nu={nu}, x={x}")
        if _LENTZ_TINY * (r + 1.0 / r) > _EPS / 16.0:
            rel = 0.5 * x * x + 3.0 * _EPS
            return r, rel + _MIN_SUBNORMAL / r if r < _MIN_NORMAL else rel
    tiny = _LENTZ_TINY
    f = tiny
    c = f
    d = 0.0
    for k in range(1, 100_000):
        b = 2.0 * (nu + k) / x
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 4.0 * _EPS:
            return f, tiny * (f + 1.0 / f) + abs(delta - 1.0) + (5.0 * k + 2.0) * _EPS
    raise AccuracyError(f"ratio_I continued fraction failed to converge at nu={nu}, x={x}")


def _ratio_i_asym(nu: float, x: float) -> bool:
    # whether _besseli takes the large-argument expansion at both nu and nu + 1
    return x >= _ASYM_BASE + max(nu * nu, (nu + 1.0) * (nu + 1.0))


RATIO_I_PATHS = ("cf1", "asymptotic")  # continued fraction below the switch, expansion quotient above


@lru_cache(maxsize=200_000)
def _ratio_i(nu: float, x: float) -> tuple[float, float]:
    """(I_{nu+1}/I_nu, rel error bound) by one route per region.

    Below x = 30 + max(nu^2, (nu+1)^2) the continued fraction CF1
    (_ratio_i_cf, claim derived there).  At and above it, where _besseli
    takes the large-argument expansion at both orders, the quotient of the
    two expansions: their claims e1 + e0 and one rounding, eps covering the
    second-order terms.  The power-series quotient is no route; it is
    the harness check consistency:ratio_I_dual_path and the claim tests.
    """
    if _ratio_i_asym(nu, x):
        num, e1 = _i_asym(nu + 1.0, x)
        den, e0 = _i_asym(nu, x)
        r, rel = num / den, e0 + e1 + _EPS
    else:
        r, rel = _ratio_i_cf(nu, x)
    if nu >= -0.5 and r > 1.0:
        r = 1.0  # provably < 1 there; rounding may land a few ulp above
    return r, rel


def ratio_I(ctx: EvalContext) -> ValueWithError:
    """I_{nu+1}(x)/I_nu(x): the continued fraction, or the expansions' quotient at large x."""
    if ctx.nu < -1.0:
        raise DomainError(f"ratio_I needs nu >= -1 (I_nu > 0); got nu={ctx.nu}")
    r, rel = _ratio_i(ctx.nu, ctx.x)
    if not _MIN_NORMAL <= r < math.inf:
        raise AccuracyError(f"ratio_I at nu={ctx.nu}, x={ctx.x} not a normal double")
    return ValueWithError(r, rel)


RATIO_K_CROSSCHECK_REL = 1e-9


@lru_cache(maxsize=200_000)
def _k_ladder(nu: float, x: float) -> tuple[float, float, float, float, float, float]:
    """(K_{nu-1}, em, K_nu, e0, K_{nu+1}/K_nu, er), cross-checked.

    Orders whose mu has the same bits share one base evaluation and one
    climb, which gives each the bits _besselk gives it alone; their levels
    round(|order|) lie within 2 of each other.  An order whose mu differs
    (a sign change near nu = 0, a round() tie at .5) climbs its own.
    """
    levels = []
    tops: dict[float, int] = {}
    for order in (nu - 1.0, nu, nu + 1.0):
        an = abs(order)
        nl = round(an)
        mu = an - nl
        levels.append((order, mu, nl))
        tops[mu] = max(tops.get(mu, 1), nl)
    climbs = {}
    ks = []
    for order, mu, nl in levels:
        if mu not in climbs:
            climbs[mu] = _k_climb(mu, x, tops[mu])
        climb = climbs[mu]
        val = climb[nl - tops[mu] + 2]  # the climb holds levels top - 2 .. top
        if not math.isfinite(val):
            raise AccuracyError(f"K_{order}({x}) overflows double precision")
        ks.append((val, max(climb[3], climb[4]) + 2.5 * (nl - 1) * _EPS if nl else climb[3]))
    (km, em), (k0, e0), (k1, e1) = ks
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
    r, rel = _k_ladder(ctx.nu, ctx.x)[4:]
    return ValueWithError(r, rel)


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
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


def _phi_k(ctx: EvalContext) -> ValueWithError:
    # phiK = 1 - (K_{nu-1}/K_nu)(K_{nu+1}/K_nu); the first factor equals
    # ratio_K - 2 nu/x by the recurrence (which _k_ladder cross-checks) but is
    # computed as a direct quotient to dodge the small-x cancellation
    km, em, k0, e0, r, er = _k_ladder(ctx.nu, ctx.x)
    a = km / k0
    val = 1.0 - a * r
    abs_err = a * r * (er + em + e0) + 4.0 * _EPS * (1.0 + a * r)
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


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
    val, abs_err = _y_abs(ctx)
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


def _z(ctx: EvalContext) -> ValueWithError:
    r, er = _k_ladder(ctx.nu, ctx.x)[4:]
    val = ctx.nu - ctx.x * r
    abs_err = ctx.x * r * er + 2.0 * _EPS * (abs(ctx.nu) + ctx.x * r)
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


def _p(ctx: EvalContext) -> ValueWithError:
    # scaling factors e^-x and e^x cancel, so the product never overflows
    vi, ei, _ = _besseli(ctx.nu, ctx.x)
    vk, ek, _ = _besselk(ctx.nu, ctx.x)
    return ValueWithError(vi * vk, ei + ek + 2.0 * _EPS)


def _shifted(base: float, base_err: float, sign: float, shift: float,
             shift_err: float = 0.0) -> ValueWithError:
    # sign * base + shift, propagating the absolute errors; shift_err is the
    # shift's error beyond its last rounding
    val = sign * base + shift
    abs_err = base_err + 2.0 * _EPS * (abs(shift) + abs(base)) + shift_err
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


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
        return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)
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
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


def _omega(ctx: EvalContext) -> ValueWithError:
    p = _p(ctx)
    if _MIN_NORMAL <= p.value < math.inf:
        return ValueWithError(ctx.x * p.value, p.rel_error_bound + _EPS)
    # P = I K over- or underflows (tiny x, -1 < nu < 0): the Wronskian
    # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x gives omega = 1/(r_I + r_K), a sum
    # of two positive ratios; their absolute errors add, plus two roundings
    ri, ei = _ratio_i(ctx.nu, ctx.x)
    k0, e0, _ = _besselk(ctx.nu, ctx.x)
    k1, e1, _ = _besselk(ctx.nu + 1.0, ctx.x)
    rk = k1 / k0
    den = ri + rk
    return ValueWithError(1.0 / den, (ri * ei + rk * (e0 + e1 + 2.0 * _EPS)) / den + _EPS)


def _delta_i(ctx: EvalContext) -> ValueWithError:
    fi = _phi_i(ctx)
    vi, ei, _ = _besseli(ctx.nu, ctx.x)
    iv = _unscale_i(vi, ctx.x)
    val = iv * iv * fi.value  # inf (not OverflowError) when I^2 overflows
    return ValueWithError(val, 2.0 * ei + fi.rel_error_bound + 2.0 * _EPS)


def _delta_k(ctx: EvalContext) -> ValueWithError:
    fk = _phi_k(ctx)
    _, _, vk, ek, _, _ = _k_ladder(ctx.nu, ctx.x)
    kv = _unscale_k(vk, ctx.x)
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
    QuantityKind.P: QuantitySpec("I(nu,x)*K(nu,x)", -1.0, ("I", "K"), _p),
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
    kind = QuantityKind(kind)
    spec = QUANTITIES[kind]
    if ctx.nu < spec.min_nu:
        raise DomainError(f"quantity {kind.value!r} needs nu >= {spec.min_nu}; got nu={ctx.nu}")
    v = spec.evaluate(ctx)
    # products and quotients of representable factors may still overflow, or
    # underflow below the normal range where they lose bits their claim keeps;
    # an exact 0 stands only with an infinite claim
    val, rel = v.value, v.rel_error_bound
    if not (_MIN_NORMAL <= abs(val) < math.inf or (val == 0.0 and rel == math.inf)) or math.isnan(rel):
        raise AccuracyError(f"quantity {kind.value!r} not representable at nu={ctx.nu}, x={ctx.x}")
    return v


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

    if order == 1:
        def d1(step: float) -> float:
            return (f(ctx.x + step) - f(ctx.x - step)) / (2.0 * step)

        return (4.0 * d1(0.5 * h) - d1(h)) / 3.0

    f0 = f(ctx.x)

    def d2(step: float) -> float:
        return (f(ctx.x + step) - 2.0 * f0 + f(ctx.x - step)) / (step * step)

    return (4.0 * d2(0.5 * h) - d2(h)) / 3.0


# ---------------------------------------------------------------------------
# evaluator self-checks
# ---------------------------------------------------------------------------

OVERLAP_AGREEMENT_REL = 1e-11


def dual_path_checks() -> list[tuple[str, float]]:
    """Compare independent evaluation paths where their regions overlap.

    I: power series against the large-argument expansion just above the
    switch; K: Temme's series against CF2 for K_mu and K_{mu+1} on both
    sides of x = _TEMME_X.  Returns (label, relative difference) pairs; any
    entry exceeding OVERLAP_AGREEMENT_REL indicates an evaluator bug.
    """
    out: list[tuple[str, float]] = []
    for nu in (0.0, 0.3, 1.0, 2.5, 4.0):
        x = _ASYM_BASE + nu * nu + 1.0
        vs, _ = _i_series(nu, x)
        va, _ = _i_asym(nu, x)
        out.append((f"I series/asymptotic nu={nu} x={x:g}", abs(vs - va) / abs(va)))
    for mu in (-0.4, -0.2, 0.0, 0.3, 0.5):
        for x in (1.5, 2.0, 2.5):
            t = _k_temme(mu, x)
            c = _k_cf2(mu, x)
            for j in (0, 1):
                out.append((f"K temme/cf2 order={mu + j:g} x={x:g}", abs(t[j] - c[j]) / c[j]))
    return out
