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
* ratio_I = I_{nu+1}/I_nu: the value is the continued fraction; the check
  route is the quotient I_{nu+1}/I_nu with each order on I's own path
  (series below 30 + order^2, large-argument expansion above).
* K_{nu-1}, K_nu, K_{nu+1} (ratio_K, z, phiK, kratio, deltaK and the rest of
  the K side): one ladder, i.e. one base evaluation and one climb for all
  orders whose mu has the same bits; an order whose mu differs (a sign
  change near nu = 0, a round() tie at .5) gets its own.  The ladder gives
  each order the bits it gets alone.

Every evaluation returns a ``ValueWithError`` carrying a claimed bound on
the relative error (truncation tail + rounding).  Ratios are computed by
two independent routes and cross-checked; disagreement raises
``CrossCheckError`` since it signals an evaluator bug, not an unlucky
input.  The ratio_I claim is derived through its check route: the
distance between the routes plus the check route's own claims.

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
    "QUANTITY_EXPRESSIONS",
    "K_PATHS",
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


def _kahan_add(s: float, c: float, term: float) -> tuple[float, float]:
    # one compensated-summation step
    t = term - c
    u = s + t
    c = (u - s) - t
    return u, c


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
    n = 0
    tail = math.inf
    while n < 2000:
        n += 1
        t *= q / (n * (n + nu))
        s, comp = _kahan_add(s, comp, t)
        s_abs += abs(t)
        ratio = q / ((n + 1) * (n + 1 + nu))
        # q and 1e-18 s may underflow to 0 at tiny x, where the tail is nil
        if 0.0 <= ratio < 0.5 and abs(t) <= 1e-18 * abs(s):
            tail = abs(t) * ratio / (1.0 - ratio)
            break
    if not math.isfinite(tail):
        raise AccuracyError(f"I_{nu}({x}): series did not converge within 2000 terms")
    if not _MIN_NORMAL <= abs(s) < math.inf:
        raise AccuracyError(f"I_{nu}({x}): series sum not a normal double")
    cancel = s_abs / abs(s)
    rel = tail / abs(s) + (3.0 * n + 4.0) * _EPS * cancel
    if x > _SCALE_X:
        s *= math.exp(-x)
        rel += 2.0 * _EPS
    return s, rel


def _asym_bracket(nu: float, x: float) -> tuple[float, float]:
    # sum of the bracket of I's large-argument expansion
    four_nu2 = 4.0 * nu * nu
    c = 1.0
    s, comp = 1.0, 0.0
    err_term = math.inf
    prev = math.inf
    for k in range(1, 80):
        m = 2 * k - 1
        c *= (m * m - four_nu2) / (8.0 * k * x)
        if abs(c) >= prev:
            err_term = prev  # divergence onset: bound by last decreasing term
            break
        s, comp = _kahan_add(s, comp, c)
        prev = abs(c)
        if abs(c) < 1e-18:
            err_term = abs(c)
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


@lru_cache(maxsize=200_000)
def _besseli(nu: float, x: float) -> tuple[float, float, str]:
    """(value, rel error, path) for I_nu(x), e^-x-scaled when x > _SCALE_X."""
    if x >= _ASYM_BASE + nu * nu:
        val, rel = _i_asym(nu, x)
        return val, rel, "asymptotic"
    val, rel = _i_series(nu, x)
    return val, rel, "series"


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
    """Name of the evaluation path ('series', 'asymptotic', ...) used for I or K."""
    if fn == "I":
        return _besseli(nu, x)[2]
    if fn == "K":
        return _besselk(nu, x)[2]
    raise DomainError(f"unknown function tag {fn!r}")


# ---------------------------------------------------------------------------
# ratios (dual-route, cross-checked)
# ---------------------------------------------------------------------------

def _ratio_i_cf(nu: float, x: float) -> float:
    # I_{nu+1}/I_nu as the continued fraction 1/(b1 + 1/(b2 + ...)),
    # b_k = 2(nu+k)/x, from the three-term recurrence (modified Lentz;
    # tiny must satisfy 1/tiny^2 < inf since b1 = 0 at nu = -1)
    tiny = 1e-30
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
            return f
    raise AccuracyError(f"ratio_I continued fraction failed to converge at nu={nu}, x={x}")


RATIO_AGREEMENT_REL = 1e-10


@lru_cache(maxsize=200_000)
def _ratio_i(nu: float, x: float) -> tuple[float, float]:
    """(I_{nu+1}/I_nu, rel error): the continued fraction, checked by a quotient.

    The check route divides I_{nu+1} by I_nu, each by the path _besseli takes
    at its order (uncached), with claims e1, e0.  By the triangle inequality
    the continued fraction's error is at most its distance to the quotient
    plus the quotient's error, e0 + e1 and one rounding; 4 eps also covers
    the second-order terms and taking both relative to r_cf.
    """
    num, e1, _ = _besseli.__wrapped__(nu + 1.0, x)
    den, e0, _ = _besseli.__wrapped__(nu, x)
    r_check = num / den
    r_cf = _ratio_i_cf(nu, x)
    diff = abs(r_cf - r_check)
    if diff > RATIO_AGREEMENT_REL * abs(r_cf):
        raise CrossCheckError(
            f"ratio_I paths disagree at nu={nu}, x={x}: "
            f"quotient {r_check!r} vs continued fraction {r_cf!r}"
        )
    rel = diff / abs(r_cf) + e0 + e1 + 4.0 * _EPS
    if nu >= -0.5 and r_cf > 1.0:
        r_cf = 1.0  # provably < 1 there; rounding may land a few ulp above
    return r_cf, rel


def ratio_I(ctx: EvalContext) -> ValueWithError:
    """I_{nu+1}(x)/I_nu(x), computed by series quotient and continued fraction."""
    if ctx.nu < -1.0:
        raise DomainError(f"ratio_I needs nu >= -1 (I_nu > 0); got nu={ctx.nu}")
    r, rel = _ratio_i(ctx.nu, ctx.x)
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


QUANTITY_EXPRESSIONS: dict[QuantityKind, str] = {
    QuantityKind.Y: "x*I'(nu,x)/I(nu,x)",
    QuantityKind.Z: "x*K'(nu,x)/K(nu,x)",
    QuantityKind.PHI_I: "1 - I(nu-1,x)*I(nu+1,x)/I(nu,x)^2",
    QuantityKind.PHI_K: "1 - K(nu-1,x)*K(nu+1,x)/K(nu,x)^2",
    QuantityKind.PHI_P: "1 - P(nu-1,x)*P(nu+1,x)/P(nu,x)^2 = phiI + phiK - phiI*phiK",
    QuantityKind.P: "I(nu,x)*K(nu,x)",
    QuantityKind.OMEGA: "x*I(nu,x)*K(nu,x)",
    QuantityKind.DELTA_I: "I(nu,x)^2 - I(nu-1,x)*I(nu+1,x) = I(nu,x)^2*phiI",
    QuantityKind.DELTA_K: "K(nu,x)^2 - K(nu-1,x)*K(nu+1,x) = K(nu,x)^2*phiK",
    QuantityKind.W: "sqrt(x^2+nu^2) - y",
    QuantityKind.U: "sqrt(x^2+mu) - y,  mu = nu^2 - 1/4",
    QuantityKind.LAMBDA: "y - sqrt(x^2+(nu+1)^2)",
    QuantityKind.Q: "z + sqrt(x^2+mu),  mu = nu^2 - 1/4",
    QuantityKind.T: "z + sqrt(x^2+nu^2)",
    QuantityKind.B2HAT: "-1/(x*phiI)",
    QuantityKind.V_EFF: "K(nu-1,x)*K(nu+1,x)/K(nu,x)^2 - 1 = -phiK  (nu=mu_gig, x=1/w_gig)",
    QuantityKind.N_C: "(x^2/4)/(nu+1+sqrt(x^2+(nu+1)^2))",
    QuantityKind.N_S: "(x/4)*I(nu+1,x)/I(nu,x)",
    QuantityKind.I_RATIO: "I(nu,x)/I(nu-1,x)",
    QuantityKind.K_RATIO: "K(nu,x)/K(nu-1,x)",
}

# minimal order for each kind (None = whole supported range); the I-side
# quantities need I_nu > 0, hence nu >= -1 via the integer-order symmetry
_MIN_NU: dict[QuantityKind, float | None] = {
    QuantityKind.Y: -1.0,
    QuantityKind.Z: None,
    QuantityKind.PHI_I: -1.0,
    QuantityKind.PHI_K: None,
    QuantityKind.PHI_P: -1.0,
    QuantityKind.P: -1.0,
    QuantityKind.OMEGA: -1.0,
    QuantityKind.DELTA_I: -1.0,
    QuantityKind.DELTA_K: None,
    QuantityKind.W: -1.0,
    QuantityKind.U: -1.0,
    QuantityKind.LAMBDA: -1.0,
    QuantityKind.Q: None,
    QuantityKind.T: None,
    QuantityKind.B2HAT: 0.0,
    QuantityKind.V_EFF: None,
    QuantityKind.N_C: -1.0,
    QuantityKind.N_S: -1.0,
    QuantityKind.I_RATIO: 0.0,
    QuantityKind.K_RATIO: None,
}


def _phi_i(ctx: EvalContext) -> ValueWithError:
    # phiI = 1 - (I_{nu-1}/I_nu)(I_{nu+1}/I_nu) with
    # I_{nu-1}/I_nu = 2 nu/x + r via the three-term recurrence; never forms
    # the Turanian by direct subtraction of function values
    r, er = _ratio_i(ctx.nu, ctx.x)
    a = 2.0 * ctx.nu / ctx.x + r
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


def _y(ctx: EvalContext) -> ValueWithError:
    r, er = _ratio_i(ctx.nu, ctx.x)
    val = ctx.nu + ctx.x * r
    abs_err = ctx.x * r * er + 2.0 * _EPS * (abs(ctx.nu) + ctx.x * r)
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


def _shifted(base: ValueWithError, shift: float, sign: float) -> ValueWithError:
    # sign * base.value + shift, propagating the absolute error
    val = sign * base.value + shift
    abs_err = base.abs_error_bound + 2.0 * _EPS * (abs(shift) + abs(base.value))
    return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)


def quantity(kind: QuantityKind, ctx: EvalContext) -> ValueWithError:
    """Evaluate one derived quantity at (nu, x) with a propagated error bound."""
    kind = QuantityKind(kind)
    v = _quantity(kind, ctx)
    # products and quotients of representable factors may still overflow, or
    # underflow below the normal range where they lose bits their claim keeps;
    # an exact 0 stands only with an infinite claim
    val, rel = v.value, v.rel_error_bound
    if not (_MIN_NORMAL <= abs(val) < math.inf or (val == 0.0 and rel == math.inf)) or math.isnan(rel):
        raise AccuracyError(f"quantity {kind.value!r} not representable at nu={ctx.nu}, x={ctx.x}")
    return v


def _quantity(kind: QuantityKind, ctx: EvalContext) -> ValueWithError:
    min_nu = _MIN_NU[kind]
    if min_nu is not None and ctx.nu < min_nu:
        raise DomainError(f"quantity {kind.value!r} needs nu >= {min_nu}; got nu={ctx.nu}")
    nu, x = ctx.nu, ctx.x

    if kind is QuantityKind.Y:
        return _y(ctx)
    if kind is QuantityKind.Z:
        return _z(ctx)
    if kind is QuantityKind.PHI_I:
        return _phi_i(ctx)
    if kind is QuantityKind.PHI_K:
        return _phi_k(ctx)
    if kind is QuantityKind.PHI_P:
        fi = _phi_i(ctx)
        fk = _phi_k(ctx)
        val = fi.value + fk.value - fi.value * fk.value
        abs_err = fi.abs_error_bound * (1.0 + abs(fk.value)) + fk.abs_error_bound * (1.0 + abs(fi.value))
        return ValueWithError(val, abs_err / abs(val) if val != 0.0 else math.inf)
    if kind is QuantityKind.P:
        return _p(ctx)
    if kind is QuantityKind.OMEGA:
        p = _p(ctx)
        return ValueWithError(x * p.value, p.rel_error_bound + _EPS)
    if kind is QuantityKind.DELTA_I:
        fi = _phi_i(ctx)
        vi, ei, _ = _besseli(nu, x)
        iv = _unscale_i(vi, x)
        val = iv * iv * fi.value  # inf (not OverflowError) when I^2 overflows
        return ValueWithError(val, 2.0 * ei + fi.rel_error_bound + 2.0 * _EPS)
    if kind is QuantityKind.DELTA_K:
        fk = _phi_k(ctx)
        _, _, vk, ek, _, _ = _k_ladder(nu, x)
        kv = _unscale_k(vk, x)
        val = kv * kv * fk.value
        return ValueWithError(val, 2.0 * ek + fk.rel_error_bound + 2.0 * _EPS)
    if kind is QuantityKind.W:
        return _shifted(_y(ctx), math.hypot(x, nu), -1.0)
    if kind is QuantityKind.U:
        if x * x + ctx.mu < 0.0:
            raise DomainError(f"quantity 'u' needs x^2 + nu^2 - 1/4 >= 0; got nu={nu}, x={x}")
        return _shifted(_y(ctx), math.sqrt(x * x + ctx.mu), -1.0)
    if kind is QuantityKind.LAMBDA:
        return _shifted(_y(ctx), -math.hypot(x, nu + 1.0), +1.0)
    if kind is QuantityKind.Q:
        if ctx.mu < 0.0:
            raise DomainError(f"quantity 'q' needs mu = nu^2 - 1/4 >= 0; got nu={nu}")
        return _shifted(_z(ctx), math.sqrt(x * x + ctx.mu), +1.0)
    if kind is QuantityKind.T:
        return _shifted(_z(ctx), math.hypot(x, nu), +1.0)
    if kind is QuantityKind.B2HAT:
        fi = _phi_i(ctx)
        val = -1.0 / (x * fi.value)
        return ValueWithError(val, fi.rel_error_bound + 2.0 * _EPS)
    if kind is QuantityKind.V_EFF:
        fk = _phi_k(ctx)
        return ValueWithError(-fk.value, fk.rel_error_bound)
    if kind is QuantityKind.N_C:
        b = nu + 1.0
        val = 0.25 * x * x / (b + math.hypot(x, b))
        return ValueWithError(val, 6.0 * _EPS)
    if kind is QuantityKind.N_S:
        r, er = _ratio_i(nu, x)
        return ValueWithError(0.25 * x * r, er + 2.0 * _EPS)
    if kind is QuantityKind.I_RATIO:
        # I_nu/I_{nu-1} = 1/(2 nu/x + r) with r = I_{nu+1}/I_nu
        r, er = _ratio_i(nu, x)
        a = 2.0 * nu / x + r
        val = 1.0 / a
        return ValueWithError(val, er * r / abs(a) + 4.0 * _EPS)
    if kind is QuantityKind.K_RATIO:
        km, em, k0, e0, _, _ = _k_ladder(nu, x)
        return ValueWithError(k0 / km, e0 + em + 2.0 * _EPS)
    raise DomainError(f"unknown quantity kind {kind!r}")


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
