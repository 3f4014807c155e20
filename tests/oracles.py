"""Independent reference oracles used to freeze expected test values.

These deliberately avoid the package's float evaluation paths: the first-
kind function is summed directly from its power series in 30-digit
arithmetic with an explicit geometric tail bound, and the second-kind
function is a trapezoidal quadrature of the cosh integral with a
doubly-exponential cutoff, halving the step until two sums agree.  The
freeze script cross-checks both against tests/mp_reference.py, and the
acceptance tests against the package.
"""

from __future__ import annotations

from mpmath import mp, mpf, cosh, exp, gamma, log, mpmathify, sqrt

mp.dps = 30


def series_I(nu, x, tail_rel=mpf("1e-25")):
    """I_nu(x) by direct power-series summation with a tail bound."""
    nu = mpmathify(nu)
    x = mpmathify(x)
    if nu < 0 and nu == int(nu):
        nu = -nu
    half = x / 2
    term = half ** nu / gamma(nu + 1)
    total = term
    n = 0
    while n < 5000:
        n += 1
        term *= half * half / (n * (n + nu))
        total += term
        ratio = half * half / ((n + 1) * (n + 1 + nu))
        if 0 < ratio < mpf("0.5") and abs(term) < tail_rel * abs(total):
            # remaining terms are bounded by a geometric series with that ratio
            return total
    raise RuntimeError(f"series_I did not converge for nu={nu}, x={x}")


def quad_K(nu, x):
    """K_nu(x) by trapezoidal quadrature of int_0^inf e^(-x cosh t) cosh(nu t) dt.

    The integrand decays doubly exponentially; the cutoff T is pushed until
    the integrand is below 1e-35 of the peak and the step is halved until
    two successive sums agree to 1e-25.
    """
    nu = abs(mpmathify(nu))
    x = mpmathify(x)

    def f(t):
        return exp(-x * cosh(t)) * cosh(nu * t)

    peak = max(f(0), f(mpf(1)), f(mpf(3)))
    t = mpf(1)
    while f(t) > peak * mpf("1e-35"):
        t += 1
    big_t = t

    def trap(h):
        s = f(mpf(0)) / 2
        k = 1
        while k * h <= big_t:
            s += f(k * h)
            k += 1
        return h * s

    h = mpf("0.5")
    prev = trap(h)
    for _ in range(8):
        h /= 2
        cur = trap(h)
        if abs(cur - prev) < mpf("1e-25") * abs(cur):
            return cur
        prev = cur
    return prev


def oracle_ratio_I(nu, x):
    return series_I(nu + 1, x) / series_I(nu, x)


def oracle_y(nu, x):
    return mpmathify(nu) + mpmathify(x) * oracle_ratio_I(nu, x)


def oracle_z(nu, x):
    return mpmathify(nu) - mpmathify(x) * quad_K(nu + 1, x) / quad_K(nu, x)


def oracle_phiI(nu, x):
    i0 = series_I(nu, x)
    return 1 - series_I(nu - 1, x) * series_I(nu + 1, x) / (i0 * i0)


def oracle_phiK(nu, x):
    k0 = quad_K(nu, x)
    return 1 - quad_K(nu - 1, x) * quad_K(nu + 1, x) / (k0 * k0)


def oracle_phiP(nu, x):
    fi = oracle_phiI(nu, x)
    fk = oracle_phiK(nu, x)
    return fi + fk - fi * fk
