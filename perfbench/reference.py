"""Reference values computed apart from the program, and the checks that use them.

Two references, neither of them a stored copy of the program's output:

* double precision from `scipy.special` (iv, kv and their scaled forms),
  which checks every value to REF_RTOL of the magnitude of the terms the
  quantity is built from, so cancellation in the reference cannot raise a
  false alarm;
* 40-digit `mpmath`, which checks the promised property
  |error| <= rel_error_bound on a sample and on the fixed fault operations.

A documented DomainError or AccuracyError counts as correct only where the
reference confirms it: `q` and `u` with x^2 + nu^2 - 1/4 < 0, `deltaI` where
I_nu^2 overflows, `deltaK` where K_nu^2 underflows to zero (and, as an
alternative to a value, where deltaK is below the normal range), `I` near a
zero of I_nu, where its power series cancels.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special as sp

REF_RTOL = 1e-10  # 100x the largest scipy-vs-program gap seen on 10^6 points
LOG_DBL_MAX = math.log(1.7976931348623157e308)
LOG_DBL_MIN = math.log(2.2250738585072014e-308)
LOG_HALF_MIN_SUBNORMAL = math.log(5e-324) - math.log(2.0)  # K*K rounds to 0 below
EDGE = 1e-6  # on a knife edge of overflow or underflow either outcome is right


def _arr(v):
    return np.asarray(v, dtype=float)


def _series_abs_sum(nu, x, terms: int = 1200):
    """sum_n |(x/2)^(2n+nu) / (n! Gamma(n+nu+1))|, the size of I_nu's power-series terms."""
    n = np.arange(terms)[None, :]
    nu_c, x_c = nu[:, None], x[:, None]
    log_t = (2 * n + nu_c) * np.log(x_c / 2) - sp.gammaln(n + 1) - sp.gammaln(n + nu_c + 1)
    neg_int = (nu_c < 0) & (nu_c == np.round(nu_c))
    log_t = np.where(neg_int & (n + nu_c + 1 <= 0), -np.inf, log_t)  # 1/Gamma at its poles
    top = log_t.max(axis=1, keepdims=True)
    return np.exp(top[:, 0]) * np.exp(log_t - top).sum(axis=1)


def scipy_ref(tag: str, nu, x):
    """(value, scale, expect) arrays; expect is '' or the documented error's name."""
    nu, x = _arr(nu), _arr(x)
    with np.errstate(all="ignore"):
        ive, kve = sp.ive, sp.kve
        expect = np.full(nu.shape, "", dtype=object)

        def ri(n):
            return ive(n + 1.0, x) / ive(n, x)

        def rk(n):
            return kve(n + 1.0, x) / kve(n, x)

        def y():
            r = ri(nu)
            return nu + x * r, np.abs(nu) + x * np.abs(r)

        def z():
            r = rk(nu)
            return nu - x * r, np.abs(nu) + x * np.abs(r)

        def phi(f):
            ab = f(nu - 1.0, x) * f(nu + 1.0, x) / f(nu, x) ** 2
            return 1.0 - ab, 1.0 + np.abs(ab)

        def shifted(base, shift, sign):
            v, s = base
            return sign * v + shift, s + np.abs(shift)

        mu = nu * nu - 0.25
        if tag == "I":
            v = sp.iv(nu, x)
            s = np.maximum(np.abs(v), _series_abs_sum(nu, x))
            # near a zero of I_nu (nu < -1, not an integer) the power series
            # cancels; past one lost digit a certified 1e-12 may be refused
            expect[s >= 10.0 * np.abs(v)] = "either"
        elif tag == "K":
            v = sp.kv(nu, x)
            s = np.abs(v)
        elif tag == "ratio_I":
            v = ri(nu)
            s = np.abs(v)
        elif tag == "ratio_K":
            v = rk(nu)
            s = np.abs(v)
        elif tag == "y":
            v, s = y()
        elif tag == "z":
            v, s = z()
        elif tag == "phiI":
            v, s = phi(ive)
        elif tag in ("phiK", "veff"):
            v, s = phi(kve)
            if tag == "veff":
                v = -v
        elif tag == "phiP":
            v, s = phi(lambda n, t: ive(n, t) * kve(n, t))
        elif tag == "P":
            v = ive(nu, x) * kve(nu, x)
            s = np.abs(v)
        elif tag == "omega":
            v = x * ive(nu, x) * kve(nu, x)
            s = np.abs(v)
        elif tag == "deltaI":
            f, fs = phi(ive)
            log_sq = 2.0 * (np.log(ive(nu, x)) + x)
            sq = np.exp(log_sq)
            v, s = sq * f, sq * fs
            expect[log_sq > LOG_DBL_MAX + EDGE] = "AccuracyError"
            expect[np.abs(log_sq - LOG_DBL_MAX) <= EDGE] = "either"
        elif tag == "deltaK":
            f, fs = phi(kve)
            log_sq = 2.0 * (np.log(kve(nu, x)) - x)
            sq = np.exp(log_sq)
            v, s = sq * f, sq * fs
            # below the normal range no double carries the full precision
            expect[log_sq + np.log(np.abs(f)) < LOG_DBL_MIN] = "either"
            expect[log_sq < LOG_HALF_MIN_SUBNORMAL - EDGE] = "AccuracyError"
        elif tag == "w":
            v, s = shifted(y(), np.hypot(x, nu), -1.0)
        elif tag == "u":
            v, s = shifted(y(), np.sqrt(np.maximum(x * x + mu, 0.0)), -1.0)
            expect[x * x + mu < 0.0] = "DomainError"
        elif tag == "lambda":
            v, s = shifted(y(), -np.hypot(x, nu + 1.0), 1.0)
        elif tag == "q":
            v, s = shifted(z(), np.sqrt(np.maximum(x * x + mu, 0.0)), 1.0)
            expect[mu < 0.0] = "DomainError"
        elif tag == "t":
            v, s = shifted(z(), np.hypot(x, nu), 1.0)
        elif tag == "b2hat":
            f, fs = phi(ive)
            v = -1.0 / (x * f)
            s = np.abs(v) * fs / np.abs(f)
        elif tag == "nc":
            b = nu + 1.0
            v = 0.25 * x * x / (b + np.hypot(x, b))
            s = np.abs(v)
        elif tag == "ns":
            v = 0.25 * x * ri(nu)
            s = np.abs(v)
        elif tag == "iratio":
            v = ive(nu, x) / ive(nu - 1.0, x)
            s = np.abs(v)
        elif tag == "kratio":
            v = kve(nu, x) / kve(nu - 1.0, x)
            s = np.abs(v)
        else:
            raise KeyError(tag)
    return v, s, expect


def mp_ref(tag: str, nu: float, x: float):
    """The quantity at 40 digits, from mpmath's besseli/besselk."""
    with mp.workdps(40):
        nu, x = mp.mpf(nu), mp.mpf(x)

        def I(n):
            return mp.besseli(n, x)

        def K(n):
            return mp.besselk(n, x)

        def y():
            return nu + x * I(nu + 1) / I(nu)

        def z():
            return nu - x * K(nu + 1) / K(nu)

        def phi(f):
            return 1 - f(nu - 1) * f(nu + 1) / f(nu) ** 2

        mu = nu * nu - mp.mpf(1) / 4
        table = {
            "I": lambda: I(nu), "K": lambda: K(nu),
            "ratio_I": lambda: I(nu + 1) / I(nu), "ratio_K": lambda: K(nu + 1) / K(nu),
            "y": y, "z": z, "phiI": lambda: phi(I), "phiK": lambda: phi(K),
            "phiP": lambda: phi(lambda n: I(n) * K(n)),
            "P": lambda: I(nu) * K(nu), "omega": lambda: x * I(nu) * K(nu),
            "deltaI": lambda: I(nu) ** 2 - I(nu - 1) * I(nu + 1),
            "deltaK": lambda: K(nu) ** 2 - K(nu - 1) * K(nu + 1),
            "w": lambda: mp.sqrt(x * x + nu * nu) - y(),
            "u": lambda: mp.sqrt(x * x + mu) - y(),
            "lambda": lambda: y() - mp.sqrt(x * x + (nu + 1) ** 2),
            "q": lambda: z() + mp.sqrt(x * x + mu),
            "t": lambda: z() + mp.sqrt(x * x + nu * nu),
            "b2hat": lambda: -1 / (x * phi(I)), "veff": lambda: -phi(K),
            "nc": lambda: (x * x / 4) / (nu + 1 + mp.sqrt(x * x + (nu + 1) ** 2)),
            "ns": lambda: (x / 4) * I(nu + 1) / I(nu),
            "iratio": lambda: I(nu) / I(nu - 1), "kratio": lambda: K(nu) / K(nu - 1),
        }
        return table[tag]()


def claim_holds(tag: str, nu: float, x: float, value: float, claim: float) -> bool:
    """The promised |value - truth| <= claim * |truth|, truth at 40 digits."""
    truth = mp_ref(tag, nu, x)
    with mp.workdps(40):
        return abs(mp.mpf(value) - truth) <= mp.mpf(claim) * abs(truth)


def check_ops(tag: str, ops: list) -> list[bool]:
    """Check (nu, x, value, claim, error) rows of one tag against the scipy reference."""
    if not ops:
        return []
    nu = [r[0] for r in ops]
    x = [r[1] for r in ops]
    ref, scale, expect = scipy_ref(tag, nu, x)
    ok = []
    for (_, _, value, _, error), rv, rs, ex in zip(ops, ref, scale, expect):
        if error is not None:
            ok.append(error == ex or (ex == "either" and error == "AccuracyError"))
        else:
            ok.append(ex in ("", "either") and math.isfinite(value)
                      and abs(value - rv) <= REF_RTOL * rs)
    return ok


def enclosure_tolerance(value: float, scale: float) -> float:
    """Slack for a bound against the reference: the verify sweep's 1e-9 floor
    plus the reference's own error."""
    return max(1e-9, 1e-9 * abs(value)) + REF_RTOL * scale
