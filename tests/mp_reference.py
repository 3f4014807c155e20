"""mpmath values of the 24 tags at a precision that converges: the claim tests' one reference.

Each tag is its definitional form, a sum of terms over nu, x and I and K at
the orders nu - 1, nu and nu + 1.  At d digits, with these six Bessel values
taken at d digits, the value stands when it is not 0, is at most 10^(d - 30)
below its largest term and, past d = 40, agrees to 30 digits with the value
at d - 20 digits.  d is 40, 60, then doubles up to MAX_DPS, past which the
point is named in an error.  Agreement alone is not enough: where every term
rounds exactly (t at nu = 2, x = 5e-324, a power of 2), 40 and 60 digits give
the same wrong sign.  The second precision is d - 20 rather than the d before
it, because mpmath's gamma tables make the first call at a new precision cost
0.2 s at 480 digits and 2 s at 960.  Each Bessel value is taken on first use
and shared by every tag at its point and precision.  mp.dps is left as found,
and besselbounds is not imported.
"""

import math
from functools import cached_property

from mpmath import besseli, besselk, euler, factorial, log, mp, mpf, sqrt

START_DPS, MAX_DPS, DIGITS = 40, 4000, 30


class Bessel:
    """I (im, i0, i1) and K (km, k0, k1) at the exact orders nu - 1, nu, nu + 1, at dps digits.

    I_{-n} = I_n at integer orders and K_{-v} = K_v, where mpmath's sums would
    cancel.  Where nu - 1 rounds at dps digits, I_{nu-1} near the pole of
    1/Gamma(nu) turns on nu's last bits: there it is I_{nu+1} + (2 nu/x) I_nu.
    """

    def __init__(self, nu, x, dps):
        self.nu, self.x, self.dps = mpf(nu), mpf(x), dps  # doubles: exact at any precision

    def _i(self, d):
        with mp.workdps(self.dps):
            o = self.nu + d
            return besseli(abs(o) if o == int(o) else o, self.x)

    def _k(self, d):
        with mp.workdps(self.dps):
            o = abs(self.nu + d)
            return _k_integer(int(o), self.x) if o == int(o) and self.x < 100 else besselk(o, self.x)

    i0 = cached_property(lambda b: b._i(0))
    i1 = cached_property(lambda b: b._i(1))
    km = cached_property(lambda b: b._k(-1))
    k0 = cached_property(lambda b: b._k(0))
    k1 = cached_property(lambda b: b._k(1))

    @cached_property
    def im(self):
        with mp.workdps(self.dps):
            return self._i(-1) if self.nu - 1 + 1 == self.nu else self.i1 + 2 * self.nu / self.x * self.i0


def _k_integer(n, x):
    # K_n(x) by DLMF 10.31.1, whose sums cancel by about e^(2x), at as many
    # more digits.  mpmath's besselk takes gamma next to its poles there: 5-80
    # ms a call below x = 64 at 40 digits, and 1 s (240 digits) or 8 s (480)
    # for its Taylor table
    with mp.extradps(10 + int(2 * x / math.log(10))):
        h = x / 2
        s = mp.fsum(factorial(n - k - 1) / factorial(k) * (-h * h) ** k for k in range(n)) / (2 * h**n)
        s -= (-1) ** n * log(h) * besseli(n, x)
        # sum_k (psi(k+1) + psi(n+k+1)) (x^2/4)^k / (k! (n+k)!), psi(m+1) = H_m - euler
        c, hk, hnk, k = 1 / factorial(n), mpf(0), mp.fsum(1 / mpf(j) for j in range(1, n + 1)), 0
        acc = t = (hnk - 2 * euler) * c
        while k == 0 or abs(t) > mp.eps * abs(acc):
            k += 1
            c *= h * h / (k * (n + k))
            hk, hnk = hk + mpf(1) / k, hnk + mpf(1) / (n + k)
            t = (hk + hnk - 2 * euler) * c
            acc += t
        return s + (-1) ** n * h**n / 2 * acc


# the rows' parts: x I_{nu+1}/I_nu, x K_{nu+1}/K_nu, 1 - phiI, 1 - phiK, sqrt(x^2 + c)
_RI, _RK = (lambda b: b.x * b.i1 / b.i0), (lambda b: b.x * b.k1 / b.k0)
_AI, _AK = (lambda b: b.im * b.i1 / b.i0**2), (lambda b: b.km * b.k1 / b.k0**2)
_R = lambda b, c: sqrt(b.x**2 + c)  # noqa: E731 (a row part like those above)

# tag: the terms of its sum.  b2hat = -1/(x phiI), the one quotient, keeps 37
# of 40 digits: phiI > 1e-3 for nu >= 0 in the box
TAGS = {
    "I": lambda b: (b.i0,),
    "K": lambda b: (b.k0,),
    "ratio_I": lambda b: (b.i1 / b.i0,),
    "ratio_K": lambda b: (b.k1 / b.k0,),
    "y": lambda b: (b.nu, _RI(b)),
    "z": lambda b: (b.nu, -_RK(b)),
    "phiI": lambda b: (1, -_AI(b)),
    "phiK": lambda b: (1, -_AK(b)),
    "phiP": lambda b: (1, -_AI(b) * _AK(b)),
    "P": lambda b: (b.i0 * b.k0,),
    "omega": lambda b: (b.x * b.i0 * b.k0,),
    "deltaI": lambda b: (b.i0**2, -b.im * b.i1),
    "deltaK": lambda b: (b.k0**2, -b.km * b.k1),
    "w": lambda b: (_R(b, b.nu**2), -b.nu, -_RI(b)),
    "u": lambda b: (_R(b, b.nu**2 - 0.25), -b.nu, -_RI(b)),
    "lambda": lambda b: (b.nu, _RI(b), -_R(b, (b.nu + 1) ** 2)),
    "q": lambda b: (b.nu, -_RK(b), _R(b, b.nu**2 - 0.25)),
    "t": lambda b: (b.nu, -_RK(b), _R(b, b.nu**2)),
    "b2hat": lambda b: (-1 / (b.x * (1 - _AI(b))),),
    "veff": lambda b: (-1, _AK(b)),
    "nc": lambda b: (b.x**2 / 4 / (b.nu + 1 + _R(b, (b.nu + 1) ** 2)),),
    "ns": lambda b: (_RI(b) / 4,),
    "iratio": lambda b: (b.i0 / b.im,),
    "kratio": lambda b: (b.k0 / b.km,),
}


class Point:
    """The reference at one (nu, x): point[tag], or point.value(terms) for terms(bessel) as in TAGS."""

    def __init__(self, nu, x):
        self.nu, self.x = nu, x
        self._bessel, self._tags = {}, {}

    def bessel(self, dps=START_DPS):
        if dps not in self._bessel:
            self._bessel[dps] = Bessel(self.nu, self.x, dps)
        return self._bessel[dps]

    def __getitem__(self, tag):
        if tag not in self._tags:
            self._tags[tag] = self.value(TAGS[tag], tag)
        return self._tags[tag]

    def value(self, terms, name="the sum"):
        """The sum of terms(bessel) by the rule of the module's docstring."""
        dps = START_DPS
        while dps <= MAX_DPS:
            v, top = self._sum(terms, dps)
            keeps = v != 0 and top <= abs(v) * 10 ** (dps - DIGITS)
            if keeps and (dps == START_DPS or abs(self._sum(terms, dps - 20)[0] - v) <= abs(v) * mpf(10) ** -DIGITS):
                return v
            dps = 60 if dps == START_DPS else 2 * dps
        raise mp.NoConvergence(f"{name} at nu={self.nu!r}, x={self.x!r}: no {DIGITS} digits by {MAX_DPS} digits")

    def _sum(self, terms, dps):
        # the sum and its largest term, all at dps digits
        with mp.workdps(dps):
            parts = terms(self.bessel(dps))
            return mp.fsum(parts), max(map(abs, parts))


# tiny x where nu -+ 1 round in double: a K side that split the rounded orders
# was off there by the factor of its claim given with each point
K_ROUNDED_ORDERS = (
    (0.000969416191951392, 1.9597013739790897e-200),  # kratio 3.12x
    (7.879482415927276e-10, 2.186396316311806e-99),  # phiK 1.87x
    (1e-12, 3.5689855177001275e-302),  # ratio_K 9.26x
    (-1e-12, 6.264270665655107e-294),  # kratio 9.02x
    (1.000001, 1.4790298557368433e-115),  # phiK 4.04x
)

# where ratio_I changes route: tiny x, where the continued fraction's start
# 1e-30 stops being negligible, and one ulp either side of the switch to the
# expansions' quotient, 30 + max(nu^2, (nu+1)^2)
RATIO_I_EDGES = (
    *[(nu, x) for nu in (0.0, 15.3) for x in (1e-25, 2.8e-67, 5e-324)],
    *[(nu, math.nextafter(30.0 + max(nu * nu, (nu + 1.0) ** 2), to))
      for nu in (-0.7, 2.5, 15.3) for to in (0.0, math.inf)],
)

# orders the I-side claims take at K's route starts 2 and 10 and one ulp below:
# both signs of mu, mu = 1/2, an integer and a large order
LADDER_EDGES = (-2.5, 2.5, -0.3, 0.3, 0.5, 1.0, 15.3)
