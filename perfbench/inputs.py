"""Seeded inputs of the three workloads, and the fixed operations of the known faults.

Standard library only: the workload processes import this module, and the
peak resident memory they report must be the program's alone.
"""

from __future__ import annotations

import math
import random

# Every tag `besselbounds eval --fn` accepts, with the smallest order of its
# documented domain (the I side needs I_nu > 0, i.e. nu >= -1; b2hat and
# iratio need nu >= 0).  The largest order is 20 for every tag.
TAG_MIN_NU = {
    "I": -10.0, "K": -10.0, "ratio_I": -1.0, "ratio_K": -10.0,
    "y": -1.0, "z": -10.0, "phiI": -1.0, "phiK": -10.0, "phiP": -1.0,
    "P": -1.0, "omega": -1.0, "deltaI": -1.0, "deltaK": -10.0, "w": -1.0,
    "u": -1.0, "lambda": -1.0, "q": -10.0, "t": -10.0, "b2hat": 0.0,
    "veff": -10.0, "nc": -1.0, "ns": -1.0, "iratio": 0.0, "kratio": -10.0,
}
TAGS = tuple(TAG_MIN_NU)
NU_MAX = 20.0
X_MIN, X_MAX = 1e-3, 500.0

# Tags whose value is computed from ratio_I, and tags computed from K.
RATIO_I_TAGS = frozenset({"ratio_I", "y", "phiI", "phiP", "deltaI", "w", "u",
                          "lambda", "b2hat", "ns", "iratio"})
K_TAGS = frozenset({"K", "ratio_K", "z", "phiK", "phiP", "P", "omega", "deltaK",
                    "q", "t", "veff", "kratio"})

# One fixed operation per known fault.  Each fails on every round until the
# fault is mended; the inputs never depend on the seed.
FAULT_OPS = (
    # quantity("u") takes sqrt(x^2 + nu^2 - 1/4) unguarded: bare ValueError
    ("u-bare-valueerror", "u", 0.2, 0.1),
    # ratio_I claims max(4 eps, route disagreement), which the true error exceeds
    ("ratio_I-claim", "ratio_I", 1.4942871284895034, 499.248154944117),
    # K quadrature understates its error, most often near the asymptotic
    # threshold at large order
    ("K-quadrature-claim", "K", 17.435071950116672, 279.4318877889326),
    # deltaK = K^2 phiK lands in the subnormal range and keeps a double-precision claim
    ("deltaK-subnormal-claim", "deltaK", 1.0, 360.0),
    # eval_K takes the reflection path although its I_{-nu} series has lost
    # digits near a zero, then refuses the 1e-12 target with AccuracyError
    ("K-reflection-refusal", "K", 1.3068721410391255, 1.0173456470485944),
)

# deltaK is subnormal for x in about [348.5, 370.1] over the whole order range
# (40-digit mpmath); beyond it K^2 underflows to 0 and AccuracyError is right.
_DELTAK_SUBNORMAL_X = (345.0, 375.0)


def in_fault_region(tag: str, nu: float, x: float) -> str | None:
    """Name of the known fault whose region holds (tag, nu, x), else None.

    A seeded point there would fail on some seeds and not on others, so the
    stream draws again; FAULT_OPS keeps each fault in the failed count.
    """
    if tag == "u" and x * x + nu * nu < 0.25:
        return "u-bare-valueerror"
    if tag == "deltaK" and _DELTAK_SUBNORMAL_X[0] <= x <= _DELTAK_SUBNORMAL_X[1]:
        return "deltaK-subnormal-claim"
    # the refusals seen on 200k draws all lie in 1.06 < |nu| < 3.08, 0.49 < x < 1.86
    if tag == "K" and x <= 2.0 and 1.0 < abs(nu) < 3.5:
        return "K-reflection-refusal"
    return None


def claim_check_excluded(tag: str, nu: float, x: float) -> bool:
    """True where the 40-digit claim check would meet a known understated claim.

    ratio_I's claim is exceeded anywhere from x ~ 10 up, and K's quadrature
    claim now and then wherever quadrature may serve one of the orders
    nu-1, nu, nu+1 (x < 30 + (|nu|+1)^2).  Both would fail on a seed-dependent
    share of the stream, so they are counted through FAULT_OPS instead.
    """
    if tag in RATIO_I_TAGS:
        return True
    return tag in K_TAGS and x < 30.0 + (abs(nu) + 1.0) ** 2


class PointStream:
    """Distinct seeded (tag, nu, x) points, in whole rounds over all 24 tags.

    Each round draws per_tag points of every tag as a Latin hypercube: the
    log-x range and the tag's order range are cut into per_tag equal strata,
    and each x stratum is paired with one order stratum, at random.  x stays
    log-uniform and nu uniform, but how many points of a round fall on a
    costly path varies far less from seed to seed than with independent draws.
    """

    def __init__(self, seed: int | str, per_tag: int):
        self._rng = random.Random(seed)
        self.per_tag = per_tag
        self._lx = (math.log(X_MIN), math.log(X_MAX))

    def _draw(self, tag: str, i: int, j: int) -> tuple[float, float]:
        """A point in x stratum i and order stratum j, outside every fault region."""
        n, (lx0, lx1), nu0 = self.per_tag, self._lx, TAG_MIN_NU[tag]
        while True:
            nu = nu0 + (NU_MAX - nu0) * (j + self._rng.random()) / n
            x = math.exp(lx0 + (lx1 - lx0) * (i + self._rng.random()) / n)
            if 0.0 < x <= X_MAX and in_fault_region(tag, nu, x) is None:
                return nu, x

    def round(self) -> list[tuple[str, float, float]]:
        pts = []
        for tag in TAGS:
            orders = list(range(self.per_tag))
            self._rng.shuffle(orders)
            pts += [(tag, *self._draw(tag, i, j)) for i, j in enumerate(orders)]
        self._rng.shuffle(pts)
        return pts


# bounds-table: the quantities with proved catalog entries, on a fixed grid
TABLE_QUANTITIES = ("phiI", "y", "iratio", "kratio", "phiK", "z", "phiP",
                    "b2hat", "veff", "ns")
TABLE_NU = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0)
TABLE_X = tuple(10.0 ** (-3.0 + 5.0 * k / 59) for k in range(60))  # 1e-3 .. 100
# order of each `besselbounds figure` (fig1: phiI, fig2: phiK, fig3: phiP)
FIGURE_NU = {"fig1": 1.0, "fig2": 2.0, "fig3": 1.0}
FIGURE_IDS = tuple(FIGURE_NU)


def table_queries(seed: int) -> list[tuple[str, float, float]]:
    """Every in-domain grid point of every table quantity; the seed sets the order."""
    out = [(q, nu, x) for q in TABLE_QUANTITIES for nu in TABLE_NU for x in TABLE_X
           if nu >= TAG_MIN_NU[q]]
    random.Random(seed).shuffle(out)
    return out
