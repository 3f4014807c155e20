#!/usr/bin/env python3
"""Regenerate the frozen oracle constants used by the test suite.

Each value is computed twice: by the simple reference oracles in
tests/oracles.py (direct series summation / trapezoidal quadrature) and by
tests/mp_reference.py, the claim tests' mpmath reference.  The script
refuses to print a constant on which the two disagree, so the frozen numbers
are backed by two independent computations.  Its output is tests/frozen.py,
byte for byte:

    python3 scripts/freeze_oracle_values.py > tests/frozen.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from mpmath import mp, mpf, nstr  # noqa: E402

import oracles  # noqa: E402
from mp_reference import Point  # noqa: E402

mp.dps = 30

I_POINTS = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (0.5, 2.0), (1.0, 3.0),
            (2.0, 3.0), (3.0, 3.0), (4.2, 17.3), (-2.5, 0.7), (-1.0, 1.0),
            (0.0, 30.5), (3.0, 100.0), (19.5, 450.0), (7.0, 0.05)]
K_POINTS = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (2.7, 0.3),
            (9.5, 0.02), (0.3, 120.0), (5.0, 62.0), (1.5, 8.0), (-3.0, 2.0)]
PHI_POINTS = [(1.0, 1.0), (2.0, 3.0), (0.5, 0.7), (3.0, 10.0)]


def check(label, a, b, tol=mpf("1e-25")):
    if abs(a - b) > tol * abs(b):
        raise SystemExit(f"oracle disagreement at {label}: {nstr(a, 25)} vs {nstr(b, 25)}")
    return a


def main():
    print('"""Frozen oracle values; regenerate with scripts/freeze_oracle_values.py."""')
    print()
    print("# generated by scripts/freeze_oracle_values.py; values certified by")
    print("# series/quadrature oracles cross-checked against mpmath built-ins")
    print("FROZEN_I = {")
    for nu, x in I_POINTS:
        v = check(f"I({nu},{x})", oracles.series_I(nu, x), Point(nu, x)["I"])
        print(f"    ({nu!r}, {x!r}): {nstr(v, 17)},")
    print("}")
    print("FROZEN_K = {")
    for nu, x in K_POINTS:
        v = check(f"K({nu},{x})", oracles.quad_K(nu, x), Point(nu, x)["K"], tol=mpf("1e-22"))
        print(f"    ({nu!r}, {x!r}): {nstr(v, 17)},")
    print("}")
    print("FROZEN_PHI = {")
    for nu, x in PHI_POINTS:
        print(f"    ('phiI', {nu!r}, {x!r}): {nstr(oracles.oracle_phiI(nu, x), 17)},")
        print(f"    ('phiK', {nu!r}, {x!r}): {nstr(oracles.oracle_phiK(nu, x), 17)},")
        print(f"    ('phiP', {nu!r}, {x!r}): {nstr(oracles.oracle_phiP(nu, x), 17)},")
    print("}")
    print("FROZEN_MISC = {")
    print(f"    ('y', 1.0, 1.0): {nstr(oracles.oracle_y(1.0, 1.0), 17)},")
    print(f"    ('z', 1.0, 1.0): {nstr(oracles.oracle_z(1.0, 1.0), 17)},")
    print(f"    ('ratio_I', 0.0, 1.0): {nstr(oracles.oracle_ratio_I(0.0, 1.0), 17)},")
    print(f"    ('ratio_K', 0.0, 1.0): "
          f"{nstr(oracles.quad_K(1.0, 1.0) / oracles.quad_K(0.0, 1.0), 17)},")
    print(f"    ('ratio_K', 1.0, 1.0): "
          f"{nstr(oracles.quad_K(2.0, 1.0) / oracles.quad_K(1.0, 1.0), 17)},")
    print("}")


if __name__ == "__main__":
    main()
