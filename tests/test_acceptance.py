"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Seven sub-cases are marked strict-xfail because the stated
constant or tolerance is contradicted by closed-form mathematics (details
in each xfail reason): the z limit at four orders, the phiK limit at
nu = 3/2, the turan26_lower sharpness case and the stated phiP constant.
The companion assertions that gate real quality (agreement with the
independent oracles) all pass.
"""

import math
import time

import pytest

from besselbounds.catalog import evaluate_bound, ids
from besselbounds.cli import main as cli_main
from besselbounds.core import EvalContext, QuantityKind as QK, quantity
from besselbounds.harness import (
    GridSpec,
    application_checks,
    consistency_checks,
    default_grid,
    gronwall_probe,
    sharpness_decay,
    sweep_validity,
)

RUNTIME_BUDGET_S = 60.0


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


def q(kind, nu, x):
    return quantity(kind, EvalContext(nu, x)).value


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_validity_sweep_zero_violations():
    t0 = time.perf_counter()
    viols = sweep_validity(ids(status="proved"), default_grid(200))
    dt = time.perf_counter() - t0
    ok = not viols and dt < RUNTIME_BUDGET_S
    _report("1 validity sweep",
            ok, f"{len(ids(status='proved'))} proved entries, 12x200 grid, {dt:.1f}s")
    assert viols == []
    assert dt < RUNTIME_BUDGET_S


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_equality_cases():
    xs = [10 ** (math.log10(0.02) + (math.log10(20) - math.log10(0.02)) * k / 49)
          for k in range(50)]
    worst = 0.0
    for x in xs:
        worst = max(worst, abs(q(QK.PHI_K, 0.5, x) + 1.0 / x) / (1.0 / x))
        worst = max(worst, abs(q(QK.Z, 0.5, x) + x + 0.5) / (x + 0.5))
        zz = q(QK.Z, 0.5, x)
        fk = q(QK.PHI_K, 0.5, x)
        worst = max(worst, abs(evaluate_bound("turan22_lower", 0.5, x).value - zz) / abs(zz))
        worst = max(worst, abs(evaluate_bound("turan23_lower", 0.5, x).value - fk) / abs(fk))
        worst = max(worst, abs(evaluate_bound("turan24_upper", 0.5, x).value - fk) / abs(fk))
    _report("2 equality cases at nu=1/2", worst < 1e-12, f"worst scaled dev {worst:.2e}")
    assert worst < 1e-12


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_gronwall_probe():
    recs = {c.check_id: c for c in gronwall_probe()}
    dev = recs["gronwall:wprime_root"].max_violation
    ok = (recs["gronwall:wprime_root"].status == "pass"
          and recs["gronwall:w_rises_then_falls"].status == "pass")
    _report("3 stationary point of w at nu=1/2", ok, f"|root - 3.577847594| = {dev:.2e}")
    assert ok and dev <= 1e-6


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_phiI_limit():
    worst = max(abs(q(QK.PHI_I, nu, 1e-4) - 1.0 / (nu + 1.0))
                for nu in (0.0, 0.5, 1.0, 2.0, 5.0))
    _report("4 phiI(nu,1e-4) = 1/(nu+1) +- 1e-6", worst < 1e-6, f"worst {worst:.2e}")
    assert worst < 1e-6


def test_criterion_4_y_limit():
    worst = max(abs(q(QK.Y, nu, 1e-5) - nu)
                for nu in (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 8.0))
    _report("4 y(nu,1e-5) = nu +- 1e-9", worst < 1e-9, f"worst {worst:.2e}")
    assert worst < 1e-9


@pytest.mark.parametrize("nu", [
    pytest.param(0.1, marks=pytest.mark.xfail(
        strict=True, reason="z + |nu| ~ 2 nu |Gamma(-nu)/Gamma(nu)| (x/2)^(2 nu) "
        "= 2.2e-2 at nu=0.1, x=1e-5; the 1e-9 tolerance is unattainable for small orders")),
    pytest.param(0.25, marks=pytest.mark.xfail(
        strict=True, reason="deviation 1.5e-3 >> 1e-9 (rate x^(1/2))")),
    pytest.param(0.5, marks=pytest.mark.xfail(
        strict=True, reason="z(1/2,x) = -x-1/2 exactly, so the deviation at "
        "x=1e-5 is exactly 1e-5 >> 1e-9")),
    pytest.param(1.0, marks=pytest.mark.xfail(
        strict=True, reason="deviation ~ x^2 |log x| = 1.16e-9, just above 1e-9")),
    -2.0, 1.5, 2.0, 3.0, 5.0, 8.0,
])
def test_criterion_4_z_limit(nu):
    dev = abs(q(QK.Z, nu, 1e-5) + abs(nu))
    _report(f"4 z({nu:g},1e-5) = -|nu| +- 1e-9", dev < 1e-9, f"dev {dev:.2e}")
    assert dev < 1e-9


@pytest.mark.parametrize("nu", [
    pytest.param(1.5, marks=pytest.mark.xfail(
        strict=True, reason="phiK(3/2,x) = -(x+2)/(x+1)^2 exactly, so the relative "
        "deviation from -2 at x=1e-4 is x(2x+3)/(2(x+1)^2) = 1.5e-4 > 1e-4")),
    2.0, 3.0,
])
def test_criterion_4_phiK_limit(nu):
    lim = 1.0 / (1.0 - nu)
    dev = abs(q(QK.PHI_K, nu, 1e-4) - lim) / abs(lim)
    _report(f"4 phiK({nu:g},1e-4) = 1/(1-nu) rel 1e-4", dev < 1e-4, f"rel dev {dev:.2e}")
    assert dev < 1e-4


def test_criterion_4_lambda_limit():
    dev = abs(q(QK.LAMBDA, 1.0, 200.0) + 0.5)
    _report("4 lambda_1(200) = -1/2 +- 1e-2", dev < 1e-2, f"dev {dev:.2e}")
    assert dev < 1e-2


# -- 5 -----------------------------------------------------------------------

@pytest.mark.parametrize("bound_id,nu", [
    ("turan11_upper", 1.0),
    ("turan16_upper", 1.0),
    ("turan20_lower", 2.0),
    ("turan20_upper", 2.0),
    ("turan24_upper", 2.0),
    pytest.param("turan26_lower", 1.0, marks=pytest.mark.xfail(
        strict=True, reason="the phiP lower bound behaves like -(nu-1/2)/x^2 against "
        "phiP ~ +1/x^2, so its relative error tends to nu+1/2 = 1.5, not 0; it is "
        "sharp only in the absolute sense")),
    ("turan26_upper", 1.0),
])
def test_criterion_5_sharpness_decay(bound_id, nu):
    rep = sharpness_decay(bound_id, (10.0, 20.0, 50.0, 100.0), nu)
    ok = rep.monotone_decreasing and rep.terminal < 0.02
    _report(f"5 sharpness {bound_id} nu={nu:g}", ok,
            f"rel errs {['%.3g' % e for e in rep.errors]}")
    assert rep.monotone_decreasing
    assert rep.terminal < 0.02


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_refutation_witness():
    grid = GridSpec((0.5, 1.0, 2.0, 3.0, 5.0), tuple(0.1 * (k + 1) for k in range(100)))
    viols = sweep_validity(["joshi_turan7"], grid)
    fi = q(QK.PHI_I, 2.0, 3.0)
    derived_ok = abs(fi - 0.2473) < 1e-4 and fi > 1.0 / (3.0 + 2.0)
    near = [v for v in viols if v.nu == 2.0 and abs(v.x - 3.0) < 0.11]
    ok = bool(viols) and derived_ok and bool(near)
    _report("6 joshi_turan7 refuted", ok,
            f"{len(viols)} witnesses; phiI(2,3) = {fi:.6f} > 0.2")
    assert ok


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_consistency_identities():
    recs = {c.check_id: c for c in consistency_checks()}
    want = {
        "consistency:wronskian": 1e-10,
        "consistency:riccati_I": 1e-6,
        "consistency:riccati_K": 1e-6,
        "consistency:deltaI_identity": 1e-6,
        "consistency:deltaK_identity": 1e-6,
        "consistency:ratio_I_dual_path": 1e-10,
        "consistency:K_symmetry": 1e-12,
    }
    ok = True
    for cid, tol in want.items():
        rec = recs[cid]
        good = rec.status == "pass" and rec.max_violation < tol
        _report(f"7 {cid} < {tol:g}", good, f"worst {rec.max_violation:.2e}")
        ok = ok and good
    assert ok


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_point_values_phiI_phiK():
    fi = q(QK.PHI_I, 1.0, 1.0)
    fk = q(QK.PHI_K, 1.0, 1.0)
    ok = abs(fi - 0.461926) < 1e-5 and abs(fk - (-0.888253)) < 1e-5
    _report("8 phiI(1,1), phiK(1,1) vs stated constants", ok,
            f"phiI {fi:.8f}, phiK {fk:.8f}")
    assert abs(fi - 0.461926) < 1e-5
    assert abs(fk - (-0.888253)) < 1e-5


@pytest.mark.xfail(strict=True, reason="the oracle-confirmed value is "
                   "phiP(1,1) = -0.0160281105, which differs from the stated "
                   "-0.016018 by 1.01e-5, just over the 1e-5 tolerance")
def test_criterion_8_point_value_phiP_stated_constant():
    fp = q(QK.PHI_P, 1.0, 1.0)
    _report("8 phiP(1,1) vs stated constant -0.016018 +- 1e-5",
            abs(fp - (-0.016018)) < 1e-5, f"phiP {fp:.9f}")
    assert abs(fp - (-0.016018)) < 1e-5


def test_criterion_8_oracle_confirmation():
    # the real gate: the package agrees with the independent series and
    # quadrature oracles at 30-digit working precision
    import oracles

    worst = 0.0
    for kind, fn in ((QK.PHI_I, oracles.oracle_phiI), (QK.PHI_K, oracles.oracle_phiK),
                     (QK.PHI_P, oracles.oracle_phiP)):
        ref = float(fn(1.0, 1.0))
        worst = max(worst, abs(q(kind, 1.0, 1.0) - ref) / abs(ref))
    _report("8 phi values vs independent oracles", worst < 1e-10, f"worst rel {worst:.2e}")
    assert worst < 1e-10


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_applications_full_scale():
    t0 = time.perf_counter()
    recs = application_checks()
    dt = time.perf_counter() - t0
    # the pointwise concavity checks' unresolved counts are info records
    bad = [c.check_id for c in recs if c.status != ("info" if c.check_id.endswith("_unresolved") else "pass")]
    _report("9 applications (n_s>n_c, veff, b2hat, pointwise concavity x 8x10^3 points)",
            not bad, f"{dt:.1f}s" + (f"; failing: {bad}" if bad else ""))
    assert bad == []


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_figures(tmp_path):
    from besselbounds.catalog import get
    from besselbounds.cli import FIGURES

    all_ok = True
    for fig_id, spec in sorted(FIGURES.items()):
        path = tmp_path / f"{fig_id}.csv"
        assert cli_main(["figure", fig_id, "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 401
        sides = [get(b).side for b in spec.bound_ids]
        ok = True
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            for side, bv in zip(sides, vals[2:]):
                ok = ok and (bv <= vals[1] + 1e-9 if side == "lower"
                             else bv >= vals[1] - 1e-9)
        _report(f"10 {fig_id} bound columns ordered vs {spec.quantity.value}", ok,
                f"400 rows, nu={spec.nu:g}")
        all_ok = all_ok and ok
    assert all_ok
