"""Derived quantities: point values, limits, structural identities."""

import math

import pytest

from besselbounds.core import (
    AccuracyError,
    DomainError,
    EvalContext,
    QUANTITIES,
    QuantityKind as QK,
    eval_I,
    eval_K,
    numeric_derivative,
    quantity,
)

from frozen import FROZEN_MISC, FROZEN_PHI

GRONWALL_X = 3.577847594


def q(kind, nu, x):
    return quantity(kind, EvalContext(nu, x))


def test_every_kind_has_one_expression():
    assert set(QUANTITIES) == set(QK)
    assert len({spec.expression for spec in QUANTITIES.values()}) == len(QK)


@pytest.mark.parametrize("kind,nu,x", sorted((QK(k), nu, x) for (k, nu, x) in FROZEN_PHI))
def test_phi_frozen_values(kind, nu, x):
    want = FROZEN_PHI[(kind.value, nu, x)]
    assert q(kind, nu, x).value == pytest.approx(want, rel=1e-11)


def test_y_z_frozen():
    assert q(QK.Y, 1.0, 1.0).value == pytest.approx(FROZEN_MISC[("y", 1.0, 1.0)], rel=1e-12)
    assert q(QK.Z, 1.0, 1.0).value == pytest.approx(FROZEN_MISC[("z", 1.0, 1.0)], rel=1e-12)


def test_y_half_order_closed_form():
    # y(1/2, x) = x coth x - 1/2
    for x in (0.7, GRONWALL_X, 12.0):
        assert q(QK.Y, 0.5, x).value == pytest.approx(x / math.tanh(x) - 0.5, rel=1e-13)


def test_z_half_order_closed_form():
    for x in (0.05, 1.0, 4.0, 30.0):
        assert q(QK.Z, 0.5, x).value == pytest.approx(-x - 0.5, rel=1e-13)


def test_phiK_half_order_is_minus_one_over_x():
    for x in (0.5, 4.0, 9.0):
        assert q(QK.PHI_K, 0.5, x).value == pytest.approx(-1.0 / x, rel=1e-13)


def test_phiP_composition():
    fi = q(QK.PHI_I, 1.0, 1.0).value
    fk = q(QK.PHI_K, 1.0, 1.0).value
    assert q(QK.PHI_P, 1.0, 1.0).value == pytest.approx(fi + fk - fi * fk, rel=1e-14)


def test_turanians_from_phi():
    for nu, x in ((0.5, 0.7), (2.0, 3.0)):
        di = q(QK.DELTA_I, nu, x).value
        i0 = eval_I(EvalContext(nu, x)).value
        assert di == pytest.approx(i0 * i0 * q(QK.PHI_I, nu, x).value, rel=1e-12)
        dk = q(QK.DELTA_K, nu, x).value
        k0 = eval_K(EvalContext(nu, x)).value
        assert dk == pytest.approx(k0 * k0 * q(QK.PHI_K, nu, x).value, rel=1e-12)


def test_deltaI_overflow_is_reported():
    # I^2 exceeds the double range beyond x ~ 355 even though I itself fits
    with pytest.raises(AccuracyError):
        q(QK.DELTA_I, 0.0, 400.0)


def test_u_domain_guard():
    # u takes sqrt(x^2 + nu^2 - 1/4), negative for |nu| < 1/2 near x = 0
    with pytest.raises(DomainError):
        q(QK.U, 0.2, 0.1)
    assert math.isfinite(q(QK.U, 0.2, 0.5).value)


@pytest.mark.parametrize("nu,x", [(4.69, 360.59), (1.0, 360.0)])
def test_deltaK_below_normal_range_is_reported(nu, x):
    # K^2 phiK is subnormal there: its lost bits void a double-precision claim
    with pytest.raises(AccuracyError):
        q(QK.DELTA_K, nu, x)


@pytest.mark.parametrize("kind,nu,x", [
    (QK.PHI_K, 0.0, 1e-200),    # K_{-1} K_1 / K_0^2 overflows
    (QK.V_EFF, 0.0, 1e-200),
    (QK.OMEGA, 0.0, 5e-324),    # x P is subnormal
    (QK.N_C, 20.0, 1e-200),     # nc ~ x^2/168 underflows to 0
    (QK.DELTA_I, 15.3, 1e-10),  # I^2 underflows to 0
])
def test_unrepresentable_quantities_are_refused(kind, nu, x):
    # an overflowed, subnormal or underflowed result cannot keep its claim
    with pytest.raises(AccuracyError):
        q(kind, nu, x)


def test_product_quantities():
    p = q(QK.P, 1.0, 1.0).value
    assert p == pytest.approx(0.56515910399248503 * 0.60190723019723457, rel=1e-12)
    assert q(QK.OMEGA, 1.0, 1.0).value == pytest.approx(p, rel=1e-14)
    # closed form P_{1/2}(x) = (1 - e^{-2x})/(2x)
    for x in (0.3, 1.0, 5.0):
        assert q(QK.P, 0.5, x).value == pytest.approx(
            (1.0 - math.exp(-2.0 * x)) / (2.0 * x), rel=1e-13)
    # P never overflows inside the box: I and K are normal doubles up to x = 500
    assert q(QK.P, 1.0, 500.0).value == pytest.approx(1.0 / 1000.0, rel=1e-2)


def test_shifted_quantities():
    nu, x = 1.0, 2.0
    y = q(QK.Y, nu, x).value
    z = q(QK.Z, nu, x).value
    assert q(QK.W, nu, x).value == pytest.approx(math.hypot(x, nu) - y, rel=1e-12)
    assert q(QK.U, nu, x).value == pytest.approx(math.sqrt(x * x + 0.75) - y, rel=1e-12)
    assert q(QK.LAMBDA, nu, x).value == pytest.approx(y - math.hypot(x, 2.0), rel=1e-12)
    assert q(QK.Q, nu, x).value == pytest.approx(z + math.sqrt(x * x + 0.75), rel=1e-12)
    assert q(QK.T, nu, x).value == pytest.approx(z + math.hypot(x, nu), rel=1e-12)


def test_application_quantities():
    nu, x = 1.0, 1.0
    fi = q(QK.PHI_I, nu, x).value
    assert q(QK.B2HAT, nu, x).value == pytest.approx(-1.0 / (x * fi), rel=1e-13)
    assert q(QK.V_EFF, 5.0, 1.0).value == pytest.approx(-q(QK.PHI_K, 5.0, 1.0).value, rel=1e-14)
    # n_s(0,1) = ratio/4 ~ 0.11160 > n_c = 0.25/(1+sqrt 2) ~ 0.10355
    ns = q(QK.N_S, 0.0, 1.0).value
    nc = q(QK.N_C, 0.0, 1.0).value
    assert ns == pytest.approx(0.11159749147413363, rel=1e-10)
    assert nc == pytest.approx(0.25 / (1.0 + math.sqrt(2.0)), rel=1e-14)
    assert ns > nc


def test_consecutive_order_ratios():
    # iratio = I_nu/I_{nu-1}, kratio = K_nu/K_{nu-1}
    i1 = eval_I(EvalContext(1.0, 1.0)).value
    i0 = eval_I(EvalContext(0.0, 1.0)).value
    assert q(QK.I_RATIO, 1.0, 1.0).value == pytest.approx(i1 / i0, rel=1e-12)
    k1 = eval_K(EvalContext(1.0, 1.0)).value
    k0 = eval_K(EvalContext(0.0, 1.0)).value
    assert q(QK.K_RATIO, 1.0, 1.0).value == pytest.approx(k1 / k0, rel=1e-12)


def test_kind_domain_guards():
    with pytest.raises(DomainError):
        q(QK.Y, -1.5, 1.0)
    with pytest.raises(DomainError):
        q(QK.B2HAT, -0.5, 1.0)
    with pytest.raises(DomainError):
        q(QK.I_RATIO, -0.5, 1.0)
    with pytest.raises(DomainError):
        q(QK.Q, 0.3, 1.0)  # needs mu >= 0
    # z, phiK, kratio work on the whole order box
    q(QK.Z, -9.5, 1.0)
    q(QK.PHI_K, -9.5, 1.0)
    q(QK.K_RATIO, -9.5, 1.0)


def test_limits_small_x():
    assert q(QK.Y, 2.0, 1e-5).value == pytest.approx(2.0, abs=1e-9)
    assert q(QK.Z, 2.0, 1e-5).value == pytest.approx(-2.0, abs=1e-9)
    for nu in (0.0, 0.5, 1.0, 2.0, 5.0):
        assert q(QK.PHI_I, nu, 1e-4).value == pytest.approx(1.0 / (nu + 1.0), abs=1e-6)
    for nu in (2.0, 3.0):
        assert q(QK.PHI_K, nu, 1e-4).value == pytest.approx(1.0 / (1.0 - nu), rel=1e-4)


def test_limits_large_x():
    assert q(QK.LAMBDA, 1.0, 200.0).value == pytest.approx(-0.5, abs=1e-2)
    assert q(QK.W, 1.0, 450.0).value == pytest.approx(0.5, abs=1e-2)
    assert q(QK.Q, 2.0, 200.0).value == pytest.approx(-0.5, abs=1e-2)


def test_numeric_derivative_first_order():
    # y(1/2)' has the closed form coth x - x/sinh^2 x
    got = numeric_derivative(QK.Y, EvalContext(0.5, 1.0))
    want = 1.0 / math.tanh(1.0) - 1.0 / math.sinh(1.0) ** 2
    assert got == pytest.approx(want, rel=1e-9)
    # z(1/2)' = -1 everywhere
    for x in (0.5, 3.0, 20.0):
        assert numeric_derivative(QK.Z, EvalContext(0.5, x)) == pytest.approx(-1.0, rel=1e-9)
    # identity: y' = x phiI
    got = numeric_derivative(QK.Y, EvalContext(1.0, 1.0))
    assert got == pytest.approx(q(QK.PHI_I, 1.0, 1.0).value, rel=1e-8)


def test_numeric_derivative_second_order():
    # w''(x) for w = sqrt(x^2+1/4) - x coth x + 1/2 at nu = 1/2
    x = 2.0
    got = numeric_derivative(QK.W, EvalContext(0.5, x), order=2)
    s = math.sinh(x)
    c = math.cosh(x)
    want = 0.25 / (x * x + 0.25) ** 1.5 + 2.0 * (s - x * c) / s ** 3
    assert got == pytest.approx(want, rel=1e-5)


def test_numeric_derivative_domain():
    with pytest.raises(DomainError):
        numeric_derivative(QK.Y, EvalContext(0.5, 1e-5))
    with pytest.raises(DomainError):
        numeric_derivative(QK.Y, EvalContext(0.5, 1.0), order=3)


def test_riccati_and_wronskian_spot():
    for nu, x in ((0.0, 0.7), (1.5, 3.0), (5.0, 20.0)):
        ctx = EvalContext(nu, x)
        y = q(QK.Y, nu, x).value
        z = q(QK.Z, nu, x).value
        p = q(QK.P, nu, x).value
        s = x * x + nu * nu
        assert abs(y - z - 1.0 / p) * p < 1e-10
        assert abs(x * numeric_derivative(QK.Y, ctx) - (s - y * y)) / s < 1e-6
        assert abs(x * numeric_derivative(QK.Z, ctx) - (s - z * z)) / s < 1e-6
