"""Point evaluation: frozen oracle values, closed forms, error-bound honesty."""

import dataclasses
import math
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besselbounds.core import (
    _EPS,
    _K_KERNELS,
    _RGAMMA1P,
    _besselk,
    _i_switch,
    _k_ladder,
    AccuracyError,
    CrossCheckError,
    DomainError,
    EvalContext,
    QuantityKind,
    ValueWithError,
    eval_I,
    eval_K,
    evaluation_path,
    ratio_I,
    ratio_K,
    quantity,
)
from besselbounds.harness import dual_path_checks

from frozen import FROZEN_I, FROZEN_K, FROZEN_MISC


@pytest.mark.parametrize("nu,x", sorted(FROZEN_I))
def test_eval_I_frozen(nu, x):
    got = eval_I(EvalContext(nu, x))
    want = FROZEN_I[(nu, x)]
    assert got.value == pytest.approx(want, rel=5e-13)
    # the claimed bound must cover the actual deviation
    assert abs(got.value - want) <= max(got.rel_error_bound, 1e-15) * abs(want)


@pytest.mark.parametrize("nu,x", sorted(FROZEN_K))
def test_eval_K_frozen(nu, x):
    got = eval_K(EvalContext(nu, x))
    want = FROZEN_K[(nu, x)]
    assert got.value == pytest.approx(want, rel=5e-13)
    assert abs(got.value - want) <= max(got.rel_error_bound, 1e-15) * abs(want)


def test_closed_forms_half_order():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, K_{1/2}(x) = sqrt(pi/(2x)) e^-x
    assert eval_I(EvalContext(0.5, 2.0)).value == pytest.approx(
        math.sqrt(1.0 / math.pi) * math.sinh(2.0), rel=1e-13)
    assert eval_K(EvalContext(0.5, 1.0)).value == pytest.approx(
        math.sqrt(0.5 * math.pi) * math.exp(-1.0), rel=1e-13)


def test_I_negative_integer_order_symmetry():
    # I_{-m} = I_m for integer m; the series remaps the order exactly
    assert eval_I(EvalContext(-10.0, 3.0)).value == eval_I(EvalContext(10.0, 3.0)).value
    assert eval_I(EvalContext(-1.0, 1.0)).value == eval_I(EvalContext(1.0, 1.0)).value


def test_K_symmetry_at_integer_and_noninteger():
    for nu in (1.0, 2.3, 7.5):
        a = eval_K(EvalContext(nu, 1.7)).value
        b = eval_K(EvalContext(-nu, 1.7)).value
        assert abs(a - b) <= 1e-12 * a


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        EvalContext(0.0, 0.0)
    with pytest.raises(DomainError):
        EvalContext(0.0, -1.0)
    with pytest.raises(DomainError):
        EvalContext(25.0, 1.0)
    with pytest.raises(DomainError):
        EvalContext(0.0, 501.0)
    with pytest.raises(DomainError):
        eval_I(EvalContext(0.0, 1.0), target_rel_err=1e-15)


def test_mu_derived_field():
    ctx = EvalContext(1.5, 2.0)
    assert ctx.mu == 1.5 * 1.5 - 0.25


def test_unreachable_accuracy_raises():
    # deep in the series region the rounding bound alone exceeds 1e-14
    with pytest.raises(AccuracyError):
        eval_I(EvalContext(19.5, 400.0), target_rel_err=1.01e-14)


def test_K_at_tiny_argument_matches_mpmath():
    # Temme's series has no truncation window, so absurdly small x works at
    # integer and non-integer orders alike
    from mpmath import besselk, mp, mpf

    mp.dps = 40
    v = eval_K(EvalContext(1.0, 1e-35))
    want = float(besselk(1, mpf(1e-35)))
    assert abs(v.value - want) <= v.rel_error_bound * want
    v = eval_K(EvalContext(0.5, 1e-30))
    want = math.sqrt(0.5 * math.pi / 1e-30) * math.exp(-1e-30)
    assert v.value == pytest.approx(want, rel=1e-13)
    # K_{1/2}(5e-324) ~ 5.6e161 is a normal double, and the closed form keeps
    # its few-eps claim down there
    v = eval_K(EvalContext(0.5, 5e-324))
    want = besselk(0.5, mpf(5e-324))
    assert v.rel_error_bound <= 10.0 * _EPS and abs(v.value - want) <= v.rel_error_bound * want


def test_I_at_tiny_argument_matches_mpmath():
    # x^2/4 underflows to 0 below x ~ 3e-162 and x/2 rounds below 2^-1021;
    # I is evaluated wherever it is a normal double and refused below that
    from mpmath import besseli, mp, mpf

    mp.dps = 40
    for nu, x in ((0.0, 5e-324), (0.5, 1.5e-323), (-0.5, 1e-310), (0.3, 1e-200),
                  (19.0, 1.1e-15)):  # I_19 ~ 1e-307: 1e-18 I underflows
        v = eval_I(EvalContext(nu, x))
        want = besseli(mpf(nu), mpf(x))
        assert abs(v.value - want) <= v.rel_error_bound * want, (nu, x)
    for nu, x in ((1.0, 1e-320), (2.0, 1e-155), (20.0, 1e-15)):
        with pytest.raises(AccuracyError):
            eval_I(EvalContext(nu, x))


def test_K_ladder_matches_single_orders():
    # one ladder reads K_{nu-1}, K_nu, K_{nu+1} at the exact orders from nu's
    # split.  K_nu has the bits _besselk gives it, and so has K_{nu-+1} where
    # nu -+ 1 is a double whose split has nu's mu; elsewhere each is within its
    # claim of 40-digit mpmath at the exact order: at nu = +-1e-20, +-1e-12 the
    # orders nu -+ 1 round, at 0 < |nu| < 1 off 1/2 they take the other sign of
    # mu, at 0.5 -+ ulp nu -+ 1 fall either side of a tie; the half-integers
    # share mu = 1/2
    from fractions import Fraction

    from mpmath import besselk, mp, mpf

    from besselbounds.core import _k_orders, _k_split

    mp.dps = 40
    for nu in (-2.5, 2.5, -1.5, 1.5, 3.5, -9.5, 19.5, -0.3, 0.3, 0.5, 1.0, 15.3, -9.7, 7.3, 19.0,
               1e-20, -1e-20, 1e-12, -1e-12, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)):
        for x in (1e-3, math.nextafter(2.0, 0.0), 2.0, 5.0, math.nextafter(10.0, 0.0), 10.0, 60.0, 400.0):
            km, em, k0, e0, k1, e1 = _k_orders(nu, x)
            assert _k_ladder(nu, x) == (km, em, k0, e0, k1 / k0, e0 + e1 + 2.0 * _EPS)
            assert (k0, e0) == _besselk(nu, x)
            for d, k, e in ((-1.0, km, em), (1.0, k1, e1)):
                if Fraction(nu + d) == Fraction(nu) + int(d) and _k_split(nu + d)[0] == _k_split(nu)[0]:
                    assert (k, e) == _besselk(nu + d, x), (nu, d, x)
                else:
                    want = besselk(abs(mpf(nu) + d), mpf(x))
                    assert abs(k - want) <= e * want, (nu, d, x)


def test_no_overflow_leak_at_box_edges():
    hi = eval_I(EvalContext(0.0, 500.0))
    assert math.isfinite(hi.value) and hi.value > 1e200
    lo = eval_K(EvalContext(0.0, 500.0))
    assert math.isfinite(lo.value) and lo.value > 0.0
    big = eval_K(EvalContext(19.5, 1e-3))
    assert math.isfinite(big.value)


def test_region_paths():
    assert evaluation_path("I", 0.0, 400.0) == "asymptotic"
    assert evaluation_path("I", 0.0, 20.0) == "series"
    assert evaluation_path("K", 0.0, 400.0) == "cf2"
    assert evaluation_path("K", 0.3, 0.5) == "temme"
    assert evaluation_path("K", 1.0, 0.5) == "temme"  # integer order
    assert evaluation_path("K", 0.5, 2.0) == "closed"  # mu = 1/2, at every x
    assert evaluation_path("K", 1.5, 400.0) == "closed"
    assert evaluation_path("I", -0.5, 400.0) == "closed"
    assert evaluation_path("K", 2.0, 5.0) == "trapezoid"
    assert evaluation_path("K", 2.0, 10.0) == "cf2"


def test_ratio_I_examples():
    r = ratio_I(EvalContext(0.0, 1.0))
    assert r.value == pytest.approx(FROZEN_MISC[("ratio_I", 0.0, 1.0)], rel=1e-12)
    # y_{1/2} = x coth x - 1/2 forces the ratio (y - nu)/x = coth 1 - 1 at x = 1
    assert ratio_I(EvalContext(0.5, 1.0)).value == pytest.approx(
        1.0 / math.tanh(1.0) - 1.0, rel=1e-13)
    # ratio ~ x/2 as x -> 0 at nu = 0
    assert ratio_I(EvalContext(0.0, 1e-6)).value == pytest.approx(5e-7, rel=1e-6)


def test_ratio_I_range_watson():
    # the ratio lives in (0, 1) for nu >= -1/2; at large x it approaches 1
    # within one ulp (1 - ratio ~ e^{-2x}), so strictness is asserted where
    # doubles can resolve it
    for nu in (-0.5, 0.0, 1.0, 5.0):
        for x in (0.01, 1.0, 10.0, 200.0):
            r = ratio_I(EvalContext(nu, x)).value
            assert 0.0 < r <= 1.0
            if x <= 10.0:
                assert r < 1.0


def test_ratio_I_needs_nu_ge_minus_one():
    with pytest.raises(DomainError):
        ratio_I(EvalContext(-1.5, 1.0))
    # nu = -1 itself works through the integer-order symmetry (ratio > 1)
    assert ratio_I(EvalContext(-1.0, 1.0)).value > 1.0


def test_ratio_K_examples():
    # z_{1/2} = -x-1/2 forces K_{3/2}/K_{1/2} = (nu - z)/x = 2 at x = 1
    assert ratio_K(EvalContext(0.5, 1.0)).value == pytest.approx(2.0, rel=1e-13)
    assert ratio_K(EvalContext(0.0, 1.0)).value == pytest.approx(
        FROZEN_MISC[("ratio_K", 0.0, 1.0)], rel=1e-12)
    assert ratio_K(EvalContext(1.0, 1.0)).value == pytest.approx(
        FROZEN_MISC[("ratio_K", 1.0, 1.0)], rel=1e-12)
    for nu in (0.0, 1.0, 4.0):
        assert ratio_K(EvalContext(nu, 2.0)).value > 1.0


def test_dual_paths_agree_in_overlap():
    for label, diff in dual_path_checks():
        assert diff < 1e-11, label


def test_value_with_error_interface():
    v = ValueWithError(2.0, 1e-13)
    assert float(v) == 2.0
    assert v.abs_error_bound == pytest.approx(2e-13)


def test_context_and_value_contract():
    # both stay frozen dataclasses: fields, eq, hash, repr, pickling and the
    # errors are those of the generated methods
    ctx = EvalContext(1, 2)
    assert [f.name for f in dataclasses.fields(ctx)] == ["nu", "x", "mu"]
    assert type(ctx.nu) is float and type(ctx.x) is float
    assert repr(ctx) == "EvalContext(nu=1.0, x=2.0, mu=0.75)"
    assert ctx == EvalContext(1.0, 2.0)
    with pytest.raises(TypeError):
        EvalContext(1.0, 2.0, mu=9.0)  # mu is derived, not a parameter
    assert ctx != EvalContext(1.0, 2.5) and hash(ctx) == hash((1.0, 2.0, 0.75))
    assert dataclasses.replace(ctx, nu=0.5).mu == 0.0
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    for field in ("nu", "x", "mu"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, field, 3.0)
    for nu in (0.5000001, -7.3, 19.999, 1e-9, -0.4999999):
        assert EvalContext(nu, 1.0).mu.hex() == (nu * nu - 0.25).hex()
    for nu, x in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
                  (-10.5, 1.0), (20.5, 1.0), (1.0, 0.0), (1.0, -0.0), (1.0, 500.5)):
        with pytest.raises(DomainError):
            EvalContext(nu, x)

    v = ValueWithError(2.0, 1e-13)
    assert repr(v) == "ValueWithError(value=2.0, rel_error_bound=1e-13)"
    assert v == ValueWithError(2.0, 1e-13) != ValueWithError(2.0, 2e-13)
    assert hash(v) == hash((2.0, 1e-13))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.value = 3.0

    # quantity() takes a member or its str value; anything else is a ValueError
    assert quantity("P", ctx) == quantity(QuantityKind.P, ctx)
    assert quantity("phiI", ctx) == quantity(QuantityKind.PHI_I, ctx)
    for kind in ("nope", "T", "PHI_I"):
        with pytest.raises(ValueError):
            quantity(kind, ctx)
    # a str value refuses a point as its member does
    for kind, nu, x, error in (("b2hat", -0.5, 1.0, DomainError), ("y", -2.0, 1.0, DomainError),
                               ("deltaI", 0.0, 500.0, AccuracyError), ("P", -0.5, 5e-324, AccuracyError)):
        for k in (kind, QuantityKind(kind)):
            with pytest.raises(error, match=f"quantity '{kind}'"):
                quantity(k, EvalContext(nu, x))
    assert pickle.loads(pickle.dumps(v)) == v


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-0.99, 20.0), x=st.floats(1e-3, 500.0))
def test_I_positive_for_nu_above_minus_one(nu, x):
    assert eval_I(EvalContext(nu, x)).value > 0.0


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-10.0, 10.0), x=st.floats(1e-3, 500.0))
def test_K_positive_and_symmetric(nu, x):
    # |nu| <= 10 keeps the mirrored order inside the supported box
    a = eval_K(EvalContext(nu, x))
    assert a.value > 0.0
    b = eval_K(EvalContext(-nu, x))
    assert abs(a.value - b.value) <= 1e-12 * a.value


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(-1.0, 19.0), x=st.floats(1e-3, 490.0))
def test_ratio_paths_cross_check_never_trips(nu, x):
    # both dual-route checks are hard errors; they must stay silent on
    # well-conditioned inputs across the whole box
    ratio_I(EvalContext(nu, x))
    ratio_K(EvalContext(nu, x))


@settings(max_examples=25, deadline=None)
@given(nu=st.floats(-9.5, 19.5), x=st.floats(1e-2, 450.0))
def test_eval_matches_mpmath(nu, x):
    from mpmath import besseli, besselk, mp, mpf

    mp.dps = 30
    ctx = EvalContext(nu, x)
    vk = eval_K(ctx)
    ref = besselk(mpf(nu), mpf(x))
    assert abs(vk.value - float(ref)) <= max(vk.rel_error_bound, 1e-14) * float(ref)
    try:
        vi = eval_I(ctx)
    except AccuracyError:
        return  # extreme corner (e.g. leading term underflow); allowed to refuse
    refi = float(besseli(mpf(nu), mpf(x)))
    assert abs(vi.value - refi) <= max(vi.rel_error_bound, 1e-14) * abs(refi)


def test_rgamma_taylor_coefficients():
    # the committed table is 1/Gamma(1+z) = sum g_j z^j, pairs (g_2i, g_2i+1)
    # highest first, each the double nearest its exact value; g_j = c_{j+1}
    # of A&S 6.1.34, from (k-1) c_k = gamma c_{k-1} + sum_{j=2}^{k-1}
    # (-1)^(j+1) zeta(j) c_{k-j}
    from mpmath import euler, mp, mpf, rgamma, zeta

    mp.dps = 50
    c = [None, mpf(1), +euler]
    for k in range(3, 2 * len(_RGAMMA1P) + 1):
        acc = euler * c[k - 1]
        for j in range(2, k):
            acc += (-1) ** (j + 1) * zeta(j) * c[k - j]
        c.append(acc / (k - 1))
    table = [g for pair in reversed(_RGAMMA1P) for g in pair]
    assert table == [float(v) for v in c[1:]]
    # and the truncated series is 1/Gamma(1+z) on |z| <= 1/2, up to the
    # omitted terms (< 1e-20) and the rounding of the coefficients
    for z in (-0.5, -0.2, 0.3, 0.5):
        got = sum(mpf(g) * mpf(z) ** j for j, g in enumerate(table))
        rounding = sum(abs(g) * 2.0 ** -53 * abs(z) ** j for j, g in enumerate(table))
        assert abs(got - rgamma(1 + mpf(z))) < 1e-20 + rounding


def _ulps(v):
    # v and the doubles one ulp either side of it
    return math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)


def _near(v):
    return st.sampled_from(_ulps(v))


def _offset(centres):
    # within 1e-6 of one of the centres, inside the box
    return st.builds(lambda c, d: max(c + d, -10.0),
                     st.sampled_from(centres), st.floats(-1e-6, 1e-6))


# the box, and the strata where the kernels' loops branch: nu = -1 and near
# it (CF1's first step, the I series' positive / mixed-sign split), near the
# negative integers and half-integers (the integer-order flip, the ties of
# K's split at mu = 1/2, which K takes at |nu|); x at each route start of
# core._K_KERNELS -+ ulp (Temme / trapezoid, trapezoid / CF2) and at I's
# switch 30 + nu^2 -+ ulp (series / expansion).  nu is shared so that x can
# take its switch.  The positive half-integers past 1/2 stay out of the I
# claims: math.gamma under the I series' leading term is off near them by
# more than the claim grants (the open hole pinned below), so only the K
# claims take them (the orders with mu = 1/2, K's closed form).  nu = +-1/2 exactly, I's closed
# form, joins the I claims with x log-uniform down to 5e-324
_NU_DRAWS = (
    st.floats(-10.0, 20.0),
    st.floats(-1.0 - 1e-6, -1.0 + 1e-6),
    _offset(tuple(n / 2.0 for n in range(-20, 0))),
)
_NU_STRATA = st.shared(st.one_of(*_NU_DRAWS), key="nu")


def _x_strata(nu):
    return st.one_of(
        st.floats(0.0, 500.0, exclude_min=True),
        *(_near(row.start) for row in _K_KERNELS[1:]),
        _near(_i_switch(nu)),
    )


_X_STRATA = _NU_STRATA.flatmap(_x_strata)
_LOG_X = st.floats(math.log(5e-324), math.log(500.0)).map(lambda t: min(max(math.exp(t), 5e-324), 500.0))
_I_NU_STRATA = st.shared(st.one_of(*_NU_DRAWS, st.sampled_from((-0.5, 0.5))), key="i_nu")
_I_X_STRATA = _I_NU_STRATA.flatmap(lambda nu: _LOG_X if abs(nu) == 0.5 else _x_strata(nu))
_K_NU_STRATA = st.one_of(_NU_STRATA, st.sampled_from(tuple(n + 0.5 for n in range(-10, 20))))
_K_ROWS = {row.path: row for row in _K_KERNELS}
_K_X_STRATA = st.one_of(_X_STRATA, st.floats(_K_ROWS["trapezoid"].start, _K_ROWS["cf2"].start,
                                             exclude_max=True))  # the trapezoidal rule's route


def _with_examples(points):
    def deco(fn):
        for nu, x in points:
            fn = example(nu=nu, x=x)(fn)
        return fn
    return deco


def _k_over_max(nu, x):
    # K at the order nu (a double or an mpf), or None where it overflows doubles
    from mpmath import besselk, mpf

    v = besselk(abs(mpf(nu)), mpf(x))
    return v if v < 1.7976931348623157e308 else None


# where K's orders nu -+ 1 are not doubles: nu below 1e-3, or within 1e-6 or
# 1e-12 of an integer, with x log-uniform down to 5e-324, where K's
# sensitivity to its order, about log(2/x), is largest.  nu and x are drawn
# as one point, and the strata above keep three draws in four
_K_ORDER_ROUNDING = st.tuples(
    st.one_of(st.floats(-1e-3, 1e-3),
              st.builds(lambda n, d: n + d, st.integers(-9, 19), st.sampled_from((-1e-6, 1e-6, -1e-12, 1e-12)))),
    _LOG_X)
_K_POINTS = st.shared(st.one_of(*[st.tuples(_K_NU_STRATA, _K_X_STRATA)] * 3, _K_ORDER_ROUNDING), key="k_point")
# tiny x where nu -+ 1 round in double: a K side that split the rounded orders
# was off there by the factor of its claim given with each point
_K_ROUNDED_ORDERS = (
    (0.000969416191951392, 1.9597013739790897e-200),  # kratio 3.12x
    (7.879482415927276e-10, 2.186396316311806e-99),  # phiK 1.87x
    (1e-12, 3.5689855177001275e-302),  # ratio_K 9.26x
    (-1e-12, 6.264270665655107e-294),  # kratio 9.02x
    (1.000001, 1.4790298557368433e-115),  # phiK 4.04x
)


@settings(max_examples=270, deadline=None)
@given(nu=_K_POINTS.map(lambda p: p[0]), x=_K_POINTS.map(lambda p: p[1]))
@_with_examples(_K_ROUNDED_ORDERS)
@_with_examples([(nu, x) for nu in (-0.5, 0.5, 1.5, 19.5)
                  for row in _K_KERNELS[1:] for x in (math.nextafter(row.start, 0.0), row.start)])
@example(nu=17.435071950116672, x=279.4318877889326)
@example(nu=15.9, x=143.9)
@example(nu=18.8, x=340.1)
@example(nu=19.97, x=0.002)
@example(nu=1.3068721410391255, x=1.0173456470485944)
def test_K_claims_cover_actual_error(nu, x):
    # |error| <= rel_error_bound against 40-digit mpmath, for eval_K and
    # ratio_K; refusal only where a needed K overflows double precision
    from mpmath import mp, mpf

    mp.dps = 40
    ctx = EvalContext(nu, x)
    k0 = _k_over_max(nu, x)
    try:
        v = eval_K(ctx)
    except AccuracyError:
        assert k0 is None
    else:
        assert abs(v.value - k0) <= v.rel_error_bound * k0
    k1 = _k_over_max(mpf(nu) + 1, x)
    try:
        r = ratio_K(ctx)
    except AccuracyError:
        assert None in (k0, k1, _k_over_max(mpf(nu) - 1, x))
    else:
        want = k1 / k0
        assert abs(r.value - want) <= r.rel_error_bound * want


def _normal(v):
    # whether double precision holds v as a normal number
    return 2.2250738585072014e-308 <= abs(v) <= 1.7976931348623157e308


_LADDER_EDGES = (-2.5, 2.5, -0.3, 0.3, 0.5, 1.0, 15.3)


def _mp_bessel(nu, x):
    # 40-digit (nu, x, I_{nu-1}, I_nu, I_{nu+1}, K_{nu-1}, K_nu, K_{nu+1}), at
    # the exact orders nu -+ 1 on both sides (the continued fraction and the
    # recurrence for I_{nu-1}/I_nu take nu itself, and so does K's ladder);
    # I_{-n} = I_n at integer orders and K_{-v} = K_v, where mpmath's own sums
    # would cancel.  Below |nu| ~ 1e-25, 40 digits round nu -+ 1 (to -+1 at the
    # end), while near the pole of 1/Gamma(nu) I_{nu-1} at tiny x turns on nu's
    # last bits: there I_{nu-1} = I_{nu+1} + (2 nu/x) I_nu, exact in nu
    from mpmath import besseli, besselk, mp, mpf

    mp.dps = 40
    m, xm = mpf(nu), mpf(x)
    i0, i1 = (besseli(abs(o) if o == int(o) else o, xm) for o in (m, m + 1))
    o = m - 1
    if o + 1 == m:
        im = besseli(abs(o) if o == int(o) else o, xm)
    else:
        im = i1 + 2 * m / xm * i0
    km, k0, k1 = (besselk(abs(o), xm) for o in (m - 1, m, m + 1))
    return m, xm, im, i0, i1, km, k0, k1


# where ratio_I changes route: tiny x, where the continued fraction's start
# 1e-30 stops being negligible, and one ulp either side of the switch to the
# expansions' quotient, 30 + max(nu^2, (nu+1)^2)
_RATIO_I_EDGES = (
    *[(nu, x) for nu in (0.0, 15.3) for x in (1e-25, 2.8e-67, 5e-324)],
    *[(nu, math.nextafter(30.0 + max(nu * nu, (nu + 1.0) ** 2), to))
      for nu in (-0.7, 2.5, 15.3) for to in (0.0, math.inf)],
)


def _assert_claims_cover(cases, nu, x, domain_ok):
    # cases: tag -> (evaluation, 40-digit value, the I or K it needs).
    # DomainError only where domain_ok(tag) says so.  AccuracyError only where
    # the value or a needed I or K is not a normal double, and for I at
    # nu < -1, where the power series cancels below the target accuracy
    for tag, (evaluate, reference, needs) in cases.items():
        try:
            v = evaluate()
        except DomainError:
            assert domain_ok(tag), tag
            continue
        except AccuracyError:
            assert not all(map(_normal, (*needs, reference()))) or (tag == "I" and nu < -1.0), tag
            continue
        if v.value == 0.0 and v.rel_error_bound == math.inf:
            continue  # an exact 0 from cancellation claims nothing (0 * inf is nan)
        # relative to the true value, or to the returned one as abs_error_bound
        # reads it: the two differ at second order unless the claim nears 1
        # (phiI at nu = -1 and tiny x cancels to a claim above 1)
        want = reference()
        scale = max(abs(want), abs(v.value))
        assert abs(v.value - want) <= v.rel_error_bound * scale, (tag, v, float(want))


@settings(max_examples=210, deadline=None)  # nu = +-1/2 takes a quarter: about 160 for the rest
@given(nu=_I_NU_STRATA, x=_I_X_STRATA)
@_with_examples([
    (1.4942871284895034, 499.248154944117),
    (-0.708, 222.6),
    (2.5, 36.25), (2.5, math.nextafter(36.25, 0.0)),  # I's switch, 30 + nu^2
    (15.3, 30.0 + 15.3 * 15.3), (15.3, math.nextafter(30.0 + 15.3 * 15.3, 0.0)),
    (20.0, math.nextafter(430.0, 0.0)),  # I's longest series in the box, about 302 terms
    *[(nu, x) for nu in _LADDER_EDGES for x in (2.0, math.nextafter(2.0, 0.0), 10.0, math.nextafter(10.0, 0.0))],
    *_RATIO_I_EDGES,
    (-1.0, 2.0), (math.nextafter(-1.0, 0.0), 1e-3),  # CF1's first step, b_1 = 0 and near it
    (-0.9999990984435865, 2.225073858507203e-309),  # x^nu overflows where I is a normal double
    *_K_ROUNDED_ORDERS,
])
# open as the FOUND lines on eval_I's leading-term claim in CHANGES.md
# (ROADMAP item 3): math.gamma is off by up to about 57 eps near
# half-integers (the first two, drawn from the half-integer stratum) and by
# about 21 eps near integers (the third), and the claim grants the term 4
@example(nu=15.499999999999998, x=2.8331883496863664e-15).xfail(
    raises=AssertionError, reason="FOUND: eval_I's leading series term exceeds its claim")
@example(nu=15.499999665904289, x=0.25).xfail(
    raises=AssertionError, reason="FOUND: eval_I's leading series term exceeds its claim")
@example(nu=15.0000001, x=0.002145625914081833).xfail(
    raises=AssertionError, reason="FOUND: eval_I's leading series term exceeds its claim")
def test_I_and_ratio_claims_cover_actual_error(nu, x):
    # |error| <= rel_error_bound against 40-digit mpmath for eval_I, ratio_I
    # and the quantities built on the ratios; DomainError only below the I
    # side's order floor nu = -1
    from besselbounds.core import QuantityKind as QK, quantity

    ctx = EvalContext(nu, x)
    m, xm, im, i0, i1, km, k0, k1 = _mp_bessel(nu, x)
    cases = {
        "I": (lambda: eval_I(ctx), lambda: i0, (i0,)),
        "ratio_I": (lambda: ratio_I(ctx), lambda: i1 / i0, (i0, i1)),
        "y": (lambda: quantity(QK.Y, ctx), lambda: m + xm * i1 / i0, (i0, i1)),
        "phiI": (lambda: quantity(QK.PHI_I, ctx), lambda: 1 - im * i1 / i0**2, (i0, i1)),
        "phiK": (lambda: quantity(QK.PHI_K, ctx), lambda: 1 - km * k1 / k0**2, (km, k0, k1)),
        "kratio": (lambda: quantity(QK.K_RATIO, ctx), lambda: k0 / km, (km, k0, k1)),
    }
    _assert_claims_cover(cases, nu, x, lambda tag: tag in ("ratio_I", "y", "phiI") and nu < -1.0)


@settings(max_examples=80, deadline=None)
@given(nu=st.floats(-10.0, 20.0), x=st.floats(0.0, 500.0, exclude_min=True))
@_with_examples([
    (20.0, 400.0),
    (20.0, math.nextafter(430.0, 0.0)),  # I's longest series in the box, about 302 terms
    (15.3, math.nextafter(30.0 + 15.3 * 15.3, 0.0)),  # a long I series, about 202 terms
    (15.3, 200.0),
    (1.4942871284895034, 499.248154944117),
    (0.0, 360.0),  # I^2 overflows: deltaI refuses
    (4.69, 360.59),  # K^2 phiK subnormal: deltaK refuses
    (0.2, 0.1),  # x^2 + mu < 0: u out of its domain
    (0.500001, 1e-5), (-0.500001, 1e-5),  # x^2 + mu small: the rounding of mu dominates u and q
    (-0.5, 5e-324), (-0.9, 1e-300), (-0.49, 1e-320),  # P = I K overflows, omega = x I K does not
    (-0.03, 5e-324), (-0.035, 2e-323),  # x K subnormal: x I K taken as I (x K) fails its claim
    (-1.0, 5.0057e-155), (-1.0, 1.1e-212),  # x^2 subnormal or 0 where nc = x/4 is normal
    (0.2781810438991197, 6.692507068714758e-215),  # phiP = 1 - T, T's exponents summed past 1024, T finite
    *_RATIO_I_EDGES,
])
def test_remaining_quantity_claims_cover_actual_error(nu, x):
    # |error| <= rel_error_bound against 40-digit mpmath for the QuantityKinds
    # the test above leaves out; refusals as there, DomainError only outside a
    # quantity's domain, and deltaI / deltaK also refused where I^2 / K^2, the
    # factor they scale phiI / phiK by, is not a normal double
    from mpmath import sqrt

    from besselbounds.core import QUANTITIES, QuantityKind as QK, quantity

    ctx = EvalContext(nu, x)
    m, xm, im, i0, i1, km, k0, k1 = _mp_bessel(nu, x)
    mu, b = m * m - 0.25, m + 1
    y = lambda: m + xm * i1 / i0
    z = lambda: m - xm * k1 / k0
    phi_i = lambda: 1 - im * i1 / i0**2
    phi_k = lambda: 1 - km * k1 / k0**2
    i_side, k_side = (i0, i1), (km, k0, k1)
    refs = {  # kind: (40-digit value, the I or K it needs)
        QK.P: (lambda: i0 * k0, (i0, k0)),
        QK.OMEGA: (lambda: xm * i0 * k0, (i0, k0)),
        QK.DELTA_I: (lambda: i0**2 - im * i1, (*i_side, i0**2)),
        QK.Z: (z, k_side),
        # 1 - (1 - phiI)(1 - phiK): phiI + phiK - phiI phiK loses the 40 digits
        # where phiK overflows doubles and 1 - phiI is as small as nu
        QK.PHI_P: (lambda: 1 - im * i1 / i0**2 * (km * k1 / k0**2), i_side + k_side),
        QK.DELTA_K: (lambda: k0**2 - km * k1, (*k_side, k0**2)),
        QK.W: (lambda: sqrt(xm**2 + m**2) - y(), i_side),
        QK.U: (lambda: sqrt(xm**2 + mu) - y(), i_side),
        QK.LAMBDA: (lambda: y() - sqrt(xm**2 + b**2), i_side),
        QK.Q: (lambda: z() + sqrt(xm**2 + mu), k_side),
        QK.T: (lambda: z() + sqrt(xm**2 + m**2), k_side),
        QK.B2HAT: (lambda: -1 / (xm * phi_i()), i_side),
        QK.V_EFF: (lambda: -phi_k(), k_side),
        QK.N_C: (lambda: xm**2 / 4 / (b + sqrt(xm**2 + b**2)), ()),
        QK.N_S: (lambda: xm / 4 * i1 / i0, i_side),
        QK.I_RATIO: (lambda: i0 / im, i_side),
    }
    cases = {k.value: ((lambda k=k: quantity(k, ctx)), ref, needs) for k, (ref, needs) in refs.items()}

    def domain_ok(tag):
        return (nu < QUANTITIES[QK(tag)].min_nu or (tag == "u" and xm**2 + mu < 0)
                or (tag == "q" and mu < 0))

    _assert_claims_cover(cases, nu, x, domain_ok)


def test_deltaI_sums_each_series_once(monkeypatch):
    # ratio_I takes the continued fraction below the switch and sums no
    # series; deltaI sums one, for I_nu
    from besselbounds import core

    calls = []
    series = core._i_series

    def counted(nu, x):
        calls.append(nu)
        return series(nu, x)

    monkeypatch.setattr(core, "_i_series", counted)
    core._ratio_i.cache_clear()
    ctx = EvalContext(15.3, 200.0)  # below the switch 30 + nu^2 for both orders
    v = core.quantity(core.QuantityKind.DELTA_I, ctx)
    assert calls == [15.3]
    assert v.value == eval_I(ctx).value ** 2 * core.quantity(core.QuantityKind.PHI_I, ctx).value



def _counted(monkeypatch, module, names, k_kernels=False):
    # replace each named kernel by one that logs its name, in call order; with
    # k_kernels, also the kernel of each row of core's K route table, which
    # holds the functions themselves and so is not reached by name
    calls = []

    def counter(name, kernel):
        def counted(*args):
            calls.append(name)
            return kernel(*args)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, counter(name, getattr(module, name)))
    if k_kernels:
        rows = tuple(row._replace(kernel=counter(row.kernel.__name__, row.kernel)) for row in module._K_KERNELS)
        monkeypatch.setattr(module, "_K_KERNELS", rows)
        closed = module._K_CLOSED
        monkeypatch.setattr(module, "_K_CLOSED", closed._replace(kernel=counter(closed.kernel.__name__, closed.kernel)))
    return calls


# the evaluations under I, K and ratio_I
_BASE_KERNELS = ("_i_series", "_i_asym", "_i_closed", "_asym_bracket", "_k_climb")


def test_evaluation_path_is_the_region_that_runs(monkeypatch):
    # at each switch -+ 1 ulp the reported path is the kernel that _besseli,
    # _besselk or _ratio_i runs, and asking for it runs no kernel at all
    from besselbounds import core

    calls = _counted(monkeypatch, core, _BASE_KERNELS + ("_ratio_i_cf",), k_kernels=True)
    for nu in (-1.0, -0.5, -0.3, 0.0, 0.5, 2.5, 7.0, 20.0):
        switch = core._i_switch(nu)
        for x in (math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)):
            path = evaluation_path("I", nu, x)
            assert calls == []
            assert path == ("closed" if abs(nu) == 0.5 else "series" if x < switch else "asymptotic")
            core._besseli(nu, x)
            assert calls == {"series": ["_i_series"], "asymptotic": ["_i_asym", "_asym_bracket"],
                             "closed": ["_i_closed"]}[path], (nu, x)
            calls.clear()
    # K: the closed form at mu = 1/2 (nu = -1.5, -0.5, 19.5), the row x selects elsewhere
    for nu in (-9.7, -1.5, -0.5, 0.0, 0.3, 1.0, 19.5):
        for x in (v for row in _K_KERNELS[1:] for v in _ulps(row.start)):
            path = evaluation_path("K", nu, x)
            assert calls == []
            assert path == ("closed" if nu in (-1.5, -0.5, 19.5) else [row.path for row in _K_KERNELS if row.start <= x][-1])
            core._besselk(nu, x)
            assert calls == ["_k_climb", f"_k_{path}"], (nu, x)
            calls.clear()
    # ratio_I: the quotient of two expansion sums from 30 + max(nu^2, (nu+1)^2)
    # on, CF1 below it, and at tiny x on either side of the Lentz-start cut
    # (about 1.4e-13 max(1, nu + 1)) CF1 cut after b_1, told apart by its claim
    core._ratio_i.cache_clear()
    points = [(nu, x) for nu in (-0.7, -0.5, 2.5, 15.3)  # -0.5: I's route is its closed form, ratio_I's is not
              for switch in (30.0 + max(nu * nu, (nu + 1.0) * (nu + 1.0)),)
              for x in (math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf))]
    points += [(nu, x) for nu in (-1.0, 0.0, 2.5, 15.3) for x in (1e-15, 1e-13, 3e-13, 1e-12, 1e-10)]
    seen = set()
    for nu, x in points:
        path = evaluation_path("ratio_I", nu, x)
        assert calls == []
        _, rel = core._ratio_i(nu, x)
        assert calls == (["_asym_bracket"] * 2 if path == "asymptotic" else ["_ratio_i_cf"]), (nu, x)
        assert (path == "asymptotic") == (x >= 30.0 + max(nu * nu, (nu + 1.0) * (nu + 1.0))), (nu, x)
        assert (rel == 0.5 * x * x + 3.0 * _EPS) == (path == "two_term"), (nu, x)
        seen.add(path)
        calls.clear()
    assert seen == set(core.RATIO_I_PATHS)


def test_evaluation_path_refuses_where_the_evaluator_refuses(monkeypatch):
    # a point outside the box, or ratio_I below nu = -1, raises DomainError
    # from evaluation_path exactly where the evaluator raises it, and asking
    # still runs no kernel
    from besselbounds import core

    evaluators = {"I": eval_I, "K": eval_K, "ratio_I": ratio_I}
    points = [(nu, x) for nu in (math.nan, -math.inf, -10.5, -10.0, -3.0, math.nextafter(-1.0, -2.0),
                                 -1.0, 0.0, 20.0, 20.5, 25.0, math.inf)
              for x in (math.nan, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, 500.0, 500.5, 600.0, math.inf)]
    refused = Counter()
    for nu, x in points:
        for fn, evaluate in evaluators.items():
            try:
                evaluate(EvalContext(nu, x))
                want = False
            except DomainError:
                want = True
            except AccuracyError:
                want = False
            calls = _counted(monkeypatch, core, _BASE_KERNELS + ("_ratio_i_cf",), k_kernels=True)
            try:
                evaluation_path(fn, nu, x)
                got = False
            except DomainError:
                got = True
            monkeypatch.undo()
            assert got == want and calls == [], (fn, nu, x)
            refused[fn] += got
    assert refused["ratio_I"] > refused["I"] == refused["K"] > 0


def test_P_I_and_K_are_not_cached(monkeypatch):
    # P = I K, I and K are evaluated each time they are asked for, and a P
    # point gives the same bits each time
    from besselbounds import core

    calls = _counted(monkeypatch, core, _BASE_KERNELS)
    ctx = EvalContext(1.3, 0.7)
    first = core.quantity(QuantityKind.P, ctx)
    second = core.quantity(QuantityKind.P, EvalContext(1.3, 0.7))
    assert second is not first and second == first
    assert sorted(calls) == ["_i_series"] * 2 + ["_k_climb"] * 2
    calls.clear()
    for _ in range(2):
        eval_I(ctx)
        eval_K(ctx)
    assert sorted(calls) == ["_i_series"] * 2 + ["_k_climb"] * 2


def test_point_caches_are_bounded_dicts(monkeypatch):
    # _ratio_i and _k_ladder keep no LRU list, and a miss that would take one
    # past _POINT_CACHE_MAX entries empties it first; a point evaluated again
    # after that has its first bits, and an outside cache_clear() restarts
    # the count of misses
    from besselbounds import core

    monkeypatch.setattr(core, "_POINT_CACHE_MAX", 5)
    points = [(0.3 + k, 1.5 + k) for k in range(12)]
    for cached in (core._ratio_i, core._k_ladder):
        assert cached.cache_info().maxsize is None
        cached.cache_clear()
        first = []
        for p in points:
            first.append(cached(*p))
            assert cached.cache_info().currsize <= 5
        assert cached.cache_info().currsize == 2  # emptied at the 6th and 11th misses
        assert [cached(*p) for p in points] == first
        cached.cache_clear()
        for p in points[:3]:
            cached(*p)
        cached.cache_clear()
        for p in points[3:8]:
            cached(*p)
        assert cached.cache_info().currsize == 5


def test_threads_get_the_serial_bits(monkeypatch):
    # 4 threads evaluate P, omega, z and phiK at the same 500 seeded points,
    # each in its own order, through the point caches _ratio_i and _k_ladder:
    # every result and refusal (x reaches 1e-20, where some points refuse)
    # matches the serial run bit for bit, also with a bound of 64 entries,
    # where the caches are emptied while other threads miss and hit
    import random
    import sys
    import threading

    from besselbounds import core

    rng = random.Random(2503)
    points = [(rng.uniform(-1.0, 20.0), 10.0 ** rng.uniform(-20.0, 2.69)) for _ in range(500)]
    work = [(kind, i) for kind in (QuantityKind.P, QuantityKind.OMEGA, QuantityKind.Z, QuantityKind.PHI_K)
            for i in range(len(points))]

    def outcome(kind, i):
        try:
            v = quantity(kind, EvalContext(*points[i]))
        except (AccuracyError, DomainError) as exc:
            return type(exc).__name__
        return v.value.hex(), v.rel_error_bound.hex()

    def cold():
        core._ratio_i.cache_clear()
        core._k_ladder.cache_clear()

    def run(k):
        try:
            order = list(work)
            random.Random(k).shuffle(order)
            for w in order:
                results[k][w] = outcome(*w)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    cold()
    serial = {w: outcome(*w) for w in work}
    for bound in (core._POINT_CACHE_MAX, 64):
        monkeypatch.setattr(core, "_POINT_CACHE_MAX", bound)
        cold()
        results, errors = [{} for _ in range(4)], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert all(r == serial for r in results), bound


def test_K_split_is_exact_and_ties_at_plus_half():
    # |v| = n + mu exactly with -1/2 < mu <= 1/2, n the nearest integer off
    # ties and the lower one at a tie (mu = +1/2), at every integer and
    # half-integer of the ladder's reach [-21, 21] -+ ulp and at seeded draws
    # over it, tiny orders included
    import random
    from fractions import Fraction

    from besselbounds import core

    rng = random.Random(23)
    orders = [v for k in range(-42, 43) for v in _ulps(k / 2.0)]
    orders += [rng.uniform(-21.0, 21.0) for _ in range(2000)]
    orders += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 0.0) for _ in range(500)]
    for v in orders:
        mu, n = core._k_split(v)
        assert isinstance(n, int) and Fraction(mu) + n == Fraction(abs(v)), v
        assert -0.5 < mu <= 0.5, v
        assert n == round(abs(v)) if mu != 0.5 else abs(v) == n + 0.5, v


def test_K_ladder_climbs_once_per_mu(monkeypatch):
    # a ladder miss takes one climb, at nu's mu, for the three orders: two
    # only at 0 < |nu| < 1/2, where K_{1-|nu|} is level 1 of a climb at -mu;
    # nu = 0 and every half-integer take one (mu = 0 or 1/2)
    from besselbounds import core

    calls = _counted(monkeypatch, core, ("_k_climb",))
    halves = tuple(n + 0.5 for n in range(-10, 20))
    for nu in (*halves, -9.7, 19.0, 0.0, -0.0, 0.3, -0.3, 0.7, -0.7, 7.3, 1e-20, -1e-12, 1e-12,
               math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), math.nextafter(-0.5, 0.0)):
        climbs = 2 if 0.0 < abs(nu) < 0.5 else 1
        for x in (0.7, 30.0):
            core._k_ladder.cache_clear()
            core._k_ladder(nu, x)
            assert len(calls) == climbs, (nu, x)
            core._k_ladder(nu, x)  # a hit climbs nothing
            assert len(calls) == climbs, (nu, x)
            calls.clear()


def test_K_orders_split_only_nu(monkeypatch):
    # the ladder and omega's K split nu itself, never a rounded nu -+ 1.  At
    # the last three points K_{nu-1} overflows, so the ladder refuses while
    # omega, which reads only K_nu, returns a value
    from besselbounds import core

    seen = []
    split = core._k_split

    def recorded(v):
        seen.append(v)
        return split(v)

    monkeypatch.setattr(core, "_k_split", recorded)
    omega = QuantityKind.OMEGA
    for nu, x in ((1e-20, 1e-3), (-1e-12, 1e-200), (0.3, 2.0), (-0.7, 5.0), (0.5, 1.0), (0.0, 30.0),
                  (1.000001, 1e-115), (9.7, 400.0), (-1.0, 0.5), (19.0, 0.5)):
        core._k_ladder.cache_clear()
        seen.clear()
        core._k_ladder(nu, x)
        quantity(omega, EvalContext(nu, x))
        assert seen and all(abs(v) == abs(nu) for v in seen), (nu, x, seen)
    for nu, x in ((-0.9, 1e-300), (-0.49, 1e-320), (-0.5, 5e-324)):
        core._k_ladder.cache_clear()
        seen.clear()
        with pytest.raises(AccuracyError):
            core._k_ladder(nu, x)
        quantity(omega, EvalContext(nu, x))
        assert seen and all(abs(v) == abs(nu) for v in seen), (nu, x, seen)
    core._k_ladder.cache_clear()


def test_product_sums_exponents_apart():
    # the plain left-to-right product wherever every partial product is a
    # normal double, negative factors too; finite where only a partial product
    # leaves the double range, and +-inf where the whole product does
    import random
    from functools import reduce
    from operator import mul

    from besselbounds.core import _product

    rng = random.Random(30)
    for _ in range(2000):
        factors = [rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-150.0, 150.0)) for _ in range(rng.randint(1, 4))]
        assert _product(*factors) == reduce(mul, factors), factors
    for factors, want in (((1e300, 1e300, 1e-300), 1e300), ((1e-300, -1e-300, 1e300), -1e-300),
                          ((1e200, 1e200, 5e-324), 5e-324 * 1e200 * 1e200),
                          ((1e308, -1e308, 5e-324), 5e-324 * 1e308 * -1e308)):
        assert reduce(mul, factors) in (0.0, math.inf, -math.inf)
        got = _product(*factors)
        assert math.isfinite(got) and abs(got - want) <= 4.0 * _EPS * abs(want), (factors, got)
    assert _product(1e300, 1e300, 1e10) == math.inf
    assert _product(-1e300, 1e300, 1e10) == -math.inf


def test_product_renormalises_before_its_overflow_test():
    # the mantissas' product may fall below 1/2, so the exponents may sum past
    # the top of the range where the product is finite: there it is a value,
    # against 50-digit mpmath
    from mpmath import mp, mpf

    from besselbounds.core import _product

    mp.dps = 50
    for factors in ((2.0**1000, 2.0**23), (1e300, 1.5e8, 0.55), (1.7e308, 3.0, 0.3), (-1e200, 1e100, 1e8, 0.9)):
        assert sum(math.frexp(f)[1] for f in factors) > 1024
        want = mp.fprod(map(mpf, factors))
        got = _product(*factors)
        assert math.isfinite(got) and abs(got - want) <= 4.0 * _EPS * abs(want), (factors, got)


def test_phiP_keeps_its_overflow_refusal():
    # where 1 - phiK overflows, phiP = 1 - T with T = a_I r_I a_K r_K as one
    # _product: phiP's own refusal where T overflows, else a value with the
    # bits it had from its own frexp loop
    from besselbounds.core import _phi_k

    for nu, x in ((0.1, 1e-200), (0.1, 1e-175), (1e-3, 1e-160), (1e-10, 1e-158)):
        assert _phi_k(EvalContext(nu, x)).value == -math.inf
    for nu, x in ((0.1, 1e-200), (0.1, 1e-175), (1e-3, 1e-160)):
        with pytest.raises(AccuracyError, match="quantity 'phiP' overflows"):
            quantity(QuantityKind.PHI_P, EvalContext(nu, x))
    v = quantity(QuantityKind.PHI_P, EvalContext(1e-10, 1e-158))
    assert (v.value.hex(), v.rel_error_bound.hex()) == ("-0x1.68c9b6059ea1fp+999", "0x1.105474cce24f2p-46")


def test_omega_is_x_P_where_P_is_normal():
    # where P = I K is a normal double, omega = x I K has the bits and the
    # claim of x P, P's claim and one rounding
    import random

    from besselbounds import core

    rng = random.Random(31)
    normal = 0
    for _ in range(5000):
        nu = rng.uniform(-1.0, 20.0)
        x = math.exp(rng.uniform(math.log(5e-324), math.log(500.0))) if rng.random() < 0.5 else rng.uniform(1e-3, 500.0)
        try:
            p = core._p_at(nu, x)
        except AccuracyError:  # K overflows: omega refuses too
            continue
        if not core._MIN_NORMAL <= p.value < math.inf:
            continue
        normal += 1
        w = core._omega(EvalContext(nu, x))
        assert (w.value, w.rel_error_bound) == (x * p.value, p.rel_error_bound + _EPS), (nu, x)
    assert normal > 2500


def test_reads_are_exact_at_every_point(monkeypatch):
    # each quantity that returns a value read exactly the base results of its
    # QUANTITIES row: ratio_I (_ratio_i), I (_besseli), K (_besselk or the ladder)
    import random

    from besselbounds import core

    base = {"_ratio_i": "ratio_I", "_besseli": "I", "_besselk": "K", "_k_ladder": "K"}
    calls = _counted(monkeypatch, core, tuple(base))
    rng = random.Random(32)
    points = [(rng.uniform(-10.0, 20.0), math.exp(rng.uniform(math.log(5e-324), math.log(500.0))))
              for _ in range(400)]
    points += [(nu, x) for nu in (-1.0, -0.5, -0.3, 0.0, 0.5, 1.0, 2.5, 20.0) for x in (5e-324, 1e-300, 1e-9)]
    points += [(-0.5, 5e-324), (-0.9, 1e-300), (-0.49, 1e-320)]  # P = I K overflows, omega does not
    values = Counter()
    for nu, x in points:
        ctx = EvalContext(nu, x)
        for kind, spec in core.QUANTITIES.items():
            calls.clear()
            try:
                quantity(kind, ctx)
            except (DomainError, AccuracyError):
                continue
            values[kind] += 1
            assert {base[c] for c in calls} == set(spec.reads), (kind.value, nu, x, calls)
    assert set(values) == set(QuantityKind)


def _bits(values):
    return [float.hex(float(v)) for v in values]


def test_temme_order_table_keeps_the_bits(monkeypatch):
    # _k_temme reads its order-only terms from the table at mu = 0 (-0.0
    # finds 0.0's entry) and gets the bits it computes without it
    from besselbounds import core

    assert set(core._TEMME_ORDER) == {0.0}
    points = [(mu, x) for mu in (0.0, -0.0) for x in (5e-324, 1e-3, 1.0, math.nextafter(2.0, 0.0))]
    tabled = [_bits(core._k_temme(mu, x)) for mu, x in points]
    monkeypatch.setattr(core, "_TEMME_ORDER", {})
    assert [_bits(core._k_temme(mu, x)) for mu, x in points] == tabled


def test_temme_refuses_outside_its_domain():
    # past x = 2 Temme's budget fails: at x = 3 it would be -888 at mu = 1/2
    # and about 2e-11 at mu = 0.3, so the kernel refuses there, and at the
    # edge of its row's domain it still runs
    from besselbounds import core

    assert core._TEMME_X_MAX == _K_ROWS["temme"].domain[1] == 2.0
    for mu, x in ((0.5, 3.0), (0.3, 3.0), (0.0, math.nextafter(2.0, 3.0)), (0.3, 0.0), (0.3, math.nan)):
        with pytest.raises(AccuracyError):
            core._k_temme(mu, x)
    k0, k1, rel0, rel1 = core._k_temme(0.3, 2.0)
    assert 0.0 < rel0 < 1e-12 and 0.0 < rel1 < 1e-12


def test_trapezoid_table_within_its_claimed_rounding():
    # _k_trapezoid's claim takes each tabled 2 sinh^2(t_j/2) within 2.5 eps and
    # e^+-t_j within eps of their values at the exact nodes t_j = j h
    from mpmath import cosh, exp, mp, mpf

    from besselbounds import core

    mp.dps = 40
    assert len(core._TRAP_NODES) == 32
    for j, (c, jf, ep, en) in enumerate(core._TRAP_NODES, 1):
        t = mpf(j) * mpf(core._TRAP_H)
        assert t == j * core._TRAP_H and jf == j
        assert abs(c - (cosh(t) - 1)) <= 2.5 * _EPS * c, j
        assert abs(ep - exp(t)) <= _EPS * ep and abs(en - exp(-t)) <= _EPS * en, j


def test_closed_forms_libm_within_their_claimed_rounding():
    # _i_closed and _k_closed take their constants within 0.57 u and 0.66 u
    # of sqrt(2/pi) and sqrt(pi/2), sqrt correctly rounded, and exp, sinh and
    # cosh within eps of their values, at seeded x log-uniform in [5e-324, 500]
    import random

    from mpmath import cosh, exp, mp, mpf, pi, sinh, sqrt

    from besselbounds import core

    mp.dps = 40
    u = _EPS / 2.0
    assert abs(core._C_I - sqrt(2 / pi)) <= 0.57 * u * sqrt(2 / pi)
    assert abs(core._C_K - sqrt(pi / 2)) <= 0.66 * u * sqrt(pi / 2)
    rng = random.Random(22)
    lo, hi = math.log(5e-324), math.log(500.0)
    xs = [5e-324, 2.2250738585072014e-308, 1e-8, 500.0]
    xs += [min(max(math.exp(rng.uniform(lo, hi)), 5e-324), 500.0) for _ in range(300)]
    for x in xs:
        m = mpf(x)
        assert abs(math.sqrt(x) - sqrt(m)) <= u * sqrt(m), x
        for got, want in ((math.exp(-x), exp(-m)), (math.sinh(x), sinh(m)), (math.cosh(x), cosh(m))):
            assert abs(got - want) <= _EPS * want, x


def test_trapezoid_stops_on_its_own_test_before_the_table_ends(monkeypatch):
    # at the floor of the trapezoid row's domain, the smallest x any caller
    # passes (test_K_kernels_run_only_inside_their_table_domains), and at its
    # route start, the node loop breaks on its stop test with nodes of the
    # table left unread, at both ends of mu and between them
    from besselbounds import core

    table = core._TRAP_NODES
    read = []

    class Counted:
        def __iter__(self):
            for node in table:
                read.append(node)
                yield node

    monkeypatch.setattr(core, "_TRAP_NODES", Counted())
    for mu in (-0.5, -0.2, 0.0, 0.3, 0.5):
        for x in (_K_ROWS["trapezoid"].domain[0], _K_ROWS["trapezoid"].start):
            read.clear()
            core._k_trapezoid(mu, x)
            assert 15 < len(read) < len(table), (mu, x, len(read))


def test_K_kernels_run_only_inside_their_table_domains(monkeypatch):
    # every x that a row's kernel receives, from dual_path_checks, from the
    # equality checks at order 1/2 and from _k_climb's route at the box's ends
    # and at each route start -+ ulp, lies in that row's domain, and so does
    # each row's route interval: Temme's series, whose budget fails past its
    # domain, is never called there.  The closed form's row takes mu = 1/2
    # alone, at every x
    from besselbounds import core, harness

    seen = {row.path: [] for row in (*_K_KERNELS, core._K_CLOSED)}

    def recorded(row):
        def kernel(mu, x):
            seen[row.path].append((mu, x))
            return row.kernel(mu, x)
        return row._replace(kernel=kernel)

    rows = tuple(map(recorded, _K_KERNELS))
    monkeypatch.setattr(core, "_K_KERNELS", rows)
    monkeypatch.setattr(harness, "_K_KERNELS", rows)
    monkeypatch.setattr(core, "_K_CLOSED", recorded(core._K_CLOSED))
    dual_path_checks()
    harness.equality_and_limit_checks()
    for mu in (math.nextafter(-0.5, 0.0), -0.2, 0.0, 0.3, 0.5):  # the ends of _k_split's mu range
        for x in (5e-324, core.SUPPORTED_X[1], *(v for row in rows[1:] for v in _ulps(row.start))):
            core._k_climb(mu, x, 1)
    for row, end in zip(rows, [row.start for row in rows[1:]] + [math.inf]):
        lo, hi = row.domain
        assert lo <= row.start and end <= hi, row.path
        assert seen[row.path] and all(lo <= x <= hi for _, x in seen[row.path]), row.path
    closed = seen["closed"]
    assert closed and all(mu == 0.5 for mu, _ in closed) and min(x for _, x in closed) == 5e-324


def test_K_ladder_cross_check_fires_on_a_corrupted_climb(monkeypatch):
    # the ladder's recurrence check catches a climb whose top level is off
    from besselbounds import core

    climb = core._k_climb

    def corrupted(mu, x, n):
        km, em, k0, e0, k1, e1 = climb(mu, x, n)
        return km, em, k0, e0, k1 * (1.0 + 1e-6), e1

    monkeypatch.setattr(core, "_k_climb", corrupted)
    core._k_ladder.cache_clear()
    for nu in (3.3, -4.2, 0.3):
        with pytest.raises(CrossCheckError):
            core._k_ladder(nu, 1.5)
    core._k_ladder.cache_clear()
