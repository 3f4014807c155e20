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
    _RGAMMA1P,
    _besselk,
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
    # one ladder for K_{nu-1}, K_nu, K_{nu+1} gives each order the bits it
    # gets alone, also where the orders' mu differ (sign change, round tie)
    # at nu = +-1e-20, +-1e-12 the orders nu -+ 1 round, at 0.5 -+ ulp round() ties
    for nu in (-2.5, 2.5, -0.3, 0.3, 0.5, 1.0, 15.3, -9.7, 7.3, 19.0, 1e-20, -1e-20, 1e-12, -1e-12,
               math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)):
        for x in (1e-3, math.nextafter(2.0, 0.0), 2.0, 60.0, 400.0):
            km, em, k0, e0, r, er = _k_ladder(nu, x)
            kp = _besselk(nu + 1.0, x)
            assert (km, em) == _besselk(nu - 1.0, x)[:2]
            assert (k0, e0) == _besselk(nu, x)[:2]
            assert (r, er) == (kp[0] / k0, e0 + kp[1] + 2.0 * _EPS)


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


def _near(v):
    # v and the doubles one ulp either side of it
    return st.sampled_from((math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)))


def _offset(centres):
    # within 1e-6 of one of the centres, inside the box
    return st.builds(lambda c, d: max(c + d, -10.0),
                     st.sampled_from(centres), st.floats(-1e-6, 1e-6))


# the box, and the strata where the kernels' loops branch: nu = -1 and near
# it (CF1's first step, the I series' positive / mixed-sign split), near the
# negative integers and half-integers (the integer-order flip, round() ties
# of mu, which K takes at |nu|); x = 2 -+ ulp (Temme / CF2) and 30 + nu^2 -+
# ulp (series / expansion).  nu is shared so that x can take its switch.
# Positive half-integers add no branch and find the open leading-term claim
# hole pinned below in 3 of 124 runs, so they wait for its fix
_NU_STRATA = st.shared(st.one_of(
    st.floats(-10.0, 20.0),
    st.floats(-1.0 - 1e-6, -1.0 + 1e-6),
    _offset(tuple(n / 2.0 for n in range(-20, 0))),
), key="nu")
_X_STRATA = st.one_of(
    st.floats(0.0, 500.0, exclude_min=True),
    _near(2.0),
    _NU_STRATA.flatmap(lambda nu: _near(30.0 + nu * nu)),
)


def _k_over_max(nu, x):
    from mpmath import besselk, mpf

    v = besselk(abs(nu), mpf(x))
    return v if v < 1.7976931348623157e308 else None


@settings(max_examples=200, deadline=None)
@given(nu=_NU_STRATA, x=_X_STRATA)
@example(nu=17.435071950116672, x=279.4318877889326)
@example(nu=15.9, x=143.9)
@example(nu=18.8, x=340.1)
@example(nu=19.97, x=0.002)
@example(nu=1.3068721410391255, x=1.0173456470485944)
def test_K_claims_cover_actual_error(nu, x):
    # |error| <= rel_error_bound against 40-digit mpmath, for eval_K and
    # ratio_K; refusal only where a needed K overflows double precision
    from mpmath import mp

    mp.dps = 40
    ctx = EvalContext(nu, x)
    k0 = _k_over_max(nu, x)
    try:
        v = eval_K(ctx)
    except AccuracyError:
        assert k0 is None
    else:
        assert abs(v.value - k0) <= v.rel_error_bound * k0
    k1 = _k_over_max(nu + 1.0, x)
    try:
        r = ratio_K(ctx)
    except AccuracyError:
        assert None in (k0, k1, _k_over_max(nu - 1.0, x))
    else:
        want = k1 / k0
        assert abs(r.value - want) <= r.rel_error_bound * want


def _normal(v):
    # whether double precision holds v as a normal number
    return 2.2250738585072014e-308 <= abs(v) <= 1.7976931348623157e308


_LADDER_EDGES = (-2.5, 2.5, -0.3, 0.3, 0.5, 1.0, 15.3)


def _with_examples(points):
    def deco(fn):
        for nu, x in points:
            fn = example(nu=nu, x=x)(fn)
        return fn
    return deco


def _mp_bessel(nu, x):
    # 40-digit (nu, x, I_{nu-1}, I_nu, I_{nu+1}, K_{nu-1}, K_nu, K_{nu+1}).
    # The I side works at the exact orders nu -+ 1 (the continued fraction and
    # the recurrence for I_{nu-1}/I_nu take nu itself), the K side at the
    # orders as rounded to doubles, as in the K test; I_{-n} = I_n at integer
    # orders and K_{-v} = K_v, where mpmath's own sums would cancel.  Below
    # |nu| ~ 1e-25, 40 digits round nu - 1 (to -1 at the end), while near the
    # pole of 1/Gamma(nu) I_{nu-1} at tiny x turns on nu's last bits: there
    # I_{nu-1} = I_{nu+1} + (2 nu/x) I_nu, exact in nu
    from mpmath import besseli, besselk, mp, mpf

    mp.dps = 40
    m, xm = mpf(nu), mpf(x)
    i0, i1 = (besseli(abs(o) if o == int(o) else o, xm) for o in (m, m + 1))
    o = m - 1
    if o + 1 == m:
        im = besseli(abs(o) if o == int(o) else o, xm)
    else:
        im = i1 + 2 * m / xm * i0
    km, k0, k1 = (besselk(abs(mpf(o)), xm) for o in (nu - 1.0, nu, nu + 1.0))
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


@settings(max_examples=160, deadline=None)
@given(nu=_NU_STRATA, x=_X_STRATA)
@_with_examples([
    (1.4942871284895034, 499.248154944117),
    (-0.708, 222.6),
    (2.5, 36.25), (2.5, math.nextafter(36.25, 0.0)),  # I's switch, 30 + nu^2
    (15.3, 30.0 + 15.3 * 15.3), (15.3, math.nextafter(30.0 + 15.3 * 15.3, 0.0)),
    *[(nu, x) for nu in _LADDER_EDGES for x in (2.0, math.nextafter(2.0, 0.0))],
    *_RATIO_I_EDGES,
    (-1.0, 2.0), (math.nextafter(-1.0, 0.0), 1e-3),  # CF1's first step, b_1 = 0 and near it
    (-0.9999990984435865, 2.225073858507203e-309),  # x^nu overflows where I is a normal double
])
# drawn from the half-integer stratum, and open as the FOUND line on eval_I's
# leading-term claim in CHANGES.md (ROADMAP item 4): math.gamma is off by up
# to about 57 eps near half-integers, and the claim grants the term 4
@example(nu=15.499999999999998, x=2.8331883496863664e-15).xfail(
    raises=AssertionError, reason="FOUND: eval_I's leading series term exceeds its claim")
@example(nu=15.499999665904289, x=0.25).xfail(
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
    (15.3, math.nextafter(30.0 + 15.3 * 15.3, 0.0)),  # I's longest series in the box
    (15.3, 200.0),
    (1.4942871284895034, 499.248154944117),
    (0.0, 360.0),  # I^2 overflows: deltaI refuses
    (4.69, 360.59),  # K^2 phiK subnormal: deltaK refuses
    (0.2, 0.1),  # x^2 + mu < 0: u out of its domain
    (0.500001, 1e-5), (-0.500001, 1e-5),  # x^2 + mu small: the rounding of mu dominates u and q
    (-0.5, 5e-324),  # P = I K overflows: omega from the Wronskian
    (-1.0, 5.0057e-155), (-1.0, 1.1e-212),  # x^2 subnormal or 0 where nc = x/4 is normal
    *_RATIO_I_EDGES,
])
def test_remaining_quantity_claims_cover_actual_error(nu, x):
    # |error| <= rel_error_bound against 40-digit mpmath for the QuantityKinds
    # the test above leaves out; refusals as there, DomainError only outside a
    # quantity's domain, and deltaI / deltaK / omega also refused where I^2 /
    # K^2 / P, the factor they scale phiI / phiK / x by, is not a normal double
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
        QK.OMEGA: (lambda: xm * i0 * k0, (i0, k0, i0 * k0)),
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



def _counted(monkeypatch, module, names):
    # replace each named kernel by one that logs its name, in call order
    calls = []
    for name in names:
        kernel = getattr(module, name)

        def counted(*args, name=name, kernel=kernel):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


_BASE_KERNELS = ("_i_series", "_i_asym", "_asym_bracket", "_k_climb")  # the evaluations under I, K and ratio_I


def test_evaluation_path_is_the_region_that_runs(monkeypatch):
    # at each switch -+ 1 ulp the reported path is the kernel that _besseli,
    # _besselk or _ratio_i runs, and asking for it runs no kernel at all
    from besselbounds import core

    calls = _counted(monkeypatch, core, _BASE_KERNELS + ("_k_temme", "_k_cf2", "_ratio_i_cf"))
    for nu in (-1.0, -0.3, 0.0, 0.5, 2.5, 7.0, 20.0):
        switch = 30.0 + nu * nu
        for x in (math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)):
            path = evaluation_path("I", nu, x)
            assert calls == []
            assert path == ("series" if x < switch else "asymptotic")
            core._besseli(nu, x)
            assert calls == {"series": ["_i_series"], "asymptotic": ["_i_asym", "_asym_bracket"]}[path], (nu, x)
            calls.clear()
    for nu in (-9.7, -0.5, 0.0, 0.3, 1.0, 19.5):
        for x in (math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, math.inf)):
            path = evaluation_path("K", nu, x)
            assert calls == []
            assert path == ("temme" if x < 2.0 else "cf2")
            core._besselk(nu, x)
            assert calls == ["_k_climb", f"_k_{path}"], (nu, x)
            calls.clear()
    # ratio_I: the quotient of two expansion sums from 30 + max(nu^2, (nu+1)^2)
    # on, CF1 below it, and at tiny x on either side of the Lentz-start cut
    # (about 1.4e-13 max(1, nu + 1)) CF1 cut after b_1, told apart by its claim
    core._ratio_i.cache_clear()
    points = [(nu, x) for nu in (-0.7, 2.5, 15.3)
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
            calls = _counted(monkeypatch, core, _BASE_KERNELS + ("_k_temme", "_k_cf2", "_ratio_i_cf"))
            try:
                evaluation_path(fn, nu, x)
                got = False
            except DomainError:
                got = True
            monkeypatch.undo()
            assert got == want and calls == [], (fn, nu, x)
            refused[fn] += got
    assert refused["ratio_I"] > refused["I"] == refused["K"] > 0


def test_P_is_cached_and_I_and_K_are_not(monkeypatch):
    # the one cache of a base product is P's: a P point is evaluated once,
    # I and K every time they are asked for, and a second applications run
    # (which replays its P points) evaluates no I or K at all
    from besselbounds import core, harness

    calls = _counted(monkeypatch, core, _BASE_KERNELS)
    ctx = EvalContext(1.3, 0.7)
    core._p_at.cache_clear()
    first = core.quantity(QuantityKind.P, ctx)
    assert core.quantity(QuantityKind.P, EvalContext(1.3, 0.7)) is first  # a hit builds nothing
    assert sorted(calls) == ["_i_series", "_k_climb"]
    calls.clear()
    for _ in range(2):
        eval_I(ctx)
        eval_K(ctx)
    assert sorted(calls) == ["_i_series"] * 2 + ["_k_climb"] * 2
    cfg = harness.VerifyConfig(random_pairs=20)
    first = harness.application_checks(cfg)
    calls.clear()
    second = harness.application_checks(cfg)
    assert calls == []
    assert ([(r.check_id, r.status, r.max_violation) for r in first]
            == [(r.check_id, r.status, r.max_violation) for r in second])


def test_K_ladder_climbs_once_per_mu(monkeypatch):
    # a ladder miss takes one climb for each distinct mu = |v| - round(|v|)
    # among v = nu - 1, nu, nu + 1: one where all three share nu's mu, more
    # where a sign change, a rounded nu -+ 1 or a round() tie splits them
    from besselbounds import core

    calls = _counted(monkeypatch, core, ("_k_climb",))
    for nu, climbs in ((2.5, 2), (-9.7, 1), (19.0, 1), (0.3, 3), (0.5, 2), (7.3, 2), (1e-20, 2),
                       (1e-12, 3), (math.nextafter(0.5, 1.0), 3)):
        mus = {abs(v) - round(abs(v)) for v in (nu - 1.0, nu, nu + 1.0)}
        assert len(mus) == climbs, nu
        for x in (0.7, 30.0):
            core._k_ladder.cache_clear()
            core._k_ladder(nu, x)
            assert len(calls) == climbs, (nu, x)
            core._k_ladder(nu, x)  # a hit climbs nothing
            assert len(calls) == climbs, (nu, x)
            calls.clear()


def test_K_ladder_cross_check_fires_on_a_corrupted_climb(monkeypatch):
    # the ladder's recurrence check catches a climb whose top level is off
    from besselbounds import core

    climb = core._k_climb

    def corrupted(mu, x, top):
        kp, k0, k1, rel0, rel = climb(mu, x, top)
        return kp, k0, k1 * (1.0 + 1e-6), rel0, rel

    monkeypatch.setattr(core, "_k_climb", corrupted)
    core._k_ladder.cache_clear()
    for nu in (3.3, -4.2, 0.3):
        with pytest.raises(CrossCheckError):
            core._k_ladder(nu, 1.5)
    core._k_ladder.cache_clear()
