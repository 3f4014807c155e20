"""Catalog integrity: coverage, guards, selection, and the master sweep."""

import dataclasses
import itertools
import math
import pickle
import random
import re

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besselbounds import catalog as cat
from besselbounds.catalog import (
    CATALOG,
    BoundEvaluation,
    UnknownBoundError,
    applicable,
    best_bounds,
    catalog_rows,
    evaluate_bound,
    get,
    ids,
)
from besselbounds.core import DomainError, EvalContext, QuantityKind as QK, quantity

EXPECTED_IDS = {
    # phiI
    "turan1_lower", "turan1_upper", "turan8_lower", "turan8_upper",
    "turan9_lower", "turan9_upper", "turan10_upper", "turan11_upper",
    "turan16_lower", "turan16_upper", "turanconj_lower", "joshi_turan7",
    # y
    "turan3_upper", "turan13_lower", "turan14_lower", "turan15_lower",
    "tuseg_lower", "tuseg_upper", "ylog_lower", "ylog_upper", "gro_lower",
    "turanconj2_upper",
    # ratios
    "turan5_lower", "turan5p_upper",
    # phiK
    "turan2_lower", "turan2_upper", "turan18_lower", "turan18_upper",
    "turan19_lower", "turan19_upper", "turan20_lower", "turan20_upper",
    "turan21_lower", "turan21_upper", "turan23_lower", "turan24_upper",
    "turan25_upper",
    # z
    "turan4_upper", "turan22_lower", "paltsev_lower", "segura74_lower",
    "segura75_upper", "zint_upper", "zlog_lower", "zlog_upper",
    # phiP
    "turan26_lower", "turan26_upper",
    # applications
    "b2hat_upper", "b2hat_upper_strong", "veff_lower", "veff_upper", "ncns",
}


def test_catalog_coverage_one_entry_per_side():
    assert set(CATALOG) == EXPECTED_IDS
    assert len(ids(status="conjecture")) == 2
    assert ids(status="refuted") == ["joshi_turan7"]
    # no duplicated (quantity, side, formula) rows
    keys = [(b.quantity, b.side, b.formula_str) for b in CATALOG.values()]
    assert len(keys) == len(set(keys))


def test_catalog_is_immutable():
    with pytest.raises(TypeError):
        CATALOG["new"] = CATALOG["turan1_lower"]  # type: ignore[index]


def test_unknown_id():
    with pytest.raises(UnknownBoundError):
        get("nope")
    with pytest.raises(UnknownBoundError):
        evaluate_bound("nope", 1.0, 1.0)


def test_evaluate_bound_examples():
    assert evaluate_bound("turan16_upper", 1.0, 1.0).value == pytest.approx(
        1.0 / math.sqrt(1.75), rel=1e-15)
    assert evaluate_bound("turan20_lower", 2.0, 2.0).value == pytest.approx(-0.5, rel=1e-15)
    # arccos(0) = pi/2 collapses turan23 to -1/x at nu = 1/2
    assert evaluate_bound("turan23_lower", 0.5, 3.0).value == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_inapplicable_points_never_raise():
    ev = evaluate_bound("turan23_lower", 0.3, 0.3)  # needs x > sqrt(-mu) = 0.4
    assert not ev.applicable and math.isnan(ev.value)
    ev = evaluate_bound("turan20_lower", 0.3, 1.0)  # needs |nu| >= 1/2
    assert not ev.applicable
    ev = evaluate_bound("zlog_lower", 0.8, 1.0)  # guarded to |nu| > 1
    assert not ev.applicable


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, math.inf, math.nan])
def test_no_entry_applies_at_x_not_positive_and_finite(x):
    # every query answers "no bound" and raises nothing, also for the entries
    # whose guards test only nu (ylog_lower's log at x = inf, zlog_lower's
    # log1p at x = -1, the divisions by x at 0)
    statuses = ("proved", "conjecture", "refuted")
    for nu in (-10.0, -2.0, -1.0, -0.5, 0.0, 5e-324, 0.5, 1.0, 2.5, 20.0):
        for q in QK:
            assert best_bounds(q, nu, x) == (None, None), (q, nu, x)
            assert applicable(q, nu, x, statuses=statuses) == [], (q, nu, x)
        for bound_id in CATALOG:
            ev = evaluate_bound(bound_id, nu, x)
            assert not ev.applicable and math.isnan(ev.value), (bound_id, nu, x)


def test_applicable_examples():
    have = {e.id for e in applicable(QK.PHI_I, 1.0, 1.0)}
    assert {"turan1_upper", "turan8_lower", "turan8_upper", "turan9_lower",
            "turan9_upper", "turan10_upper", "turan11_upper",
            "turan16_lower", "turan16_upper"} <= have
    assert "turanconj_lower" not in have  # conjecture excluded by default
    have = {e.id for e in applicable(QK.PHI_K, 0.3, 1.0)}
    assert {"turan21_lower", "turan21_upper", "turan25_upper", "turan23_lower"} <= have
    assert not {"turan20_lower", "turan20_upper", "turan24_upper"} & have
    have = {e.id for e in applicable(QK.PHI_K, 0.3, 0.3)}
    assert "turan23_lower" not in have
    # statuses filter
    have = {e.id for e in applicable(QK.PHI_I, 1.0, 1.0, statuses=("conjecture",))}
    assert have == {"turanconj_lower"}


def test_best_bounds_phiI_example():
    lo, hi = best_bounds(QK.PHI_I, 1.0, 1.0)
    assert lo.id == "turan16_lower"
    assert lo.value == pytest.approx(0.41602514716892186, rel=1e-12)
    assert hi.id == "turan8_upper"
    assert hi.value == pytest.approx(0.47213595499957939, rel=1e-12)
    true = quantity(QK.PHI_I, EvalContext(1.0, 1.0)).value
    assert lo.value < true < hi.value


def test_best_bounds_equality_collapse_at_half():
    # every applicable phiK bound collapses onto -1/x at nu = 1/2; the
    # selector must report that common value on both sides
    lo, hi = best_bounds(QK.PHI_K, 0.5, 2.0)
    assert lo.value == pytest.approx(-0.5, abs=1e-15)
    assert hi.value == pytest.approx(-0.5, abs=1e-15)
    assert lo.id == "turan20_lower"  # lexicographic tie-break among equals
    true = quantity(QK.PHI_K, EvalContext(0.5, 2.0)).value
    assert true == pytest.approx(-0.5, rel=1e-13)


def test_best_bounds_y_large_x():
    lo, hi = best_bounds(QK.Y, 1.0, 100.0)
    assert hi.id == "tuseg_upper"
    assert hi.value == pytest.approx(math.sqrt(10002.25) - 0.5, rel=1e-15)
    assert lo is not None and lo.value < hi.value


def test_best_bounds_absent_side():
    lo, hi = best_bounds(QK.K_RATIO, 1.0, 1.0)
    assert lo is None  # only an upper bound is cataloged for K_nu/K_{nu-1}
    assert hi is not None and hi.id == "turan5p_upper"


def test_zlog_upper_continuity_at_half():
    for x in (0.5, 2.0, 10.0):
        assert evaluate_bound("zlog_upper", 0.5, x).value == pytest.approx(-x - 0.5, rel=1e-14)


def test_guard_notes_flagged():
    rows = {r["id"]: r for r in catalog_rows()}
    for bid in ("turan8_lower", "turan8_upper", "turan9_lower", "turan9_upper",
                "ylog_lower", "ylog_upper", "turan19_lower", "zlog_lower",
                "segura74_lower"):
        assert rows[bid]["guard_note"], bid
    assert rows["turan20_lower"]["strictness"] == "non-strict"
    assert rows["turan16_lower"]["sharp_at"] == ["x->0 nu=1", "x->inf abs nu=1"]
    # export carries all schema columns
    assert set(rows["turan1_lower"]) == {"id", "quantity", "side", "status", "domain",
                                         "formula", "strictness", "sharp_at", "note",
                                         "guard_note"}


def test_conjecture_spot_value():
    # the conjectured phiI lower bound at (1,1) sits below the true value
    bv = evaluate_bound("turanconj_lower", 1.0, 1.0).value
    assert bv == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-15)
    assert bv < quantity(QK.PHI_I, EvalContext(1.0, 1.0)).value


def test_dominance_spot_checks():
    xs = [10 ** (-2 + 4 * k / 39) for k in range(40)]
    for nu in (0.75, 1.0, 2.0, 5.0):
        for x in xs:
            assert evaluate_bound("turan16_upper", nu, x).value < 1.0 / x
    for nu in (1.5, 2.0, 3.0, 5.0):
        for x in xs:
            assert (evaluate_bound("turan24_upper", nu, x).value
                    <= evaluate_bound("turan18_upper", nu, x).value)
    for nu in (0.5, 1.0, 2.0, 5.0, -3.0):
        for x in xs:
            assert (evaluate_bound("turan22_lower", nu, x).value
                    >= evaluate_bound("paltsev_lower", nu, x).value)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(-10.0, 20.0),
       x=st.one_of(st.floats(1e-3, 500.0),  # and log-uniform down to the least subnormal
                   st.floats(-323.3, math.log10(500.0)).map(lambda e: max(10.0 ** e, 5e-324))))
@example(nu=0.4, x=0.3)  # turan23_lower: x^2 + nu^2 - 1/4 rounds to 0 there
@example(nu=0.75, x=1e-8)  # turan18_lower: |nu|-1+sqrt(x^2+(|nu|-1)^2) cancels to one ulp
@example(nu=-0.9, x=1e-10)  # ... and to 0
@example(nu=2.0, x=1e-163)  # turan20_upper: x*x underflows to 0
@example(nu=0.3, x=1e-163)  # turan21_lower: likewise
@example(nu=0.5, x=1e-10)  # turan16_upper, turan24_upper, turan26_*: radicand rounds to 0
@example(nu=-0.5, x=1e-16)  # turan19_upper: (x + 2|nu|) - 1 rounds to 0
@example(nu=0.5, x=5e-324)  # the 1/x poles
@example(nu=20.0, x=5e-324)
@example(nu=0.0, x=5e-324)
def test_domain_predicates_total_on_box(nu, x):
    # every formula must evaluate finitely wherever its guard admits the point
    for b in CATALOG.values():
        ev = evaluate_bound(b.id, nu, x)
        assert ev.applicable == b.domain(nu, x)
        if ev.applicable:
            assert math.isfinite(ev.value), (b.id, nu, x)


@settings(max_examples=50, deadline=None)
@given(nu=st.floats(-10.0, 20.0), x=st.floats(1e-3, 100.0))
def test_applicable_proved_bounds_enclose_truth(nu, x):
    # pointwise master property: every applicable proved bound brackets the
    # reference value within the sweep tolerance, at arbitrary box points
    for quant in (QK.PHI_I, QK.PHI_K, QK.Y, QK.Z, QK.PHI_P, QK.N_S, QK.B2HAT):
        evs = applicable(quant, nu, x)
        if not evs:
            continue
        try:
            tv = quantity(quant, EvalContext(nu, x))
        except DomainError:
            continue  # outside the quantity's order domain
        tol = max(1e-9, 1e-9 * abs(tv.value)) + tv.abs_error_bound
        for ev in evs:
            if ev.side == "lower":
                assert ev.value <= tv.value + tol, (ev.id, nu, x)
            else:
                assert ev.value >= tv.value - tol, (ev.id, nu, x)


@pytest.mark.parametrize("bound_id,nu,x", [
    ("turan5_lower", 1.0, 1.8e-8), ("turan5_lower", 7.5, 3e-7),
    ("turan5p_upper", -3.0, 1e-10), ("turan5p_upper", -0.7, 1e-9),
    ("turan19_upper", 0.5, 3e-16), ("turan19_upper", -0.5, 3e-16),
])
def test_proved_bounds_hold_at_small_x(bound_id, nu, x):
    # at small x the sums -nu + sqrt(x^2+nu^2), nu + sqrt(x^2+nu^2) (nu < 0)
    # and x + 2|nu| - 1 (|nu| = 1/2) are tiny against their terms: formed
    # directly they cancel, and the bound crosses the value it bounds
    b = CATALOG[bound_id]
    tv = quantity(b.quantity, EvalContext(nu, x))
    tol = 1e-9 * abs(tv.value) + tv.abs_error_bound
    bv = evaluate_bound(bound_id, nu, x).value
    assert (bv <= tv.value + tol) if b.side == "lower" else (bv >= tv.value - tol)


def test_master_sweep_60x60_zero_violations():
    nus = [-10.0 + 30.0 * k / 59 for k in range(60)]
    nus = sorted(set(round(n, 6) for n in nus) | {-0.75, -0.5, 0.0, 0.49, 0.5, 0.51, 1.0})
    xs = [10 ** (-3 + 5 * (k + 1) / 60) for k in range(60)]
    cache = {}
    for b in CATALOG.values():
        if b.status != "proved":
            continue
        for nu in nus:
            for x in xs:
                if not b.domain(nu, x):
                    continue
                key = (b.quantity, nu, x)
                tv = cache.get(key)
                if tv is None:
                    tv = cache[key] = quantity(b.quantity, EvalContext(nu, x))
                tol = max(1e-9, 1e-9 * abs(tv.value)) + tv.abs_error_bound
                bv = b.formula(nu, x)
                if b.side == "lower":
                    assert bv <= tv.value + tol, (b.id, nu, x, bv, tv.value)
                else:
                    assert bv >= tv.value - tol, (b.id, nu, x, bv, tv.value)


# ---------------------------------------------------------------------------
# queries against a brute-force reference
# ---------------------------------------------------------------------------

STATUS_SETS = [c for n in range(4) for c in itertools.combinations(("proved", "conjecture", "refuted"), n)]


def _reference_evaluations(nu, x):
    # every CATALOG entry whose domain holds, in declaration order, with its
    # value (the guards keep every formula finite, down to the subnormals)
    return [BoundEvaluation(b.id, b.formula(nu, x), True, b.status, b.side, b.quantity)
            for b in CATALOG.values() if b.domain(nu, x)]


def _reference_query(evs, statuses=("proved",), best=False):
    # filter, then sort by the documented keys: (-value, id) lower, (value, id) upper
    evs = [e for e in evs if e.status in statuses]
    if not best:
        return evs
    lowers = sorted((e for e in evs if e.side == "lower"), key=lambda e: (-e.value, e.id))
    uppers = sorted((e for e in evs if e.side == "upper"), key=lambda e: (e.value, e.id))
    return (lowers[0] if lowers else None, uppers[0] if uppers else None)


def _query_points():
    # the bounds-table grid, the equality orders +-1/2, then 5 000 seeded
    # points over the whole box (x log-uniform down to the subnormals)
    nus = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0)
    pts = [(nu, 10.0 ** (-3.0 + 5.0 * k / 59)) for nu in nus for k in range(60)]
    pts += [(nu, x) for nu in (-0.5, 0.5) for x in (1e-300, 1e-3, 0.5, 2.0, 100.0, 500.0)]
    rng = random.Random(20261018)
    pts += [(rng.uniform(-10.0, 20.0), 10.0 ** rng.uniform(-323.0, math.log10(500.0)))
            for _ in range(5000)]
    return pts


def test_best_bounds_and_applicable_match_brute_force():
    # every quantity with entries, and one without (w)
    quants = sorted({b.quantity for b in CATALOG.values()}) + [QK.W]
    ties = inapplicable = 0
    for i, (nu, x) in enumerate(_query_points()):
        by_quantity = {}
        for e in _reference_evaluations(nu, x):
            by_quantity.setdefault(e.quantity, []).append(e)
        for quant in quants:
            evs = by_quantity.get(quant, [])
            statuses = STATUS_SETS[i % len(STATUS_SETS)]  # () to all three; ("proved",) by default
            args = (quant, nu, x) if statuses == ("proved",) else (quant, nu, x, statuses)
            assert applicable(*args) == _reference_query(evs, statuses)
            want = _reference_query(evs, best=True)
            assert best_bounds(quant, nu, x) == want, (quant, nu, x)
            if i % 10 == 0:
                assert best_bounds(quant.value, nu, x) == want
            inapplicable += want == (None, None)
            ties += any(e.id != w.id and e.side == w.side and e.value == w.value
                        for w in want if w is not None for e in evs if e.status == "proved")
    # the nu = 1/2 collapse ties several sides; at some points no entry applies
    assert ties > 0 and inapplicable > 0


def test_best_bounds_calls_each_applicable_proved_formula_once(monkeypatch):
    # counting wrappers planted in the per-quantity view: one query calls the
    # formula of each proved entry whose domain holds exactly once, and no
    # other formula, at the nu = 1/2 collapse, where nothing applies and with
    # the quantity given as its str value; the winners are those of the catalog
    calls = {}

    def counting(b):
        def formula(nu, x):
            calls[b.id] += 1
            return b.formula(nu, x)
        return dataclasses.replace(b, formula=formula)

    quants = sorted({b.quantity for b in CATALOG.values()})
    points = ((0.5, 2.0), (-0.5, 7.0), (0.0, 1.0), (0.3, 0.3), (2.0, 3.0), (-3.0, 0.01))
    want = {(q, nu, x): best_bounds(q, nu, x) for q in quants for nu, x in points}
    for q in quants:
        monkeypatch.setitem(cat._BY_QUANTITY, q, cat._view(tuple(map(counting, cat._BY_QUANTITY[q].entries))))
    for q in quants:
        for nu, x in points:
            for kind in (q, q.value):
                calls = dict.fromkeys(ids(quantity=q), 0)
                assert best_bounds(kind, nu, x) == want[q, nu, x], (kind, nu, x)
                assert calls == {b.id: int(b.status == "proved" and b.domain(nu, x))
                                 for b in CATALOG.values() if b.quantity is q}, (kind, nu, x)
    # at nu = 1/2, x = 2 two lower and four upper phiK entries tie at -1/2; no
    # phiP entry applies at nu = 0
    assert [e.id for e in want[QK.PHI_K, 0.5, 2.0]] == ["turan20_lower", "turan18_upper"]
    assert want[QK.PHI_P, 0.0, 1.0] == (None, None)


def test_bound_evaluation_contract():
    # a frozen dataclass with slots: fields, construction, eq, hash, repr,
    # replace, asdict, pickling and the errors are those of the generated methods
    names = ["id", "value", "applicable", "status", "side", "quantity"]
    args = ("turan16_upper", 0.5, True, "proved", "upper", QK.PHI_I)
    ev = BoundEvaluation(*args)
    assert [f.name for f in dataclasses.fields(ev)] == names
    assert [getattr(ev, name) for name in names] == list(args)
    assert ev == BoundEvaluation(**dict(zip(names, args)))
    assert ev == BoundEvaluation(*args[:3], **dict(zip(names[3:], args[3:])))
    assert repr(ev) == ("BoundEvaluation(id='turan16_upper', value=0.5, applicable=True, status='proved', "
                        "side='upper', quantity=<QuantityKind.PHI_I: 'phiI'>)")
    assert hash(ev) == hash(args)
    assert ev != BoundEvaluation("turan16_upper", 0.25, *args[2:])
    assert ev != BoundEvaluation(*args[:5], QK.PHI_K)
    with pytest.raises(TypeError):
        BoundEvaluation(*args[:5])
    moved = dataclasses.replace(ev, value=math.nan, applicable=False)
    assert math.isnan(moved.value) and not moved.applicable
    assert (moved.id, moved.status, moved.side, moved.quantity) == (args[0], *args[3:])
    assert dataclasses.asdict(ev) == dict(zip(names, args))
    assert pickle.loads(pickle.dumps(ev)) == ev
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ev, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ev, name)
    assert not hasattr(ev, "__dict__")
    assert evaluate_bound("turan16_upper", 1.0, 1.0) == BoundEvaluation(
        "turan16_upper", 1.0 / math.sqrt(1.75), True, "proved", "upper", QK.PHI_I)


def test_queries_reject_unknown_quantities():
    for query in (best_bounds, applicable):
        with pytest.raises(ValueError):
            query("nope", 1.0, 1.0)
    assert ids(quantity="phiP") == ids(quantity=QK.PHI_P) == ["turan26_lower", "turan26_upper"]


# ---------------------------------------------------------------------------
# catalog drift: every printed formula against its lambda
# ---------------------------------------------------------------------------

def _formula_to_python(b):
    """The entry's formula_str as a Python expression in nu and x."""
    s = b.formula_str
    if b.id == "ncns":
        s = s.removeprefix("n_c = ")  # names the classical count it states
    if b.id == "veff_upper":
        s = s.replace("mu_gig", "nu")  # nu plays mu_gig (see its domain)
    s = re.sub(r"\|([^|]+)\|", r"abs(\1)", s)
    s = s.replace("[", "(").replace("]", ")").replace("^", "**").replace("arccos", "acos")
    s = re.sub(r"\bmu\b", "(nu**2-1/4)", s)
    return re.sub(r"(\d)(?=[a-z(])", r"\1*", s)  # implicit products: 2nu, 2x, 2(, 2abs(


def test_formula_strings_match_lambdas():
    # each string, evaluated with 40-digit mpmath at seeded in-domain points,
    # agrees with the lambda; the lambdas' own rounding stays below 1e-10,
    # and a drifted coefficient moves the value by far more
    rng = random.Random(5)
    with mpmath.workdps(40):
        names = {"sqrt": mpmath.sqrt, "log": mpmath.log, "acos": mpmath.acos, "pi": mpmath.pi}
        for b in CATALOG.values():
            code = compile(_formula_to_python(b), b.id, "eval")
            checked = 0
            while checked < 200:
                nu, x = rng.uniform(-10.0, 20.0), 10.0 ** rng.uniform(-3.0, math.log10(500.0))
                if not b.domain(nu, x):
                    continue
                exact = eval(code, dict(names, nu=mpmath.mpf(nu), x=mpmath.mpf(x)))
                assert abs(b.formula(nu, x) - exact) <= 1e-9 * max(1.0, abs(exact)), (b.id, nu, x)
                checked += 1
