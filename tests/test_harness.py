"""Verification harness: sweeps, probes, determinism."""

import dataclasses
import json
import math
from collections import Counter

import pytest

from besselbounds import catalog as cat
from besselbounds.catalog import ids
from besselbounds.harness import (
    CONCAVITY_NU,
    CONCAVITY_X,
    GRONWALL_ROOT,
    SHARP_RULES,
    GridSpec,
    VerifyConfig,
    application_checks,
    conjecture_probe,
    consistency_checks,
    default_grid,
    enclosure_checks,
    equality_and_limit_checks,
    gronwall_probe,
    refutation_probe,
    run_all,
    run_suite,
    sharp_checks,
    sharpness_decay,
    sharpness_records,
    sweep_validity,
)

FAST = VerifyConfig(x_points=60)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (1.0, 0.5))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (-1.0, 0.5))
    # a point outside the box, NaN and the infinities included, never reaches a sweep
    for nus, xs in (((1.0,), (math.nan,)), ((99.0,), (math.inf,)), ((1.0,), (500.5,)), ((1.0,), (0.0, 1.0)),
                    ((math.nan,), (1.0,)), ((-10.5,), (1.0,)), ((20.5,), (1.0,)), ((-math.inf,), (1.0,))):
        with pytest.raises(ValueError):
            GridSpec(nus, xs)
    assert GridSpec((-10.0, 20.0), (5e-324, 500.0)).x_values == (5e-324, 500.0)
    g = default_grid(50)
    assert len(g.x_values) == 50 and g.x_values[-1] == pytest.approx(100.0)
    assert g.x_values[0] > 1e-3


def test_verify_config_checks_scale():
    # "lin" is the CLI's spelling, which the CLI turns into "linear"; here it
    # would silently build a log grid
    for scale in ("lin", "bogus", "Log", ""):
        with pytest.raises(ValueError):
            VerifyConfig(scale=scale)
    assert VerifyConfig(scale="linear").scale == "linear"


def test_sweep_proved_phiI_clean():
    grid = GridSpec((-0.5, 0.0, 0.5, 1.0, 2.0, 5.0),
                    tuple(10 ** (-3 + 5 * (k + 1) / 200) for k in range(200)))
    phi_ids = [i for i in ids(status="proved") if i.startswith(("turan1", "turan8", "turan9",
                                                                "turan10", "turan11", "turan16"))]
    assert sweep_validity(phi_ids, grid) == []


def test_sweep_equality_line_has_zero_margin():
    grid = GridSpec((0.5,), tuple(10 ** (-2 + 3 * (k + 1) / 50) for k in range(50)))
    assert sweep_validity(["turan20_lower"], grid) == []


def test_sweep_refuted_finds_witnesses():
    grid = GridSpec((2.0,), tuple(0.25 * (k + 1) for k in range(40)))
    viols = sweep_validity(["joshi_turan7"], grid)
    assert viols, "reversal region should be detected"
    near = [v for v in viols if abs(v.x - 3.0) < 0.3]
    assert near and all(v.margin > 0 for v in viols)


def test_validity_evaluates_each_point_once(monkeypatch):
    # the proved bounds of one quantity share its evaluations; with a negative
    # tolerance every point is a witness, so the records must keep exactly
    # the witnesses that a sweep of each bound on its own finds
    from besselbounds import harness

    cfg = VerifyConfig(x_points=12)
    grid = harness.grid_from_config(cfg)
    monkeypatch.setattr(harness, "_tolerance", lambda true, err: -1e6 * (1.0 + abs(true)))
    monkeypatch.setattr(harness, "refutation_probe", lambda: [])
    alone = {bid: sweep_validity([bid], grid) for bid in ids(status="proved")}
    calls, tolerances = Counter(), Counter()
    quantity, tolerance = harness.quantity, harness._tolerance
    point = None

    def counted(kind, ctx):
        nonlocal point
        point = kind, ctx.nu, ctx.x
        calls[point] += 1
        return quantity(kind, ctx)

    def counted_tolerance(true, err):  # charged to the point evaluated last
        tolerances[point] += 1
        return tolerance(true, err)

    monkeypatch.setattr(harness, "quantity", counted)
    monkeypatch.setattr(harness, "_tolerance", counted_tolerance)
    records = harness.validity_records(cfg)
    assert calls and set(calls.values()) == {1}
    assert tolerances == calls
    assert [r.check_id for r in records] == [f"validity:{bid}" for bid in alone]
    for r, (bid, ws) in zip(records, alone.items()):
        kept = sorted(sorted(ws, key=lambda w: -w.margin)[:harness.WITNESS_CAP],
                      key=lambda w: (w.bound_id, w.nu, w.x))
        assert ws and r.witnesses == kept, bid
        assert r.max_violation == max(w.margin for w in ws) and r.status == "fail"


def test_sweep_evaluates_each_point_once_for_all_its_bounds(monkeypatch):
    # one sweep of bounds of three quantities and all three statuses, in mixed
    # order: each (quantity, nu, x) in some bound's domain is evaluated, and
    # its tolerance taken, exactly once, and the result is the bounds' own
    # sweeps merged.  With the negative tolerance every such point is a witness
    from besselbounds import harness

    bound_ids = ["turanconj2_upper", "turan11_upper", "joshi_turan7", "turan18_upper",
                 "turanconj_lower", "turan24_upper", "turan21_lower"]
    assert {cat.get(b).status for b in bound_ids} == {"proved", "conjecture", "refuted"}
    assert len({cat.get(b).quantity for b in bound_ids}) == 3
    grid = harness.grid_from_config(VerifyConfig(x_points=12))
    in_domain = {(cat.get(b).quantity, nu, x) for b in bound_ids for nu in grid.nu_values
                 for x in grid.x_values if cat.get(b).domain(nu, x)}
    quantity = harness.quantity
    for tolerance in (harness._tolerance, lambda true, err: -1e6 * (1.0 + abs(true))):
        monkeypatch.setattr(harness, "_tolerance", tolerance)
        merged = sorted((v for b in bound_ids for v in sweep_validity([b], grid)),
                        key=lambda v: (v.bound_id, v.nu, v.x))
        calls, tolerances = Counter(), Counter()
        point = None

        def counted(kind, ctx):
            nonlocal point
            point = kind, ctx.nu, ctx.x
            calls[point] += 1
            return quantity(kind, ctx)

        def counted_tolerance(true, err, tolerance=tolerance):  # charged to the point evaluated last
            tolerances[point] += 1
            return tolerance(true, err)

        monkeypatch.setattr(harness, "quantity", counted)
        monkeypatch.setattr(harness, "_tolerance", counted_tolerance)
        assert sweep_validity(bound_ids, grid) == merged
        monkeypatch.setattr(harness, "quantity", quantity)
        assert set(calls) == in_domain and set(calls.values()) == {1} and tolerances == calls
    assert {v.bound_id for v in merged} == set(bound_ids)


def test_validity_sweeps_only_the_configured_grid(monkeypatch):
    # the config's grid is the one grid the validity suite evaluates on: apart
    # from the refutation probe's fixed grid (the dominance claims evaluate no
    # quantity), every quantity call is at an x of grid_from_config(cfg)
    from besselbounds import harness

    cfg = VerifyConfig(x_lo=1.0, x_hi=10.0, x_points=20)
    monkeypatch.setattr(harness, "refutation_probe", lambda: [])
    xs = Counter()
    quantity = harness.quantity

    def counted(kind, ctx):
        xs[ctx.x] += 1
        return quantity(kind, ctx)

    monkeypatch.setattr(harness, "quantity", counted)
    run_suite("validity", cfg)
    assert 1.0 <= min(xs) and max(xs) <= 10.0
    assert set(xs) == set(harness.grid_from_config(cfg).x_values)


def test_sharpness_decay_examples():
    rep = sharpness_decay("turan11_upper", (10.0, 20.0, 50.0, 100.0), 1.0)
    assert rep.monotone_decreasing and rep.terminal < 0.02
    rep = sharpness_decay("turan24_upper", (10.0, 20.0, 50.0, 100.0), 2.0)
    assert rep.monotone_decreasing and rep.terminal < 0.02
    # x->0 sharpness of the phiI upper family: bound tends to 1/(nu+1)
    from besselbounds.catalog import evaluate_bound
    assert evaluate_bound("turan8_upper", 1.0, 1e-4).value == pytest.approx(0.5, abs=1e-4)


def test_equality_and_limit_checks_pass():
    recs = equality_and_limit_checks()
    bad = [c.check_id for c in recs if c.status == "fail"]
    assert bad == []
    info = {c.check_id for c in recs if c.status == "info"}
    assert "limit:z_x0_small_nu_slow_rate" in info
    assert "limit:phiK_x0_nu1.5_rate_x" in info


def _tag_check_id(bound_id, tag):
    # the id a tag's check is reported under, spelled out from the tag itself
    if tag == "nu=1/2":
        return f"equality:{bound_id}_at_half"
    prefix = "sharpness" if tag.startswith("x->inf ") else "sharpness_x0"
    return f"{prefix}:{bound_id}:{tag.split()[-1]}"


def test_every_sharp_tag_is_read_by_one_check():
    # each tag of each proved entry has exactly one check in the full report,
    # and each sharpness or nu = 1/2 equality check of a bound reads a tag
    rep = run_suite("all", FAST)
    got = Counter(c.check_id for c in rep.checks)
    want = [_tag_check_id(bid, tag) for bid in ids(status="proved") for tag in cat.get(bid).sharp_at]
    assert want and len(want) == len(set(want))
    assert {cid: got[cid] for cid in want} == dict.fromkeys(want, 1)
    generated = {cid for cid in got if cid.startswith("sharpness")
                 or cid.startswith("equality:") and cid.endswith("_at_half")}
    assert generated == set(want)
    assert [c.check_id for c in rep.checks if c.check_id in generated and c.status != "pass"] == []


def test_sharp_tag_orders_lie_in_their_domains():
    for kind, (_, xs, _) in SHARP_RULES.items():
        for check_id, bound_id, nu, _ in sharp_checks(kind):
            spec = cat.get(bound_id)
            assert all(spec.domain(nu, x) for x in xs), check_id


@pytest.mark.parametrize("bound_id,tags,check_id,group", [
    # turan21_lower's relative error at x = 1e-4 is about 2e5
    ("turan21_lower", ("x->0 nu=0", "x->inf rel nu=0"), "sharpness_x0:turan21_lower:nu=0",
     sharpness_records),
    # turan8_upper tends to 2/x against phiI ~ 1/x: sharp only in the absolute sense
    ("turan8_upper", ("x->0 nu=1", "x->inf rel nu=1"), "sharpness:turan8_upper:nu=1",
     sharpness_records),
    # turan16_upper is 1/x at nu = 1/2, not phiI
    ("turan16_upper", ("x->inf rel nu=1", "nu=1/2"), "equality:turan16_upper_at_half",
     equality_and_limit_checks),
])
def test_a_wrong_sharp_tag_fails_its_check(monkeypatch, bound_id, tags, check_id, group):
    planted = dataclasses.replace(cat.get(bound_id), sharp_at=tags)
    monkeypatch.setattr(cat, "get", lambda bid: planted if bid == bound_id else cat.CATALOG[bid])
    status = {c.check_id: c.status for c in group()}
    assert status[check_id] == "fail"
    assert [cid for cid, st in status.items() if st == "fail"] == [check_id]


@pytest.mark.parametrize("tag", ["x->inf", "x->inf nu=1", "x->0 rel nu=1", "x->inf rel 1", "nu=1"])
def test_malformed_sharp_tag_is_refused(monkeypatch, tag):
    planted = dataclasses.replace(cat.get("turan8_lower"), sharp_at=(tag,))
    monkeypatch.setattr(cat, "get", lambda bid: planted if bid == "turan8_lower" else cat.CATALOG[bid])
    with pytest.raises(ValueError, match="malformed sharp_at tag"):
        sharp_checks("x->inf")


def test_gronwall_probe():
    recs = {c.check_id: c for c in gronwall_probe()}
    root_rec = recs["gronwall:wprime_root"]
    assert root_rec.status == "pass"
    assert root_rec.max_violation <= 1e-6  # deviation from the tabulated root
    assert recs["gronwall:w_rises_then_falls"].status == "pass"


def test_gronwall_root_value():
    # locate independently by golden-free bisection on the closed form
    # w(x) = sqrt(x^2+1/4) - x coth x + 1/2
    def wp(x):
        s = math.sinh(x)
        return x / math.sqrt(x * x + 0.25) - (1.0 / math.tanh(x) - x / s / s)
    a, b = 1.0, 10.0
    for _ in range(80):
        m = 0.5 * (a + b)
        if wp(m) > 0:
            a = m
        else:
            b = m
    assert 0.5 * (a + b) == pytest.approx(GRONWALL_ROOT, abs=1e-6)


def test_conjecture_probe_is_informational():
    recs = conjecture_probe(FAST)
    assert all(c.status == "info" for c in recs)
    slope = next(c for c in recs if c.check_id == "conjecture:lambda_slope_min")
    assert slope.max_violation > 0.0  # conjecture predicts a positive slope
    edge = next(c for c in recs
                if c.check_id == "conjecture:lambda_slope_min_boundary_nu=-1/2")
    assert edge.max_violation > 0.0
    sweep = next(c for c in recs if c.check_id == "conjecture:turanconj_sweep")
    assert sweep.max_violation == 0.0  # no counterexample on the default grid


def test_refutation_probe_witnesses():
    from besselbounds import harness
    from besselbounds.core import EvalContext

    recs = {c.check_id: c for c in refutation_probe()}
    joshi = recs["refutation:joshi_turan7"]
    assert joshi.status == "info" and joshi.witnesses
    hamsici = recs["refutation:hamsici_b2hat"]
    assert hamsici.status == "info" and hamsici.witnesses
    assert all(0.0 < w.nu < 0.5 for w in hamsici.witnesses)
    # the concavity of P, proved for nu >= 1/2, fails just below: phiI + phiK
    # is positive beyond its claim there, and negative at the control 0.51
    below = recs["hypothesis:P_concavity_nu_below_half"]
    assert below.status == "info"
    assert [(w.nu, w.x) for w in below.witnesses] == [(0.3, 5.0), (0.3, 10.0), (0.49, 10.0)]
    assert all(w.true_value > 1e6 * (w.true_value - w.margin) > 0.0 for w in below.witnesses)
    assert harness._p_concavity(EvalContext(0.51, 10.0))[0] < -1e-6


def test_consistency_checks_pass():
    recs = consistency_checks()
    assert [c.check_id for c in recs if c.status == "fail"] == []
    by_id = {c.check_id: c for c in recs}
    assert by_id["consistency:wronskian"].max_violation < 1e-10
    assert by_id["consistency:ratio_I_dual_path"].max_violation < 1e-10
    assert by_id["consistency:K_symmetry"].max_violation < 1e-12


def test_application_checks_pass():
    recs = application_checks()
    assert [c.check_id for c in recs if c.status == "fail"] == []
    # no point is unresolved: at nu = 1/2, where phiI + phiK and omega's term
    # fall like e^(-2x), the closed forms' claims fall with them
    for name in ("P_geometric_concavity", "omega_concavity"):
        unresolved = next(c for c in recs if c.check_id == f"applications:{name}_pointwise_unresolved")
        assert unresolved.status == "info" and unresolved.max_violation == 0.0, name


@pytest.mark.parametrize("bound_id,formula,check_id", [
    # b2hat -> -1 at nu = 1/2: the bound -1 tightened by 1e-8 relative
    ("b2hat_upper_strong", lambda nu, x: -1.0 - 1e-8, "applications:b2hat_bounds"),
    # half of 1/(mu - 1), which veff approaches as x -> 0
    ("veff_upper", lambda nu, x: 0.5 / (nu - 1.0), "applications:veff_in_(0,1/(mu-1))"),
], ids=("b2hat_upper_strong", "veff_upper"))
def test_a_planted_catalogue_defect_fails_its_application_check(monkeypatch, bound_id, formula, check_id):
    # the application checks read their bounds from the catalogue, so an
    # entry moved past the quantity fails its check, with the entry's id as
    # every witness's bound_id
    planted = dataclasses.replace(cat.get(bound_id), formula=formula)
    monkeypatch.setattr(cat, "get", lambda bid: planted if bid == bound_id else cat.CATALOG[bid])
    recs = application_checks()
    assert [c.check_id for c in recs if c.status == "fail"] == [check_id]
    rec = next(c for c in recs if c.check_id == check_id)
    assert rec.witnesses and {w.bound_id for w in rec.witnesses} == {bound_id}
    assert rec.max_violation == max(w.margin for w in rec.witnesses) > 0.0


def _planted_sweep_point(monkeypatch, formulas):
    # every quantity planted as 2.0 with a claim of 0.5 (relative 0.25), and
    # each entry of ``formulas`` as (side, constant bound)
    from besselbounds import harness
    from besselbounds.core import ValueWithError

    monkeypatch.setattr(harness, "quantity", lambda kind, ctx: ValueWithError(2.0, 0.25))
    planted = {bid: dataclasses.replace(cat.get(bid), side=side, formula=lambda nu, x, b=b: b)
               for bid, (side, b) in formulas.items()}
    monkeypatch.setattr(cat, "get", lambda bid: planted.get(bid) or cat.CATALOG[bid])


@pytest.mark.parametrize("moved", [None, "lower", "upper"])
def test_each_sweep_rule_at_its_boundary(monkeypatch, moved):
    # each planted bound's lead over v = 2.0 is its rule's slack: -0.5 under
    # the claim rule, a witness of margin 0.0, and 0.5 under the limit rule
    # and under a sweep tolerance of 0.5, no witness.  The bounds of the
    # ``moved`` side are then moved one ulp across their boundary (a claim
    # bound's lead lowered, the others' raised), and each rule's outcome flips
    # on that side alone
    from besselbounds import harness

    def bound(side, b, up):
        return side, math.nextafter(b, math.inf if up else -math.inf) if side == moved else b

    # claim rule: lower 1.5 and upper 2.5 fall short of v by its claim
    claimed = {"ncns": bound("lower", 1.5, False), "veff_lower": bound("lower", 1.5, False),
               "veff_upper": bound("upper", 2.5, True)}
    # limit rule: lower 2.5 and upper 1.5 pass v by its claim
    limits = {"b2hat_upper_strong": bound("lower", 2.5, True), "b2hat_upper": bound("upper", 1.5, False)}
    _planted_sweep_point(monkeypatch, {**claimed, **limits})
    recs = {c.check_id: c for c in application_checks()}
    for check_id, bound_ids in (("applications:ns_gt_nc", ("ncns",)),
                                ("applications:veff_in_(0,1/(mu-1))", ("veff_lower", "veff_upper"))):
        rec, want = recs[check_id], {bid for bid in bound_ids if claimed[bid][0] != moved}
        assert {w.bound_id for w in rec.witnesses} == want and rec.status == ("fail" if want else "pass"), check_id
        assert {(w.true_value, w.margin) for w in rec.witnesses} <= {(2.0, 0.0)} and rec.max_violation == 0.0
    rec, want = recs["applications:b2hat_bounds"], {bid for bid, (side, _) in limits.items() if side == moved}
    assert {w.bound_id for w in rec.witnesses} == want and rec.status == ("fail" if want else "pass")
    assert all(w.margin > 0.0 for w in rec.witnesses)

    # validity rule, with the sweep tolerance planted as 0.5, on the limit rule's bounds
    monkeypatch.setattr(harness, "_tolerance", lambda true, err: 0.5)
    wits = sweep_validity(list(limits), GridSpec((1.0,), (1.0, 2.0)))
    assert [w.bound_id for w in wits] == sorted(want) * 2 and all(w.margin > 0.0 for w in wits)


def _scaled_phiK(monkeypatch):
    # plants phiK scaled by 1 - 1e-6 (its claim kept) in harness.quantity
    from besselbounds import harness
    from besselbounds.core import QuantityKind as QK, ValueWithError

    quantity = harness.quantity

    def scaled(kind, ctx):
        v = quantity(kind, ctx)
        return ValueWithError(v.value * (1.0 - 1e-6), v.rel_error_bound) if kind is QK.PHI_K else v

    monkeypatch.setattr(harness, "quantity", scaled)


def test_planted_phiK_defect_fails_both_pointwise_checks(monkeypatch):
    # phiK scaled by 1 - 1e-6 makes phiI + phiK positive beyond its bound at
    # every order near x = 500 (about +2e-9 against 4e-14 at nu = 5), and
    # both checks fail
    from besselbounds import harness
    from besselbounds.core import EvalContext

    _scaled_phiK(monkeypatch)
    recs = {c.check_id: c for c in application_checks()}
    for name in ("P_geometric_concavity", "omega_concavity"):
        rec = recs[f"applications:{name}_pointwise"]
        assert rec.status == "fail" and rec.max_violation == max(w.margin for w in rec.witnesses), name
    for nu in CONCAVITY_NU:
        ctx = EvalContext(nu, CONCAVITY_X[-1])
        g, eg = harness._p_concavity(ctx)
        v, err = harness._omega_concavity(ctx, g, eg)
        assert g - eg > 0.0 and v - err > 0.0, nu
    g, err = harness._p_concavity(EvalContext(5.0, CONCAVITY_X[-1]))
    assert 1e-9 < g < 3e-9 and err < 1e-13


def _shifted_half_terms(monkeypatch):
    # plants both closed-form terms at nu = 1/2 shifted up by 1e-10 (their
    # claims kept) in harness._half_concavity
    from besselbounds import harness

    half = harness._half_concavity

    def shifted(x):
        (g, eg), (w, ew) = half(x)
        return (g + 1e-10, eg), (w + 1e-10, ew)

    monkeypatch.setattr(harness, "_half_concavity", shifted)


def test_planted_half_defect_fails_both_pointwise_checks(monkeypatch):
    # the closed-form route at nu = 1/2 reaches the checks: its two terms
    # shifted by 1e-10 turn positive beyond their claims where they fall
    # below 1e-10 (and are not scaled by e^(2x)), and both checks fail there
    from besselbounds import harness

    _shifted_half_terms(monkeypatch)
    recs = {c.check_id: c for c in application_checks()}
    for name in ("P_geometric_concavity", "omega_concavity"):
        rec = recs[f"applications:{name}_pointwise"]
        assert rec.status == "fail" and rec.witnesses, name
        assert {w.nu for w in rec.witnesses} == {0.5}, name
    for term in harness._half_concavity(40.0):
        assert term[0] - term[1] > 0.0


def _concavity_records_by_plain_loops():
    # the two pointwise checks as two independent loops over the grid, each
    # evaluating its own term at every point: from harness.quantity, and at
    # nu = 1/2 from harness._half_concavity
    from besselbounds import harness
    from besselbounds.core import _EPS, EvalContext, QuantityKind as QK

    def p_term(nu, x):
        if nu == 0.5:
            return harness._half_concavity(x)[0]
        ctx = EvalContext(nu, x)
        fi, fk = harness.quantity(QK.PHI_I, ctx), harness.quantity(QK.PHI_K, ctx)
        g = fi.value + fk.value
        return g, fi.abs_error_bound + fk.abs_error_bound + _EPS * abs(g)

    def omega_term(nu, x):
        if nu == 0.5:
            return harness._half_concavity(x)[1]
        g, eg = p_term(nu, x)
        ctx = EvalContext(nu, x)
        y, z = harness.quantity(QK.Y, ctx), harness.quantity(QK.Z, ctx)
        s = y.value + z.value
        es = y.abs_error_bound + z.abs_error_bound + _EPS * abs(s)
        a, b = s * (1.0 + s), x * x * g
        return a + b, (abs(1.0 + 2.0 * s) + es) * es + x * x * eg + 4.0 * _EPS * (abs(a) + abs(b))

    checks = harness._Checks()
    for name, term, label in (("P_geometric_concavity", p_term, "phiI+phiK<0"),
                              ("omega_concavity", omega_term, "s(1+s)+x^2(phiI+phiK)<0")):
        wits, unresolved = [], 0
        for nu in CONCAVITY_NU:
            for x in CONCAVITY_X:
                v, err = term(nu, x)
                if v - err > 0.0:
                    wits.append(harness.Violation(label, nu, x, 0.0, v, v - err))
                elif v + err >= 0.0:
                    unresolved += 1
        checks.add(f"applications:{name}_pointwise", 0.0, witnesses=wits)
        checks.add(f"applications:{name}_pointwise_unresolved", 0.0, float(unresolved), info=True)
    return {c.check_id: dataclasses.replace(c, runtime_ms=0.0) for c in checks.records}


@pytest.mark.parametrize("planted", [False, True])
def test_concavity_pass_matches_two_plain_loops(monkeypatch, planted):
    # the one pass that serves both checks builds, field for field, the
    # records of two independent loops; with the phiK defect and the
    # closed-form one planted both checks have witnesses, and without them
    # neither has an unresolved point
    if planted:
        _scaled_phiK(monkeypatch)
        _shifted_half_terms(monkeypatch)
    want = _concavity_records_by_plain_loops()
    got = {c.check_id: dataclasses.replace(c, runtime_ms=0.0) for c in application_checks()
           if c.check_id in want}
    assert got == want
    for name in ("P_geometric_concavity", "omega_concavity"):
        assert bool(want[f"applications:{name}_pointwise"].witnesses) == planted, name
        if not planted:
            assert want[f"applications:{name}_pointwise_unresolved"].max_violation == 0.0, name


def _half_reference(x, scaled):
    # both concavity terms at nu = 1/2 in the closed forms' own e^(-2x) form
    # at 60 digits, times e^(2x) where scaled: phiI and phiK cancel down to
    # about e^(-2x)/x, which a 60-digit besseli/besselk reference loses past
    # x ~ 70
    import mpmath as mp

    with mp.workdps(60):
        x = mp.mpf(x)
        e = mp.exp(-2 * x)
        f = 1 / e if scaled else 1
        return 2 * e * (1 - e - 2 * x) / (x * (1 - e) ** 2) * f, -4 * x * x * e / (1 - e) * f


def test_half_reference_is_the_bessel_definition():
    # the reference's form is DLMF 10.39's algebra: it agrees with phiI + phiK
    # and s (1 + s) + x^2 (phiI + phiK), with s = x I_{nu-1}/I_nu - x
    # K_{nu-1}/K_nu - 2 nu, in the Bessel definition, taken by the claim tests'
    # reference at a precision that outlasts their cancellation
    from mp_reference import TAGS, Point

    def phi(b):  # phiI + phiK
        return TAGS["phiI"](b) + TAGS["phiK"](b)

    def omega(b):  # s + s^2 + x^2 phi
        a, c = b.x * b.im / b.i0, -b.x * b.km / b.k0
        return (a, c, -2 * b.nu, (a + c - 2 * b.nu) ** 2, *(b.x**2 * v for v in phi(b)))

    for x in (0.7, 3.0, 16.0, 40.0):
        ref = Point(0.5, x)
        for got, want in zip((ref.value(phi), ref.value(omega)), _half_reference(x, False)):
            assert abs(got - want) < 1e-25 * abs(want), x


def test_half_closed_forms_within_their_claims():
    # each term, plain and e^(2x)-scaled, is within its claim of the 60-digit
    # reference and negative, across the grid's range and at the scaling switch
    import sys

    from besselbounds import harness
    from besselbounds.core import _EPS

    tiny = sys.float_info.min
    switch = -0.5 * math.log(tiny)  # moved to the last x whose e^(-2x) is normal
    while math.exp(-2.0 * switch) < tiny:
        switch = math.nextafter(switch, 0.0)
    while math.exp(-2.0 * math.nextafter(switch, math.inf)) >= tiny:
        switch = math.nextafter(switch, math.inf)
    points = (1e-3, 0.5, 0.7, 3.0, 15.96, 16.0, 40.0,
              math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf), 500.0)
    for x in points:
        scaled = x > switch
        for (v, err), ref in zip(harness._half_concavity(x), _half_reference(x, scaled)):
            assert v < 0.0 and abs(v - ref) <= err, (x, v, err, float(ref))
    # c = 1 - e - 2x cancels at small x, and the claim of P's term says so
    (g, eg), (w, ew) = harness._half_concavity(1e-3)
    assert 1000.0 * _EPS < eg / -g < 1010.0 * _EPS and ew == 4.0 * _EPS * -w


def test_cold_verify_fills_the_caches_without_nu_half():
    # the concavity pass's 2 000 points at nu = 1/2 leave no cache entry:
    # a cold verify --suite all leaves _ratio_i at 13 419 and _k_ladder at
    # 9 733 entries.  A warm run right after it gives the same records bit
    # for bit (runtime_ms aside) from hits alone: no entry is evicted or
    # added again
    from besselbounds import core

    caches = (core._ratio_i, core._k_ladder)
    for cached in caches:
        cached.cache_clear()
    cold = run_all().checks
    assert [c.cache_info().currsize for c in caches] == [13419, 9733]
    before = [c.cache_info() for c in caches]
    warm = run_all().checks

    def records(checks):
        return [repr(dataclasses.replace(c, runtime_ms=0.0)) for c in checks]

    assert records(warm) == records(cold)
    for c, b in zip(caches, before):
        info = c.cache_info()
        assert info.currsize == b.currsize and info.misses == b.misses and info.hits > b.hits


def test_verify_points_are_evaluated_once(monkeypatch):
    # the concavity pass asks for each of phiI, phiK, y and z once per grid
    # point off nu = 1/2 (24 000 calls; two checks evaluating their own terms
    # would make 36 000) and for none at nu = 1/2, which takes the closed
    # form; the consistency checks ask for no point twice, and the
    # Turanian identities read the Riccati loops' y' and z' instead of
    # taking 360 derivatives again
    from besselbounds import harness
    from besselbounds.core import QuantityKind as QK

    quantity, derivative = harness.quantity, harness.numeric_derivative
    calls, derivs = Counter(), Counter()

    def counted(kind, ctx):
        calls[kind, ctx.nu, ctx.x] += 1
        return quantity(kind, ctx)

    def counted_derivative(kind, ctx, *args, **kwargs):
        derivs[kind, ctx.nu, ctx.x, args, tuple(kwargs.items())] += 1
        return derivative(kind, ctx, *args, **kwargs)

    monkeypatch.setattr(harness, "quantity", counted)
    monkeypatch.setattr(harness, "numeric_derivative", counted_derivative)
    application_checks()
    n, terms = (len(CONCAVITY_NU) - 1) * len(CONCAVITY_X), (QK.PHI_I, QK.PHI_K, QK.Y, QK.Z)
    assert n == 6000 and set(calls.values()) == {1}
    assert Counter(kind for kind, _, _ in calls if kind in terms) == dict.fromkeys(terms, n)
    assert not [nu for kind, nu, _ in calls if kind in terms and nu == 0.5]

    calls.clear()
    records = consistency_checks()
    assert set(calls.values()) == {1} and set(derivs.values()) == {1}
    # the Riccati loops (y' and z' at 10 orders x 20 points) and the second
    # derivative check (y' and y'' at 10 orders x 5 points): 500, where
    # identity loops taking their own 160 y' and 200 z' would make 860
    orders = len(harness.CONSISTENCY_NU)
    assert sum(derivs.values()) == 2 * orders * 20 + 2 * orders * 5 == 860 - 360
    assert [r.check_id for r in records if r.status == "fail"] == []


def test_wobbly_P_fails_the_wronskian(monkeypatch):
    # consistency:wronskian checks P's own I K route at 1e-10: a relative
    # wobble of 1e-3 on P makes it fail
    from besselbounds import harness
    from besselbounds.core import QuantityKind as QK, ValueWithError

    quantity = harness.quantity

    def wobbly(kind, ctx):
        v = quantity(kind, ctx)
        if kind is not QK.P:
            return v
        return ValueWithError(v.value * (1.0 + 1e-3 * math.sin(1e3 * ctx.x)), v.rel_error_bound)

    monkeypatch.setattr(harness, "quantity", wobbly)
    rec = next(c for c in consistency_checks() if c.check_id == "consistency:wronskian")
    assert rec.status == "fail" and rec.max_violation > 1e-5


def test_catalogue_proves_P_concavity_on_the_check_grid():
    # on the pointwise checks' grid the best proved upper bounds of phiI and
    # phiK sum to <= 0; the worst sum, exactly 0, is turan16_upper with
    # turan24_upper, the pair that _p_concavity's docstring names
    worst, pairs = -math.inf, set()
    for nu in CONCAVITY_NU:
        assert nu >= 0.5
        for x in CONCAVITY_X:
            hi_i = cat.best_bounds("phiI", nu, x)[1]
            hi_k = cat.best_bounds("phiK", nu, x)[1]
            total = hi_i.value + hi_k.value
            if total > worst:
                worst, pairs = total, set()
            if total == worst:
                pairs.add((hi_i.id, hi_k.id))
    assert worst == 0.0 and ("turan16_upper", "turan24_upper") in pairs


@pytest.mark.parametrize("nu, x, value", [(0.0, 3.0, 7.7e-3), (0.25, 4.0, 1.5e-3), (-0.25, 2.0, 3.6e-2)])
def test_P_is_not_geometrically_concave_below_half(nu, x, value):
    # below nu = 1/2 phiI + phiK is positive beyond its claims, so P is not
    # geometrically concave there and the pointwise checks start at nu = 1/2
    from besselbounds import harness
    from besselbounds.core import EvalContext

    g, err = harness._p_concavity(EvalContext(nu, x))
    assert g == pytest.approx(value, rel=0.05) and err < 1e-13


def test_consistency_sides_timed_apart():
    # the K halves of the Riccati and Turanian identity checks carry their
    # own work, not a near-zero time with the work charged to the I half
    import time

    t0 = time.perf_counter()
    recs = consistency_checks()
    total_ms = (time.perf_counter() - t0) * 1e3
    by_id = {c.check_id: c.runtime_ms for c in recs}
    assert by_id["consistency:riccati_K"] > 0.1 * by_id["consistency:riccati_I"] > 0.0
    assert by_id["consistency:deltaK_identity"] > 0.1 * by_id["consistency:deltaI_identity"] > 0.0
    assert sum(by_id.values()) <= total_ms


def test_application_spot_values():
    import math
    from besselbounds.core import EvalContext, QuantityKind as QK, quantity

    # effective variance at mu_gig = 5, 1/w = 1 sits inside (0, 1/4)
    v = quantity(QK.V_EFF, EvalContext(5.0, 1.0)).value
    assert 0.0 < v < 0.25
    # geometric concavity of P at nu = 1/2 via the closed form
    # P_{1/2}(x) = (1 - e^{-2x})/(2x): P(2) > sqrt(P(1) P(4))
    p = lambda x: (1.0 - math.exp(-2.0 * x)) / (2.0 * x)
    assert quantity(QK.P, EvalContext(0.5, 2.0)).value == pytest.approx(p(2.0), rel=1e-13)
    assert p(2.0) > math.sqrt(p(1.0) * p(4.0))


def test_enclosure_checks_pass():
    recs = enclosure_checks()
    assert [(c.check_id, c.status) for c in recs] == [("enclosure:dominance_claims", "pass")]


# the dominance claims of enclosure:dominance_claims: (lesser, greater, strict)
_DOMINANCE = [("turan16_upper", "turan11_upper", True), ("turan24_upper", "turan18_upper", False),
              ("paltsev_lower", "turan22_lower", False)]


@pytest.mark.parametrize("above", [False, True], ids=("equal", "one_ulp_above"))
@pytest.mark.parametrize("lesser,greater,strict", _DOMINANCE, ids=[c[0] for c in _DOMINANCE])
def test_a_planted_dominance_defect_fails_its_claim(monkeypatch, lesser, greater, strict, above):
    # the lesser bound planted, at the claim's first order and x, equal to the
    # greater one fails only the strict claim; one ulp above it fails every claim
    from besselbounds import harness

    nu = {"turan16_upper": 0.75, "turan24_upper": 1.5, "paltsev_lower": 0.5}[lesser]
    x = harness._log_grid(1e-2, 100.0, 40)[0]
    evaluate = cat.evaluate_bound

    def planted(bound_id, at_nu, at_x):
        ev = evaluate(bound_id, at_nu, at_x)
        if (bound_id, at_nu, at_x) != (lesser, nu, x):
            return ev
        v = evaluate(greater, nu, x).value
        assert ev.value < v  # the claim holds there, strictly, before the plant
        return dataclasses.replace(ev, value=math.nextafter(v, math.inf) if above else v)

    monkeypatch.setattr(cat, "evaluate_bound", planted)
    recs = enclosure_checks()
    assert [(c.check_id, c.status) for c in recs] == [
        ("enclosure:dominance_claims", "fail" if strict or above else "pass")]


def test_run_all_deterministic(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a = run_all(FAST)
    b = run_all(FAST)
    assert a.passed and b.passed

    def canon(rep):
        d = rep.to_json_dict()
        for c in d["checks"]:
            c.pop("runtime_ms")
        return json.dumps(d, sort_keys=True)

    assert canon(a) == canon(b)


def test_run_suite_names():
    with pytest.raises(ValueError):
        run_suite("nope", FAST)
    rep = run_suite("conjectures", FAST)
    assert rep.summary["fail"] == 0
    assert all(c.status == "info" for c in rep.checks)


# the group functions each suite runs
_SUITE_GROUPS = {
    "validity": {"validity_records", "enclosure_checks"},
    "sharpness": {"sharpness_records"},
    "consistency": {"consistency_checks", "equality_and_limit_checks", "gronwall_probe"},
    "applications": {"application_checks"},
    "conjectures": {"conjecture_probe"},
}


def test_run_suite_looks_groups_up_on_the_module(monkeypatch):
    # perfbench's tracer times the harness by replacing these module
    # attributes (tracer.HARNESS_FUNCTIONS): run_suite must reach each through
    # the attribute, once per suite that owns it, and sweep_validity through
    # the group that calls it
    import importlib.util
    from collections import Counter
    from pathlib import Path

    from besselbounds import harness

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    calls = Counter()
    for name in tracer.HARNESS_FUNCTIONS:
        monkeypatch.setattr(harness, name, lambda *args, name=name: calls.update([name]) or [])
    assert set(tracer.HARNESS_FUNCTIONS) == set().union(*_SUITE_GROUPS.values()) | {"sweep_validity"}
    for suite in harness.SUITE_NAMES:
        calls.clear()
        assert harness.run_suite(suite, FAST).checks == []
        owned = _SUITE_GROUPS.get(suite) or set().union(*_SUITE_GROUPS.values())
        assert calls == Counter(owned), suite

    monkeypatch.setattr(harness, "conjecture_probe", conjecture_probe)
    calls.clear()
    harness.run_suite("conjectures", FAST)
    assert calls == Counter(["sweep_validity"])


def test_report_schema():
    # the key order is part of the byte-identical report, so it is pinned as
    # lists, witnesses included (refutation:joshi_turan7 always has some)
    rep = run_suite("validity", FAST)
    d = rep.to_json_dict()
    assert list(d) == ["suite", "generated_at", "checks", "summary"]
    assert list(d["summary"]) == ["pass", "fail", "info"]
    witnesses = [w for c in d["checks"] for w in c["witnesses"]]
    assert witnesses
    for c in d["checks"]:
        assert list(c) == ["check_id", "status", "tolerance", "max_violation",
                           "witnesses", "runtime_ms"]
    for w in witnesses:
        assert list(w) == ["bound_id", "nu", "x", "bound_value", "true_value", "margin"]
    assert json.loads(json.dumps(d)) == d
    assert d["summary"]["fail"] == 0
