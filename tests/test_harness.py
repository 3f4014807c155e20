"""Verification harness: sweeps, probes, determinism."""

import dataclasses
import json
import math
from collections import Counter

import pytest

from besselbounds import catalog as cat
from besselbounds.catalog import ids
from besselbounds.harness import (
    DEFAULT_SEED,
    GRONWALL_ROOT,
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
    sharpness_decay,
    sweep_validity,
)

FAST = VerifyConfig(random_pairs=300, x_points=60)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec((), (1.0,))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (1.0, 0.5))
    with pytest.raises(ValueError):
        GridSpec((1.0,), (-1.0, 0.5))
    g = default_grid(50)
    assert len(g.x_values) == 50 and g.x_values[-1] == pytest.approx(100.0)
    assert g.x_values[0] > 1e-3


def test_verify_config_needs_a_pair():
    # the concavity checks would pass having drawn nothing
    for pairs in (0, -3):
        with pytest.raises(ValueError):
            VerifyConfig(random_pairs=pairs)
    assert VerifyConfig(random_pairs=1).random_pairs == 1


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
    monkeypatch.setattr(harness, "refutation_probe", lambda cfg: [])
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
    recs = {c.check_id: c for c in refutation_probe(FAST)}
    joshi = recs["refutation:joshi_turan7"]
    assert joshi.status == "info" and joshi.witnesses
    hamsici = recs["refutation:hamsici_b2hat"]
    assert hamsici.status == "info" and hamsici.witnesses
    assert all(0.0 < w.nu < 0.5 for w in hamsici.witnesses)


def test_consistency_checks_pass():
    recs = consistency_checks()
    assert [c.check_id for c in recs if c.status == "fail"] == []
    by_id = {c.check_id: c for c in recs}
    assert by_id["consistency:wronskian"].max_violation < 1e-10
    assert by_id["consistency:ratio_I_dual_path"].max_violation < 1e-10
    assert by_id["consistency:K_symmetry"].max_violation < 1e-12


def test_application_checks_pass():
    recs = application_checks(FAST)
    assert [c.check_id for c in recs if c.status == "fail"] == []


@pytest.mark.parametrize("wobble", [1e-3, 1e-12])
def test_concavity_fail_counts_match_a_plain_loop(monkeypatch, wobble):
    # on the true P both counts are 0, which a loop that miscounts also gives;
    # a deterministic relative wobble on P makes some pairs fail each check,
    # and the records must count what a plain loop over the same draws counts
    # (the small wobble fails only pairs whose margin is near the tolerance)
    import random

    from besselbounds import harness
    from besselbounds.core import EvalContext, QuantityKind as QK, ValueWithError

    quantity = harness.quantity

    def wobbly(kind, ctx):
        v = quantity(kind, ctx)
        if kind is not QK.P:
            return v
        return ValueWithError(v.value * (1.0 + wobble * math.sin(1e3 * ctx.x)), v.rel_error_bound)

    monkeypatch.setattr(harness, "quantity", wobbly)
    by_id = {c.check_id: c for c in application_checks(FAST)}

    rng = random.Random(FAST.seed)
    lo, hi = math.log(0.05), math.log(40.0)
    geo = mid = 0
    for nu in (0.5, 1.0, 2.0, 5.0):
        p = lambda x: wobbly(QK.P, EvalContext(nu, x))
        for _ in range(FAST.random_pairs):
            while True:
                a = math.exp(rng.uniform(lo, hi))
                b = math.exp(rng.uniform(lo, hi))
                if abs(math.log(a) - math.log(b)) > 1e-4:
                    break
            pa, pb, pg, pm = p(a), p(b), p(math.sqrt(a * b)), p(0.5 * (a + b))
            tol = 3.0 * (pa.rel_error_bound + pb.rel_error_bound + pg.rel_error_bound)
            lhs = math.log(pg.value) - 0.5 * (math.log(pa.value) + math.log(pb.value))
            geo += lhs < -tol
            scale = 0.5 * (a + b) * pm.value
            mid += scale - 0.5 * (a * pa.value + b * pb.value) < -tol * scale
    assert 0 < geo < 4 * FAST.random_pairs and 0 < mid < 4 * FAST.random_pairs
    assert by_id["applications:P_geometric_concavity"].max_violation == geo
    assert by_id["applications:omega_midpoint_concavity"].max_violation == mid


def test_concavity_checks_timed_apart():
    # one loop serves both checks, each pair timed apart: each record carries
    # only its own share, so summed check times do not count the loop twice
    import time

    t0 = time.perf_counter()
    recs = application_checks(FAST)
    total_ms = (time.perf_counter() - t0) * 1e3
    by_id = {c.check_id: c for c in recs}
    geo = by_id["applications:P_geometric_concavity"].runtime_ms
    mid = by_id["applications:omega_midpoint_concavity"].runtime_ms
    assert 0.0 < mid < geo
    assert sum(c.runtime_ms for c in recs) <= total_ms


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
    recs = enclosure_checks(FAST)
    assert [c.check_id for c in recs if c.status == "fail"] == []


def test_enclosure_margin_is_the_validity_margin(monkeypatch):
    # a witness's margin is its excess beyond the check's tolerance: with
    # turan16_lower raised by 1e-6 relative, enclosure:phiI records the margin
    # that validity:turan16_lower records at every point where both have one
    real = cat.get("turan16_lower")
    broken = dataclasses.replace(real, formula=lambda nu, x: real.formula(nu, x) * (1.0 + 1e-6))
    monkeypatch.setattr(cat, "get", lambda bound_id: broken if bound_id == real.id else cat.CATALOG[bound_id])
    monkeypatch.setitem(cat._BY_QUANTITY, real.quantity,
                        tuple(broken if b is real else b for b in cat._BY_QUANTITY[real.quantity]))
    validity = {(v.nu, v.x): v.margin for v in sweep_validity([real.id], default_grid(40))}
    rec = next(c for c in enclosure_checks(VerifyConfig(x_points=200))
               if c.check_id == "enclosure:phiI")
    common = [w for w in rec.witnesses if w.bound_id == real.id and (w.nu, w.x) in validity]
    assert rec.status == "fail" and common
    assert [w.margin for w in common] == [validity[w.nu, w.x] for w in common]


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
    # a different seed must not change the pass/fail pattern
    c = run_all(VerifyConfig(seed=7, random_pairs=300, x_points=60))
    assert [(r.check_id, r.status) for r in a.checks] == [(r.check_id, r.status) for r in c.checks]


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
    assert list(d) == ["suite", "generated_at", "seed", "checks", "summary"]
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
