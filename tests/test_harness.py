"""Verification harness: sweeps, probes, determinism."""

import json
import math

import pytest

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


def test_concavity_checks_timed_apart():
    # one loop serves both checks: each record carries only its own share,
    # so summed check times do not count the loop twice
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
    rep = run_suite("sharpness", FAST)
    d = rep.to_json_dict()
    assert set(d) == {"suite", "generated_at", "seed", "checks", "summary"}
    assert set(d["summary"]) == {"pass", "fail", "info"}
    for c in d["checks"]:
        assert set(c) == {"check_id", "status", "tolerance", "max_violation",
                          "witnesses", "runtime_ms"}
    assert d["summary"]["fail"] == 0
