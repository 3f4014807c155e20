"""Self-test of the benchmark: each workload runs briefly, and every correctness
check rejects a wrong value that the test feeds in.

    python3 -m pytest -q perfbench/selftest      (about 35 s, most of it one cold verify)
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def jobs(tmp_path_factory):
    """Each workload once in one process: one warm verify run, two eval-box rounds,
    two warm table passes."""
    out = {}
    for name in run.JOBS:
        d = tmp_path_factory.mktemp(name)
        p = subprocess.run([sys.executable, str(BENCH / "job.py"), name, "--seed", "7",
                            "--reps", "1" if name == "verify-all" else "2", "--outdir", str(d),
                            "--result", str(d / "result.json")],
                           cwd=ROOT, env=run.Runner(d).env, capture_output=True, text=True,
                           timeout=170)
        assert p.returncode == 0, p.stdout + p.stderr
        res = json.loads((d / "result.json").read_text())
        res["dir"] = d
        out[name] = res
    return out


def _copy(res: dict, tmp_path: Path) -> dict:
    d = tmp_path / "copy"
    shutil.copytree(res["dir"], d)
    return dict(res, dir=d)


# --- the workloads pass their own checks ------------------------------------

def test_verify_all_passes(jobs):
    attempted, failed, problems = run.check_verify(jobs["verify-all"])
    assert attempted > 200 and failed == 0 and problems == []


def test_eval_box_fails_only_the_known_faults(jobs):
    res = jobs["eval-box"]
    attempted, failed, problems, faults = run.check_eval(res, 7)
    assert problems == []
    per_round = len(inputs.TAGS) * 10 + len(inputs.FAULT_OPS)
    assert attempted == res["rounds"] * per_round
    assert failed == res["rounds"] * sum(faults.values())


def test_bounds_table_passes(jobs):
    attempted, failed, problems = run.check_table(jobs["bounds-table"])
    assert failed == 0 and problems == []
    assert attempted == jobs["bounds-table"]["queries"] * 3 + 3


# --- timings at the reference speed -------------------------------------------

def test_spans_are_scaled_by_the_probes_around_them():
    s = speed.SpeedSampler()
    s.at.extend([0.02 * k for k in range(100)])
    s.took.extend([2 * speed.REF_PROBE_S] * 50 + [speed.REF_PROBE_S] * 50)
    s.stop()
    assert s.seconds(0.2, 0.6) == pytest.approx(0.2)    # host at half speed
    assert s.seconds(1.4, 1.8) == pytest.approx(0.4)
    assert s.seconds(1.5, 1.5001) == pytest.approx(1e-4)
    whole = s.seconds(0.0, 1.98)
    assert 0.99 * 1.48 < whole < 1.01 * 1.48          # 1 s at half speed, 0.98 s at full


def test_clock_leaves_out_the_probes():
    s = speed.SpeedSampler()
    s.start()
    t0, p0 = s.clock(), time.process_time()
    while time.process_time() - p0 < 0.3:
        pass
    t1, p1 = s.clock(), time.process_time()
    s.stop()
    assert len(s.took) >= 5
    assert t1 - t0 == pytest.approx(p1 - p0 - sum(s.took), abs=0.02)


# --- each check rejects a wrong value ---------------------------------------

def test_value_check_rejects_wrong_values():
    nu, x = 1.3, 2.7
    good, _, _ = ref.scipy_ref("phiK", [nu], [x])
    v = float(good[0])
    rows = [(nu, x, v, 1e-15, None),
            (nu, x, v * (1 + 1e-8), 1e-15, None),     # off by 1e-8
            (nu, x, None, None, "DomainError"),        # error where a value exists
            (nu, x, None, None, "bare:ValueError")]
    assert ref.check_ops("phiK", rows) == [True, False, False, False]
    # q below nu^2 = 1/4: DomainError is right, a value is wrong
    assert ref.check_ops("q", [(0.2, 1.0, None, None, "DomainError"),
                               (0.2, 1.0, -0.5, 1e-15, None)]) == [True, False]


def test_claim_check_rejects_an_understated_claim():
    truth = float(ref.mp_ref("K", 2.5, 3.0))
    assert ref.claim_holds("K", 2.5, 3.0, truth, 1e-15)
    assert not ref.claim_holds("K", 2.5, 3.0, truth * (1 + 1e-13), 1e-14)


def test_eval_check_rejects_a_wrong_value(jobs, tmp_path):
    res = _copy(jobs["eval-box"], tmp_path)
    path = res["dir"] / "eval_ops.jsonl"
    lines = path.read_text().splitlines()
    rnd = json.loads(lines[0])
    op = next(o for o in rnd["ops"] if o[3] is not None)
    op[3] *= 1.0 + 1e-6
    lines[0] = json.dumps(rnd)
    path.write_text("\n".join(lines) + "\n")
    _, _, problems, _ = run.check_eval(res, 7)
    assert len(problems) == 1 and op[0] in problems[0]


def test_table_check_rejects_a_bound_that_does_not_enclose(jobs, tmp_path):
    res = _copy(jobs["bounds-table"], tmp_path)
    path = res["dir"] / "table_rows.json"
    rows = json.loads(path.read_text())
    row = next(r for r in rows if r[7] is not None)   # has a best upper bound
    row[8] = row[3] - 1e-3 * max(1.0, abs(row[3]))     # upper bound below the truth
    path.write_text(json.dumps(rows))
    _, failed, problems = run.check_table(res)
    assert failed == 1 and "upper" in problems[0]


def test_figure_check_rejects_a_bound_that_does_not_enclose(jobs):
    fig = jobs["bounds-table"]["dir"] / "fig2.csv"
    assert run.check_figure(fig, 2.0) == []
    lines = fig.read_text().splitlines()
    cells = lines[100].split(",")
    cells[2] = repr(float(cells[1]) + 0.1)             # turan18_lower above phiK
    bad = "\n".join(lines[:100] + [",".join(cells)] + lines[101:]) + "\n"
    assert len(run.check_figure(_write(fig.parent / "bad.csv", bad), 2.0)) == 1


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def test_verify_check_rejects_changed_reports(jobs, tmp_path):
    res = _copy(jobs["verify-all"], tmp_path)
    warm = res["dir"] / res["reports"][1]
    report = json.loads(warm.read_text())
    report["checks"][0]["max_violation"] += 1e-12      # differs beyond runtime_ms
    report["checks"][1]["status"] = "fail"             # a gating check fails
    warm.write_text(json.dumps(report, indent=2))
    _, failed, problems = run.check_verify(res)
    assert failed == 1
    assert any("differs from the cold report" in p for p in problems)
    assert any("gating check" in p for p in problems)


def test_verify_check_rejects_a_false_refutation_witness(jobs, tmp_path):
    res = _copy(jobs["verify-all"], tmp_path)
    cold = res["dir"] / res["reports"][0]
    report = json.loads(cold.read_text())
    check = next(c for c in report["checks"] if c["check_id"] == "refutation:joshi_turan7")
    w = check["witnesses"][0]
    w["bound_value"] = float(ref.mp_ref("phiI", w["nu"], w["x"])) + 1e-3  # claim holds here
    cold.write_text(json.dumps(report, indent=2))
    _, failed, problems = run.check_verify(res)
    assert failed == 1 and any("does not violate" in p for p in problems)


# --- inputs and the command --------------------------------------------------

def test_point_stream_is_seeded_and_distinct():
    stream = inputs.PointStream(3, 10)
    first, second = stream.round(), stream.round()
    assert inputs.PointStream(3, 10).round() == first
    assert len(set(first + second)) == 2 * len(inputs.TAGS) * 10
    assert all(inputs.in_fault_region(t, nu, x) is None for t, nu, x in first + second)


def test_traced_run_reports_every_layer_metric():
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds-table",
                        "--seed", "3", "--seconds", "0.2", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    assert result["metrics"]["catalog.best_bounds.calls"]["value"] > 0
    assert result["metrics"]["core.quantity.warm.us"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-box",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0 and p.stdout.strip() == ""
