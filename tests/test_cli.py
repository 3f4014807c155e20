"""CLI contract: exit codes, output formats, determinism, fault injection."""

import dataclasses
import json
import math

import pytest

import besselbounds.catalog as cat
from besselbounds.cli import FIGURES, main
from besselbounds.core import QuantityKind as QK


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_examples(capsys):
    rc, out, _ = run(capsys, "eval", "--fn", "phiK", "--nu", "0.5", "--x", "4")
    assert rc == 0
    assert float(out.splitlines()[0].split("=")[-1]) == pytest.approx(-0.25, abs=1e-12)
    assert "rel_error_bound" in out and "paths:" in out

    rc, out, _ = run(capsys, "eval", "--fn", "z", "--nu", "0.5", "--x", "1")
    assert rc == 0
    assert float(out.splitlines()[0].split("=")[-1]) == pytest.approx(-1.5, abs=1e-12)

    rc, out, _ = run(capsys, "eval", "--fn", "phiI", "--nu", "1", "--x", "1")
    assert rc == 0
    assert float(out.splitlines()[0].split("=")[-1]) == pytest.approx(0.461926, abs=1e-5)


def test_eval_reports_ratio_I_route(capsys):
    # y is built on ratio_I: the continued fraction below
    # 30 + max(nu^2, (nu+1)^2), the expansions' quotient above; no I is read
    for x, route in (("32", "cf1"), ("200", "asymptotic")):
        rc, out, _ = run(capsys, "eval", "--fn", "y", "--nu", "1", "--x", x)
        assert rc == 0
        assert out.splitlines()[-1] == f"paths: ratio_I={route}"
    rc, out, _ = run(capsys, "eval", "--fn", "deltaI", "--nu", "1", "--x", "32")
    assert out.splitlines()[-1] == "paths: ratio_I=cf1, I=asymptotic"


def test_eval_exit_codes(capsys):
    assert run(capsys, "eval", "--fn", "nosuch", "--nu", "1", "--x", "1")[0] == 2
    assert run(capsys, "eval", "--fn", "I", "--nu", "1")[0] == 2  # missing --x
    assert run(capsys, "eval", "--fn", "y", "--nu", "-5", "--x", "1")[0] == 1  # domain
    assert run(capsys, "eval", "--fn", "I", "--nu", "1", "--x", "1e-320")[0] == 1
    assert run(capsys, "nosuchcommand")[0] == 2
    rc, _, err = run(capsys, "eval", "--fn", "u", "--nu", "0.2", "--x", "0.1")
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_fuzz_box_edges_and_switches(capsys):
    # every tag at the box edges, at the region switches (x = 2 for K,
    # x = 30 + nu^2 for I, x = 50 for the scaling) and at one small interior
    # argument ends in an exit code, never in an exception or a traceback
    from besselbounds.cli import _FN_TAGS

    for nu in (-10.0, -1.0, -0.3, 0.5, 2.5, 20.0):
        xs = (5e-324, 0.1, math.nextafter(2.0, 0.0), 2.0, math.nextafter(30.0 + nu * nu, 0.0),
              30.0 + nu * nu, 50.0, 500.0, 500.5)
        for tag in _FN_TAGS + ("lam",):
            for x in xs:
                rc, _, err = run(capsys, "eval", "--fn", tag, "--nu", repr(nu), "--x", repr(x))
                assert rc in (0, 1, 2), (tag, nu, x)
                assert "Traceback" not in err, (tag, nu, x)


def test_bounds_at(capsys):
    rc, out, _ = run(capsys, "bounds", "at", "--quantity", "phiI", "--nu", "1", "--x", "1")
    assert rc == 0
    assert "turan16_lower" in out and "best lower" in out
    assert "turan8_upper" in out and "best upper" in out
    rc, out, _ = run(capsys, "bounds", "at", "--quantity", "phiK", "--nu", "0.25", "--x", "1")
    assert rc == 0
    assert "turan21_lower" in out and "turan21_upper" in out
    assert "turan20_lower" not in out
    # x^2 + nu^2 - 1/4 rounds to 0 at (0.4, 0.3): turan23_lower must not apply
    rc, out, err = run(capsys, "bounds", "at", "--quantity", "phiK", "--nu", "0.4", "--x", "0.3")
    assert rc == 0 and "turan23_lower" not in out and err == ""


def test_bounds_list_round_trip(capsys):
    rc, out, _ = run(capsys, "bounds", "list")
    assert rc == 0
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert set(listed) == set(cat.CATALOG)
    # every printed id resolves without unknown-id errors
    for bid in listed:
        cat.evaluate_bound(bid, 1.0, 1.0)
    # and `bounds at` runs cleanly for every quantity that has entries
    for q in sorted({b.quantity for b in cat.CATALOG.values()}, key=lambda k: k.value):
        rc, _, _ = run(capsys, "bounds", "at", "--quantity", q.value, "--nu", "2", "--x", "1")
        assert rc == 0


def test_bounds_list_filters_and_json(tmp_path, capsys):
    rc, out, _ = run(capsys, "bounds", "list", "--status", "refuted")
    assert rc == 0 and out.split()[0] == "joshi_turan7"
    path = tmp_path / "cat.json"
    rc, out, _ = run(capsys, "bounds", "list", "--json", str(path))
    assert rc == 0
    rows = json.loads(path.read_text())
    assert {r["id"] for r in rows} == set(cat.CATALOG)
    assert all({"id", "quantity", "side", "status", "domain", "formula"} <= set(r)
               for r in rows)


def test_verify_suite_writes_schema_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    path = tmp_path / "r.json"
    rc, out, _ = run(capsys, "verify", "--suite", "validity", "--out", str(path),
                     "--x-grid", "1e-3:100:60", "--pairs", "100")
    assert rc == 0
    d = json.loads(path.read_text())
    assert set(d) == {"suite", "generated_at", "seed", "checks", "summary"}
    assert d["suite"] == "validity"
    assert d["generated_at"] == "2023-11-14T22:13:20Z"
    assert d["summary"]["fail"] == 0
    assert any(c["check_id"] == "refutation:joshi_turan7" and c["witnesses"]
               for c in d["checks"])


def test_verify_grid_usage_errors(capsys):
    assert run(capsys, "verify", "--x-grid", "1:100:1")[0] == 2      # count < 2
    assert run(capsys, "verify", "--x-grid", "5:1:40")[0] == 2        # start >= end
    assert run(capsys, "verify", "--x-grid", "junk")[0] == 2


def test_verify_pairs_usage_errors(capsys):
    # zero pairs would let both concavity checks pass having drawn nothing
    for pairs in ("-3", "0", "junk"):
        rc, _, err = run(capsys, "verify", "--suite", "applications", "--pairs", pairs)
        assert rc == 2 and "--pairs" in err, pairs


def test_bounds_list_id_filter(capsys):
    rc, out, _ = run(capsys, "bounds", "list", "--id", "turan24_upper", "--id", "turan11_upper")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert {l.split()[0] for l in lines} == {"turan11_upper", "turan24_upper"}
    assert run(capsys, "bounds", "list", "--id", "nope")[0] == 1


def test_verify_conjectures_exit_zero(tmp_path, capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "conjectures",
                     "--out", str(tmp_path / "c.json"), "--x-grid", "1e-3:100:60")
    assert rc == 0
    d = json.loads((tmp_path / "c.json").read_text())
    assert all(c["status"] == "info" for c in d["checks"])


def test_verify_fault_injection(tmp_path, capsys, monkeypatch):
    # corrupt one proved lower bound so it exceeds the true quantity
    real_get = cat.get
    broken = dataclasses.replace(real_get("turan16_lower"),
                                 formula=lambda nu, x: 10.0,
                                 formula_str="10 (corrupted)")

    def fake_get(bound_id):
        return broken if bound_id == "turan16_lower" else real_get(bound_id)

    monkeypatch.setattr(cat, "get", fake_get)
    rc, out, _ = run(capsys, "verify", "--suite", "validity",
                     "--out", str(tmp_path / "bad.json"), "--x-grid", "1e-3:100:40")
    assert rc == 1
    assert "FAIL validity:turan16_lower" in out
    d = json.loads((tmp_path / "bad.json").read_text())
    rec = next(c for c in d["checks"] if c["check_id"] == "validity:turan16_lower")
    assert rec["status"] == "fail" and rec["witnesses"]
    w = rec["witnesses"][0]
    assert set(w) == {"bound_id", "nu", "x", "bound_value", "true_value", "margin"}
    assert w["margin"] > 0


@pytest.mark.parametrize("fig_id", sorted(FIGURES))
def test_figures_deterministic_and_ordered(fig_id, tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "figure", fig_id, "--out", str(p1))[0] == 0
    assert run(capsys, "figure", fig_id, "--out", str(p2))[0] == 0
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b"\r" not in b1

    spec = FIGURES[fig_id]
    lines = b1.decode().splitlines()
    header = lines[0].split(",")
    assert header[0] == "x" and header[1] == spec.quantity.value
    assert tuple(header[2:]) == spec.bound_ids
    assert len(lines) == 1 + 400
    first_x = float(lines[1].split(",")[0])
    assert first_x == pytest.approx(spec.x_max / 400)
    sides = [cat.get(bid).side for bid in spec.bound_ids]
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        qv = vals[1]
        for side, bv in zip(sides, vals[2:]):
            if side == "lower":
                assert bv <= qv + 1e-9
            else:
                assert bv >= qv - 1e-9


def test_figure_default_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BESSELBOUNDS_OUT", str(tmp_path))
    rc, out, _ = run(capsys, "figure", "fig3")
    assert rc == 0
    assert (tmp_path / "fig3.csv").exists()


def test_selftest(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert "selftest" in out and "evaluation paths" in out
    assert "evaluation paths: I: series, asymptotic; K: temme, cf2; " in out
    rc, out, _ = run(capsys, "selftest", "--inject-error")
    assert rc == 1
    assert "FAIL" in out


def test_version(capsys):
    rc = main(["--version"])
    assert rc == 0
