"""CLI contract: exit codes, output formats, determinism, fault injection."""

import dataclasses
import json
import math

import pytest

import besselbounds.catalog as cat
from besselbounds import cli
from besselbounds.cli import _FN_TAGS, FIGURES, main
from besselbounds.core import _K_KERNELS, _i_switch
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
    # at x < 1e-9, where the Lentz start is not negligible, the fraction is
    # cut after its first element with a series tail: its own route
    rc, out, _ = run(capsys, "eval", "--fn", "y", "--nu", "0", "--x", "1e-25")
    assert rc == 0
    assert out.splitlines()[-1] == "paths: ratio_I=two_term"


def test_eval_reports_omega_paths_where_P_overflows(capsys, monkeypatch):
    # omega is x I K as one product with the exponents summed apart, also
    # where P = I K overflows, so the paths are its row's, I's and K's, and
    # I_{-1/2} is evaluated once, in closed form
    from besselbounds import core

    calls = []
    closed = core._i_closed
    monkeypatch.setattr(core, "_i_closed", lambda nu, x: calls.append(nu) or closed(nu, x))
    rc, out, _ = run(capsys, "eval", "--fn", "omega", "--nu", "-0.5", "--x", "5e-324")
    assert rc == 0
    assert out.splitlines()[-1] == "paths: I=closed, K=closed"
    assert calls == [-0.5]
    assert run(capsys, "eval", "--fn", "P", "--nu", "-0.5", "--x", "5e-324")[0] == 1


# `eval` output, "value claim paths", at (nu, x) = (1, 1), below every path
# switch (I series, K Temme, ratio_I CF1), and at (1, 100), above them all
_EVAL_PINS = {
    "I": ("0.56515910399248503 7.550e-15 I=series",
          "1.0683693903381625e+42 6.661e-15 I=asymptotic"),
    "K": ("0.60190723019723458 2.106e-14 K=temme",
          "4.6798537356369101e-45 2.761e-15 K=cf2"),
    "y": ("1.2401937238700897 2.465e-15 ratio_I=cf1",
          "99.503788000815689 1.385e-14 ratio_I=asymptotic"),
    "z": ("-1.6994839355937721 6.945e-14 K=temme",
          "-100.50371298393055 7.038e-15 K=cf2"),
    "phiI": ("0.46191952727323959 1.642e-14 ratio_I=cf1",
             "0.0099996173488726692 2.832e-12 ratio_I=asymptotic"),
    "phiK": ("-0.88824564734129718 1.738e-13 K=temme",
             "-0.0099996323556290623 1.327e-12 K=cf2"),
    "phiP": ("-0.016028110545652896 1.498e-11 ratio_I=cf1, K=temme",
             "9.9977490429303744e-05 4.202e-10 ratio_I=asymptotic, K=cf2"),
    "P": ("0.3401733509048675 2.905e-14 I=series, K=temme",
          "0.0049998124824141782 9.866e-15 I=asymptotic, K=cf2"),
    "omega": ("0.3401733509048675 2.927e-14 I=series, K=temme",
              "0.49998124824141782 1.009e-14 I=asymptotic, K=cf2"),
    "deltaI": ("0.14753932014919344 3.196e-14 ratio_I=cf1, I=series",
               "1.1413694779085161e+82 2.846e-12 ratio_I=asymptotic, I=asymptotic"),
    "deltaK": ("-0.32180457076582003 2.164e-13 K=temme",
               "-2.1900225807878733e-91 1.333e-12 K=cf2"),
    "w": ("0.1740198385030054 2.434e-14 ratio_I=cf1",
          "0.50121187419055957 2.927e-12 ratio_I=asymptotic"),
    "u": ("0.08268193166220561 5.988e-14 ratio_I=cf1",
          "0.49996192887444124 3.023e-12 ratio_I=asymptotic"),
    "lambda": ("-0.99587425362970006 4.620e-15 ratio_I=cf1",
               "-0.51620999958420555 2.842e-12 ratio_I=asymptotic"),
    "q": ("-0.37660828006147673 3.190e-13 K=temme",
          "-0.49996305424042475 1.682e-12 K=cf2"),
    "t": ("-0.28527037322067694 4.186e-13 K=temme",
          "-0.49871310892430643 1.597e-12 K=cf2"),
    "b2hat": ("-2.164879250511679 1.686e-14 ratio_I=cf1",
              "-1.000038266577008 2.832e-12 ratio_I=asymptotic"),
    "veff": ("0.88824564734129718 1.738e-13 K=temme",
             "0.0099996323556290623 1.327e-12 K=cf2"),
    "nc": ("0.059016994374947424 1.332e-15 arithmetic",
           "24.504999500099977 1.332e-15 arithmetic"),
    "ns": ("0.06004843096752243 1.088e-14 ratio_I=cf1",
           "24.625947000203922 1.399e-14 ratio_I=asymptotic"),
    "iratio": ("0.44638996589653451 2.007e-15 ratio_I=cf1",
               "0.9949873730051686 1.416e-14 ratio_I=asymptotic"),
    "kratio": ("1.4296253982604017 3.774e-14 K=temme",
               "1.0049876230864832 5.298e-15 K=cf2"),
}


@pytest.mark.parametrize("tag", _FN_TAGS)
def test_eval_output_pinned(tag, capsys):
    for x, pin in zip(("1", "100"), _EVAL_PINS[tag]):
        value, claim, paths = pin.split(" ", 2)
        assert run(capsys, "eval", "--fn", tag, "--nu", "1", "--x", x) == (
            0, f"{tag}(nu=1, x={x}) = {value}\nrel_error_bound = {claim}\npaths: {paths}\n", "")


def test_eval_pins_the_trapezoid_path(capsys):
    # between the pinned points: K at 2 <= x < 10 takes the trapezoidal rule
    assert run(capsys, "eval", "--fn", "K", "--nu", "1", "--x", "5") == (
        0, "K(nu=1, x=5) = 0.0040446134454521637\nrel_error_bound = 3.951e-15\npaths: K=trapezoid\n", "")


def test_eval_pins_the_closed_path(capsys):
    # K at a half-integer order takes its closed form at every x
    assert run(capsys, "eval", "--fn", "K", "--nu", "0.5", "--x", "5") == (
        0, "K(nu=0.5, x=5) = 0.0037766133746428825\nrel_error_bound = 6.661e-16\npaths: K=closed\n", "")


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
    # every tag at the box edges, at the region switches (each route start of
    # K's kernel table, I's 30 + nu^2), at x = 50 and at one small interior
    # argument ends in an exit code, never in an exception or a traceback
    for nu in (-10.0, -1.0, -0.3, 0.5, 2.5, 20.0):
        switches = [row.start for row in _K_KERNELS[1:]] + [_i_switch(nu)]
        xs = (5e-324, 0.1, *(x for v in switches for x in (math.nextafter(v, 0.0), v)), 50.0, 500.0, 500.5)
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
    # turan18_lower's denominator |nu|-1+sqrt(x^2+(|nu|-1)^2) cancels to 0 at
    # (-0.9, 1e-10) when formed as written; the bound is
    # -2 (sqrt(x^2 + a^2) - a)/x^2, a = 0.9 - 1, about -4e19
    rc, out, err = run(capsys, "bounds", "at", "--quantity", "phiK", "--nu", "-0.9", "--x", "1e-10")
    assert rc == 0 and err == ""
    assert float(out.split("turan18_lower")[1].split()[2]) == pytest.approx(-4e19, rel=1e-15)


def test_bounds_at_refuses_points_outside_the_box(capsys, monkeypatch):
    # refused with the evaluator's DomainError before the catalog is queried:
    # no traceback, and no table of 0 or nan rows
    def no_query(*args, **kwargs):
        raise AssertionError("catalog queried")

    monkeypatch.setattr(cat, "applicable", no_query)
    monkeypatch.setattr(cat, "best_bounds", no_query)
    for quantity, nu, x in (("phiK", "1", "-1"), ("y", "1e300", "1e300"), ("y", "inf", "1"),
                            ("phiI", "1", "nan"), ("phiI", "1", "0"), ("phiI", "1", "500.5"),
                            ("phiK", "-10.5", "1")):
        rc, out, err = run(capsys, "bounds", "at", "--quantity", quantity, "--nu", nu, "--x", x)
        assert rc == 1 and out == "" and err.startswith("error:") and "outside supported" in err, (nu, x)


def test_eval_target_rel_err(capsys):
    # the target applies to I and K only, and must be a number >= 1e-14
    for fn in ("P", "y", "phiK", "lam"):
        rc, out, err = run(capsys, "eval", "--fn", fn, "--nu", "1", "--x", "1", "--target-rel-err", "1e-30")
        assert rc == 2 and out == "" and "--target-rel-err" in err, fn
    for fn in ("I", "K"):
        for target in ("nan", "1e-15", "0", "-1"):
            rc, out, err = run(capsys, "eval", "--fn", fn, "--nu", "1", "--x", "1", "--target-rel-err", target)
            assert rc == 1 and out == "" and "target_rel_err" in err, (fn, target)
        rc, out, _ = run(capsys, "eval", "--fn", fn, "--nu", "1", "--x", "1", "--target-rel-err", "1e-13")
        assert rc == 0 and out == run(capsys, "eval", "--fn", fn, "--nu", "1", "--x", "1")[1]


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


def test_bounds_list_json_default_directory(tmp_path, capsys, monkeypatch):
    # a bare --json writes catalog.json into $BESSELBOUNDS_OUT, not the working directory
    out_dir, cwd = tmp_path / "out", tmp_path / "cwd"
    out_dir.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("BESSELBOUNDS_OUT", str(out_dir))
    rc, out, _ = run(capsys, "bounds", "list", "--json")
    assert rc == 0
    assert f"catalog written to {out_dir / 'catalog.json'}" in out
    assert {r["id"] for r in json.loads((out_dir / "catalog.json").read_text())} == set(cat.CATALOG)
    assert list(cwd.iterdir()) == []


def test_unwritable_output_is_an_error_not_a_traceback(tmp_path, capsys):
    # a missing directory or a directory as the path: exit 1 with one message
    for path in (str(tmp_path / "missing" / "x.json"), str(tmp_path)):
        rc, _, err = run(capsys, "bounds", "list", "--json", path)
        assert rc == 1 and err.startswith("error: cannot write catalog: "), err
        rc, _, err = run(capsys, "figure", "fig3", "--out", path)
        assert rc == 1 and err.startswith("error: cannot write figure data: "), err


@pytest.mark.parametrize("epoch", ["abc", "1.5e9", "100000000000000000",
                                   "1_000", " 7 ", "+5", "-5", "\u0663"])  # U+0663: Arabic-Indic three
def test_verify_refuses_malformed_source_date_epoch(epoch, capsys, monkeypatch):
    # refused as a usage error before any check runs: whole seconds are ASCII
    # digits alone, where int() would also take signs, blanks, "_" and other digits
    from besselbounds import harness

    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    suites = []
    monkeypatch.setattr(harness, "_SUITES", {"validity": lambda cfg: suites.append(cfg) or []})
    rc, _, err = run(capsys, "verify", "--suite", "validity")
    assert rc == 2 and "SOURCE_DATE_EPOCH" in err and "Traceback" not in err
    with pytest.raises(ValueError, match="SOURCE_DATE_EPOCH"):
        harness.run_suite("validity")
    assert suites == []
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "")  # empty means unset
    assert harness.source_date() is None


def test_verify_suite_writes_schema_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    path = tmp_path / "r.json"
    rc, out, _ = run(capsys, "verify", "--suite", "validity", "--out", str(path),
                     "--x-grid", "1e-3:100:60")
    assert rc == 0
    d = json.loads(path.read_text())
    assert set(d) == {"suite", "generated_at", "checks", "summary"}
    assert d["suite"] == "validity"
    assert d["generated_at"] == "2023-11-14T22:13:20Z"
    assert d["summary"]["fail"] == 0
    assert any(c["check_id"] == "refutation:joshi_turan7" and c["witnesses"]
               for c in d["checks"])


def test_verify_grid_usage_errors(capsys):
    assert run(capsys, "verify", "--x-grid", "1:100:1")[0] == 2      # count < 2
    assert run(capsys, "verify", "--x-grid", "5:1:40")[0] == 2        # start >= end
    assert run(capsys, "verify", "--x-grid", "junk")[0] == 2
    # an end beyond the box, a grid whose points rounding makes equal, or a
    # count above harness.MAX_X_POINTS (checked before the grid is built:
    # 10^8 points would ask for more than 3 GB) is refused before any suite runs
    for grid in ("1e-3:600:3", "1e-3:1e300:3", "1e-3:1e400:3", "1e-3:500.00000000000006:3",
                 "1:1.0000000000000002:5", "1:1.0000000000000002:5:lin", "1e-3:100:100000000"):
        rc, out, err = run(capsys, "verify", "--x-grid", grid)
        assert rc == 2 and "--x-grid" in err and "Traceback" not in err and out == "", grid


def test_verify_grid_ends_at_its_end(tmp_path, capsys):
    # the grid's last point is the end itself: 500 rounds to no point beyond the box
    for grid in ("1e-3:500:45", "1e-3:500:22:lin"):
        rc, _, err = run(capsys, "verify", "--suite", "conjectures", "--x-grid", grid,
                         "--out", str(tmp_path / "c.json"))
        assert rc == 0 and err == "", grid


def test_verify_pairs_usage_errors(capsys):
    # verify draws nothing at random, so it takes neither a pair count nor a seed
    for flag in ("--pairs", "--seed"):
        rc, out, err = run(capsys, "verify", "--suite", "applications", flag, "3")
        assert rc == 2 and flag in err and out == "" and "Traceback" not in err, flag


def test_bounds_list_id_filter(capsys):
    rc, out, _ = run(capsys, "bounds", "list", "--id", "turan24_upper", "--id", "turan11_upper")
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert {l.split()[0] for l in lines} == {"turan11_upper", "turan24_upper"}
    assert run(capsys, "bounds", "list", "--id", "nope")[0] == 1


def test_bounds_list_prints_sharp_tags(capsys):
    # each sharp_at tag as the catalog writes it, with its sense; none where there is none
    rc, out, _ = run(capsys, "bounds", "list", "--id", "turan8_upper", "--id", "turan10_upper")
    assert rc == 0
    lines = {l.split()[0]: l for l in out.splitlines() if l.strip()}
    assert lines["turan8_upper"].endswith("  [sharp: x->0 nu=1; x->inf abs nu=1]  [guarded]")
    assert "[sharp:" not in lines["turan10_upper"]


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


def test_closed_forms_fail_verify_on_a_faulty_evaluator(tmp_path, capsys, monkeypatch):
    # I_{1/2} and K_{1/2} in closed form are checks of the consistency suite;
    # an I off by 1e-6 relative fails the I check alone
    from besselbounds import harness

    ids = ("equality:I_half_is_sqrt(2/(pi*x))*sinh(x)", "equality:K_half_is_sqrt(pi/(2*x))*exp(-x)")
    rc, out, _ = run(capsys, "verify", "--suite", "consistency", "--out", str(tmp_path / "ok.json"))
    assert rc == 0
    checks = {c["check_id"]: c for c in json.loads((tmp_path / "ok.json").read_text())["checks"]}
    assert all(checks[i]["status"] == "pass" and checks[i]["tolerance"] == 1e-12 for i in ids)
    real_eval_I = harness.eval_I
    monkeypatch.setattr(harness, "eval_I", lambda ctx: dataclasses.replace(
        real_eval_I(ctx), value=real_eval_I(ctx).value * (1.0 + 1e-6)))
    rc, out, _ = run(capsys, "verify", "--suite", "consistency", "--out", str(tmp_path / "bad.json"))
    assert rc == 1
    assert [l.split(":", 1)[0] for l in out.splitlines() if l.startswith("FAIL ")] == ["FAIL equality"]
    assert f"FAIL {ids[0]}: " in out


def test_one_shot_eval_loads_neither_catalog_nor_harness():
    # the start-up of `besselbounds eval` (and of importing cli) is core's alone
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = ("import json, sys\n"
            "from besselbounds import cli\n"
            "loaded = [sorted(sys.modules)]\n"
            "rc = cli.main(['eval', '--fn', 'P', '--nu', '1', '--x', '1'])\n"
            "loaded.append(sorted(sys.modules))\n"
            "print(json.dumps([rc, loaded]))\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    for modules in loaded:
        assert "besselbounds.core" in modules
        assert "besselbounds.catalog" not in modules and "besselbounds.harness" not in modules


def test_verify_options_reach_verify_config(tmp_path, capsys, monkeypatch):
    # an option left out takes VerifyConfig's default; one given is passed on
    from besselbounds import harness

    seen = []
    monkeypatch.setattr(harness, "_SUITES", {"validity": lambda cfg: seen.append(cfg) or []})
    monkeypatch.setenv("BESSELBOUNDS_OUT", str(tmp_path))
    assert run(capsys, "verify", "--suite", "validity")[0] == 0
    assert run(capsys, "verify", "--suite", "validity", "--x-grid", "1:10:3:lin")[0] == 0
    assert seen == [harness.VerifyConfig(),
                    harness.VerifyConfig(x_lo=1.0, x_hi=10.0, x_points=3, scale="linear")]


def test_usage_errors_survive_the_lazy_parser(capsys):
    from besselbounds.harness import SUITE_NAMES

    rc, out, err = run(capsys, "verify", "--suite", "nosuch")
    assert rc == 2 and out == "" and "Traceback" not in err
    assert "--suite" in err and all(repr(name) in err for name in SUITE_NAMES)
    rc, _, err = run(capsys, "bounds", "list", "--id", "bogus")
    assert rc == 1 and err.startswith("error: ") and "bogus" in err
    for flag, value in (("--x-grid", "1:100:1"), ("--x-grid", "junk")):
        rc, out, err = run(capsys, "verify", flag, value)
        assert rc == 2 and flag in err and out == "" and "Traceback" not in err, (flag, value)


def test_version(capsys):
    rc = main(["--version"])
    assert rc == 0


def test_full_verification_script_usage_error(tmp_path):
    # an option the script does not take (verify's former --pairs) is a
    # usage error (exit 2), not a traceback
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_full_verification.py"),
                           "--pairs", "0", "--outdir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "--pairs" in proc.stderr and "Traceback" not in proc.stderr
