"""Command-line front end: point evaluation, bound inspection, verification.

Exit codes: 0 all checks pass / evaluation ok, 1 violation or evaluation
failure, 2 usage error.  Output files default into $BESSELBOUNDS_OUT (or
the working directory).  CSV output is deterministic byte for byte: 17
significant digits, comma separators, LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from . import catalog as cat
from .core import (
    DEFAULT_TARGET_REL_ERR,
    OVERLAP_AGREEMENT_REL,
    AccuracyError,
    DomainError,
    EvalContext,
    I_PATHS,
    K_PATHS,
    RATIO_I_PATHS,
    QuantityKind,
    dual_path_checks,
    eval_I,
    eval_K,
    evaluation_path,
    quantity,
    quantity_reads,
)
from .harness import SUITE_NAMES, VerifyConfig, run_suite

__all__ = ["main", "FigureSpec", "FIGURES"]

_FN_TAGS = ("I", "K") + tuple(k.value for k in QuantityKind)


@dataclass(frozen=True)
class FigureSpec:
    """One reproducible data figure: a quantity plus bound columns."""

    figure_id: str
    quantity: QuantityKind
    nu: float
    x_max: float
    bound_ids: tuple[str, ...]


FIGURE_POINTS = 400  # rows per figure, at x = x_max k / FIGURE_POINTS, k = 1 .. FIGURE_POINTS


FIGURES = {
    "fig1": FigureSpec("fig1", QuantityKind.PHI_I, 1.0, 10.0,
                       ("turan8_lower", "turan8_upper", "turan11_upper",
                        "turan16_lower", "turan16_upper")),
    "fig2": FigureSpec("fig2", QuantityKind.PHI_K, 2.0, 10.0,
                       ("turan18_lower", "turan18_upper", "turan20_lower",
                        "turan20_upper")),
    "fig3": FigureSpec("fig3", QuantityKind.PHI_P, 1.0, 6.0,
                       ("turan26_lower", "turan26_upper")),
}


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _out_path(name: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    base = os.environ.get("BESSELBOUNDS_OUT", ".")
    return os.path.join(base, name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    fn = "lambda" if args.fn == "lam" else args.fn
    if args.target_rel_err is not None and fn not in ("I", "K"):
        print("error: --target-rel-err applies to --fn I and K only", file=sys.stderr)
        return 2
    target = DEFAULT_TARGET_REL_ERR if args.target_rel_err is None else args.target_rel_err
    try:
        ctx = EvalContext(args.nu, args.x)
        if fn == "I":
            v = eval_I(ctx, target)
        elif fn == "K":
            v = eval_K(ctx, target)
        else:
            v = quantity(QuantityKind(fn), ctx)
    except (DomainError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reads = (fn,) if fn in ("I", "K") else quantity_reads(QuantityKind(fn), ctx.nu, ctx.x)
    paths = [f"{r}={evaluation_path(r, ctx.nu, ctx.x)}" for r in reads] or ["arithmetic"]
    print(f"{fn}(nu={args.nu:g}, x={args.x:g}) = {_fmt(v.value)}")
    print(f"rel_error_bound = {v.rel_error_bound:.3e}")
    print(f"paths: {', '.join(paths)}")
    return 0


def cmd_bounds_at(args: argparse.Namespace) -> int:
    q = QuantityKind(args.quantity)
    ctx = EvalContext(args.nu, args.x)  # refuses a point outside the box before any query
    statuses = (args.status,) if args.status else ("proved", "conjecture", "refuted")
    evs = cat.applicable(q, args.nu, args.x, statuses=statuses)
    if not evs:
        print(f"no cataloged bounds apply to {q.value} at nu={args.nu:g}, x={args.x:g}")
        return 0
    lo, hi = cat.best_bounds(q, args.nu, args.x)
    try:
        true = quantity(q, ctx)
        print(f"{q.value}(nu={args.nu:g}, x={args.x:g}) = {_fmt(true.value)}")
    except (DomainError, AccuracyError) as exc:
        print(f"{q.value} not evaluable here ({exc})")
    print(f"{'id':24} {'side':5} {'status':10} {'value':>24}  best")
    for ev in sorted(evs, key=lambda e: (e.side, e.id)):
        mark = ""
        if lo is not None and ev.id == lo.id and ev.side == "lower":
            mark = "<-- best lower"
        if hi is not None and ev.id == hi.id and ev.side == "upper":
            mark = "<-- best upper"
        print(f"{ev.id:24} {ev.side:5} {ev.status:10} {_fmt(ev.value):>24}  {mark}")
    return 0


def cmd_bounds_list(args: argparse.Namespace) -> int:
    rows = cat.catalog_rows()
    if args.status:
        rows = [r for r in rows if r["status"] == args.status]
    if args.quantity:
        rows = [r for r in rows if r["quantity"] == args.quantity]
    if args.bound_ids:
        missing = set(args.bound_ids) - {r["id"] for r in cat.catalog_rows()}
        if missing:
            print(f"error: unknown bound id(s): {', '.join(sorted(missing))}", file=sys.stderr)
            return 1
        rows = [r for r in rows if r["id"] in args.bound_ids]
    for r in rows:
        guard = "  [guarded]" if r["guard_note"] else ""
        print(f"{r['id']:24} {r['quantity']:7} {r['side']:5} {r['status']:10} "
              f"domain: {r['domain']:42} {r['formula']}{guard}")
    if args.json_path:
        path = _out_path("catalog.json", args.json_path)
        with open(path, "w", newline="\n") as f:
            json.dump(rows, f, indent=2)
            f.write("\n")
        print(f"catalog written to {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi, n, scale = args.x_grid
    vcfg = VerifyConfig(seed=args.seed, random_pairs=args.pairs,
                        x_points=n, x_lo=lo, x_hi=hi, scale=scale)
    t0 = time.perf_counter()
    report = run_suite(args.suite, vcfg)
    dt = time.perf_counter() - t0
    path = _out_path(f"verify_{args.suite}.json", args.out)
    try:
        with open(path, "w", newline="\n") as f:
            json.dump(report.to_json_dict(), f, indent=2)
            f.write("\n")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    s = report.summary
    print(f"suite={args.suite} checks={len(report.checks)} "
          f"pass={s['pass']} fail={s['fail']} info={s['info']} ({dt:.1f}s)")
    for c in report.checks:
        if c.status == "fail":
            print(f"FAIL {c.check_id}: max_violation={c.max_violation:.3e} "
                  f"tolerance={c.tolerance:.3e}")
            for w in c.witnesses[:3]:
                print(f"     witness {w.bound_id} nu={w.nu:g} x={w.x:g} "
                      f"bound={w.bound_value:.9g} true={w.true_value:.9g} margin={w.margin:.3e}")
    print(f"report written to {path}")
    return 0 if report.passed else 1


def cmd_figure(args: argparse.Namespace) -> int:
    spec = FIGURES[args.figure_id]
    path = _out_path(f"{spec.figure_id}.csv", args.out)
    header = ["x", spec.quantity.value] + list(spec.bound_ids)
    try:
        with open(path, "w", newline="\n") as f:
            f.write(",".join(header) + "\n")
            for k in range(1, FIGURE_POINTS + 1):
                x = k * spec.x_max / FIGURE_POINTS
                row = [_fmt(x), _fmt(quantity(spec.quantity, EvalContext(spec.nu, x)).value)]
                for bid in spec.bound_ids:
                    row.append(_fmt(cat.evaluate_bound(bid, spec.nu, x).value))
                f.write(",".join(row) + "\n")
    except OSError as exc:
        print(f"error: cannot write figure data: {exc}", file=sys.stderr)
        return 1
    print(f"{spec.figure_id}: {FIGURE_POINTS} rows written to {path}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Closed-form checks; runs in well under a second."""
    t0 = time.perf_counter()
    failures = []
    perturb = 1.0 + (1e-6 if args.inject_error else 0.0)
    xs = (0.3, 1.0, 2.5, 7.0, 20.0)
    for x in xs:
        got = eval_I(EvalContext(0.5, x)).value * perturb
        want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        if abs(got - want) > 1e-12 * want:
            failures.append(f"I(1/2, {x:g}): {got!r} != {want!r}")
        gotk = eval_K(EvalContext(0.5, x)).value * perturb
        wantk = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        if abs(gotk - wantk) > 1e-12 * wantk:
            failures.append(f"K(1/2, {x:g}): {gotk!r} != {wantk!r}")
        ks = eval_K(EvalContext(2.3, x)).value
        km = eval_K(EvalContext(-2.3, x)).value
        if abs(ks - km) > 1e-12 * ks:
            failures.append(f"K symmetry at x={x:g}")
        y = quantity(QuantityKind.Y, EvalContext(1.0, x)).value
        z = quantity(QuantityKind.Z, EvalContext(1.0, x)).value
        p = quantity(QuantityKind.P, EvalContext(1.0, x)).value
        if abs(y - z - 1.0 / p) * p > 1e-10:
            failures.append(f"Wronskian at x={x:g}")
    worst_overlap = max(d for _, d in dual_path_checks())
    if worst_overlap > OVERLAP_AGREEMENT_REL:
        failures.append(f"path overlap disagreement {worst_overlap:.3e}")
    print(f"besselbounds {__version__} selftest "
          f"({(time.perf_counter()-t0)*1e3:.0f} ms)")
    print(f"evaluation paths: I: {', '.join(I_PATHS)}; K: {', '.join(K_PATHS)}; "
          f"ratio_I: {', '.join(RATIO_I_PATHS)}")
    if failures:
        for msg in failures:
            print(f"FAIL {msg}")
        return 1
    print(f"all closed-form checks pass (worst path-overlap diff {worst_overlap:.2e})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _config(**fields) -> VerifyConfig:
    # VerifyConfig checks the fields; its refusal is a usage error of the flag
    try:
        return VerifyConfig(**fields)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_x_grid(text: str) -> tuple[float, float, int, str]:
    """START:END:COUNT[:log|lin], checked by VerifyConfig."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("expected START:END:COUNT[:log|lin]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    scale = parts[3] if len(parts) == 4 else "log"
    c = _config(x_lo=lo, x_hi=hi, x_points=n, scale="linear" if scale == "lin" else scale)
    return c.x_lo, c.x_hi, c.x_points, c.scale


def _parse_pairs(text: str) -> int:
    """A count of random pairs, checked by VerifyConfig (zero pairs would check nothing)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return _config(random_pairs=n).random_pairs


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="besselbounds",
        description="Certified modified-Bessel evaluation and Turan-type bound verification.")
    p.add_argument("--version", action="version", version=f"besselbounds {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate I, K or a derived quantity at (nu, x)")
    pe.add_argument("--fn", required=True, choices=_FN_TAGS + ("lam",))
    pe.add_argument("--nu", type=float, required=True)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--target-rel-err", type=float, default=None, dest="target_rel_err",
                    help=f"relative-error target for --fn I and K only (default {DEFAULT_TARGET_REL_ERR:g})")
    pe.set_defaults(run=cmd_eval)

    pb = sub.add_parser("bounds", help="inspect the bounds catalog")
    bsub = pb.add_subparsers(dest="bounds_command", required=True)
    pba = bsub.add_parser("at", help="evaluate applicable bounds at a point")
    pba.add_argument("--quantity", required=True,
                     choices=tuple(k.value for k in QuantityKind))
    pba.add_argument("--nu", type=float, required=True)
    pba.add_argument("--x", type=float, required=True)
    pba.add_argument("--status", choices=("proved", "conjecture", "refuted"))
    pba.set_defaults(run=cmd_bounds_at)
    pbl = bsub.add_parser("list", help="dump catalog metadata")
    pbl.add_argument("--status", choices=("proved", "conjecture", "refuted"))
    pbl.add_argument("--quantity", choices=tuple(k.value for k in QuantityKind))
    pbl.add_argument("--id", action="append", default=[], dest="bound_ids",
                     help="restrict to specific bound ids (repeatable)")
    pbl.add_argument("--json", nargs="?", const="catalog.json", default=None,
                     dest="json_path", help="also write the catalog as JSON (optional path)")
    pbl.set_defaults(run=cmd_bounds_list)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", default="all", choices=SUITE_NAMES)
    pv.add_argument("--out", default=None)
    pv.add_argument("--seed", type=int, default=VerifyConfig.seed)
    pv.add_argument("--pairs", type=_parse_pairs, default=VerifyConfig.random_pairs,
                    help="random pairs per order for the concavity checks")
    pv.add_argument("--x-grid", type=_parse_x_grid, dest="x_grid", metavar="START:END:COUNT[:log|lin]",
                    default=(VerifyConfig.x_lo, VerifyConfig.x_hi, VerifyConfig.x_points, VerifyConfig.scale),
                    help="sweep grid for the validity/conjecture suites")
    pv.set_defaults(run=cmd_verify)

    pf = sub.add_parser("figure", help="write figure data as CSV")
    pf.add_argument("figure_id", choices=tuple(FIGURES))
    pf.add_argument("--out", default=None)
    pf.set_defaults(run=cmd_figure)

    ps = sub.add_parser("selftest", help="quick closed-form sanity checks")
    ps.add_argument("--inject-error", action="store_true", dest="inject_error",
                    help=argparse.SUPPRESS)  # test hook: perturbs the evaluator
    ps.set_defaults(run=cmd_selftest)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except (DomainError, AccuracyError, cat.UnknownBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
