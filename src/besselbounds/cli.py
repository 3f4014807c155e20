"""Command-line front end: point evaluation, bound inspection, verification.

Exit codes: 0 all checks pass / evaluation ok, 1 violation or evaluation
failure, 2 usage error.  Output files default into $BESSELBOUNDS_OUT (or
the working directory).  CSV output is deterministic byte for byte: 17
significant digits, comma separators, LF line endings.

Only core is imported here: catalog and harness are imported inside the
commands that use them (bounds, verify, figure), and verify's suite names,
defaults and checks are read from harness when verify is parsed, so a
one-shot ``eval`` starts without compiling either.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .core import (
    DEFAULT_TARGET_REL_ERR,
    AccuracyError,
    DomainError,
    EvalContext,
    QuantityKind,
    eval_I,
    eval_K,
    evaluation_path,
    quantity,
    quantity_reads,
)

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


def _write_out(name: str, explicit: str | None, what: str, text: str) -> str:
    """Write ``text`` to ``explicit``, else to ``name`` in $BESSELBOUNDS_OUT (or the
    working directory), and return the path; an OSError says which ``what`` failed."""
    path = explicit or os.path.join(os.environ.get("BESSELBOUNDS_OUT", "."), name)
    try:
        with open(path, "w", newline="\n") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what}: {exc}") from None
    return path


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
    from . import catalog as cat

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
    from . import catalog as cat

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
    if args.json_path is not None:
        path = _write_out("catalog.json", args.json_path, "catalog", json.dumps(rows, indent=2) + "\n")
        print(f"catalog written to {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .harness import VerifyConfig, run_suite, source_date

    given = {"seed": args.seed, "random_pairs": args.pairs, **(args.x_grid or {})}
    vcfg = VerifyConfig(**{k: v for k, v in given.items() if v is not None})
    try:
        source_date()  # refused here, a usage error, not after the suite has run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    report = run_suite(args.suite, vcfg)
    dt = time.perf_counter() - t0
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    path = _write_out(f"verify_{args.suite}.json", args.out, "report", text)
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
    from . import catalog as cat

    spec = FIGURES[args.figure_id]
    rows = [["x", spec.quantity.value, *spec.bound_ids]]
    for k in range(1, FIGURE_POINTS + 1):
        x = k * spec.x_max / FIGURE_POINTS
        rows.append([_fmt(x), _fmt(quantity(spec.quantity, EvalContext(spec.nu, x)).value),
                     *(_fmt(cat.evaluate_bound(bid, spec.nu, x).value) for bid in spec.bound_ids)])
    path = _write_out(f"{spec.figure_id}.csv", args.out, "figure data", "".join(",".join(r) + "\n" for r in rows))
    print(f"{spec.figure_id}: {FIGURE_POINTS} rows written to {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _check_config(**fields) -> None:
    # harness.VerifyConfig checks the fields; its refusal is a usage error of the flag
    from .harness import VerifyConfig

    try:
        VerifyConfig(**fields)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_suite(text: str) -> str:
    """A name in harness.SUITE_NAMES, read when verify is parsed, not when the parser is built."""
    from .harness import SUITE_NAMES

    if text not in SUITE_NAMES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, SUITE_NAMES))})")
    return text


def _parse_x_grid(text: str) -> dict:
    """START:END:COUNT[:log|lin] as VerifyConfig fields, checked by VerifyConfig."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("expected START:END:COUNT[:log|lin]")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    scale = parts[3] if len(parts) == 4 else "log"
    fields = {"x_lo": lo, "x_hi": hi, "x_points": n, "scale": "linear" if scale == "lin" else scale}
    _check_config(**fields)
    return fields


def _parse_pairs(text: str) -> int:
    """A count of random pairs, checked by VerifyConfig (zero pairs would check nothing)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    _check_config(random_pairs=n)
    return n


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
    pbl.add_argument("--json", nargs="?", const="", default=None, dest="json_path",
                     help="also write the catalog as JSON (optional path; default catalog.json "
                          "in $BESSELBOUNDS_OUT or the working directory)")
    pbl.set_defaults(run=cmd_bounds_list)

    pv = sub.add_parser("verify", help="run verification suites")
    # an option left out is None, and cmd_verify leaves VerifyConfig's default
    pv.add_argument("--suite", default="all", type=_parse_suite, metavar="SUITE",
                    help="all (the default) or one suite; an unknown name lists them")
    pv.add_argument("--out", default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--pairs", type=_parse_pairs, default=None,
                    help="random pairs per order for the concavity checks")
    pv.add_argument("--x-grid", type=_parse_x_grid, dest="x_grid", metavar="START:END:COUNT[:log|lin]",
                    default=None, help="sweep grid for the validity/conjecture suites")
    pv.set_defaults(run=cmd_verify)

    pf = sub.add_parser("figure", help="write figure data as CSV")
    pf.add_argument("figure_id", choices=tuple(FIGURES))
    pf.add_argument("--out", default=None)
    pf.set_defaults(run=cmd_figure)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except (DomainError, AccuracyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
