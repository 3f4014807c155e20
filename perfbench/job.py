"""One process of a workload: fresh and single-threaded.

    python3 perfbench/job.py JOB --seed N --reps N [--part K] [--trace 0|1]
                             --outdir DIR --result FILE

JOB is verify-all, eval-box or bounds-table.  Each job repeats a unit of
work --reps times:

* verify-all: one cold `verify --suite all`, then the warm runs (the unit);
* eval-box: rounds of distinct seeded points (the unit);
* bounds-table: the cold pass (the three figures and every query), then the
  warm passes over the same queries (the unit; --reps 0 stops after the cold
  pass).

The process imports only the program, the standard library and this
directory, so its peak resident memory is the program's (and under 1 MiB
of the speed probe's).  It times, records
what the program returned and writes a JSON result; run.py checks the
outputs against references computed apart from the program and combines the
timings of several processes.  Every time in the result is program time at
the reference speed (perfbench/speed.py): spans are timed with the speed
sampler's clock and converted with the probes' speed once the work is done.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from besselbounds import catalog, cli, core  # noqa: E402
from besselbounds.core import AccuracyError, DomainError, EvalContext, QuantityKind  # noqa: E402

import inputs  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

EVAL_PER_TAG = 10        # eval-box round: 10 points of each of the 24 tags + FAULT_OPS


def _call(tag: str):
    """Callable (nu, x) -> ValueWithError that looks the function up at call time."""
    if tag == "I":
        return lambda nu, x: core.eval_I(EvalContext(nu, x))
    if tag == "K":
        return lambda nu, x: core.eval_K(EvalContext(nu, x))
    if tag == "ratio_I":
        return lambda nu, x: core.ratio_I(EvalContext(nu, x))
    if tag == "ratio_K":
        return lambda nu, x: core.ratio_K(EvalContext(nu, x))
    kind = QuantityKind(tag)
    return lambda nu, x: core.quantity(kind, EvalContext(nu, x))


def _outcome(fn, nu: float, x: float) -> list:
    """[value, claim] on success, else [None, None, error name]."""
    try:
        v = fn(nu, x)
        return [v.value, v.rel_error_bound]
    except (DomainError, AccuracyError) as exc:
        return [None, None, type(exc).__name__]
    except Exception as exc:  # a bare exception is an outcome to check, not a crash
        return [None, None, "bare:" + type(exc).__name__]


def verify_all(args, clock, tracer) -> dict:
    out = Path(args.outdir)
    reports, rcs = [], []

    def verify(name: str) -> tuple[float, float]:
        t0 = clock()
        rcs.append(cli.main(["verify", "--suite", "all", "--out", str(out / name)]))
        reports.append(name)
        return t0, clock()

    with open(out / "verify.log", "w") as log, contextlib.redirect_stdout(log):
        cold = [verify("verify_cold.json")]
        if tracer:
            tracer.phase = "warm"
        warm = [verify(f"verify_warm{k}.json") for k in range(args.reps)]
    return {"rc": rcs, "reports": reports, "spans": {"cold": cold, "warm": warm}}


def eval_box(args, clock, tracer) -> dict:
    """Each point timed once, in the order of eval_ops.jsonl.  Part k of a
    run draws its own points from the seed."""
    calls = {tag: _call(tag) for tag in inputs.TAGS}
    stream = inputs.PointStream(f"{args.seed}/{args.part}", EVAL_PER_TAG)
    spans = array("d")
    n_rounds = 0
    with open(Path(args.outdir) / "eval_ops.jsonl", "w") as f:
        for _ in range(args.reps):
            rows = []
            for tag, nu, x in stream.round():
                fn = calls[tag]
                t0 = clock()
                res = _outcome(fn, nu, x)
                spans.extend((t0, clock()))
                rows.append([tag, nu, x] + res)
            # the fixed operations of the known faults, outside the timed stream
            faults = [[name, tag, nu, x] + _outcome(calls[tag], nu, x)
                      for name, tag, nu, x in inputs.FAULT_OPS]
            f.write(json.dumps({"ops": rows, "faults": faults}) + "\n")
            n_rounds += 1
    return {"rounds": n_rounds, "evals": len(spans) // 2,
            "spans": {"lat": list(zip(spans[::2], spans[1::2]))}}


def _query(kind, nu, x) -> list:
    try:
        v = core.quantity(kind, EvalContext(nu, x))
        value, claim = v.value, v.rel_error_bound
    except (DomainError, AccuracyError) as exc:
        value, claim = type(exc).__name__, None
    lo, hi = catalog.best_bounds(kind, nu, x)
    return [value, claim,
            lo.id if lo else None, lo.value if lo else None,
            hi.id if hi else None, hi.value if hi else None]


def bounds_table(args, clock, tracer) -> dict:
    out = Path(args.outdir)
    queries = [(QuantityKind(q), nu, x) for q, nu, x in inputs.table_queries(args.seed)]
    with open(out / "figures.log", "w") as log, contextlib.redirect_stdout(log):
        t0 = clock()
        rcs = [cli.main(["figure", fid, "--out", str(out / f"{fid}.csv")])
               for fid in inputs.FIGURE_IDS]
        cold_rows = [_query(kind, nu, x) for kind, nu, x in queries]
        cold = [(t0, clock())]
    if tracer:
        tracer.phase = "warm"
    warm, mismatches = [], 0
    for _ in range(args.reps):
        t0 = clock()
        rows = [_query(kind, nu, x) for kind, nu, x in queries]
        warm.append((t0, clock()))
        mismatches += sum(a != b for a, b in zip(rows, cold_rows))
    with open(out / "table_rows.json", "w") as f:
        json.dump([[k.value, nu, x] + r for (k, nu, x), r in zip(queries, cold_rows)], f)
    return {"figure_rc": rcs, "queries": len(queries), "warm_passes": len(warm),
            "warm_mismatches": mismatches, "spans": {"cold": cold, "warm": warm}}


JOBS = {"verify-all": verify_all, "eval-box": eval_box, "bounds-table": bounds_table}


def peak_rss_mib() -> float:
    """This process's peak resident memory.  VmHWM starts afresh at exec;
    ru_maxrss would carry over the parent's peak at fork."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("job", choices=tuple(JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--part", type=int, default=0, help="eval-box: which points of the seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    if args.job == "eval-box" and args.reps < 1:
        ap.error("eval-box needs --reps >= 1")
    sampler = SpeedSampler()
    tracer = Tracer(sampler.clock) if args.trace else None
    if tracer:
        tracer.install()
    sampler.start()
    res = JOBS[args.job](args, sampler.clock, tracer)
    sampler.stop()
    res["peak_rss_mib"] = peak_rss_mib()
    # seconds at the reference speed, per span
    res["seconds"] = {key: [sampler.seconds(a, b) for a, b in spans]
                      for key, spans in res.pop("spans").items()}
    res["probe_mean_s"] = sum(sampler.took) / len(sampler.took)
    if tracer:
        tracer.uninstall()
        whole = sampler.mean_speed()
        res["layers"] = {name: (value * whole if unit in ("us", "s") else value, unit)
                         for name, (value, unit) in tracer.metrics().items()}
    with open(args.result, "w") as f:
        json.dump(res, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
