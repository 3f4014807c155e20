#!/usr/bin/env python3
"""Benchmark of besselbounds: the verify-all, eval-box and bounds-table workloads.

    python3 perfbench/run.py --workload verify-all|eval-box|bounds-table \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.

--trace 0 runs all three workloads in fresh single-threaded processes, one
at a time, so that every run reports all nine end-to-end metrics: verify-all
in one process (cold, then warm runs), eval-box in four processes that each
draw their own points from the seed, bounds-table in five processes (cold
pass, then warm passes).  The processes are spread over the run (SCHEDULE).
Each does a fixed number of units of work (REPS); the workload named by
--workload is the focus: it does more, in proportion to S, its operation
counts are the run's `attempted` and `failed`, and its processes give
`peak_rss_mib`.  The work of a run depends only on its arguments, so every
run of a workload attempts the same operations for the same seed.

Every time is CPU time at the reference speed (perfbench/speed.py), so
that the load of other tenants on this host does not show.  A metric is the
median of its repetitions: of the warm verify runs, of the table processes'
cold passes, of all their warm passes; the eval-box percentiles pool the
points of every part.  `setup_s` is the median over fresh interpreters,
SETUP_SPAWNS at each set-up step, each timed between speed probes.

--trace 1 runs the focus workload in one process twice, untraced and then
traced (spans installed from perfbench/tracer.py), and reports the
per-layer metrics with the tracing overhead between the two.

Every output is checked against references made apart from the program
(perfbench/reference.py).  Per job, a line `job: attempted=.. failed=..`
is printed; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from speed import REF_PROBE_S, probe  # noqa: E402

JOBS = ("verify-all", "eval-box", "bounds-table")
SETUP_SPAWNS = 2
SETUP_PROBES = 10          # speed probes before and after each set-up
SCHEDULE = ("setup", "eval", "table", "eval", "verify", "setup", "table", "eval", "table",
            "setup", "table", "eval", "table")
# units of work in each process: (as a side workload, per second of --seconds
# as the focus).  Units: verify-all warm runs (about 1 s each at the
# reference speed), eval-box rounds of 245 operations (about 12 ms; four
# processes), bounds-table warm passes (about 0.11 s; five processes).
REPS = {"verify-all": (1, 0.5), "eval-box": (20, 12.5), "bounds-table": (1, 1)}
CLAIM_SAMPLE = 48          # eval-box ops checked at 40 digits per part
DEADLINE_S = 170.0         # the whole run, all processes included
SOURCE_DATE_EPOCH = "1700000000"
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mib", "MiB"),
    ("verify_cold_s", "s"), ("verify_warm_s", "s"),
    ("evals_per_s", "1/s"), ("eval_p50_us", "us"), ("eval_p99_us", "us"),
    ("table_cold_s", "s"), ("table_warm_per_s", "1/s"),
)
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "from besselbounds import cli\n"
    "cli.quantity(cli.QuantityKind.P, cli.EvalContext(1.0, 1.0))\n"
    "print(repr(time.perf_counter()))\n"
)


class BenchError(RuntimeError):
    """A job could not run to its end."""


class Runner:
    """Spawns the job processes of one run, all within one deadline."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH,
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        BESSELBOUNDS_OUT=str(outdir))

    def _run(self, cmd: list[str], **kw) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("out of time before " + " ".join(cmd[1:3]))
        try:
            return subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=left, **kw)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"timed out: {' '.join(cmd[1:3])}") from exc

    def setup_samples(self) -> list[float]:
        """Set-up times at the reference speed, probed just before and after."""
        samples = []
        for _ in range(SETUP_SPAWNS):
            probes = [probe() for _ in range(SETUP_PROBES)]
            t0 = time.perf_counter()
            p = self._run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True)
            if p.returncode != 0:
                raise BenchError("set-up failed:\n" + p.stderr)
            took = float(p.stdout.strip()) - t0
            probes += [probe() for _ in range(SETUP_PROBES)]
            samples.append(took * REF_PROBE_S / statistics.mean(probes))
        return samples

    def job(self, name: str, seed: int, reps: int, trace: bool,
            tag: str | None = None, part: int = 0) -> dict:
        tag = tag or name + (f"{part}" if part else "") + ("-traced" if trace else "")
        jobdir = self.outdir / tag
        jobdir.mkdir(parents=True)
        result = jobdir / "result.json"
        with open(jobdir / "job.log", "w") as log:
            p = self._run([sys.executable, str(HERE / "job.py"), name, "--seed", str(seed),
                           "--reps", str(reps), "--part", str(part),
                           "--trace", str(int(trace)), "--outdir", str(jobdir),
                           "--result", str(result)], stdout=log, stderr=subprocess.STDOUT)
        if p.returncode != 0 or not result.exists():
            raise BenchError(f"{tag} exited with {p.returncode}; see {jobdir / 'job.log'}")
        res = json.loads(result.read_text())
        res["dir"] = jobdir
        return res


# ---------------------------------------------------------------------------
# checks; each returns (attempted, failed, problems).  `problems` lists every
# failure that is not one of the known faults' fixed operations.
# ---------------------------------------------------------------------------

REFUTED = {"refutation:joshi_turan7": "phiI", "refutation:hamsici_b2hat": "b2hat"}


def _strip_runtime(report: dict) -> str:
    for c in report["checks"]:
        c.pop("runtime_ms", None)
    return json.dumps(report, indent=2)


def check_verify(res: dict) -> tuple[int, int, list[str]]:
    problems = [f"verify exited with {rc}" for rc in res["rc"] if rc != 0]
    attempted = failed = 0
    cold = None
    for name in res["reports"]:
        report = json.loads((res["dir"] / name).read_text())
        checks = report["checks"]
        attempted += len(checks)
        bad = [c["check_id"] for c in checks if c["status"] not in ("pass", "info")]
        failed += len(bad)
        problems += [f"{name}: gating check {cid} failed" for cid in bad]
        text = _strip_runtime(report)
        if cold is None:
            cold, cold_report = text, json.loads(text)
        elif text != cold:
            problems.append(f"{name} differs from the cold report beyond runtime_ms")
    # every refutation witness really violates its (upper-bound) claim
    for c in cold_report["checks"]:
        if not c["check_id"].startswith("refutation:"):
            continue
        tag = REFUTED.get(c["check_id"])
        if tag is None:
            problems.append(f"no reference for {c['check_id']}")
            continue
        for w in c["witnesses"]:
            attempted += 1
            if not ref.mp_ref(tag, w["nu"], w["x"]) > w["bound_value"]:
                failed += 1
                problems.append(f"{c['check_id']} witness nu={w['nu']} x={w['x']} "
                                "does not violate the claim")
    return attempted, failed, problems


def check_eval(res: dict, seed: int) -> tuple[int, int, list[str], dict]:
    by_tag = defaultdict(list)
    fault_rows = defaultdict(list)
    with open(res["dir"] / "eval_ops.jsonl") as f:
        for line in f:
            rnd = json.loads(line)
            for tag, nu, x, value, claim, *err in rnd["ops"]:
                by_tag[tag].append((nu, x, value, claim, err[0] if err else None))
            for name, tag, nu, x, value, claim, *err in rnd["faults"]:
                fault_rows[(name, tag)].append((nu, x, value, claim, err[0] if err else None))
    problems: list[str] = []
    attempted = failed = 0
    eligible = []
    for tag, ops in by_tag.items():
        attempted += len(ops)
        for op, ok in zip(ops, ref.check_ops(tag, ops)):
            if not ok:
                failed += 1
                problems.append(f"eval-box {tag} nu={op[0]!r} x={op[1]!r}: {op[2:]}")
            elif op[2] is not None and not inputs.claim_check_excluded(tag, op[0], op[1]):
                eligible.append((tag, op))
    for tag, op in random.Random(seed).sample(eligible, min(CLAIM_SAMPLE, len(eligible))):
        if not ref.claim_holds(tag, op[0], op[1], op[2], op[3]):
            failed += 1
            problems.append(f"eval-box {tag} nu={op[0]!r} x={op[1]!r}: claim {op[3]:.3e} exceeded")
    faults = {}
    for (name, tag), rows in fault_rows.items():
        verdict = {}
        for row, ok in zip(rows, ref.check_ops(tag, rows)):
            key = json.dumps(row)
            if key not in verdict:
                verdict[key] = ok and (row[2] is None or ref.claim_holds(tag, *row[:4]))
            attempted += 1
            failed += not verdict[key]
        faults[name] = sum(not v for v in verdict.values()) > 0
    return attempted, failed, problems, faults


def check_table(res: dict) -> tuple[int, int, list[str]]:
    problems: list[str] = []
    rows = json.loads((res["dir"] / "table_rows.json").read_text())
    by_q = defaultdict(list)
    for r in rows:
        by_q[r[0]].append(r[1:])
    attempted = failed = 0
    for q, qrows in by_q.items():
        ops = [(nu, x, None, None, v) if isinstance(v, str) else (nu, x, v, c, None)
               for nu, x, v, c, *_ in qrows]
        value_ok = ref.check_ops(q, ops)
        rv, rs, _ = ref.scipy_ref(q, [r[0] for r in qrows], [r[1] for r in qrows])
        for (nu, x, _, _, lo_id, lo, hi_id, hi), ok, t, s in zip(qrows, value_ok, rv, rs):
            attempted += 1
            tol = ref.enclosure_tolerance(t, s)
            why = [] if ok else ["value off the reference"]
            if lo is not None and lo - t > tol:
                why.append(f"lower {lo_id}={lo!r} above {t!r}")
            if hi is not None and t - hi > tol:
                why.append(f"upper {hi_id}={hi!r} below {t!r}")
            if why:
                failed += 1
                problems.append(f"bounds-table {q} nu={nu!r} x={x!r}: " + "; ".join(why))
    attempted += res["queries"] * res["warm_passes"]
    failed += res["warm_mismatches"]
    if res["warm_mismatches"]:
        problems.append(f"{res['warm_mismatches']} warm answers differ from the cold pass")
    for fid, rc in zip(inputs.FIGURE_IDS, res["figure_rc"]):
        attempted += 1
        why = check_figure(res["dir"] / f"{fid}.csv", inputs.FIGURE_NU[fid]) if rc == 0 \
            else [f"exit code {rc}"]
        if why:
            failed += 1
            problems += [f"{fid}: {w}" for w in why[:5]]
    return attempted, failed, problems


def check_figure(path: Path, nu: float) -> list[str]:
    """The quantity column matches the reference, each bound column encloses it."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = [[float(v) for v in line.split(",")] for line in lines[1:]]
    tag = header[1]
    xs = [r[0] for r in data]
    ops = [(nu, r[0], r[1], 0.0, None) for r in data]
    rv, rs, _ = ref.scipy_ref(tag, [nu] * len(xs), xs)
    why = [f"x={r[0]!r}: {tag} off the reference" for r, ok in zip(data, ref.check_ops(tag, ops))
           if not ok]
    for j, bid in enumerate(header[2:], start=2):
        lower = bid.endswith("_lower")
        for r, t, s in zip(data, rv, rs):
            gap = (r[j] - t) if lower else (t - r[j])
            if gap > ref.enclosure_tolerance(t, s):
                why.append(f"x={r[0]!r}: {bid}={r[j]!r} does not enclose {t!r}")
    if not data:
        why.append("no rows")
    return why


# ---------------------------------------------------------------------------

def timed_s(name: str, res: dict) -> float:
    """The job's time, compared between the untraced and the traced run."""
    sec = res["seconds"]
    if name == "eval-box":
        return statistics.mean(sec["lat"])
    return sec["cold"][0] + statistics.median(sec["warm"])


def run(args) -> dict:
    outdir = HERE / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(outdir)
    counts, problems, failing = {}, [], set()

    def checked(name: str, res: dict) -> dict:
        if name == "verify-all":
            a, f, p = check_verify(res)
        elif name == "eval-box":
            a, f, p, faults = check_eval(res, args.seed)
            failing.add(", ".join(sorted(k for k, v in faults.items() if v)) or "none")
        else:
            a, f, p = check_table(res)
        total = counts.setdefault(name, [0, 0])
        total[0] += a
        total[1] += f
        problems.extend(p)
        return res

    def reps(name: str) -> int:
        """Units of work of a job: REPS's side amount, or more as the focus."""
        side, per_s = REPS[name]
        return max(side, round(args.seconds * per_s)) if name == args.workload else side

    metrics: dict[str, dict] = {}
    if args.trace:
        plain = checked(args.workload, runner.job(args.workload, args.seed,
                                                  reps(args.workload), False))
        traced = checked(args.workload, runner.job(args.workload, args.seed,
                                                   reps(args.workload), True))
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        overhead = timed_s(args.workload, traced) / timed_s(args.workload, plain) - 1.0
        metrics["bench.trace_overhead.pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        setup, evals, tables, verify = [], [], [], None
        for step in SCHEDULE:
            if step == "setup":
                setup += runner.setup_samples()
            elif step == "verify":
                verify = checked("verify-all", runner.job(
                    "verify-all", args.seed, reps("verify-all"), False))
            elif step == "eval":
                evals.append(checked("eval-box", runner.job(
                    "eval-box", args.seed, reps("eval-box"), False, part=len(evals))))
            else:
                tables.append(checked("bounds-table", runner.job(
                    "bounds-table", args.seed, reps("bounds-table"), False,
                    tag=f"bounds-table{len(tables)}")))
        lat = [t for r in evals for t in r["seconds"]["lat"]]
        q = statistics.quantiles(lat, n=100, method="inclusive")
        warm = [t for r in tables for t in r["seconds"]["warm"]]
        focus = {"verify-all": [verify], "eval-box": evals, "bounds-table": tables}
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in focus[args.workload]),
            "verify_cold_s": verify["seconds"]["cold"][0],
            "verify_warm_s": statistics.median(verify["seconds"]["warm"]),
            "evals_per_s": len(lat) / sum(lat),
            "eval_p50_us": q[49] * 1e6,
            "eval_p99_us": q[98] * 1e6,
            "table_cold_s": statistics.median(r["seconds"]["cold"][0] for r in tables),
            "table_warm_per_s": tables[0]["queries"] / statistics.median(warm),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    if len(failing) > 1:
        problems.append("eval-box parts failed different known faults")
    for f in failing:
        print(f"eval-box: known faults failing: {f}")
    for name, (a, f) in counts.items():
        focus = " (focus)" if name == args.workload else ""
        print(f"{name}: attempted={a} failed={f}{focus}")
    for p in problems[:50]:
        print("CHECK FAILED: " + p)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = counts[args.workload]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=JOBS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "besselbounds" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'besselbounds'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
