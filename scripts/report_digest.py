#!/usr/bin/env python3
"""SHA-256 digests of the reproducible outputs of a checkout, and what moved.

Runs ``besselbounds verify --suite all`` (with SOURCE_DATE_EPOCH=0),
``besselbounds figure fig1|fig2|fig3``, ``besselbounds bounds list --json`` and
``besselbounds bounds at`` at a few fixed points from the checkout's own
``src/`` in a temporary directory, evaluates every tag and queries the catalog
for every quantity at a fixed seeded set of points, and prints one digest per
output:

    verify_all.json   the report with every ``runtime_ms`` field dropped
    fig1.csv ...      the figure data as written
    catalog.json      the catalog metadata as written
    bounds_at.txt     the printed tables of ``bounds at`` (BOUNDS_AT points)
    tags              value, claim or exception type of each of the 24 tags
                      (I, K, ratio_I, ratio_K and the 20 quantities) at each
                      of tag_points(): TAG_POINTS seeded points and the edges
    queries           for each of the 20 quantities at each of tag_points():
                      the ids and values (in hex) that catalog.best_bounds
                      returns and the catalog.applicable list of all three
                      statuses

Two checkouts whose digests match give byte-identical reports (apart from
timings), figures, catalog queries and point evaluations.  Usage, from the
root of a checkout:

    python3 scripts/report_digest.py [--root PATH] [--against PATH]

``--root`` points at another checkout (default: the one holding this script),
so one copy of the script serves both sides of a comparison.  ``--against``
builds a second checkout as the old side and, after both sets of digests,
prints each ``check_id`` whose fields other than ``runtime_ms`` differ, with
its old -> new ``status``, ``max_violation`` and witness margins, whether
each other output is identical, and for ``tags`` and ``queries`` how many
points moved, per tag or quantity, how many changed outcome kind (for a tag,
value <-> refusal or another refusal type; for a quantity, which ids win or
apply), the range of x they span and the first points whose outcomes differ.
Standard library only; each checkout takes about as long as a cold ``verify
--suite all`` plus a few seconds for the tags and queries.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURES = ("fig1", "fig2", "fig3")
# (quantity, nu, x, extra arguments) of each `bounds at` query: each quantity
# with entries, every status, ties in the nu = 1/2 collapse, points where no
# entry applies, and one (the last) where the quantity is not evaluable
BOUNDS_AT = (
    ("phiI", "1", "1", ()), ("phiI", "1", "1", ("--status", "conjecture")),
    ("phiI", "2", "3", ("--status", "refuted")), ("phiI", "0.25", "1e-3", ("--status", "proved")),
    ("phiK", "0.5", "2", ()), ("phiK", "0.3", "0.3", ()), ("phiK", "-3", "0.01", ()),
    ("y", "1", "100", ()), ("y", "-0.5", "0.5", ()), ("z", "0.5", "7", ()), ("phiP", "1", "6", ()),
    ("iratio", "2", "3", ()), ("kratio", "1", "1", ()), ("b2hat", "0.25", "50", ()),
    ("veff", "2", "0.5", ()), ("ns", "0", "10", ()), ("w", "1", "1", ()), ("b2hat", "-0.5", "1", ()),
    ("y", "-1", "5e-324", ()),
)


# the tag evaluations: TAG_POINTS points drawn from TAG_SEED, then the edges
TAG_POINTS = 20_000
TAG_SEED = 20_240_101
TAG_DIFFS_SHOWN = 10
_EDGE_NU = (math.nan, math.inf, -math.inf, -10.5, -10.0, -2.0, -1.0, -0.5, 0.0, 5e-324,
            0.5, 1.0, 2.5, 15.3, 20.0, 20.5, 500.5)
_EDGE_X = (math.nan, math.inf, 0.0, -1.0, 5e-324, 1e-300, 1e-9, math.nextafter(2.0, 0.0), 2.0,
           math.nextafter(2.0, math.inf), 50.0, 500.0, 500.5,
           math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, math.inf))


def _near(v: float) -> tuple[float, float, float]:
    return math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)


def tag_points() -> list[tuple[float, float]]:
    """The fixed (nu, x) set of the tags output, the same on every checkout.

    nu uniform in [-10, 20], or an integer or half-integer in that range
    moved by 0, +-1e-6 or +-1e-12; x log-uniform in [1e-3, 500] or in
    [5e-324, 1e-3], or at a region switch (2, 30 + nu^2, 1e-9) or a former
    switch (50), give or take one ulp, or at a box edge (500, 5e-324) or one
    ulp inside it: every drawn x lies in the box's (0, 500].  Then every pair
    of the edges: NaN, inf, 0, -1, 500.5, 5e-324, 2 -+ ulp, 10 -+ ulp,
    30 + nu^2 -+ ulp and more.  The points are literals, not read from core, so
    that two checkouts are compared on one point set.
    """
    rng = random.Random(TAG_SEED)
    points = []
    for _ in range(TAG_POINTS):
        if rng.random() < 0.6:
            nu = rng.uniform(-10.0, 20.0)
        else:
            nu = rng.randint(-20, 40) / 2.0 + rng.choice((0.0, 1e-6, -1e-6, 1e-12, -1e-12))
        pick = rng.random()
        if pick < 0.4:
            x = math.exp(rng.uniform(math.log(1e-3), math.log(500.0)))
        elif pick < 0.7:
            x = math.exp(rng.uniform(math.log(5e-324), math.log(1e-3)))
        else:
            x = rng.choice(_near(rng.choice((2.0, 30.0 + nu * nu, 1e-9, 50.0, 500.0, 5e-324))))
        # the box edges' outer neighbours (0 and 500 + ulp) and a log-uniform
        # draw that rounds past 500 fold back onto the edges
        points.append((nu, min(max(x, 5e-324), 500.0)))
    for nu in _EDGE_NU:
        switch = _near(30.0 + nu * nu) if math.isfinite(nu) else ()
        points += [(nu, x) for x in _EDGE_X + switch]
    return points


def _tag_outcomes() -> None:
    # one line per point of tag_points(): nu, x and the outcome of each tag,
    # "value/claim" in hex or the exception's type; run in a child process
    # with PYTHONPATH at the checkout's src/
    from besselbounds import core

    tags = {"I": core.eval_I, "K": core.eval_K, "ratio_I": core.ratio_I, "ratio_K": core.ratio_K}
    tags.update({kind.value: (lambda ctx, kind=kind: core.quantity(kind, ctx)) for kind in core.QuantityKind})
    out = sys.stdout
    out.write(" ".join(tags) + "\n")
    for nu, x in tag_points():
        fields = [repr(nu), repr(x)]
        for evaluate in tags.values():
            try:
                v = evaluate(core.EvalContext(nu, x))
                fields.append(f"{v.value.hex()}/{v.rel_error_bound.hex()}")
            except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
                fields.append(type(exc).__name__)
        out.write(" ".join(fields) + "\n")


def _evaluations(evs) -> str:
    # "id:value" with the value in hex for each evaluation, comma-separated; "-" for none
    return ",".join(f"{e.id}:{e.value.hex()}" for e in evs if e is not None) or "-"


def query_field(kind, nu: float, x: float) -> str:
    """"lower/upper/applicable": the best_bounds winners, then the applicable
    list of all three statuses, each as _evaluations writes it; a query that
    raises is written as the exception's type ("ValueError/applicable")."""
    from besselbounds import catalog

    try:
        lo, hi = catalog.best_bounds(kind, nu, x)
        best = f"{_evaluations([lo])}/{_evaluations([hi])}"
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        best = type(exc).__name__
    try:
        every = _evaluations(catalog.applicable(kind, nu, x, statuses=("proved", "conjecture", "refuted")))
    except Exception as exc:  # noqa: BLE001
        every = type(exc).__name__
    return f"{best}/{every}"


def _query_outcomes() -> None:
    # one line per point of tag_points(): nu, x and query_field of each
    # quantity; run in a child process with PYTHONPATH at the checkout's src/
    from besselbounds.core import QuantityKind

    out = sys.stdout
    out.write(" ".join(kind.value for kind in QuantityKind) + "\n")
    for nu, x in tag_points():
        out.write(" ".join([repr(nu), repr(x)] + [query_field(kind, nu, x) for kind in QuantityKind]) + "\n")


def _outcome_kind(field: str) -> str:
    # "value" for "value/claim", else the exception's type
    return "value" if "/" in field else field


def _query_ids(field: str) -> str:
    # the ids of a query field, its values dropped
    return re.sub(r":[^,/]*", "", field)


def tags_diff(old: bytes, new: bytes, name: str = "tags", kind=_outcome_kind) -> list[str]:
    """What moved between two tags (or queries) outputs: the count of points
    whose outcomes differ, their count per tag, how many changed outcome kind
    (``kind`` of a field: for tags value <-> refusal or another refusal type,
    for queries ``_query_ids``), their least and greatest x, and the first
    TAG_DIFFS_SHOWN of them, tag by tag."""
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    names = new_lines[0].split()
    if old_lines[0] != new_lines[0] or len(old_lines) != len(new_lines):
        return [f"{name}: the tag list or the point set differs"]
    lines, xs, per_tag, kind_changes = [], [], dict.fromkeys(names, 0), 0
    for a, b in zip(old_lines[1:], new_lines[1:]):
        if a == b:
            continue
        fa, fb = a.split(), b.split()
        xs.append(float(fa[1]))
        moved = [(tag, va, vb) for tag, va, vb in zip(names, fa[2:], fb[2:]) if va != vb]
        for tag, _, _ in moved:
            per_tag[tag] += 1
        kind_changes += any(kind(va) != kind(vb) for _, va, vb in moved)
        if len(xs) <= TAG_DIFFS_SHOWN:
            lines.append(f"  nu={fa[0]} x={fa[1]}: " + ", ".join(f"{tag} {va} -> {vb}" for tag, va, vb in moved))
    out = [f"{name}: {len(xs)} of {len(new_lines) - 1} points differ"]
    if xs:
        order = lambda v: (v == v, v)  # NaN below every number
        out += ["  per tag: " + ", ".join(f"{tag} {n}" for tag, n in per_tag.items() if n),
                f"  points that changed outcome kind: {kind_changes}",
                f"  x of the moved points: {min(xs, key=order)!r} .. {max(xs, key=order)!r}"]
    return out + lines


def _drop_runtimes(obj):
    if isinstance(obj, dict):
        return {k: _drop_runtimes(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [_drop_runtimes(v) for v in obj]
    return obj


def _cli(root: Path, workdir: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), SOURCE_DATE_EPOCH="0")
    return subprocess.run([sys.executable, "-m", "besselbounds.cli", *args], cwd=workdir,
                          env=env, stdout=subprocess.PIPE)


def outputs(root: Path) -> tuple[dict, dict[str, bytes]]:
    """The report of a checkout (every runtime_ms dropped) and its other outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp, "verify_all.json")
        if _cli(root, tmp, "verify", "--suite", "all", "--out", str(report)).returncode not in (0, 1):
            raise SystemExit(f"verify --suite all did not run in {root}")
        files = {}
        for fig in FIGURES:
            path = Path(tmp, f"{fig}.csv")
            if _cli(root, tmp, "figure", fig, "--out", str(path)).returncode != 0:
                raise SystemExit(f"figure {fig} did not run in {root}")
            files[path.name] = path.read_bytes()
        path = Path(tmp, "catalog.json")
        if _cli(root, tmp, "bounds", "list", "--json", str(path)).returncode != 0:
            raise SystemExit(f"bounds list did not run in {root}")
        files[path.name] = path.read_bytes()
        tables = []
        for quantity, nu, x, extra in BOUNDS_AT:
            run = _cli(root, tmp, "bounds", "at", "--quantity", quantity, "--nu", nu, "--x", x, *extra)
            if run.returncode != 0:
                raise SystemExit(f"bounds at {quantity} {nu} {x} did not run in {root}")
            tables.append(run.stdout)
        files["bounds_at.txt"] = b"".join(tables)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for name, flag in (("tags", "--tag-outcomes"), ("queries", "--query-outcomes")):
            run = subprocess.run([sys.executable, str(Path(__file__).resolve()), flag],
                                 cwd=tmp, env=env, stdout=subprocess.PIPE)
            if run.returncode != 0:
                raise SystemExit(f"the {name} output did not run in {root}")
            files[name] = run.stdout
        return _drop_runtimes(json.loads(report.read_text())), files


def digests(report: dict, files: dict[str, bytes]) -> list[tuple[str, str]]:
    """(output name, SHA-256 hex digest) for the report and each other output."""
    text = json.dumps(report, indent=2) + "\n"
    out = [("verify_all.json", hashlib.sha256(text.encode()).hexdigest())]
    out += [(name, hashlib.sha256(data).hexdigest()) for name, data in files.items()]
    return out


def _witness_key(w: dict) -> tuple:
    return w["bound_id"], w["nu"], w["x"]


def report_diff(old: dict, new: dict) -> list[str]:
    """One block of lines per check_id whose fields differ between two reports."""
    old_checks = {c["check_id"]: c for c in old["checks"]}
    new_checks = {c["check_id"]: c for c in new["checks"]}
    lines = []
    for cid in sorted(old_checks.keys() | new_checks.keys()):
        a, b = old_checks.get(cid), new_checks.get(cid)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{cid}: only in the {'new' if a is None else 'old'} report")
            continue
        lines.append(f"{cid}:")
        for field in ("status", "tolerance", "max_violation"):
            if a[field] != b[field]:
                lines.append(f"  {field} {a[field]!r} -> {b[field]!r}")
        wa = {_witness_key(w): w["margin"] for w in a["witnesses"]}
        wb = {_witness_key(w): w["margin"] for w in b["witnesses"]}
        for key in sorted(wa.keys() | wb.keys(), key=repr):
            if wa.get(key) != wb.get(key):
                lines.append(f"  witness {key[0]} nu={key[1]!r} x={key[2]!r}: "
                             f"margin {wa.get(key)!r} -> {wb.get(key)!r}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to digest (default: this script's)")
    ap.add_argument("--against", type=Path, default=None,
                    help="older checkout to compare with: prints what moved")
    ap.add_argument("--tag-outcomes", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--query-outcomes", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.tag_outcomes:
        _tag_outcomes()
        return 0
    if args.query_outcomes:
        _query_outcomes()
        return 0
    new = outputs(args.root.resolve())
    for name, digest in digests(*new):
        print(f"{digest}  {name}")
    if args.against is None:
        return 0
    old = outputs(args.against.resolve())
    print(f"against {args.against}:")
    for name, digest in digests(*old):
        print(f"{digest}  {name}")
    lines = report_diff(old[0], new[0])
    print(f"verify_all.json: {sum(not line.startswith(' ') for line in lines)} check(s) moved")
    for line in lines:
        print(line)
    for name in new[1]:
        same = old[1].get(name) == new[1][name]
        print(f"{name}: {'identical' if same else 'differs'}")
        if name == "tags" and not same:
            print("\n".join(tags_diff(old[1][name], new[1][name])))
        if name == "queries" and not same:
            print("\n".join(tags_diff(old[1][name], new[1][name], name, _query_ids)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
