#!/usr/bin/env python3
"""Full reproduction run: every verification suite plus the figure data.

Writes into --outdir (default ./out), each file by the besselbounds CLI:
    verify_all.json   complete verification report (all suites, full grids)
    fig1.csv fig2.csv fig3.csv   quantity-vs-bounds figure data
    catalog.json      the bounds catalog as machine-readable metadata

--seed and --pairs are passed to ``besselbounds verify``, which checks them.
Exit code 0 iff every non-informational check passes, 2 on a usage error.
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

from besselbounds import cli


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--seed", help="verify --seed (default: the CLI's)")
    ap.add_argument("--pairs", help="verify --pairs (default: the CLI's)")
    args = ap.parse_args(argv)

    outdir = Path(args.outdir)
    verify = ["verify", "--suite", "all", "--out", str(outdir / "verify_all.json")]
    for flag, value in (("--seed", args.seed), ("--pairs", args.pairs)):
        if value is not None:
            verify += [flag, value]
    outdir.mkdir(parents=True, exist_ok=True)
    rc = cli.main(verify)
    if rc == 2:
        return 2
    for fig_id in sorted(cli.FIGURES):
        rc = max(rc, cli.main(["figure", fig_id, "--out", str(outdir / f"{fig_id}.csv")]))
    with contextlib.redirect_stdout(io.StringIO()):  # the listing itself is not wanted
        rc = max(rc, cli.main(["bounds", "list", "--json", str(outdir / "catalog.json")]))
    print(f"artifacts in {outdir}/")
    return rc


if __name__ == "__main__":
    sys.exit(main())
