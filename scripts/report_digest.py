#!/usr/bin/env python3
"""SHA-256 digests of the reproducible outputs of a checkout.

Runs ``besselbounds verify --suite all`` (with SOURCE_DATE_EPOCH=0) and
``besselbounds figure fig1|fig2|fig3`` from the checkout's own ``src/`` in a
temporary directory and prints one digest per output:

    verify_all.json   the report with every ``runtime_ms`` field dropped
    fig1.csv ...      the figure data as written

Two checkouts whose digests match give byte-identical reports (apart from
timings) and figures.  Usage, from the root of a checkout:

    python3 scripts/report_digest.py [--root PATH]

``--root`` points at another checkout (default: the one holding this script),
so one copy of the script serves both sides of a comparison.  Standard
library only; takes about as long as a cold ``verify --suite all``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURES = ("fig1", "fig2", "fig3")


def _drop_runtimes(obj):
    if isinstance(obj, dict):
        return {k: _drop_runtimes(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [_drop_runtimes(v) for v in obj]
    return obj


def _cli(root: Path, workdir: str, *args: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), SOURCE_DATE_EPOCH="0")
    return subprocess.run([sys.executable, "-m", "besselbounds.cli", *args], cwd=workdir,
                          env=env, stdout=subprocess.DEVNULL).returncode


def digests(root: Path) -> list[tuple[str, str]]:
    """(output name, SHA-256 hex digest) for the report and each figure."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp, "verify_all.json")
        if _cli(root, tmp, "verify", "--suite", "all", "--out", str(report)) not in (0, 1):
            raise SystemExit("verify --suite all did not run")
        text = json.dumps(_drop_runtimes(json.loads(report.read_text())), indent=2) + "\n"
        out.append((report.name, hashlib.sha256(text.encode()).hexdigest()))
        for fig in FIGURES:
            path = Path(tmp, f"{fig}.csv")
            if _cli(root, tmp, "figure", fig, "--out", str(path)) != 0:
                raise SystemExit(f"figure {fig} did not run")
            out.append((path.name, hashlib.sha256(path.read_bytes()).hexdigest()))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to digest (default: this script's)")
    args = ap.parse_args()
    for name, digest in digests(args.root.resolve()):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
