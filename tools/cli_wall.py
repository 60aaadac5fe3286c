"""Wall time of each README command and of the tier-1 suite, in fresh processes.

Run from the repository root:

    python3 tools/cli_wall.py --rounds 5 --out CLI_WALL.json

It reads the commands of the README's CLI block as
``tests/test_cli.py::test_readme_examples_pass`` reads them, and runs each as
``python -m cayleyheat ...`` in a temporary directory holding that test's
``w.json``, with ``src`` on ``PYTHONPATH``; then the tier-1 command of
``ROADMAP.md`` from the repository root.  Each round runs every command once,
in a fresh process, and the rounds interleave the commands, so a slow stretch
of a shared machine lands on all of them.  It prints the best and the median
wall time of each, and with ``--out`` writes them, every run's time and the
machine to a JSON record.  A command that exits non-zero fails the run.

The record notes whether the library's bytecode was cached.  With
``PYTHONDONTWRITEBYTECODE`` set and no valid ``__pycache__`` entry, every
fresh process compiles the library from source, which costs a command tens
of milliseconds.  ``--only TEXT`` keeps the commands whose line holds TEXT.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cayleyheat"
# the weights file test_readme_examples_pass writes for check-monotone
WEIGHTS = {"group": "Z12", "weights": {"1": 2.0, "3": 1.0}}


def readme_commands() -> list[str]:
    """The README's CLI block, one command line each."""
    text = (ROOT / "README.md").read_text()
    return re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1).strip().splitlines()


def tier1_command() -> str:
    """The tier-1 command ROADMAP.md states, with its PYTHONPATH prefix."""
    text = (ROOT / "ROADMAP.md").read_text()
    return re.search(r"\*\*Tier-1 verify:\*\* `(.*?)`", text).group(1)


def bytecode_cached() -> dict:
    """How many of the library's modules have a __pycache__ entry that
    Python would use: the magic number of this interpreter and the source's
    mtime and size in a timestamp header."""
    sources = sorted(PACKAGE.glob("*.py"))
    valid = 0
    for src in sources:
        try:
            header = Path(importlib.util.cache_from_source(str(src))).read_bytes()[:16]
        except OSError:
            continue
        st = src.stat()
        valid += header == (
            importlib.util.MAGIC_NUMBER
            + bytes(4)
            + (int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
            + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little")
        )
    return {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "modules": len(sources),
        "modules_with_valid_pycache": valid,
    }


def process(line: str, workdir: Path) -> tuple[list[str], Path]:
    """The argv and directory of a command line: a README command runs as
    ``python -m cayleyheat`` in ``workdir``, the tier-1 line without its
    PYTHONPATH prefix (``run`` sets that) from the repository root."""
    words = shlex.split(line)
    if words[0] == "cayleyheat":
        return [sys.executable, "-m", "cayleyheat", *words[1:]], workdir
    if words[0].startswith("PYTHONPATH=") and words[1] == "python":
        return [sys.executable, *words[2:]], ROOT
    raise SystemExit(f"cannot run {line!r}")


def run(lines: list[str], rounds: int) -> dict:
    """Seconds of wall time per run, per command line, interleaved by round."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = {line: [] for line in lines}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "w.json").write_text(json.dumps(WEIGHTS))
        for _ in range(rounds):
            for line in lines:
                argv, cwd = process(line, workdir)
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
                dt = time.perf_counter() - t0
                if proc.returncode != 0:
                    raise SystemExit(f"{line!r} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
                times[line].append(dt)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--only", action="append", default=[], metavar="TEXT")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    lines = [*readme_commands(), tier1_command()]
    if args.only:
        lines = [s for s in lines if any(t in s for t in args.only)]
    bytecode = bytecode_cached()
    times = run(lines, args.rounds)
    rows = []
    for line, runs in times.items():
        best, median = min(runs), statistics.median(runs)
        print(f"{best * 1e3:9.1f} ms best {median * 1e3:9.1f} ms median  {line}")
        rows.append({"command": line, "best_ms": best * 1e3, "median_ms": median * 1e3,
                     "runs_ms": [t * 1e3 for t in runs]})
    print(f"bytecode: {bytecode}")
    if args.out:
        record = {
            "rounds": args.rounds,
            "bytecode": bytecode,
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": os.cpu_count(),
            },
            "commands": rows,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
