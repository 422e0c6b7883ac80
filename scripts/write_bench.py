"""Record one traced benchmark run of every workload in a BENCH file.

Runs ``perfbench/run.py --workload all --seed 1 --trace 1`` from the
repository root and writes its ``env`` line, the metric and check lines
of each workload and its JSON result to the JSON file named on the
command line.  ``src_uncommitted`` records whether ``src/`` differed
from the commit named by the env line's ``git_sha`` when the run
started (null outside a git checkout); ``src_sha256`` identifies the
code either way.  Run from anywhere:

    python3 scripts/write_bench.py BENCH_<n>.json

The exit code is the benchmark's: 0 when every check passed.  Nothing
is written when the benchmark printed no result.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--trace", "1"]


def _number(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def parse(stdout: str) -> dict:
    """The run's env line, per-workload metric and check lines, and result."""
    lines = stdout.strip().splitlines()
    bench = {"command": ["python3", *COMMAND], "env": None, "workloads": {}}
    workload = None
    for line in lines[:-1]:
        fields = line.split("\t")
        if fields[0] == "env":
            bench["env"] = json.loads(fields[1])
        elif fields[0] == "workload":
            workload = bench["workloads"].setdefault(
                fields[1], {"metrics": {}, "raw": {}, "checks": []}
            )
        elif fields[0] == "check":
            workload["checks"].append({"ok": fields[1] == "ok", "what": fields[2]})
        elif fields[0] == "raw":
            workload["raw"][fields[1]] = _number(fields[2])
        elif workload is not None and len(fields) == 3:
            workload["metrics"][fields[0]] = {"value": _number(fields[1]), "unit": fields[2]}
    bench["result"] = json.loads(lines[-1])
    return bench


def src_uncommitted(root: Path) -> bool | None:
    """Whether src/ under root has changes git has not committed."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=root, capture_output=True, text=True,
        )
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: write_bench.py OUT.json", file=sys.stderr)
        return 2
    uncommitted = src_uncommitted(ROOT)
    proc = subprocess.run(
        [sys.executable, *COMMAND], cwd=ROOT, capture_output=True, text=True
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        print(f"write_bench: benchmark exited {proc.returncode}", file=sys.stderr)
        return proc.returncode
    out = Path(argv[0])
    bench = parse(proc.stdout)
    bench["src_uncommitted"] = uncommitted
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"write_bench: {out}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
