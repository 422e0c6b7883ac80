"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads toy-chirp scenes19] [--out FILE]

For every workload and end-to-end metric this prints the median over
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged.  The
same statistics follow for the unscaled timings (``raw`` lines).
Seeds run in order, every workload per seed, so slow drift of the
machine hits all workloads alike.  ``--out`` keeps every run's result
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {name: [] for name in args.workloads}
    for seed in args.seeds:
        for name in args.workloads:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            raw = {k: float(v) for _, k, v in (ln.split("\t") for ln in lines if ln.startswith("raw\t"))}
            runs[name].append({"seed": seed, **result, "raw": raw})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: {values}", flush=True)

    print(f"{'workload':<12} {'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name, results in runs.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  > bound/3"
            print(f"{name:<12} {metric['name']:<20} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>7.3f} {metric['bound']:>6}{flag}")
    print("unscaled timings (raw lines):")
    for name, results in runs.items():
        for key in results[0]["raw"]:
            values = [r["raw"][key] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"{name:<12} {key:<20} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {(q3 - q1) / med:>7.3f}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
