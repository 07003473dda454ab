"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload serve --runs 10 [--first-seed 1]
        [--out FILE]

For every end-to-end metric it prints the median over the runs and the
spread — the interquartile range as a share of the median, by
``statistics.quantiles(values, n=4)`` — next to the metric's bound in
``BENCHMARK.json``, and the same spread of the calibration's ``C_local``
(how much the host itself drifted). Runs are sequential, one seed each,
of ``run_seconds`` from ``BENCHMARK.json``, as the benchmark is scored.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    values: dict[str, list[float]] = {}
    c_local: list[float] = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2].removeprefix("info: "))
        if done.returncode != 0 or not result["correct"]:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        c_local.append(info["c_local_ms"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ) + f" (raw {info['raw_s']:.2f} s, {info['ops']} ops, "
            f"C_local {info['c_local_ms']:.4f} ms)", flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name, series in values.items():
        summary[name] = {"median": statistics.median(series),
                         "spread": spread(series), "bound": bounds[name],
                         "values": series}
        print(f"{args.workload:6s} {name:18s} median={statistics.median(series):10.4g} "
              f"spread={spread(series):6.3f} bound={bounds[name]:.2f} "
              f"({'ok' if spread(series) < bounds[name] / 3 else 'WIDE'})")
    summary["calibration_c_local_ms"] = {
        "median": statistics.median(c_local), "spread": spread(c_local),
        "values": c_local,
    }
    print(f"{args.workload:6s} calibration C_local median="
          f"{statistics.median(c_local):.4f} ms spread="
          f"{summary['calibration_c_local_ms']['spread']:.3f} (the host's own drift)")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
