"""Measure a baseline: run the benchmark over several seeds per workload and
write medians, quartiles and spreads, plus one traced run per workload.

    python3 bench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out bench/baseline.json

Run it from the repository root. Every workload in BENCHMARK.json is
measured; the traced run uses seed 1. The spread of a metric is the distance
between the first and third quartile of its values over the seeds, as a
share of their median. Each per-layer metric is stored with the end-to-end
metric and workloads it should move (``layers.PER_LAYER``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH_DIR)]

import layers  # noqa: E402 - needs the paths above

TRACE_SEED = 1
_DIGEST_PREFIX = "outputs sha256: "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One benchmark run: its metric values, and the digest of its outputs."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(command)} reported incorrect outputs")
    digest = next(line[len(_DIGEST_PREFIX):] for line in lines if line.startswith(_DIGEST_PREFIX))
    return {name: entry["value"] for name, entry in result["metrics"].items()}, digest


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description="measure the benchmark baseline")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    end_to_end: dict[str, dict] = {}
    per_layer: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            values, digest = run_once(workload, seed, seconds, 0)
            runs.append(values)
            if seed == TRACE_SEED:
                digests[workload] = digest
            print(workload, f"seed {seed}:", ", ".join(f"{n} {v:.6g} {units[n]}" for n, v in values.items()), flush=True)
        end_to_end[workload] = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        per_layer[workload], digest = run_once(workload, TRACE_SEED, seconds, 1)
        # outputs depend on the inputs only, never on the process or the tracer
        if digests.setdefault(workload, digest) != digest:
            raise SystemExit(f"{workload}: outputs of seed {TRACE_SEED} differ between two runs")

    targets = {
        name: {"unit": unit, "better": better, "moves": moves, "on": list(on)}
        for name, unit, better, moves, on in layers.PER_LAYER
    }
    out = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seeds": seeds,
        "run_seconds": seconds,
        f"outputs_sha256_seed{TRACE_SEED}": digests,
        "end_to_end": end_to_end,
        "per_layer": {
            name: {**target, "baseline": {w: per_layer[w][name] for w in workloads}} for name, target in targets.items()
        },
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in end_to_end.items():
        for name, summary in metrics.items():
            print(f"{workload:12s} {name:26s} median {summary['median']:.6g} spread {summary['spread']:.4f}")


if __name__ == "__main__":
    main()
