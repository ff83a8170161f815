"""Paired benchmark runs: a parent revision against this checkout.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 17 \\
        --seconds 40 --out BENCH_4.json

Both sides are extracted and alternate as ``paired.py`` describes.
For each workload of ``BENCHMARK.json``, ``bench/run.py``
runs as a subprocess in both checkouts, ``--pairs`` times, with the same
seed and seconds on both sides.  One ``--trace 1`` run per side follows
the pairs.  This script only starts ``bench/run.py``; it
imports nothing from ``bench/``.

A run that exits nonzero, reports ``correct`` false or counts a failed
operation stops the comparison with an error: its timings say nothing
about code that does not pass the benchmark's correctness gate.

The output JSON (``BENCH_<n>.json`` by convention) holds every run's
result object, and per workload and end-to-end metric each side's median
and quartiles over its runs and the number of pairs each side won.  A
pair is won by the side whose value is better in the direction
``BENCHMARK.json`` gives; ties count for neither side.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from paired import ROOT, SIDES, checkouts, side_order, side_records


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method), min and max of one side's runs."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = median = q3 = ordered[0]
    return {"median": median, "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1], "runs": values}


def pair_wins(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """Pairs won by the change and by the parent; a tie counts for neither."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better={better!r} must be 'lower' or 'higher'")
    sign = 1.0 if better == "lower" else -1.0
    change_wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change, strict=True))
    parent_wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change, strict=True))
    return change_wins, parent_wins


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's spread and the pair wins.

    ``pairs`` holds one ``{"parent": result, "change": result}`` per pair,
    where a result is ``bench/run.py``'s last output line; ``metrics`` are
    the ``end_to_end`` entries of ``BENCHMARK.json``.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        change_wins, parent_wins = pair_wins(values["parent"], values["change"], metric["better"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "pairs": len(pairs),
            "change_wins": change_wins,
            "parent_wins": parent_wins,
        }
    return out


def check_run(result: dict, where: str) -> None:
    """Raise RuntimeError unless a run passed the benchmark's correctness gate."""
    if result["exit_code"] != 0 or result.get("correct") is not True or result.get("failed", 0) != 0:
        raise RuntimeError(
            f"{where} failed the correctness gate: exit {result['exit_code']}, "
            f"correct={result.get('correct')!r}, failed={result.get('failed')!r}"
        )


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run that passed its correctness gate; its result
    object plus the machine line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    check_run(result, f"{' '.join(cmd)} in {checkout}")
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--parent", required=True, help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="output JSON, e.g. BENCH_4.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "harness": (f"{' '.join(benchmark['command'])} --workload W --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace 0|1"),
        "method": ("parent revision and the working tree as it is each extracted by git archive into "
                   "one temporary directory under .bench_out/ beside this checkout, identical bench/ "
                   "invocation; the side that runs first alternates from pair to pair"),
        **side_records(args.parent),
        "python": platform.python_version(),
        "workloads": {},
    }
    with checkouts(record["parent"]["commit"]) as dirs:
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i in range(args.pairs):
                order = side_order(i)
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(dirs[side], workload, args.seed, args.seconds, 0)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: wall_s "
                          f"{pair[side]['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
                pairs.append(pair)
            entry = {
                "failed_ops": {side: [f"{p[side]['failed']} of {p[side]['attempted']}" for p in pairs]
                               for side in SIDES},
                "end_to_end": summarize(pairs, benchmark["end_to_end"]),
                "runs": pairs,
                "traced": {side: run_bench(dirs[side], workload, args.seed, args.seconds, 1)
                           for side in SIDES},
            }
            record["workloads"][workload] = entry
            args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
