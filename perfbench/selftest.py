#!/usr/bin/env python3
"""Self-test of the benchmark: run every workload twice per pass and check
that the exact metrics repeat bit for bit, that every run passes its own
correctness checks (which include the 1-thread versus all-cores
comparison), and that BENCHMARK.json declares exactly the metrics the
program prints, with the same units.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 3] [--seed 7]
"""

import argparse
import json
import subprocess
import sys

# Metrics that must be bit-identical for a given seed.
EXACT = {
    "accuracy_at_05",
    "energy_mj_per_frame",
    "isp.search_probes",
    "isp.search_sad_ops",
    "core.inference_rate",
    "core.rois_per_frame",
}
EXACT_PREFIXES = ("mc.", "nn.", "soc.")


def is_exact(name):
    return name in EXACT or name.startswith(EXACT_PREFIXES)


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--seed", type=int, default=7)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            first, second = (
                run(bench["command"], workload, opts.seed, opts.seconds, trace)
                for _ in range(2)
            )
            for i, result in enumerate((first, second)):
                if not result["correct"]:
                    failures.append(f"{workload} trace {trace} run {i}: correct is false")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != declared[trace]:
                    failures.append(
                        f"{workload} trace {trace}: printed metrics differ from BENCHMARK.json"
                    )
            exact = [k for k in first["metrics"] if is_exact(k)]
            for name in exact:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    failures.append(f"{workload} {name}: {a!r} then {b!r}")
            print(f"{workload} trace {trace}: {len(exact)} exact metrics repeat", flush=True)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "failed" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
