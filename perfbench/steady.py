#!/usr/bin/env python3
"""Steadiness self-check of the benchmark defined in BENCHMARK.json.

For each workload it runs two interleaved sets of RUNS runs of the same code
on the graded seed (A, B, A, B, ...) with tracing off. Every run must pass
its correctness check and print the same fingerprint. For every end-to-end
metric it reports each set's median and quartiles, the spread
(interquartile range over median) and the drift between the two medians,
each against the metric's bound. It then makes one traced run per workload
on the graded seed and one on a held-out seed, and reports the figures that
give each workload its character (the estimated coordinator share of
simulation time, the event mix, the forwarded packets), so that a change of
seed can be seen not to change what a workload stresses.

Run from the repository root (it takes about 2 * RUNS * (run_seconds + 5)
seconds per workload):

    python3 perfbench/steady.py

It writes perfbench/steadiness.json and exits 1 if any spread or drift is
outside its bound.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

RUNS = 10
SEED = 42
HELD_OUT_SEED = 7
OUT = "perfbench/steadiness.json"

CHARACTER = [
    "idc.coordinator_share_est",
    "system.events",
    "system.events_net",
    "host.fwd_packets",
    "system.run_s",
    "trace.overhead_frac",
]


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    fingerprint = next(l for l in lines if l.startswith("fingerprint"))
    calls = [float(t) for t in re.findall(r"took ([0-9.]+) s", proc.stderr)]
    return result, fingerprint, took, calls


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]

    report = {
        "host_cores": os.cpu_count(),
        "run_seconds": seconds,
        "runs_per_set": RUNS,
        "seed": SEED,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        fingerprints = set()
        for i in range(RUNS):
            for label in sets:
                result, fingerprint, took, calls = run(command, name, SEED, seconds, 0)
                fingerprints.add(fingerprint)
                if len(fingerprints) > 1:
                    raise SystemExit(f"{name}: runs of seed {SEED} printed different "
                                     f"fingerprints: {sorted(fingerprints)}")
                sets[label].append(result["metrics"])
                print(f"{name} set {label} run {i + 1}: {took:.1f} s, {len(calls)} calls, "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            a = summary([r[m["name"]]["value"] for r in sets["A"]])
            b = summary([r[m["name"]]["value"] for r in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            metrics[m["name"]] = {
                "unit": m["unit"],
                "bound": m["bound"],
                "A": a,
                "B": b,
                "drift": worse,
                "spread_ok": max(a["spread"], b["spread"]) <= m["bound"],
                "drift_ok": abs(worse) <= m["bound"],
            }
            print(f"{name} {m['name']}: A median {a['median']:.6g} spread {a['spread']:.3f}, "
                  f"B median {b['median']:.6g} spread {b['spread']:.3f}, "
                  f"drift {worse:+.3f} (bound {m['bound']})", flush=True)

        character = {}
        for seed in (SEED, HELD_OUT_SEED):
            result, fingerprint, _, _ = run(command, name, seed, seconds, 1)
            if seed == SEED and fingerprint not in fingerprints:
                raise SystemExit(f"{name}: the traced run printed {fingerprint}, "
                                 f"the untraced runs {sorted(fingerprints)}")
            character[str(seed)] = {
                "fingerprint": fingerprint,
                **{k: result["metrics"][k]["value"] for k in CHARACTER},
            }
            print(f"{name} traced seed {seed}: "
                  + " ".join(f"{k}={v}" for k, v in character[str(seed)].items()), flush=True)
        report["workloads"][name] = {"end_to_end": metrics, "character": character}

    with open(OUT, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    bad = [
        f"{w} {m}"
        for w, r in report["workloads"].items()
        for m, v in r["end_to_end"].items()
        if not (v["spread_ok"] and v["drift_ok"])
    ]
    print(f"wrote {OUT}; " + (f"outside bounds: {', '.join(bad)}" if bad else "all within bounds"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
