"""Summarise sets of benchmark runs into one BENCH file.

    python3 perfbench/collect.py perfbench/results/BENCH_0.json perfbench/out/set1 perfbench/out/set2

Each directory holds the run reports of one set of runs (the
``*-trace[01].json`` files run.py writes to perfbench/out/).  For every set,
workload and trace mode it gathers the metric values of all seeds run, with
their median, quartiles and quartile spread (IQR / median, the figure the
regression bounds are compared against), and keeps the machine facts, one
full traced report per workload and the ``--tier1`` report of perfbench/out/
if present.  With two or more sets it also gives each end-to-end metric's
change of median from the first set to each later one.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0, "values": values}


def gather(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as f:
            rep = json.load(f)
        runs.setdefault((rep["workload"], rep["trace"]), []).append(rep)
    if not runs:
        sys.exit(f"collect: no run reports in {directory}")
    return runs


def summarise_set(runs):
    workloads = {}
    for (workload, trace), reps in sorted(runs.items()):
        entry = workloads.setdefault(workload, {})
        metrics = {name: [r["metrics"][name]["value"] for r in reps] for name in reps[0]["metrics"]}
        entry["trace1" if trace else "trace0"] = {
            "seeds": [r["seed"] for r in reps],
            "seconds": reps[0]["seconds"],
            "correct": all(not r["check_failures"] for r in reps),
            "failed_frac": [r["failed_frac"] for r in reps],
            "units": {name: m["unit"] for name, m in reps[0]["metrics"].items()},
            "metrics": {name: summarise(v) for name, v in metrics.items()},
        }
        if trace:
            entry["trace1"]["example"] = {k: reps[0][k] for k in ("seed", "layers", "traced_call_s",
                                                                   "traced_self_sum_s", "notes")}
    return workloads


def median_shifts(sets):
    """Relative change of each end-to-end median from the first set to each later one."""
    first = sets[0]["workloads"]
    shifts = {}
    for later in sets[1:]:
        for workload, entry in later["workloads"].items():
            if "trace0" not in entry or "trace0" not in first.get(workload, {}):
                continue
            for name, s in entry["trace0"]["metrics"].items():
                m0 = first[workload]["trace0"]["metrics"][name]["median"]
                shifts.setdefault(f"{later['name']} vs {sets[0]['name']}", {}).setdefault(
                    workload, {})[name] = (s["median"] - m0) / m0 if m0 else 0.0
    return shifts


def main(dest, directories):
    sets = []
    for directory in directories:
        runs = gather(directory)
        sets.append({"name": os.path.basename(os.path.normpath(directory)),
                     "machine": next(iter(runs.values()))[0]["machine"],
                     "workloads": summarise_set(runs)})
    bench = {"sets": sets, "median_shift": median_shifts(sets)}
    tier1 = os.path.join(OUT, "tier1.json")
    if os.path.isfile(tier1):
        with open(tier1) as f:
            bench["tier1"] = json.load(f)["tier1"]
    os.makedirs(os.path.dirname(os.path.abspath(dest)), exist_ok=True)
    with open(dest, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    for st in sets:
        for workload, entry in st["workloads"].items():
            for mode, block in entry.items():
                for name, s in block["metrics"].items():
                    print(f"{st['name']:6s} {workload:16s} {mode} {name:44s} median {s['median']:.6g} "
                          f"iqr/median {s['iqr_over_median']:.3f} (n={len(s['values'])})")
    for pair, by_workload in bench["median_shift"].items():
        for workload, shifts in by_workload.items():
            print(f"{pair} {workload:16s} " + " ".join(f"{k} {v:+.3f}" for k, v in shifts.items()))


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2:])
