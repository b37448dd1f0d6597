"""weylzeros benchmark.

    python3 perfbench/run.py --workload expect-n1600 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --tier1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the workload for ``--seconds``
and reports the end-to-end metrics; with ``--trace 1`` it splits the time
into an untraced workers=1 phase, a traced workers=1 phase and, for
multi-worker workloads, an untraced phase at the workload's worker count, and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is the JSON result.  Full reports and span files go
to ``perfbench/out/``.
"""

import os

# GEMM bits vary with the BLAS thread count; pin it before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "weylzeros", "__init__.py")):
        sys.exit(f"perfbench: no package source at {os.path.join('src', 'weylzeros')}; "
                 "run from the root of a weylzeros checkout")
    sys.path.insert(0, SRC)
    import weylzeros

    if os.path.dirname(os.path.abspath(weylzeros.__file__)) != os.path.join(SRC, "weylzeros"):
        sys.exit(f"perfbench: imported weylzeros from {weylzeros.__file__}, not from src/")


@dataclass
class Call:
    index: int
    workers: int
    wall_s: float
    result: object
    loop: int = 0


def _loop(wl, deadline, workers, k, loops, tracer, setup_walls):
    """Calls k, k + loops, k + 2 loops, ... until `deadline` (at least one call).

    With `setup_walls`, the set-up is re-run `wl.setup_repeats` times back to back after
    every `wl.setup_every` calls of this loop, and the block's mean wall is appended, so
    the samples are spread over the run like the calls are.  The host's speed flips
    between a fast and a slow mode from one set-up to the next; a block mean averages
    over the flips where a single wall lands in one mode or the other.
    """
    from weylzeros.errors import WeylzerosError

    records = []
    while not records or time.perf_counter() < deadline:
        i = k + loops * len(records)
        inp = wl.inputs(i, workers)
        if tracer is not None:
            tracer.run = i
        t0 = time.perf_counter()
        try:
            out = tracer.span("bench.call", wl.call, inp) if tracer else wl.call(inp)
        except WeylzerosError as exc:
            out = exc
        records.append(Call(i, workers, time.perf_counter() - t0, out, k))
        if setup_walls is not None and (len(records) - 1) % wl.setup_every == 0:
            t0 = time.perf_counter()
            for _ in range(wl.setup_repeats):
                wl.setup()
            setup_walls.append((time.perf_counter() - t0) / wl.setup_repeats)
    return records


_FORKED = None   # (wl, deadline, workers, loops, timing set-ups): read by forked loops


def _forked_loop(k):
    wl, deadline, workers, loops, with_setup = _FORKED
    setup_walls = [] if with_setup else None
    return _loop(wl, deadline, workers, k, loops, None, setup_walls), setup_walls


def measure(wl, seconds, workers, tracer=None, setup_walls=None, loops=1):
    """`loops` closed loops of calls 0, 1, ... for `seconds`, call i in loop i % loops.

    One loop runs in this process; more run in as many forked processes at once,
    and their records come back sorted by call index.
    """
    global _FORKED

    deadline = time.perf_counter() + seconds
    if loops == 1:
        return _loop(wl, deadline, workers, 0, 1, tracer, setup_walls)
    _FORKED = (wl, deadline, workers, loops, setup_walls is not None)
    with multiprocessing.get_context("fork").Pool(loops) as pool:
        parts = pool.map(_forked_loop, range(loops), chunksize=1)
        pool.close()
        pool.join()
    _FORKED = None
    records = sorted((r for recs, _ in parts for r in recs), key=lambda r: r.index)
    if setup_walls is not None:
        setup_walls.extend(w for _, walls in parts for w in walls)
    return records


def loop_rate(wl, records):
    """Trials per second of call wall, summed over the loops that ran at once."""
    rate = 0.0
    for k in {r.loop for r in records}:
        mine = [r for r in records if r.loop == k]
        rate += len(mine) * wl.trials_per_call / sum(r.wall_s for r in mine)
    return rate


def paired_ratio(a, b):
    """Median over call indices run in both phases of wall(a_i) / wall(b_i); call i has
    the same inputs in every phase, so the pairing removes input-to-input variation."""
    n = min(len(a), len(b))
    return statistics.median(a[i].wall_s / b[i].wall_s for i in range(n))


def peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def machine_facts():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "weylzeros")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def kernel_work(kernel):
    """(nnz, rows, n+1) of the kernel's banded matrices, from the window rule alone.

    Counting from basis.window_bounds, not from the kernel's storage, keeps the
    computed flop and byte totals fixed when the storage format changes.
    """
    from weylzeros import basis

    nnz = 0
    for x in kernel.grid:
        lo, hi, _ = basis.window_bounds(x, kernel.n, kernel.tau)
        nnz += hi - lo + 1
    return nnz, kernel.grid.size, kernel.n + 1


def trace_hooks(wl):
    import numpy as np

    work = {}

    def kernel_counts(kernel):
        key = (kernel.n, kernel.grid.size, float(kernel.grid[0]), float(kernel.grid[-1]), kernel.tau)
        if key not in work:
            work[key] = kernel_work(kernel)
        return work[key]

    def values(tr, args, kwargs, out):
        kernel, coeffs = args[0], args[1]
        nnz, rows, n1 = kernel_counts(kernel)
        batch = 1 if np.ndim(coeffs) == 1 else coeffs.shape[1]
        # two CSR products: 8-byte data + 4-byte index per nonzero, 4-byte row pointers,
        # the coefficient block read once and the output written once per product
        tr.add("values.flop", 2 * 2 * nnz * batch)
        tr.add("values.byte", 2 * (12 * nnz + 4 * (rows + 1) + 8 * n1 * batch + 8 * rows * batch))

    def hunt(tr, args, kwargs, out):
        found, ambiguous = out
        tr.add("hunt.roots_found", len(found))
        tr.add("hunt.ambiguous", int(bool(ambiguous)))

    def refine(tr, args, kwargs, out):
        tr.add("refine.invalidating", int(out <= wl.delta))

    def kac_rice(tr, args, kwargs, out):
        found = kwargs.get("roots", args[5] if len(args) > 5 else None)
        if found is not None:
            tr.add("kac_rice.roots", len(found))

    if wl.kernel is not None:
        kernel_counts(wl.kernel)   # count now, not inside the first traced call
    return {"roots.GridKernel.values": values, "roots.hunt": hunt, "roots.refine": refine,
            "roots.kac_rice_count": kac_rice}


def layer_metrics(wl, tracer, traced, w1, wn):
    """Per-layer metrics of the traced phase, per 1000 trials unless noted."""
    tab = tracer.table(0)
    trials = len(traced) * wl.trials_per_call
    k = 1000.0 / trials
    t = tab.__getitem__
    c = tracer.counters.get
    per_k_calls = lambda name: (t(name)["calls"] * k, "1/ktrial")  # noqa: E731
    per_k_s = lambda name: (t(name)["total_s"] * k, "s/ktrial")  # noqa: E731
    values_s = t("roots.GridKernel.values")["total_s"]
    refine_cells = t("roots.refine")["calls"]
    engine = t(wl.engine_boundary)["total_s"] if wl.engine_boundary else None
    reduce_s = (t("bench.call")["total_s"] - engine) * k if engine is not None else 0.0
    m = {
        "dists.trial_stream.calls": per_k_calls("dists.trial_stream"),
        "dists.trial_stream_s": per_k_s("dists.trial_stream"),
        "dists.from_uniforms_s": per_k_s("dists.from_uniforms"),
        "basis.evaluate_at.calls": per_k_calls("basis.evaluate_at"),
        "basis.evaluate_at_s": per_k_s("basis.evaluate_at"),
        "basis.support_window.calls": per_k_calls("basis.support_window"),
        "basis.support_window_s": per_k_s("basis.support_window"),
        "roots.GridKernel.build_s": (t("roots.GridKernel.build")["median_s"], "s"),
        "roots.GridKernel.values.calls": per_k_calls("roots.GridKernel.values"),
        "roots.GridKernel.values_s": per_k_s("roots.GridKernel.values"),
        "roots.GridKernel.values.gflop": (c("values.flop", 0) * k / 1e9, "GFLOP/ktrial"),
        "roots.GridKernel.values.gbyte": (c("values.byte", 0) * k / 1e9, "GB/ktrial"),
        "roots.GridKernel.values.gflops": (c("values.flop", 0) / values_s / 1e9 if values_s else 0.0,
                                           "GFLOP/s"),
        "roots.suspicious_cells_s": per_k_s("roots.suspicious_cells"),
        "roots.hunt.cells": per_k_calls("roots.hunt"),
        "roots.hunt.roots_found": (c("hunt.roots_found", 0) * k, "1/ktrial"),
        "roots.hunt.ambiguous": (c("hunt.ambiguous", 0) * k, "1/ktrial"),
        "roots.hunt_s": per_k_s("roots.hunt"),
        "roots.refine.cells": per_k_calls("roots.refine"),
        "roots.refine.invalidating": (c("refine.invalidating", 0) * k, "1/ktrial"),
        "roots.refine.yield": (c("refine.invalidating", 0) / refine_cells if refine_cells else 0.0,
                               "ratio"),
        "roots.refine_s": per_k_s("roots.refine"),
        "roots.count_sign_changes_s": per_k_s("roots.count_sign_changes"),
        "roots.validity_check_s": per_k_s("roots.validity_check"),
        "roots.kac_rice_count_s": per_k_s("roots.kac_rice_count"),
        "roots.kac_rice_count.roots": (c("kac_rice.roots", 0) * k, "1/ktrial"),
        "montecarlo.count_chunk.calls": per_k_calls("montecarlo.count_chunk"),
        "montecarlo.count_chunk.self_s": (t("montecarlo.count_chunk")["self_s"] * k, "s/ktrial"),
        "montecarlo.point_values.self_s": (t("montecarlo.point_values")["self_s"] * k, "s/ktrial"),
        "montecarlo.reduce_s": (reduce_s, "s/ktrial"),
        "montecarlo.parallel_eff": (paired_ratio(w1, wn) / wl.workers if wn else 0.0, "ratio"),
        "gaussian_theory.expected_count_gaussian_s":
            (t("gaussian_theory.expected_count_gaussian")["median_s"], "s"),
        "gaussian_theory.variance_constant_weyl_s":
            (t("gaussian_theory.variance_constant_weyl")["median_s"], "s"),
        "edgeworth.correction_constant_s": (t("edgeworth.correction_constant")["median_s"], "s"),
        "bench.trace_overhead_frac": (paired_ratio(traced, w1) - 1.0, "ratio"),
    }
    idle = [name for name, row in tab.items() if row["calls"] == 0 and name != "bench.setup"]
    notes = []
    if idle:
        notes.append("no spans in the traced loop (set-up spans still give the "
                     "median-per-call *_s): " + ", ".join(idle))
    if not wn:
        notes.append("montecarlo.parallel_eff = 0: this workload runs no worker pool")
    if engine is None:
        notes.append("montecarlo.reduce_s = 0: this workload has no montecarlo engine call")
    return m, tab, notes


def run_workload(args):
    from spans import BoundaryError, Tracer, boundaries, unreached
    from weylzeros import basis, edgeworth, gaussian_theory, roots
    from weylzeros import montecarlo as mc
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_walls = []
    tracer = w1 = traced = wn = None
    if not args.trace:
        phases = {"e2e": measure(wl, args.seconds, wl.workers, setup_walls=setup_walls,
                                 loops=wl.loops)}
        rss_mb = peak_rss_mb()   # before the checks, which run work of their own
    else:
        n_phases = 3 if wl.workers > 1 else 2
        share = args.seconds / n_phases
        w1 = measure(wl, share, 1)
        tracer = Tracer()
        bounds = boundaries(mc, roots, basis, gaussian_theory, edgeworth)
        tracer.install(bounds, trace_hooks(wl))
        try:
            for _ in range(3):
                tracer.span("bench.setup", wl.setup)
            traced = measure(wl, share, 1, tracer)
        finally:
            tracer.uninstall()
        missing = unreached(bounds, tracer, wl.name)
        if missing:
            raise BoundaryError(f"traced boundary never reached on {wl.name}: " + ", ".join(missing))
        wn = measure(wl, share, wl.workers) if wl.workers > 1 else None
        phases = {"w1": w1, "traced": traced}
        if wn:
            phases["w" + str(wl.workers)] = wn

    records = [r for recs in phases.values() for r in recs]
    ok = [r for r in records if not isinstance(r.result, Exception)]
    failures = [f"call {r.index}: {type(r.result).__name__}: {r.result}" for r in records if r not in ok]
    first = next(iter(phases.values()))[0]
    if first in ok:
        failures += wl.check(first, ok)
        digests = {name: wl.digest(recs[0].result) for name, recs in phases.items()
                   if not isinstance(recs[0].result, Exception)}
        if len(set(digests.values())) > 1:
            failures.append(f"call 0 differs between phases: {digests}")
        if tracer is not None:
            failures += wl.trace_check(tracer)
    attempted = len(records) * wl.trials_per_call
    invalid = sum(wl.invalid(r.result) for r in ok)

    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(), "calls": {k: len(v) for k, v in phases.items()},
              "trials_per_call": wl.trials_per_call, "attempted": attempted,
              "invalid_trials": invalid, "check_failures": failures, "check_detail": wl.detail,
              "failed_frac": (invalid + len(failures)) / attempted,
              "call0_digest": wl.digest(first.result) if first in ok else None,
              "call_walls_s": {k: [r.wall_s for r in v] for k, v in phases.items()}}
    if not args.trace:
        recs = phases["e2e"]
        rate = loop_rate(wl, recs)
        if wl.per_sample:
            walls_ms = [r.wall_s * 1e3 for r in recs]
            p90 = statistics.quantiles(walls_ms, n=10)[-1] if len(walls_ms) > 1 else walls_ms[0]
            # printed, not gated: the host alternates between a fast and a slow speed for
            # seconds to minutes, and the median sample flips between the two
            report["sample_ms_p50"] = statistics.median(walls_ms)
        else:
            # A batch times no trial on its own.  Every end-to-end metric is reported for
            # every workload, so here sample_ms_p90 is the run's wall per trial,
            # 1000 / trials_per_s: it adds no gate beyond trials_per_s.
            p90 = 1e3 / rate
        metrics = {
            "trials_per_s": (rate, "1/s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "sample_ms_p90": (p90, "ms"),
        }
        report["samples"] = len(recs)
        report["loops"] = wl.loops
        report["setup_blocks"] = len(setup_walls)
        report["setup_block_size"] = wl.setup_repeats
        notes = []
    else:
        metrics, tab, notes = layer_metrics(wl, tracer, traced, w1, wn)
        call_s = tab["bench.call"]["total_s"]
        report["layers"] = {name: row for name, row in sorted(tab.items(), key=lambda kv: -kv[1]["self_s"])}
        report["traced_call_s"] = call_s
        report["traced_self_sum_s"] = sum(row["self_s"] for name, row in tab.items() if name != "bench.setup")
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.npz"),
                    {"workload": wl.name, "seed": args.seed})
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["notes"] = notes
    _print_report(report)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": report["metrics"]}))


def _print_report(rep):
    print(f"perfbench {rep['workload']} seed={rep['seed']} seconds={rep['seconds']} trace={rep['trace']}")
    print("machine: " + json.dumps(rep["machine"]))
    print(f"calls per phase: {rep['calls']} x {rep['trials_per_call']} trials; "
          f"call 0 digest {rep['call0_digest']}")
    if "samples" in rep:
        print(f"timed calls: {rep['samples']} in {rep['loops']} concurrent loop(s); setup blocks: {rep['setup_blocks']} "
              f"of {rep['setup_block_size']} set-ups")
    if "sample_ms_p50" in rep:
        print(f"{'sample_ms_p50 (not gated)':44s} {rep['sample_ms_p50']:.6g} ms "
              f"over {rep['samples']} samples")
    if "layers" in rep:
        call_s = rep["traced_call_s"]
        print(f"{'span':44s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}")
        for name, row in rep["layers"].items():
            if name == "bench.setup":
                continue
            print(f"{name:44s} {row['calls']:9d} {row['total_s']:9.3f} {row['self_s']:9.3f} "
                  f"{100 * row['self_s'] / call_s:6.1f}")
        print(f"self times sum to {rep['traced_self_sum_s']:.3f} s of {call_s:.3f} s traced call wall")
        print("roots.GridKernel.values.gflop/.gbyte are computed from the window rule "
              "(CSR nnz, indices, row pointers, batch width), not measured")
    for name, m in rep["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for note in rep["notes"]:
        print("note: " + note)
    print(f"failed_frac {rep['failed_frac']:.6g} "
          f"({rep['invalid_trials']} invalid trials + {len(rep['check_failures'])} failed checks "
          f"of {rep['attempted']} attempted)")
    status = "FAILED" if rep["check_failures"] else "ok"
    print(f"checks: {status} {json.dumps(rep['check_detail'])}")
    for f in rep["check_failures"]:
        print("CHECK FAILED: " + f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tier1", action="store_true", help="one-shot wall time of each acceptance criterion")
    args = ap.parse_args(argv)
    _import_package()
    sys.path.insert(0, HERE)
    if args.tier1:
        import tier1

        report = {"machine": machine_facts(), "tier1": tier1.run(ROOT)}
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, "tier1.json"), "w") as f:
            json.dump(report, f, indent=1)
        print(json.dumps(report))
        return
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    from spans import BoundaryError

    try:
        run_workload(args)
    except BoundaryError as exc:
        sys.exit(f"perfbench: {exc}")


if __name__ == "__main__":
    main()
