"""braidmscp benchmark: one run of one workload, ending in one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

With --trace 0 the workload is run from cold caches, pass after pass, for
--seconds (at least one pass), and the end-to-end metrics are reported:
wall_s and setup_s as medians over the passes and set-ups, the latency
percentiles over every instance of every pass, and every time scaled to a
fixed host speed (see `slowness`).
With --trace 1 untraced passes and passes with the per-layer tracing of
spans.py take turns, and the per-layer metrics are reported, with the
tracing overhead; every pass must give the same outcomes and counts.
Metric names and units are those of BENCHMARK.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
`failed` counts wrong answers, while an ABORTED search only lowers
correct_frac.  One row per instance and pass goes to perfbench/out/.  The
exit code is 1 when any answer was wrong, and 2 when the package source is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import GcClock, Tracer, braid_probe, deep_sizeof, package_caches
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
PROBE_CASES = 50

# The speed of a shared machine drifts by tens of percent over seconds to
# minutes, more than any bound a regression check could use.  So a fixed
# piece of pure-Python work, the reference loop, is timed between any two
# instances and around every set-up, and each end-to-end time is divided by
# the slowness measured around it: the loop's mean time just before and
# after, over REF_NOMINAL_S.  Times are thus reported in seconds at the speed
# where the loop takes REF_NOMINAL_S, near its median on a 2-vCPU Xeon; the
# raw times are printed above the result line.
REF_NOMINAL_S = 0.0014

# The public functions through which harness, instance_io, cli, solver and
# normal_form call each other, with the metrics taken from their spans: "s"
# is total time, "self_s" time outside child spans, "calls" the call count,
# "bytes" the summed length of the results.  braid is measured by a probe.
SPAN_METRICS = (
    ("harness.gen_instance", ("s",)),
    ("harness.run_attack", ("self_s",)),
    ("instance_io.write_instance", ("s",)),
    ("instance_io.parse_instance", ("s",)),
    ("instance_io.counters_report", ("s",)),
    ("instance_io.export_graph", ("s", "bytes")),
    ("cli.main", ("self_s",)),
    ("solver.solve_mscp", ("self_s",)),
    ("solver.summit_search", ("self_s",)),
    ("solver.minimal_conjugator_set", ("calls", "self_s")),
    ("solver.conjugate_tuple", ("calls", "self_s")),
    ("solver.tuple_key", ("self_s",)),
    ("solver.verify_conjugator", ("calls", "self_s")),
    ("normal_form.normalize", ("calls", "self_s")),
    ("normal_form.multiply", ("calls", "self_s")),
    ("normal_form.invert", ("calls", "self_s")),
    ("normal_form.conjugate", ("calls", "self_s")),
    ("normal_form.nf_key", ("calls", "self_s")),
)


def import_fresh():
    """Import braidmscp from this checkout, executing its modules anew."""
    for name in [n for n in sys.modules if n == "braidmscp" or n.startswith("braidmscp.")]:
        del sys.modules[name]
    bm = importlib.import_module("braidmscp")
    importlib.import_module("braidmscp.cli")
    return bm


def setup(workload, scratch: Path):
    start = time.perf_counter()
    bm = import_fresh()
    cases = workload.build(bm, scratch)
    return bm, cases, time.perf_counter() - start


def reference_loop() -> int:
    """Fixed work like the solver's: small tuples, dict traffic and a sort."""
    table = {}
    total = 0
    for i in range(3000):
        key = (i, i ^ 5, i % 7)
        table[key] = table.get(key, 0) + 1
        total += len(key) + (i * 31) % 17
    return total + len(sorted(table, key=lambda k: k[1]))


def slowness() -> float:
    """The reference loop's time over REF_NOMINAL_S: 1.0 at nominal speed, 2.0 at half.

    The loop is timed on its second run, when its own data is in the CPU
    caches, so that the cache state the program left behind does not move
    it.  The collector is off meanwhile, so the program's garbage is never
    collected, and charged, inside the loop.
    """
    gc.disable()
    try:
        reference_loop()
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
    finally:
        gc.enable()
    return took / REF_NOMINAL_S


@dataclasses.dataclass
class Pass:
    rows: list  # one Row per instance, in order
    slowness: list[float]  # per instance, the mean of slowness() just before and after it


def run_pass(bm, workload, cases, caches, checking=contextlib.nullcontext, keep_graph=None) -> Pass:
    """Every instance once, in order, starting from cold caches."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    rows, samples = [], [slowness()]
    with contextlib.redirect_stdout(io.StringIO()):  # the verify CLI prints its verdicts
        for case in cases:
            rows.append(workload.run(bm, workload, case, checking, keep_graph))
            samples.append(slowness())
    return Pass(rows, [statistics.fmean(pair) for pair in zip(samples, samples[1:])])


def repeat(seconds: float, one_pass) -> list:
    """Results of one_pass() called until --seconds leave no room for another."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return results


def latencies(passes) -> list[float]:
    """Every instance's latency in every pass, scaled to nominal speed, sorted."""
    return sorted(r.latency / s for p in passes for r, s in zip(p.rows, p.slowness))


def pass_time(passes, field: str = "latency", scaled: bool = True) -> float:
    """The median over the passes of one pass's summed `field`.

    With "latency" this is the time a pass spent inside the pipeline, from
    the first instance to the last, less the benchmark's own checks and
    reference loops between instances.
    """
    return statistics.median(
        sum(getattr(r, field) / (s if scaled else 1.0) for r, s in zip(p.rows, p.slowness))
        for p in passes
    )


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def measure(workload, seconds: float, scratch: Path):
    """End-to-end metrics, tracing off."""
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = slowness()
        bm, cases, took = setup(workload, scratch)
        raw_setups.append(took)
        setups.append(took / statistics.fmean((before, slowness())))
    caches = package_caches(bm)
    passes = repeat(seconds, lambda: run_pass(bm, workload, cases, caches))
    rows = [row for p in passes for row in p.rows]
    samples = latencies(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": pass_time(passes),
        "latency_ms_p50": percentile(samples, 50) * 1e3,
        "latency_ms_p95": percentile(samples, 95) * 1e3,
        "correct_frac": sum(row.correct for row in rows) / len(rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{len(passes)} pass(es) of {len(cases)} instances; latency samples {len(samples)}; "
        f"set-ups {len(setups)}",
        f"median slowness per pass {' '.join(f'{statistics.median(p.slowness):.3f}' for p in passes)}; "
        "unscaled medians: "
        f"setup_s {statistics.median(raw_setups):.6f}, wall_s {pass_time(passes, scaled=False):.6f}",
    ]
    return metrics, [(f"pass{i}", p) for i, p in enumerate(passes)], notes


def measure_traced(workload, seed: int, seconds: float, scratch: Path):
    """Per-layer metrics, from untraced and traced passes in turn for --seconds.

    The tracing overhead is the median traced pass time less the median
    untraced one, as `measure` takes wall_s.
    """
    bm = import_fresh()
    caches = package_caches(bm)
    tracer = Tracer(
        bm,
        [name for name, _ in SPAN_METRICS],
        {name for name, fields in SPAN_METRICS if "bytes" in fields},
    )
    tracer.install()
    try:
        cases = workload.build(bm, scratch)
    finally:
        tracer.uninstall()
    at_setup = {name: span.values() for name, span in tracer.stats.items()}

    largest = []

    def keep_graph(graph):
        if not largest or len(graph.nodes) > len(largest[0].nodes):
            largest[:] = [graph]

    gc_clock = GcClock()  # on the untraced passes, so the tracer's garbage does not count

    def pair():
        with gc_clock:
            untraced = run_pass(bm, workload, cases, caches)
        tracer.install()
        try:
            return untraced, run_pass(bm, workload, cases, caches, tracer.paused, keep_graph)
        finally:
            tracer.uninstall()

    untraced, traced = map(list, zip(*repeat(seconds, pair)))

    def shape(row):
        return row.outcome, row.nodes, row.nodes_expanded, row.conjugations

    first = untraced[0].rows
    mismatches = sum(
        shape(row) != shape(ref) for p in untraced[1:] + traced for row, ref in zip(p.rows, first)
    )

    # Span figures are those of one set-up plus one pass.
    passes = len(traced)
    metrics = {}
    for name, fields in SPAN_METRICS:
        setup_part = at_setup[name]
        values = {
            field: setup_part[field] + (total - setup_part[field]) / passes
            for field, total in tracer.stats[name].values().items()
        }
        for field in fields:
            metrics[f"{name}.{field}"] = values[field]
    nodes = sum(row.nodes for row in first)
    expanded = sum(row.nodes_expanded for row in first)
    conjugations = sum(row.conjugations for row in first)
    new_nodes = sum(row.nodes - 1 for row in first if row.nodes)
    search_s = pass_time(untraced, "search_s")
    metrics.update({
        "solver.nodes": nodes,
        "solver.nodes_expanded": expanded,
        "solver.conjugations": conjugations,
        "solver.moves_per_node": conjugations / expanded if expanded else 0.0,
        "solver.new_node_ratio": new_nodes / conjugations if conjugations else 0.0,
        "solver.nodes_per_s": nodes / search_s if search_s else 0.0,
        "solver.graph_bytes_per_node": (
            deep_sizeof(largest[0]) / len(largest[0].nodes) if largest else 0.0
        ),
        "runtime.gc_s": gc_clock.seconds / len(untraced),
        "runtime.gc_collections": gc_clock.collections / len(untraced),
        "runtime.host_slowness": statistics.median(s for p in untraced + traced for s in p.slowness),
        "trace.overhead_s": pass_time(traced) - pass_time(untraced),
    })
    forms = [bm.normalize(w) for case in cases[:PROBE_CASES] for w in case.alpha]
    metrics.update(braid_probe(bm, forms, seed))
    notes = [
        f"{passes} untraced and {passes} traced pass(es) of {len(cases)} instances; "
        f"{mismatches} results differ from the first pass in outcome or counts",
        f"largest graph: {len(largest[0].nodes) if largest else 0} nodes",
    ]
    labelled = []
    for i, (u, t) in enumerate(zip(untraced, traced)):
        labelled += [(f"untraced{i}", u), (f"traced{i}", t)]
    return metrics, labelled, notes, mismatches


def write_rows(path: Path, labelled) -> None:
    """One line per instance and pass; latency_ms is unscaled."""
    lines = ["pass\tworkload\tseed\tn\tr\toutcome\tnodes\tconjugations\tlatency_ms\tslowness"]
    lines.extend(
        f"{label}\t{r.workload}\t{r.seed}\t{r.n}\t{r.r}\t{r.outcome}\t{r.nodes}\t"
        f"{r.conjugations}\t{r.latency * 1e3:.4f}\t{s:.4f}"
        for label, p in labelled
        for r, s in zip(p.rows, p.slowness)
    )
    path.write_text("\n".join(lines) + "\n")


def use_checkout_source() -> bool:
    """Put this checkout's src/ first on the import path; False if it is missing."""
    if not (SRC / "braidmscp" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def run(workload, seed: int, seconds: float, trace: int):
    """One run: the result object of the last output line, and the lines before it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{workload.name}-{os.getpid()}"
    try:
        if trace:
            metrics, labelled, notes, mismatches = measure_traced(workload, seed, seconds, scratch)
        else:
            metrics, labelled, notes = measure(workload, seconds, scratch)
            mismatches = 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(metrics) ^ set(units))}")

    rows_path = OUT / f"{workload.name}-seed{seed}-trace{trace}.tsv"
    write_rows(rows_path, labelled)
    rows = [r for _, p in labelled for r in p.rows]
    bm = sys.modules["braidmscp"]
    lines = [
        f"env python={platform.python_version()} nproc={os.cpu_count()} "
        f"machine={platform.machine()} braidmscp={bm.__version__}",
        f"workload {workload.name} seed {seed} trace {trace}; rows in {rows_path.relative_to(ROOT)}",
        *notes,
    ]
    wrong = [r for r in rows if r.problems]
    lines.extend(f"WRONG {r.workload} seed {r.seed}: {'; '.join(r.problems)}" for r in wrong)
    lines.extend(f"{name:40s} {metrics[name]:>16.6f} {unit}" for name, unit in units.items())
    result = {
        "correct": not wrong and not mismatches,
        "attempted": len(rows),
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_source():
        print(f"error: no braidmscp source under {SRC}", file=sys.stderr)
        return 2
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
