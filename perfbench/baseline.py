"""Record a baseline: every workload over several seeds, summarised per metric.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Each workload is run untraced once per seed (1..N) and traced once (seed 1),
each run in its own process, one after the other; a run with a wrong answer
stops it with an error.  For every end-to-end metric the output holds the
values, their median and quartiles, and the spread: the distance between the
quartiles as a share of the median.  It also records the environment and the
parameters of each workload, and prints the medians.
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

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def environment() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    ).stdout.strip() or "unknown"
    sys.path.insert(0, str(ROOT / "src"))
    import braidmscp

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "braidmscp_version": braidmscp.__version__,
    }


PARAMETERS = {
    "desk": {
        "instances": "corpus_params() of tests/test_acceptance.py",
        "master_seed": wl.DESK_MASTER_SEED,
        "count": wl.DESK_COUNT,
        "n": list(wl.DESK_N), "r": list(wl.DESK_R),
        "entry_length": list(wl.DESK_ENTRY_LEN), "conjugator_length": list(wl.DESK_CONJ_LEN),
        "node_budget": wl.NODE_BUDGET,
        "run_seed": "unused: a fixed corpus, run in corpus order",
    },
    "hard": {
        "points_n_r_entry_conj": [list(p) for p in wl.HARD_POINTS],
        "rung_conjugator_length": wl.HARD_RUNG_CONJ_LEN,
        "generator_seeds": list(wl.HARD_SEEDS),
        "node_budget": wl.NODE_BUDGET,
        "run_seed": "unused: a fixed set, tier instances first, then the rung",
    },
    "verify": {
        "count": wl.VERIFY_COUNT,
        "n": list(wl.VERIFY_N), "r": wl.VERIFY_R,
        "entry_length": wl.VERIFY_ENTRY_LEN, "key_length": wl.VERIFY_KEY_LEN,
        "tampered": "every second key; its beta's last entry gets one extra letter",
        "node_budget": None,
        "run_seed": "unused: key k always uses generator seed k",
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [one_run(name, seed, spec["run_seconds"], 0) for seed in range(1, args.seeds + 1)]
        traced = one_run(name, 1, spec["run_seconds"], 1)
        record["workloads"][name] = {
            "why": w["why"],
            "parameters": PARAMETERS[name],
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]
            },
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, fig in record["workloads"][name]["end_to_end"].items():
            spread = "-" if fig["spread"] is None else f"{fig['spread']:.3f}"
            print(f"{name:8s} {metric:16s} {fig['median']:14.4f} {fig['unit']:5s} spread {spread}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
