"""Self-test of the benchmark: each workload's pipeline on two of its instances.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import dataclasses
import json
import math
import sys
from types import SimpleNamespace

import pytest

import run
from workloads import WORKLOADS, desk_params

if not run.use_checkout_source():
    pytest.skip("braidmscp source not found", allow_module_level=True)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def two_instances(workload):
    def build(bm, scratch):
        cases = workload.build(bm, scratch)
        return [cases[0], cases[-1]]

    return dataclasses.replace(workload, build=build)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, lines = run.run(two_instances(WORKLOADS[name]), seed=7, seconds=0, trace=trace)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == 2 * (1 + trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"] != ""
        assert math.isfinite(emitted["value"])


def test_times_are_scaled_by_the_slowness_around_each_instance():
    def one_pass(latencies, slowness):
        return run.Pass([SimpleNamespace(latency=x) for x in latencies], slowness)

    passes = [
        one_pass([1.0, 3.0], [1.0, 2.0]),
        one_pass([2.0, 1.0], [2.0, 1.0]),
        one_pass([3.0, 4.0], [1.0, 1.0]),
    ]
    assert run.latencies(passes) == [1.0, 1.0, 1.0, 1.5, 3.0, 4.0]
    assert run.pass_time(passes) == 2.5
    assert run.pass_time(passes, scaled=False) == 4.0
    assert 0 < run.slowness() < math.inf


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_desk_is_the_acceptance_corpus():
    sys.path.insert(0, str(run.ROOT / "tests"))
    test_acceptance = pytest.importorskip("test_acceptance")
    import braidmscp

    # Compared as tuples: the benchmark re-imports braidmscp, so the two
    # GenParams classes need not be the same object.
    ours = [dataclasses.astuple(p) for p in desk_params(braidmscp)]
    assert ours == [dataclasses.astuple(p) for p in test_acceptance.corpus_params()]
