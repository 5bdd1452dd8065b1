"""The benchmark's workloads: how each builds its inputs and runs one instance.

Every workload is a closed loop with one caller in one process: an instance
is sent only after the previous one has returned.  All three are fixed
instance sets, so the run seed does not change them and run-to-run
differences are timing noise alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from collections.abc import Callable
from pathlib import Path

# Per-instance node budget of the searches of desk and hard.  Under the
# default cap (10**6 nodes) one desk pass takes about 70 s, 33 s of it seed
# 40 alone (128,690 nodes).  Under this budget a pass of either workload
# takes 4-5 s, so a 30 s run repeats it 5-6 times.
NODE_BUDGET = 1_000

# desk: the 200-instance solve corpus of tests/test_acceptance.py.  Under the
# budget 11 instances abort (seeds 33, 40, 58, 59, 60, 84, 87, 129, 130, 160,
# 176).
DESK_MASTER_SEED = 20260811
DESK_COUNT = 200
DESK_N = (2, 5)  # inclusive ranges, drawn in this order
DESK_R = (1, 3)
DESK_ENTRY_LEN = (1, 8)
DESK_CONJ_LEN = (0, 6)

# hard: the (n, r, entry_length, conjugator_length) tier of ROADMAP item 1,
# generator seeds 0-2, plus a rung with the same alphas and a one-letter
# planted key.  Today 6 of the 9 rung instances and none of the tier are
# solved within the budget, so correct_frac reads 1/3 instead of 0 and rises
# as the search climbs the ladder.
HARD_POINTS = ((6, 2, 10, 8), (7, 2, 12, 10), (8, 3, 16, 12))
HARD_SEEDS = (0, 1, 2)
HARD_RUNG_CONJ_LEN = 1

# verify: planted keys checked in the shape of `braidmscp verify`; key k
# uses generator seed k.
VERIFY_COUNT = 200
VERIFY_N = (4, 5, 6, 7, 8)
VERIFY_R = 3
VERIFY_ENTRY_LEN = 128
VERIFY_KEY_LEN = 64


@dataclasses.dataclass(frozen=True)
class AttackCase:
    inst: object  # InstanceFile
    planted: object  # BraidWord
    seed: int  # generator seed

    @property
    def alpha(self):
        return self.inst.alpha


@dataclasses.dataclass(frozen=True)
class VerifyCase:
    n: int
    seed: int
    alpha: tuple  # BraidWords
    argv: tuple[str, ...]
    expected_exit: int


@dataclasses.dataclass
class Row:
    """One instance's result, as written to the per-instance table."""

    workload: str
    seed: int
    n: int
    r: int
    outcome: str
    nodes: int
    nodes_expanded: int
    conjugations: int
    latency: float  # the whole pipeline of the instance
    search_s: float  # the solve alone, as timed by run_attack
    correct: bool
    problems: tuple[str, ...] = ()


def desk_params(bm):
    """The acceptance corpus, generated exactly as corpus_params() in the tests."""
    master = random.Random(DESK_MASTER_SEED)
    return [
        bm.GenParams(
            n=master.randint(*DESK_N),
            r=master.randint(*DESK_R),
            entry_length=master.randint(*DESK_ENTRY_LEN),
            conjugator_length=master.randint(*DESK_CONJ_LEN),
            seed=k,
        )
        for k in range(DESK_COUNT)
    ]


def hard_params(bm):
    rungs = [(n, r, entry_len, HARD_RUNG_CONJ_LEN) for n, r, entry_len, _ in HARD_POINTS]
    return [bm.GenParams(*point, seed) for point in (*HARD_POINTS, *rungs) for seed in HARD_SEEDS]


def build_attack_cases(bm, params) -> list[AttackCase]:
    return [AttackCase(*bm.harness.gen_instance(p), p.seed) for p in params]


def run_attack_case(bm, workload, case: AttackCase, checking=contextlib.nullcontext, keep_graph=None) -> Row:
    """write -> parse -> run_attack -> counters_report -> export_graph, then check it.

    Only the pipeline is timed; the checks run after the clock stops, inside
    the `checking` context.
    """
    budget = workload.budget
    io = bm.instance_io
    start = time.perf_counter()
    text = io.write_instance(case.inst)
    inst = io.parse_instance(text)
    report = bm.harness.run_attack(inst, case.planted, node_cap=budget)
    counters = io.counters_report(report.result.graph)
    edges = io.export_graph(report.result.graph)
    latency = time.perf_counter() - start
    if keep_graph is not None:
        keep_graph(report.result.graph)
    with checking():
        problems = check_attack(bm, case, inst, report, counters, edges, budget)
    outcome = report.result.outcome
    return Row(
        workload=workload.name,
        seed=case.seed,
        n=case.inst.n,
        r=case.inst.r,
        outcome=outcome.name,
        nodes=report.nodes,
        nodes_expanded=report.result.counters.nodes_expanded,
        conjugations=report.conjugations,
        latency=latency,
        search_s=report.wall_time,
        correct=not problems and outcome is bm.Outcome.FOUND,
        problems=problems,
    )


def check_attack(bm, case, inst, report, counters, edges, budget) -> tuple[str, ...]:
    """Wrong answers and malformed outputs of one attack; () when all is right.

    A planted instance is conjugate by construction, so NOT_CONJUGATE is
    wrong, and a FOUND conjugator is verified again here on the original
    words.  ABORTED is not wrong, but it is not correct either.
    """
    problems = []
    if inst != case.inst:
        problems.append("instance text does not round-trip")
    outcome = report.result.outcome
    if outcome is bm.Outcome.FOUND:
        alpha = bm.tuple_from_words(case.inst.n, case.inst.alpha)
        beta = bm.tuple_from_words(case.inst.n, case.inst.beta)
        if not (report.recovered_ok and bm.verify_conjugator(alpha, beta, report.result.conjugator)):
            problems.append("FOUND conjugator fails verification")
    elif outcome is bm.Outcome.NOT_CONJUGATE:
        problems.append("planted instance reported not conjugate")
    elif report.nodes != budget:
        problems.append(f"aborted at {report.nodes} nodes, budget {budget}")
    if counters.splitlines()[0] != f"nodes={report.nodes}":
        problems.append("counters report disagrees with the graph")
    if edges.count("\n") != report.nodes - 1:
        problems.append("edge list does not have one line per non-root node")
    return tuple(problems)


def build_verify_cases(bm, directory: Path) -> list[VerifyCase]:
    """Write the instance files; every second key meets a tampered beta.

    The tampered beta gets one extra letter on its last entry.  That changes
    the entry's exponent sum, a conjugacy invariant, so the right verdict is
    "invalid" (exit 1) by construction.
    """
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for k in range(VERIFY_COUNT):
        n = VERIFY_N[k % len(VERIFY_N)]
        params = bm.GenParams(n, VERIFY_R, VERIFY_ENTRY_LEN, VERIFY_KEY_LEN, k)
        inst, key = bm.harness.gen_instance(params)
        tampered = k % 2 == 1
        if tampered:
            last = bm.word_concat(inst.beta[-1], bm.BraidWord(n, (1,)))
            inst = dataclasses.replace(inst, beta=inst.beta[:-1] + (last,))
        path = directory / f"key{k:03d}.txt"
        path.write_text(bm.instance_io.write_instance(inst))
        argv = ("verify", str(path), bm.word_to_text(key))
        cases.append(VerifyCase(n, params.seed, inst.alpha, argv, 1 if tampered else 0))
    return cases


def run_verify_case(bm, workload, case: VerifyCase, checking=contextlib.nullcontext, keep_graph=None) -> Row:
    start = time.perf_counter()
    code = bm.cli.main(list(case.argv))
    latency = time.perf_counter() - start
    ok = code == case.expected_exit
    return Row(
        workload=workload.name,
        seed=case.seed,
        n=case.n,
        r=VERIFY_R,
        outcome={0: "valid", 1: "invalid"}.get(code, f"exit{code}"),
        nodes=0,
        nodes_expanded=0,
        conjugations=0,
        latency=latency,
        search_s=0.0,
        correct=ok,
        problems=() if ok else (f"exit code {code}, expected {case.expected_exit}",),
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    budget: int | None  # per-instance node budget of the search, if any
    build: Callable  # (bm, scratch directory) -> cases
    run: Callable  # (bm, workload, case, checking, keep_graph) -> Row


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            NODE_BUDGET,
            lambda bm, scratch: build_attack_cases(bm, desk_params(bm)),
            run_attack_case,
        ),
        Workload(
            "hard",
            NODE_BUDGET,
            lambda bm, scratch: build_attack_cases(bm, hard_params(bm)),
            run_attack_case,
        ),
        Workload("verify", None, build_verify_cases, run_verify_case),
    )
}
