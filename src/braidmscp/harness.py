"""Random instance generation and attack runs against planted conjugators.

An instance is built the way the key-agreement setting produces them: sample
a public tuple alpha of random words and a secret word x, and publish
beta_i = x^-1 alpha_i x at word level.  The attack recovers some conjugator
x' and verifies it; x' need not equal x, because any element commuting with
every alpha_i can multiply into a valid solution.  Reports also record
whether the planted key itself conjugates alpha to beta, which is checked
with the same verifier as x'.

Instances are reproducible: the generator is Python's Mersenne Twister
(random.Random) seeded from GenParams.seed, and the RNG name, seed, and
parameters are pinned in the instance metadata.  Batch runs derive the trial
seed as seed + trial index.

Each letter is two draws, its sign and then its index, and each draw takes
one 32-bit MT19937 output through rng.getrandbits(k), with rejection: the
sign is getrandbits(2) drawn again while it is 2 or more, 0 meaning +1 and
1 meaning -1; the index is getrandbits(k) for k = (n-1).bit_length(), drawn
again while it is n-1 or more, plus 1.  That is the rule by which CPython
3.11's rng.choice((1, -1)) * rng.randint(1, n - 1) draws, so instances are
the ones it gave, and they no longer depend on how a Python release
implements choice and randint.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import statistics
import time
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .braid import BraidWord, check_int, word_concat, word_inverse
from .errors import InvalidParams
from .instance_io import InstanceFile
from .solver import (
    DEFAULT_NODE_CAP,
    ConjugatorResult,
    Outcome,
    solve_mscp,
    verify_conjugator,
)

RNG_NAME = "mt19937"


@dataclasses.dataclass(frozen=True)
class GenParams:
    """Sampling parameters for one instance family."""

    n: int
    r: int
    entry_length: int
    conjugator_length: int
    seed: int

    def __post_init__(self):
        # ints and not bools: True would reach the metadata
        for name, low in (("n", 2), ("r", 1), ("entry_length", 1), ("conjugator_length", 0), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.seed >= 2**64:
            raise InvalidParams("seed must fit in 64 bits")


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    """Uniform signed word: independent uniform sign and index per letter, drawn by the rule above.

    The inputs are checked before the first draw: with n < 2 there is no
    letter, and the index draw would never be accepted.
    """
    check_int("strand count", n, 2)
    check_int("length", length, 0)
    bits, top = rng.getrandbits, n - 1
    k = top.bit_length()
    letters = [0] * length
    for j in range(length):
        sign = bits(2)
        while sign >= 2:
            sign = bits(2)
        i = bits(k)
        while i >= top:
            i = bits(k)
        letters[j] = -1 - i if sign else i + 1
    return BraidWord(n, tuple(letters))


def gen_instance(params: GenParams) -> tuple[InstanceFile, BraidWord]:
    """Sample an instance plus the planted conjugator, reproducibly from the seed."""
    rng = random.Random(params.seed)
    alpha = tuple(random_word(rng, params.n, params.entry_length) for _ in range(params.r))
    x = random_word(rng, params.n, params.conjugator_length)
    x_inv = word_inverse(x)
    beta = tuple(word_concat(x_inv, a, x) for a in alpha)
    metadata = (
        f"rng {RNG_NAME}",
        f"seed {params.seed}",
        f"params n={params.n} r={params.r} entry_len={params.entry_length} "
        f"conj_len={params.conjugator_length}",
    )
    return InstanceFile(params.n, alpha, beta, metadata), x


@dataclasses.dataclass
class AttackReport:
    """One attack; its outcome and counts are read from result, so each is stored once."""

    result: ConjugatorResult
    matches_planted: bool | None
    wall_time: float

    @property
    def recovered_ok(self) -> bool:
        return self.result.outcome is Outcome.FOUND

    @property
    def nodes(self) -> int:
        return len(self.result.graph.nodes)

    @property
    def conjugations(self) -> int:
        return self.result.counters.conjugations


def run_attack(
    inst: InstanceFile,
    planted: BraidWord | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> AttackReport:
    """Solve one instance and compare the result with a planted key.

    A found conjugator x' is verified once, by solve_mscp, which raises
    VerificationFailed rather than return one that fails; so
    x'^-1 alpha_i x' = beta_i for every i.  The planted key P matches x'
    when x' * P^-1 commutes with every alpha_i, and given the equations
    for x' that holds exactly when P^-1 alpha_i P = beta_i.  So the match
    is the verification of P itself, made only when x' was found.
    """
    alpha, beta = inst.tuples()
    start = time.perf_counter()
    result = solve_mscp(alpha, beta, node_cap)
    wall = time.perf_counter() - start
    matches = None
    if planted is not None and result.outcome is Outcome.FOUND:
        matches = verify_conjugator(alpha, beta, planted)
    return AttackReport(result=result, matches_planted=matches, wall_time=wall)


@dataclasses.dataclass
class PointStats:
    """Aggregated attack outcomes for one parameter point."""

    params: GenParams
    trials: int
    found: int
    matched: int
    median_nodes: float
    median_conjugations: float
    median_wall_time: float


class _Trial(NamedTuple):
    """One trial's outcome, small enough to send back from a worker process."""

    found: bool
    matched: bool
    nodes: int
    conjugations: int
    wall_time: float


def _run_trial(params: GenParams, node_cap: int) -> _Trial:
    inst, planted = gen_instance(params)
    rep = run_attack(inst, planted, node_cap)
    return _Trial(
        rep.recovered_ok, bool(rep.matches_planted), rep.nodes, rep.conjugations, rep.wall_time
    )


def _point_stats(params: GenParams, done: Sequence[_Trial]) -> PointStats:
    return PointStats(
        params=params,
        trials=len(done),
        found=sum(t.found for t in done),
        matched=sum(t.matched for t in done),
        median_nodes=statistics.median(t.nodes for t in done),
        median_conjugations=statistics.median(t.conjugations for t in done),
        median_wall_time=statistics.median(t.wall_time for t in done),
    )


def batch_stats(
    points: Iterable[GenParams],
    trials: int,
    node_cap: int = DEFAULT_NODE_CAP,
    jobs: int = 1,
) -> list[PointStats]:
    """Aggregate seeded attacks over a parameter sweep, order-stable by point.

    Trial k of a point uses seed + k.  With jobs > 1 the trials of all
    points are spread over a pool of worker processes, so a single point
    runs in parallel too; results come back in submission order and are
    aggregated per point.  The pool has at most one worker per CPU, since
    a spawn pool starts one per submitted task up to its size, whatever
    jobs asks for.
    """
    points = list(points)
    check_int("trials", trials, 0)
    check_int("jobs", jobs, 1)
    check_int("node_cap", node_cap, 1)
    if trials == 0:
        return []
    tasks = [dataclasses.replace(p, seed=p.seed + k) for p in points for k in range(trials)]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing  # only a parallel run pays for these imports
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("spawn")
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            done = list(pool.map(_run_trial, tasks, itertools.repeat(node_cap)))
    else:
        done = [_run_trial(t, node_cap) for t in tasks]
    return [_point_stats(p, done[i * trials:(i + 1) * trials]) for i, p in enumerate(points)]


REPORT_COLUMNS = (
    "n",
    "r",
    "entry_len",
    "conj_len",
    "seed",
    "trials",
    "found",
    "recovered",
    "matched",
    "median_nodes",
    "median_conj",
)


def format_report(rows: Sequence[PointStats], include_time: bool = False) -> str:
    """Tab-separated report with a header row.

    Wall-time medians are opt-in so that default output is byte-stable
    across repeated runs.
    """
    header = list(REPORT_COLUMNS) + (["median_ms"] if include_time else [])
    lines = ["\t".join(header)]
    for row in rows:
        p = row.params
        cells = [
            p.n, p.r, p.entry_length, p.conjugator_length, p.seed,
            # run_attack verifies every found conjugator, so each one is recovered
            row.trials, row.found, row.found, row.matched,
            f"{row.median_nodes:g}", f"{row.median_conjugations:g}",
        ]
        if include_time:
            cells.append(f"{row.median_wall_time * 1000:.1f}")
        lines.append("\t".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"
