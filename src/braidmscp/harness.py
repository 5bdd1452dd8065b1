"""Random instance generation and attack runs against planted conjugators.

An instance is built the way the key-agreement setting produces them: sample
a public tuple alpha of random words and a secret word x, and publish
beta_i = x^-1 alpha_i x at word level.  The attack recovers some conjugator
x' and verifies it; x' need not equal x, because any element commuting with
every alpha_i can multiply into a valid solution, so reports also record
whether x' * x^-1 centralizes alpha.

Instances are reproducible: the generator is Python's Mersenne Twister
(random.Random) seeded from GenParams.seed, and the RNG name, seed, and
parameters are pinned in the instance metadata.  Batch runs derive the trial
seed as seed + trial index.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from collections.abc import Iterable, Sequence

from .braid import BraidWord, word_concat, word_inverse
from .errors import InvalidParams
from .instance_io import InstanceFile
from .solver import (
    DEFAULT_NODE_CAP,
    ConjugatorResult,
    Outcome,
    solve_mscp,
    tuple_from_words,
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
        if self.n < 2:
            raise InvalidParams(f"n must be at least 2, got {self.n}")
        if self.r < 1:
            raise InvalidParams(f"r must be at least 1, got {self.r}")
        if self.entry_length < 1:
            raise InvalidParams(f"entry_length must be at least 1, got {self.entry_length}")
        if self.conjugator_length < 0:
            raise InvalidParams(f"conjugator_length must be non-negative, got {self.conjugator_length}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParams("seed must fit in 64 bits")


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    """Uniform signed word: independent uniform letter index and sign."""
    return BraidWord(
        n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    )


def gen_instance(params: GenParams) -> tuple[InstanceFile, BraidWord]:
    """Sample an instance plus the planted conjugator, reproducibly from the seed."""
    rng = random.Random(params.seed)
    alpha = tuple(random_word(rng, params.n, params.entry_length) for _ in range(params.r))
    x = random_word(rng, params.n, params.conjugator_length)
    beta = tuple(word_concat(word_inverse(x), a, x) for a in alpha)
    metadata = (
        f"rng {RNG_NAME}",
        f"seed {params.seed}",
        f"params n={params.n} r={params.r} entry_len={params.entry_length} "
        f"conj_len={params.conjugator_length}",
    )
    return InstanceFile(params.n, alpha, beta, metadata), x


@dataclasses.dataclass
class AttackReport:
    instance: InstanceFile
    planted: BraidWord | None
    result: ConjugatorResult
    recovered_ok: bool
    matches_planted: bool | None
    nodes: int
    conjugations: int
    wall_time: float


def run_attack(
    inst: InstanceFile,
    planted: BraidWord | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> AttackReport:
    """Solve one instance, verify the result, and compare with a planted key.

    The planted comparison tests the conjugation action, not word equality:
    the recovered x' matches up to centralizer freedom when x' * planted^-1
    commutes with every alpha entry.
    """
    alpha = tuple_from_words(inst.n, inst.alpha)
    beta = tuple_from_words(inst.n, inst.beta)
    start = time.perf_counter()
    result = solve_mscp(alpha, beta, node_cap)
    wall = time.perf_counter() - start
    recovered = result.outcome is Outcome.FOUND and verify_conjugator(
        alpha, beta, result.conjugator
    )
    matches = None
    if planted is not None and result.outcome is Outcome.FOUND:
        quotient = word_concat(result.conjugator, word_inverse(planted))
        matches = verify_conjugator(alpha, alpha, quotient)
    return AttackReport(
        instance=inst,
        planted=planted,
        result=result,
        recovered_ok=recovered,
        matches_planted=matches,
        nodes=len(result.graph.nodes),
        conjugations=result.counters.conjugations,
        wall_time=wall,
    )


@dataclasses.dataclass
class PointStats:
    """Aggregated attack outcomes for one parameter point."""

    params: GenParams
    trials: int
    found: int
    recovered: int
    matched: int
    median_nodes: float
    median_conjugations: float
    median_wall_time: float


def run_point(params: GenParams, trials: int, node_cap: int = DEFAULT_NODE_CAP) -> PointStats:
    """Run seeded trials at one parameter point; trial k uses seed + k."""
    reports = []
    for k in range(trials):
        trial_params = dataclasses.replace(params, seed=params.seed + k)
        inst, planted = gen_instance(trial_params)
        reports.append(run_attack(inst, planted, node_cap))
    return PointStats(
        params=params,
        trials=trials,
        found=sum(1 for rep in reports if rep.result.outcome is Outcome.FOUND),
        recovered=sum(1 for rep in reports if rep.recovered_ok),
        matched=sum(1 for rep in reports if rep.matches_planted),
        median_nodes=statistics.median(r.nodes for r in reports) if reports else 0.0,
        median_conjugations=statistics.median(r.conjugations for r in reports) if reports else 0.0,
        median_wall_time=statistics.median(r.wall_time for r in reports) if reports else 0.0,
    )


def batch_stats(
    points: Iterable[GenParams],
    trials: int,
    node_cap: int = DEFAULT_NODE_CAP,
    jobs: int = 1,
) -> list[PointStats]:
    """Aggregate seeded attacks over a parameter sweep, order-stable by point."""
    points = list(points)
    if trials < 0:
        raise InvalidParams("trials must be non-negative")
    if trials == 0:
        return []
    if jobs > 1 and len(points) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_point_task, [(p, trials, node_cap) for p in points]))
    return [run_point(p, trials, node_cap) for p in points]


def _run_point_task(task: tuple[GenParams, int, int]) -> PointStats:
    return run_point(*task)


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
            row.trials, row.found, row.recovered, row.matched,
            f"{row.median_nodes:g}", f"{row.median_conjugations:g}",
        ]
        if include_time:
            cells.append(f"{row.median_wall_time * 1000:.1f}")
        lines.append("\t".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"
