import concurrent.futures
import dataclasses
import hashlib
import os
import random
import re

import pytest

import oracle
from braidmscp import (
    BraidTuple,
    BraidWord,
    GenParams,
    InstanceFile,
    InvalidParams,
    NormalForm,
    Outcome,
    SimpleElement,
    batch_stats,
    gen_instance,
    generator_simple,
    inf_vector,
    meets_floor,
    minimal_conjugator,
    minimal_conjugator_set,
    parse_instance,
    run_attack,
    solve_mscp,
    summit_search,
    tuple_from_words,
    word_from_text,
    verify_conjugator,
    word_concat,
    word_inverse,
    word_to_text,
    write_instance,
)
from braidmscp.harness import format_report, random_word
from test_acceptance import corpus_params


def desk_params(**overrides):
    base = dict(n=3, r=1, entry_length=4, conjugator_length=3, seed=7)
    base.update(overrides)
    return GenParams(**base)


class TestGenInstance:
    def test_deterministic(self):
        a1, x1 = gen_instance(desk_params())
        a2, x2 = gen_instance(desk_params())
        assert a1 == a2 and x1 == x2
        assert write_instance(a1) == write_instance(a2)

    def test_seed_changes_output(self):
        a1, _ = gen_instance(desk_params(seed=1))
        a2, _ = gen_instance(desk_params(seed=2))
        assert a1 != a2

    def test_zero_conjugator(self):
        inst, x = gen_instance(desk_params(conjugator_length=0))
        assert x.letters == ()
        assert inst.alpha == inst.beta

    def test_beta_is_word_level_conjugate(self):
        inst, x = gen_instance(desk_params())
        for a, b in zip(inst.alpha, inst.beta):
            assert b == word_concat(word_inverse(x), a, x)

    def test_metadata_pins_rng(self):
        inst, _ = gen_instance(desk_params())
        assert inst.metadata[0] == "rng mt19937"
        assert any(m.startswith("seed ") for m in inst.metadata)
        assert parse_instance(write_instance(inst)) == inst

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            GenParams(n=1, r=1, entry_length=1, conjugator_length=0, seed=0)
        with pytest.raises(InvalidParams):
            GenParams(n=3, r=0, entry_length=1, conjugator_length=0, seed=0)
        with pytest.raises(InvalidParams):
            GenParams(n=3, r=1, entry_length=0, conjugator_length=0, seed=0)
        with pytest.raises(InvalidParams):
            GenParams(n=3, r=1, entry_length=1, conjugator_length=-1, seed=0)
        # every parameter is an int and not a bool: True would reach the metadata
        with pytest.raises(InvalidParams, match="r must be an integer, got True"):
            GenParams(4, True, 3, 2, 0)
        with pytest.raises(InvalidParams, match="entry_length must be an integer, got 3.0"):
            GenParams(4, 2, 3.0, 2, 0)
        with pytest.raises(InvalidParams):
            batch_stats([desk_params()], trials=1, jobs=0)
        with pytest.raises(InvalidParams):
            batch_stats([desk_params()], trials=0, node_cap=0)
        for bad in (dict(trials=1.5), dict(trials=True), dict(trials=1, jobs=1.5)):
            with pytest.raises(InvalidParams):
                batch_stats([desk_params()], **bad)

    def test_random_word_length_and_range(self):
        rng = random.Random(0)
        w = random_word(rng, 4, 50)
        assert len(w.letters) == 50
        assert all(1 <= abs(e) <= 3 for e in w.letters)


class _NoDraws(random.Random):
    """A generator that fails on its first draw, so a missing input check cannot loop."""

    def getrandbits(self, k):
        raise AssertionError("drew before checking the inputs")


class TestRandomWord:
    def test_stream_matches_the_stdlib_reference(self):
        # the same letters, and the generator left in the same state
        for n in range(2, 13):
            for seed in range(200):
                for length in (0, 1, 7, 64, 128):
                    rng, ref = random.Random(seed), random.Random(seed)
                    assert random_word(rng, n, length).letters == oracle.ref_random_word(ref, n, length)
                    assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", [1, 0, -3, True, 2.0, "4"])
    def test_bad_strand_count_raises_before_drawing(self, n):
        # n = 1 leaves no letter to draw; the index draw would never be accepted
        with pytest.raises(InvalidParams, match="strand count"):
            random_word(_NoDraws(0), n, 3)

    @pytest.mark.parametrize("length", [-1, 1.5, True, "3", None])
    def test_bad_length_raises_before_drawing(self, length):
        want = "length must be at least 0, got -1" if length == -1 else f"length must be an integer, got {length!r}"
        with pytest.raises(InvalidParams) as exc:
            random_word(_NoDraws(0), 4, length)
        assert str(exc.value) == want

    # sha256 of the instance and planted-key text of the perfbench inputs
    # (the 200 desk params, the 18 hard ones and verify's first 20), as the
    # stdlib's choice and randint drew them
    INSTANCE_DIGEST = "be4b3b213b5ec6b86a19f037a2680a967e50b0c4aea8e2f84f2048148a2197e6"

    def test_benchmark_instances_are_unchanged(self):
        points = ((6, 2, 10, 8), (7, 2, 12, 10), (8, 3, 16, 12))
        hard = [
            GenParams(n, r, entry_len, conj_len, seed)
            for n, r, entry_len, conj_len in (*points, *((n, r, e, 1) for n, r, e, _ in points))
            for seed in range(3)
        ]
        verify = [GenParams((4, 5, 6, 7, 8)[k % 5], 3, 128, 64, k) for k in range(20)]
        digest = hashlib.sha256()
        for params in (*corpus_params(), *hard, *verify):
            inst, key = gen_instance(params)
            digest.update(write_instance(inst).encode())
            digest.update(f"key {word_to_text(key)}\n".encode())
        assert digest.hexdigest() == self.INSTANCE_DIGEST


class TestRunAttack:
    def test_worked_instance(self):
        inst = parse_instance("n 3\nr 1\nalpha 1\nbeta 2\n")
        report = run_attack(inst, planted=BraidWord(3, (2, 1)))
        assert report.result.outcome is Outcome.FOUND
        assert report.recovered_ok
        assert report.matches_planted
        assert report.nodes == 1  # the lift chains meet
        assert report.wall_time >= 0

    def test_wrong_planted_key(self):
        # sigma_1 commutes with alpha = sigma_1, so it does not take it to beta
        inst = parse_instance("n 3\nr 1\nalpha 1\nbeta 2\n")
        report = run_attack(inst, planted=BraidWord(3, (1,)))
        assert report.result.outcome is Outcome.FOUND
        assert report.recovered_ok
        assert report.matches_planted is False

    def test_non_conjugate(self):
        inst = parse_instance("n 3\nr 1\nalpha 1\nbeta 1 1 1\n")
        report = run_attack(inst)
        assert report.result.outcome is Outcome.NOT_CONJUGATE
        assert not report.recovered_ok
        assert report.matches_planted is None

    def test_cap_abort(self):
        # not conjugate, with 2 tau-orbits in lifted alpha's search set
        inst = parse_instance("n 3\nr 1\nalpha 1\nbeta -1\n")
        report = run_attack(inst, node_cap=1)
        assert report.result.outcome is Outcome.ABORTED
        assert not report.recovered_ok

    def test_centralizer_comparison(self):
        # recovered conjugator may differ from the planted one; the report
        # checks the conjugation action instead of word equality
        params = desk_params(n=4, r=2, entry_length=5, conjugator_length=4, seed=11)
        inst, planted = gen_instance(params)
        report = run_attack(inst, planted)
        assert report.recovered_ok and report.matches_planted
        alpha = tuple_from_words(inst.n, inst.alpha)
        beta = tuple_from_words(inst.n, inst.beta)
        assert verify_conjugator(alpha, beta, report.result.conjugator)
        assert verify_conjugator(alpha, beta, planted)
        y = word_concat(report.result.conjugator, word_inverse(planted))
        assert verify_conjugator(alpha, alpha, y)

    def test_seeded_batch_all_recover(self):
        for seed in range(25):
            inst, planted = gen_instance(
                desk_params(n=2 + seed % 4, r=1 + seed % 3, entry_length=4, conjugator_length=3, seed=seed)
            )
            report = run_attack(inst, planted)
            assert report.result.outcome is Outcome.FOUND
            assert report.recovered_ok


class TestBatchStats:
    def test_single_point_matches_run_attack(self):
        params = desk_params()
        rows = batch_stats([params], trials=1)
        assert len(rows) == 1
        inst, planted = gen_instance(params)
        report = run_attack(inst, planted)
        assert rows[0].median_nodes == report.nodes
        assert rows[0].median_conjugations == report.conjugations
        assert rows[0].found == 1

    def test_sweep_rows(self):
        points = [desk_params(r=r) for r in (1, 2, 3)]
        rows = batch_stats(points, trials=2)
        assert [row.params.r for row in rows] == [1, 2, 3]
        assert all(row.trials == 2 for row in rows)

    def test_zero_trials(self):
        assert batch_stats([desk_params()], trials=0) == []

    def test_report_format(self):
        rows = batch_stats([desk_params()], trials=2)
        text = format_report(rows)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split("\t")
        assert header[0] == "n" and "median_nodes" in header
        assert "median_ms" not in header
        timed = format_report(rows, include_time=True)
        assert timed.splitlines()[0].endswith("median_ms")

    def test_report_deterministic(self):
        a = format_report(batch_stats([desk_params()], trials=3))
        b = format_report(batch_stats([desk_params()], trials=3))
        assert a == b

    def test_parallel_jobs_match_sequential(self):
        points = [desk_params(r=r, seed=40 + r) for r in (1, 2)]
        seq = format_report(batch_stats(points, trials=2, jobs=1))
        par = format_report(batch_stats(points, trials=2, jobs=2))
        assert seq == par

    def test_single_point_parallel_jobs_match_sequential(self):
        point = [desk_params(n=4, r=2, seed=60)]
        seq = format_report(batch_stats(point, trials=4, jobs=1))
        par = format_report(batch_stats(point, trials=4, jobs=2))
        assert seq == par

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, cpus, workers):
        # an in-process stand-in for the pool records its size, so no process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rows = batch_stats([desk_params()], trials=3, jobs=5000)
        assert sizes == [workers]
        assert format_report(rows) == format_report(batch_stats([desk_params()], trials=3))


class _Int(int):
    """An int subclass, refused like a bool wherever the package takes an integer."""


def _pair():
    t = tuple_from_words(3, [BraidWord(3, (1,))])
    return t, t


# every scalar integer input, as a call that takes the value under test
SCALAR_INTEGER_INPUTS = {
    "BraidWord n": lambda v: BraidWord(v, ()),
    "SimpleElement n": lambda v: SimpleElement(v, (0, 1)),
    "NormalForm n": lambda v: NormalForm(v, 0),
    "NormalForm power": lambda v: NormalForm(3, v),
    "BraidTuple n": lambda v: BraidTuple(v, _pair()[0].entries),
    "InstanceFile n": lambda v: InstanceFile(v, (BraidWord(3, (1,)),), (BraidWord(3, (1,)),)),
    "word_from_text n": lambda v: word_from_text("1", v),
    "random_word n": lambda v: random_word(_NoDraws(0), v, 1),
    "random_word length": lambda v: random_word(_NoDraws(0), 3, v),
    **{
        f"GenParams {field.name}": lambda v, name=field.name: dataclasses.replace(desk_params(), **{name: v})
        for field in dataclasses.fields(GenParams)
    },
    "solve_mscp node_cap": lambda v: solve_mscp(*_pair(), node_cap=v),
    "summit_search node_cap": lambda v: summit_search(*_pair(), inf_vector(_pair()[0]), node_cap=v),
    "generator_simple index": lambda v: generator_simple(3, v),
    "minimal_conjugator index": lambda v: minimal_conjugator(v, _pair()[0], (0,)),
    "meets_floor floor entry": lambda v: meets_floor(_pair()[0], (v,)),
    "summit_search floor entry": lambda v: summit_search(*_pair(), (v,)),
    "minimal_conjugator_set floor entry": lambda v: minimal_conjugator_set(_pair()[0], (v,)),
    "batch_stats node_cap": lambda v: batch_stats([desk_params()], 1, node_cap=v),
    "batch_stats trials": lambda v: batch_stats([desk_params()], v),
    "batch_stats jobs": lambda v: batch_stats([desk_params()], 1, jobs=v),
}


@pytest.mark.parametrize("value", [True, 3.0, _Int(3)], ids=["bool", "float", "subclass"])
@pytest.mark.parametrize("name", SCALAR_INTEGER_INPUTS)
def test_scalar_integer_inputs_are_exact_ints(name, value):
    with pytest.raises(InvalidParams, match=f"must be an integer, got {re.escape(repr(value))}$"):
        SCALAR_INTEGER_INPUTS[name](value)

