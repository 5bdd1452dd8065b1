"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The solve corpus is a
fixed seeded family so every figure here is reproducible.
"""

import itertools
import math
import random
import statistics
import time

import pytest

from braidmscp import (
    BraidWord,
    GenParams,
    Outcome,
    conjugate_tuple,
    conjugation_keeps_floor,
    enumerate_simples,
    exponent_sum,
    gen_instance,
    generator_simple,
    inf_vector,
    lcm_complement,
    meet,
    meets_floor,
    minimal_conjugator_set,
    nf_of_simple,
    multiply,
    normalize,
    parse_instance,
    run_attack,
    simple_divides,
    simple_from_positive_word,
    simple_prefix_of_positive,
    solve_mscp,
    summit_search,
    tuple_from_words,
    tuple_key,
    verify_conjugator,
    word_concat,
    word_inverse,
    write_instance,
)
from braidmscp.cli import main as cli_main

from test_normal_form import braid_rewrites


def record(num: int, ok: bool, desc: str):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    print(line)
    assert ok, line


def rand_word(rng, n, max_len, min_len=0):
    length = rng.randint(min_len, max_len)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


def rand_tuple(rng, max_n, max_r, max_len):
    n = rng.randint(2, max_n)
    r = rng.randint(1, max_r)
    return tuple_from_words(n, [rand_word(rng, n, max_len) for _ in range(r)])


# --------------------------------------------------------------------------
# Shared solve corpus: 200 instances drawn uniformly over the desk-scale box
# n in 2..5, r in 1..3, entry length 1..8, conjugator length 0..6.
# --------------------------------------------------------------------------

CORPUS_MASTER_SEED = 20260811


def corpus_params(count=200):
    master = random.Random(CORPUS_MASTER_SEED)
    out = []
    for k in range(count):
        out.append(
            GenParams(
                n=master.randint(2, 5),
                r=master.randint(1, 3),
                entry_length=master.randint(1, 8),
                conjugator_length=master.randint(0, 6),
                seed=k,
            )
        )
    return out


@pytest.fixture(scope="module")
def solve_corpus_reports():
    reports = []
    for params in corpus_params():
        inst, planted = gen_instance(params)
        reports.append((params, run_attack(inst, planted)))
    return reports


def test_criterion_1_simple_census():
    start = time.perf_counter()
    ok = all(len(enumerate_simples(n)) == math.factorial(n) for n in (2, 3, 4, 5))
    elapsed = time.perf_counter() - start
    record(1, ok and elapsed < 1.0, f"simple census n=2..5 in {elapsed * 1000:.0f}ms")


def test_criterion_2_minimal_set_bound():
    rng = random.Random(1002)
    violations = 0
    for _ in range(1000):
        t = rand_tuple(rng, max_n=8, max_r=4, max_len=12)
        s = minimal_conjugator_set(t, inf_vector(t))
        if not 1 <= len(s) <= t.n - 1:
            violations += 1
    record(2, violations == 0, f"1000 minimal sets within the n-1 bound, {violations} violations")


def test_criterion_3_gcd_closure():
    rng = random.Random(1003)
    violations = 0
    for _ in range(500):
        t = rand_tuple(rng, max_n=5, max_r=3, max_len=8)
        floor = inf_vector(t)
        good = [s for s in enumerate_simples(t.n) if conjugation_keeps_floor(s, t, floor)]
        s1, s2 = rng.choice(good), rng.choice(good)
        if not conjugation_keeps_floor(meet(s1, s2), t, floor):
            violations += 1
    record(3, violations == 0, f"500 meet-closure trials, {violations} violations")


def test_criterion_4_brute_force_oracle_equivalence():
    rng = random.Random(1004)
    mismatches = 0
    for _ in range(100):
        t = rand_tuple(rng, max_n=4, max_r=3, max_len=8)
        floor = inf_vector(t)
        good = [
            s
            for s in enumerate_simples(t.n)
            if not s.is_identity() and meets_floor(conjugate_tuple(t, s), floor)
        ]
        minimal = {
            s for s in good if not any(o != s and simple_divides(o, s) for o in good)
        }
        if set(minimal_conjugator_set(t, floor)) != minimal:
            mismatches += 1
    record(4, mismatches == 0, f"100 exhaustive oracle comparisons, {mismatches} mismatches")


def test_criterion_5_worked_fixture():
    alpha = tuple_from_words(3, [BraidWord(3, (1,))])
    beta = tuple_from_words(3, [BraidWord(3, (2,))])
    s = minimal_conjugator_set(alpha, (0,))
    expected = {generator_simple(3, 1), simple_from_positive_word(BraidWord(3, (2, 1)))}
    res = summit_search(alpha, beta, (0,))
    solved = solve_mscp(alpha, beta)
    # beta = tau(alpha), so both answer at their root with the half twist
    ok = (
        set(s) == expected
        and len(res.graph.nodes) == 1
        and res.outcome is Outcome.FOUND
        and res.conjugator.letters == (1, 2, 1)
        and solved.outcome is Outcome.FOUND
        and solved.conjugator == res.conjugator
        and verify_conjugator(alpha, beta, solved.conjugator)
    )
    record(5, ok, "worked 3-strand fixture: minimal set, flip met at the root, verified conjugator")


def test_criterion_6_round_trip_solving(solve_corpus_reports):
    failures = 0
    aborts = 0
    times = []
    for params, report in solve_corpus_reports:
        times.append(report.wall_time)
        if report.result.outcome is Outcome.ABORTED:
            aborts += 1
        if report.result.outcome is not Outcome.FOUND or not report.recovered_ok:
            failures += 1
    median = statistics.median(times)
    ok = failures == 0 and aborts == 0 and median < 5.0
    record(
        6,
        ok,
        f"{len(times)} seeded solves: {failures} failures, {aborts} aborts, "
        f"median {median * 1000:.0f}ms",
    )


def non_conjugacy_instances():
    """Criterion 7's 20 instances, (n, alpha words, beta words) each.

    beta is a planted conjugate of alpha with one letter appended to its
    first entry, so the exponent sums differ and no conjugator exists.
    """
    rng = random.Random(1007)
    for _ in range(20):
        n = rng.randint(2, 4)
        r = rng.randint(1, 2)
        alpha_words = [rand_word(rng, n, 4, min_len=1) for _ in range(r)]
        x = rand_word(rng, n, 3)
        beta_words = [word_concat(word_inverse(x), w, x) for w in alpha_words]
        beta_words[0] = word_concat(beta_words[0], BraidWord(n, (1,)))
        yield n, alpha_words, beta_words


def test_criterion_7_non_conjugacy(tmp_path):
    fixture = parse_instance("n 3\nr 1\nalpha 1\nbeta 1 1 1\n")
    res = run_attack(fixture)
    ok = res.result.outcome is Outcome.NOT_CONJUGATE

    path = tmp_path / "nc.inst"
    path.write_text(write_instance(fixture))
    ok = ok and cli_main(["solve", str(path)]) == 1

    for n, alpha_words, beta_words in non_conjugacy_instances():
        result = solve_mscp(
            tuple_from_words(n, alpha_words), tuple_from_words(n, beta_words)
        )
        diff = exponent_sum(beta_words[0]) - exponent_sum(alpha_words[0])
        if result.outcome is not Outcome.NOT_CONJUGATE or diff == 0:
            ok = False
    record(7, ok, "fixture and 20 exponent-sum-mismatched instances all NOT CONJUGATE (exit 1)")


def test_criterion_8_efficiency_witness(solve_corpus_reports):
    economical = True
    for params, report in solve_corpus_reports:
        counters = report.result.counters
        if counters.set_size_max > params.n - 1:
            economical = False
        if counters.nodes_expanded:
            if counters.conjugations / counters.nodes_expanded > params.n - 1:
                economical = False

    # control: a naive expander that conjugates by all n! simple elements
    rng = random.Random(1008)
    t = tuple_from_words(5, [rand_word(rng, 5, 4, min_len=1)])
    floor = inf_vector(t)
    simples = enumerate_simples(5)
    seen = {tuple_key(t)}
    frontier = [t]
    naive_conjugations = 0
    naive_nodes = 0
    for _ in range(3):
        if not frontier:
            break
        node = frontier.pop(0)
        naive_nodes += 1
        for s in simples:
            naive_conjugations += 1
            neighbour = conjugate_tuple(node, s)
            if meets_floor(neighbour, floor):
                key = tuple_key(neighbour)
                if key not in seen:
                    seen.add(key)
                    frontier.append(neighbour)
    per_node = naive_conjugations / naive_nodes
    ok = economical and per_node >= 120
    record(
        8,
        ok,
        f"minimal sets do <= n-1 conjugations per node; naive control does {per_node:.0f}",
    )


def test_criterion_9_normal_form_uniqueness():
    rng = random.Random(1009)
    bad = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        w = rand_word(rng, n, 20)
        v = braid_rewrites(rng, w, rng.randint(1, 12))
        if normalize(w) != normalize(v):
            bad += 1
    for _ in range(500):
        n = rng.randint(2, 6)
        w = rand_word(rng, n, 20)
        if not normalize(word_concat(w, word_inverse(w))).is_identity():
            bad += 1
    record(9, bad == 0, f"500 rewrite pairs + 500 cancellations, {bad} mismatches")


def test_criterion_10_lcm_complement_contract():
    bad = 0
    for n in (2, 3, 4):
        simples = enumerate_simples(n)
        products = {}
        for a, b in itertools.product(simples, repeat=2):
            p = multiply(nf_of_simple(a), nf_of_simple(b))
            products[(p.power, p.factors)] = p
        for p in products.values():
            with_mult = {c: multiply(p, nf_of_simple(c)) for c in simples}
            for s in simples:
                c = lcm_complement(s, p)
                if not simple_prefix_of_positive(s, with_mult[c]):
                    bad += 1
                    continue
                for cand in simples:
                    if simple_prefix_of_positive(s, with_mult[cand]):
                        if not simple_divides(c, cand):
                            bad += 1
    record(10, bad == 0, f"exhaustive lcm-complement contract n<=4, {bad} violations")


def test_criterion_11_io_and_cli_contract(tmp_path, capsys):
    corpus = [
        "n 3\nr 1\nalpha 1\nbeta 2\n",
        "n 3\nr 1\nalpha 1\nbeta 1 1 1\n",
        "# seed 5\n# rng mt19937\nn 4\nr 2\nalpha 1 -2 3\nalpha e\nbeta 3\nbeta -1\n",
        "n 2\nr 1\nalpha e\nbeta e\n",
        "n 3\nr 1\nalpha 1\nbeta -1\n",
    ]
    ok = True
    for text in corpus:
        if write_instance(parse_instance(text)) != text:
            ok = False

    seen_codes = set()
    worked = tmp_path / "w.inst"
    worked.write_text(corpus[0])
    nonconj = tmp_path / "nc.inst"
    nonconj.write_text(corpus[1])
    # not conjugate, with 2 tau-orbits in lifted alpha's search set
    capped = tmp_path / "cap.inst"
    capped.write_text(corpus[4])
    malformed = tmp_path / "bad.inst"
    malformed.write_text("n 3\nr 2\nalpha 1\nbeta 2\n")

    seen_codes.add(cli_main(["solve", str(worked)]))
    seen_codes.add(cli_main(["solve", str(nonconj)]))
    seen_codes.add(cli_main(["solve", str(capped), "--cap", "1"]))
    seen_codes.add(cli_main(["solve", str(malformed)]))
    seen_codes.add(cli_main(["verify", str(worked), "2 1"]))
    seen_codes.add(cli_main(["verify", str(worked), "1"]))
    seen_codes.add(cli_main(["nf", "-n", "3", "9"]))
    capsys.readouterr()
    ok = ok and seen_codes == {0, 1, 2, 3}
    record(11, ok, f"byte-exact corpus round trip; exit codes observed: {sorted(seen_codes)}")
