import random

import pytest

import oracle
from braidmscp import (
    DEFAULT_NODE_CAP,
    BraidWord,
    InvalidParams,
    LengthMismatch,
    NotInFloor,
    Outcome,
    SearchCounters,
    SimpleElement,
    StrandMismatch,
    SummitGraph,
    SummitNode,
    conjugate_tuple,
    conjugation_keeps_floor,
    delta,
    enumerate_simples,
    exponent_sum,
    gen_instance,
    generator_simple,
    inf_vector,
    meets_floor,
    minimal_conjugator,
    minimal_conjugator_set,
    nf_to_word,
    normalize,
    simple_divides,
    simple_from_positive_word,
    simple_to_word,
    solve_mscp,
    strand_permutation,
    summit_search,
    tuple_from_words,
    tuple_key,
    verify_conjugator,
    word_concat,
    word_inverse,
)
import braidmscp.normal_form as normal_form_module
import braidmscp.solver as solver_module
from braidmscp.braid import _DELTA, _IDENTITY, _SIMPLE
from braidmscp.solver import (
    _active_entries,
    _code_key,
    _entries_key,
    _floor_step,
    _lift_chain,
    _minimal_codes,
    _path,
)
from test_acceptance import corpus_params, non_conjugacy_instances


def words_tuple(n, *letter_lists):
    return tuple_from_words(n, [BraidWord(n, ls) for ls in letter_lists])


def rand_word(rng, n, max_len, min_len=0):
    length = rng.randint(min_len, max_len)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


def keeps_floor_by_full_conjugation(s, t, floor):
    """Oracle: conjugate every entry outright and compare infima."""
    return meets_floor(conjugate_tuple(t, s), floor)


class TestFloorBasics:
    def test_inf_vector(self):
        assert inf_vector(words_tuple(3, (1,), (2,))) == (0, 0)
        assert inf_vector(words_tuple(3, (1, -2))) == (-1,)
        d2 = word_concat(simple_to_word(delta(3)), simple_to_word(delta(3)))
        assert inf_vector(tuple_from_words(3, [d2])) == (2,)

    def test_meets_floor(self):
        t = words_tuple(3, (1,), (1, -2))
        assert meets_floor(t, (0, -1))
        assert meets_floor(t, (-5, -5))
        assert not meets_floor(t, (0, 0))
        assert meets_floor(t, inf_vector(t))
        with pytest.raises(LengthMismatch):
            meets_floor(t, (0,))

    def test_conjugate_tuple(self):
        t = words_tuple(3, (1,))
        assert conjugate_tuple(t, generator_simple(3, 1)).entries == t.entries
        s21 = simple_from_positive_word(BraidWord(3, (2, 1)))
        assert conjugate_tuple(t, s21) == words_tuple(3, (2,))
        td = conjugate_tuple(words_tuple(3, (1,), (2,)), delta(3))
        assert td == words_tuple(3, (2,), (1,))
        with pytest.raises(StrandMismatch):
            conjugate_tuple(t, generator_simple(4, 1))

    def test_tuple_key_distinguishes(self):
        t1, t2 = words_tuple(3, (1,)), words_tuple(3, (2,))
        assert tuple_key(t1) != tuple_key(t2)
        assert tuple_key(t1) == tuple_key(words_tuple(3, (1,)))


class TestKeepsFloor:
    def test_examples(self):
        t = words_tuple(3, (1,))
        assert conjugation_keeps_floor(delta(3), t, (0,))
        assert not conjugation_keeps_floor(generator_simple(3, 2), t, (0,))
        s21 = simple_from_positive_word(BraidWord(3, (2, 1)))
        assert conjugation_keeps_floor(s21, t, (0,))

    def test_requires_floor_membership(self):
        t = words_tuple(3, (1, -2))
        with pytest.raises(NotInFloor):
            conjugation_keeps_floor(delta(3), t, (0,))

    def test_against_full_conjugation_oracle(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(2, 5)
            r = rng.randint(1, 3)
            t = tuple_from_words(n, [rand_word(rng, n, 8) for _ in range(r)])
            floor = inf_vector(t)
            s = rng.choice(enumerate_simples(n))
            assert conjugation_keeps_floor(s, t, floor) == keeps_floor_by_full_conjugation(
                s, t, floor
            )

    def test_against_full_conjugation_at_larger_n(self):
        rng = random.Random(27)
        for _ in range(300):
            n = rng.randint(6, 8)
            t = tuple_from_words(n, [rand_word(rng, n, 16) for _ in range(rng.randint(1, 3))])
            floor = inf_vector(t)
            s = SimpleElement(n, tuple(rng.sample(range(n), n)))
            assert conjugation_keeps_floor(s, t, floor) == keeps_floor_by_full_conjugation(
                s, t, floor
            )

    def test_delta_always_keeps(self):
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(2, 5)
            t = tuple_from_words(n, [rand_word(rng, n, 8) for _ in range(rng.randint(1, 3))])
            assert conjugation_keeps_floor(delta(n), t, inf_vector(t))

    def test_closed_under_meet(self):
        from braidmscp import meet

        rng = random.Random(23)
        done = 0
        while done < 300:
            n = rng.randint(2, 5)
            t = tuple_from_words(n, [rand_word(rng, n, 8) for _ in range(rng.randint(1, 3))])
            floor = inf_vector(t)
            simples = enumerate_simples(n)
            good = [s for s in simples if conjugation_keeps_floor(s, t, floor)]
            s1, s2 = rng.choice(good), rng.choice(good)
            assert conjugation_keeps_floor(meet(s1, s2), t, floor)
            done += 1


class TestMinimalConjugators:
    def test_worked_example(self):
        t = words_tuple(3, (1,))
        assert minimal_conjugator(1, t, (0,)) == generator_simple(3, 1)
        expected = simple_from_positive_word(BraidWord(3, (2, 1)))
        assert minimal_conjugator(2, t, (0,)) == expected
        s = minimal_conjugator_set(t, (0,))
        assert s == [generator_simple(3, 1), expected]

    def test_half_twist_entry(self):
        td = tuple_from_words(3, [simple_to_word(delta(3))])
        # on-floor entry forces flip-invariance, so only the half twist works
        assert minimal_conjugator_set(td, (1,)) == [delta(3)]
        # one below the floor nothing is constrained
        assert minimal_conjugator_set(td, (0,)) == [
            generator_simple(3, 1),
            generator_simple(3, 2),
        ]

    def test_all_entries_above_floor_gives_generators(self):
        t = words_tuple(4, (1, 2, 3))
        floor = tuple(j - 1 for j in inf_vector(t))
        assert minimal_conjugator_set(t, floor) == [
            generator_simple(4, i) for i in (1, 2, 3)
        ]

    def test_index_validation(self):
        t = words_tuple(3, (1,))
        with pytest.raises(InvalidParams):
            minimal_conjugator(0, t, (0,))
        with pytest.raises(InvalidParams):
            minimal_conjugator(3, t, (0,))

    def test_bound_and_membership_random(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(2, 6)
            r = rng.randint(1, 3)
            t = tuple_from_words(n, [rand_word(rng, n, 10) for _ in range(r)])
            floor = inf_vector(t)
            s = minimal_conjugator_set(t, floor)
            assert 1 <= len(s) <= n - 1
            for elem in s:
                assert conjugation_keeps_floor(elem, t, floor)

    def test_equals_brute_force_minima(self):
        rng = random.Random(25)
        for _ in range(120):
            n = rng.randint(2, 4)
            r = rng.randint(1, 3)
            t = tuple_from_words(n, [rand_word(rng, n, 8) for _ in range(r)])
            floor = inf_vector(t)
            good = [
                s
                for s in enumerate_simples(n)
                if not s.is_identity() and keeps_floor_by_full_conjugation(s, t, floor)
            ]
            minimal = {
                s
                for s in good
                if not any(o != s and simple_divides(o, s) for o in good)
            }
            assert set(minimal_conjugator_set(t, floor)) == minimal

    def test_matches_reference_ascent_at_larger_n(self):
        # n = 6..8 is out of reach of the brute-force minima above; the
        # reference builds every product p*s and runs every ascent to its end
        rng = random.Random(28)
        for _ in range(300):
            n = rng.randint(6, 8)
            t = tuple_from_words(n, [rand_word(rng, n, 16) for _ in range(rng.randint(1, 3))])
            floor = tuple(j - rng.randint(0, 1) for j in inf_vector(t))
            active = _active_entries(t, floor)
            assert _minimal_codes(n, active) == oracle.ref_minimal_codes(n, active)

    def test_floor_step_matches_reference(self):
        # fixed case: p * s = (s1 s2) s1 is the half twist, so no entry rejects s
        p = simple_from_positive_word(BraidWord(3, (1, 2)))
        gen = generator_simple(3, 1)
        for parity in (0, 1):
            assert _floor_step(3, parity, (p.code,), gen.code) is None
            assert oracle.ref_floor_step(3, parity, (p.code,), gen.code) is None
        # sampled entries at n = 6..8, every fifth with an empty positive part,
        # against the identity, the half twist and random simples
        rng = random.Random(29)
        outcomes = set()
        for k in range(400):
            n = rng.randint(6, 8)
            pcodes = () if k % 5 == 0 else normalize(rand_word(rng, n, 16)).codes
            if k % 7 == 0:
                s = _IDENTITY[n]
            elif k % 7 == 1:
                s = _DELTA[n]
            else:
                s = SimpleElement(n, tuple(rng.sample(range(n), n))).code
            for parity in (0, 1):
                got = _floor_step(n, parity, pcodes, s)
                assert got == oracle.ref_floor_step(n, parity, pcodes, s)
                outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_no_proper_prefix_works(self):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(2, 4)
            t = tuple_from_words(n, [rand_word(rng, n, 6) for _ in range(rng.randint(1, 2))])
            floor = inf_vector(t)
            for i in range(1, n):
                r_i = minimal_conjugator(i, t, floor)
                gen = generator_simple(n, i)
                assert simple_divides(gen, r_i)
                for prefix in enumerate_simples(n):
                    if (
                        prefix != r_i
                        and simple_divides(prefix, r_i)
                        and simple_divides(gen, prefix)
                    ):
                        assert not conjugation_keeps_floor(prefix, t, floor)


class TestSummitSearch:
    def test_worked_example(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        res = summit_search(alpha, beta, (0,))
        assert res.outcome is Outcome.FOUND
        assert res.conjugator.letters == (2, 1)
        assert len(res.graph.nodes) == 2
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_identical_tuples(self):
        alpha = words_tuple(3, (1,))
        res = summit_search(alpha, alpha, (0,))
        assert res.outcome is Outcome.FOUND
        assert res.conjugator.letters == ()
        assert len(res.graph.nodes) == 1

    def test_not_conjugate_exhausts_component(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (1, 1, 1))
        res = summit_search(alpha, beta, (0,))
        assert res.outcome is Outcome.NOT_CONJUGATE
        assert set(res.graph.nodes) == {_code_key(words_tuple(3, (1,))), _code_key(words_tuple(3, (2,)))}

    # n = 3 pairs with equal exponent sums and equal permutations that are
    # not conjugate, found by brute force over words of length up to 4.
    NON_CONJUGATE = [
        [(1, 1, 2, 2)], [(1, 1, 1, 1)],
        [(1, 1, 2, 2)], [(2, 2, 2, 2)],
        [(2, -1, -1, -1)], [(2, -1, -2, -2)],
        [(1, -2, -1, -1)], [(1, -2, -2, -2)],
        [(-1, -1, -2)], [(-2, -2, -2)],
        [(1, 1, 2, 2), (1, -2)], [(1, 1, 1, 1), (1, -2)],
    ]

    @pytest.mark.parametrize("k", range(len(NON_CONJUGATE) // 2))
    def test_not_conjugate_after_exhaustive_search(self, k):
        alpha_letters, beta_letters = self.NON_CONJUGATE[2 * k], self.NON_CONJUGATE[2 * k + 1]
        alpha, beta = words_tuple(3, *alpha_letters), words_tuple(3, *beta_letters)
        for a, b in zip(alpha.entries, beta.entries):
            assert exponent_sum(nf_to_word(a)) == exponent_sum(nf_to_word(b))
            assert strand_permutation(a) == strand_permutation(b)
        floor = tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))
        component = oracle.floor_component(alpha, floor)
        assert tuple_key(beta) not in component
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.NOT_CONJUGATE
        assert {tuple_key(res.graph.tuple(key)) for key in res.graph.nodes} == component

    def test_node_cap(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        res = summit_search(alpha, beta, (0,), node_cap=1)
        assert res.outcome is Outcome.ABORTED
        assert res.conjugator is None

    def test_floor_violation_rejected(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        with pytest.raises(NotInFloor):
            summit_search(alpha, beta, (1,))

    def test_graph_edges_replay(self):
        rng = random.Random(27)
        alpha_words = [rand_word(rng, 4, 5, min_len=1), rand_word(rng, 4, 5, min_len=1)]
        x = rand_word(rng, 4, 4)
        alpha = tuple_from_words(4, alpha_words)
        beta = tuple_from_words(4, [word_concat(word_inverse(x), w, x) for w in alpha_words])
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        graph = res.graph
        assert len(graph.nodes) >= 2
        for key, node in graph.nodes.items():
            if node.parent is not None:
                assert conjugate_tuple(graph.tuple(node.parent), _SIMPLE[node.edge]) == graph.tuple(key)


class TestCompactNodeStore:
    """Graph nodes are keyed by raw entries; the graph builds their tuples on demand."""

    @staticmethod
    def instances():
        # per n, a planted instance, one made non-conjugate by an extra letter
        # (exponent sums differ) and one searched under a tiny node cap
        rng = random.Random(31)
        for n in range(2, 7):
            for kind in ("planted", "tampered", "capped") * 2:
                r = rng.randint(1, 3)
                words = [rand_word(rng, n, 5, min_len=1) for _ in range(r)]
                x = rand_word(rng, n, 4, min_len=1)
                beta_words = [word_concat(word_inverse(x), w, x) for w in words]
                if kind == "tampered":
                    beta_words[-1] = word_concat(beta_words[-1], BraidWord(n, (1,)))
                cap = 3 if kind == "capped" else 2000
                yield tuple_from_words(n, words), tuple_from_words(n, beta_words), cap

    def test_nodes_rebuild_their_tuples(self):
        outcomes = set()
        for alpha, beta, cap in self.instances():
            res = solve_mscp(alpha, beta, node_cap=cap)
            outcomes.add(res.outcome)
            graph = res.graph
            assert graph.tuple(graph.root) == alpha
            key_ids = {id(key) for key in graph.nodes}
            for key, node in graph.nodes.items():
                t = graph.tuple(key)
                assert _code_key(t) == key
                assert _entries_key(key) == tuple_key(t)
                if node.parent is not None:
                    # the parent is the parent's own key object, not a copy
                    assert id(node.parent) in key_ids
                    assert conjugate_tuple(graph.tuple(node.parent), _SIMPLE[node.edge]) == t
        assert outcomes == set(Outcome)

    def test_search_builds_no_key_string(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("key string built during the search")

        for name in ("_entries_key", "_raw_key"):
            monkeypatch.setattr(solver_module, name, refuse)
        monkeypatch.setattr(normal_form_module, "_raw_key", refuse)
        found = summit_search(words_tuple(3, (1,)), words_tuple(3, (2,)), (0,))
        assert found.outcome is Outcome.FOUND and len(found.graph.nodes) == 2
        alpha_letters, beta_letters = TestSummitSearch.NON_CONJUGATE[:2]
        alpha, beta = words_tuple(3, *alpha_letters), words_tuple(3, *beta_letters)
        floor = tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))
        assert summit_search(alpha, beta, floor).outcome is Outcome.NOT_CONJUGATE
        aborted = summit_search(words_tuple(3, (1,)), words_tuple(3, (2,)), (0,), node_cap=1)
        assert aborted.outcome is Outcome.ABORTED


class TestLiftChain:
    """beta's lift chain: cycling moves that keep beta's own inf vector."""

    @staticmethod
    def betas():
        rng = random.Random(32)
        for _ in range(80):
            n = rng.randint(2, 6)
            yield tuple_from_words(n, [rand_word(rng, n, 10) for _ in range(rng.randint(1, 3))])

    @staticmethod
    def run_chain(beta):
        """beta's chain run to its end, and what each move yielded."""
        chain = {_code_key(beta): SummitNode(None, None)}
        counters = SearchCounters()
        steps = list(_lift_chain(beta.n, chain, counters))
        assert counters.lift_moves == len(steps)
        return chain, steps

    def test_chain_tuples_are_conjugates_of_beta(self):
        for beta in self.betas():
            chain, _ = self.run_chain(beta)
            graph = SummitGraph(beta.n, _code_key(beta), chain, SearchCounters())
            for key, node in chain.items():
                assert node.edge is None or not _SIMPLE[node.edge].is_delta()
                y = word_concat(BraidWord(beta.n, ()), *(simple_to_word(_SIMPLE[s]) for s in _path(chain, key)))
                assert verify_conjugator(beta, graph.tuple(key), y)

    def test_infima_never_fall_and_chain_ends_within_bound(self):
        raises = 0
        for beta in self.betas():
            chain, steps = self.run_chain(beta)
            bound = beta.n * (beta.n - 1) // 2
            current, stale = _code_key(beta), 0
            for lifted in steps:
                stale += 1
                if lifted is not None:
                    assert chain[lifted].parent == current
                    old, new = [p for p, _ in current], [p for p, _ in lifted]
                    assert all(a <= b for a, b in zip(old, new))
                    if new != old:
                        raises += 1
                        stale = 0
                    current = lifted
                assert stale <= bound
            # it stops at the bound, or when every entry is a half-twist power
            assert stale == bound or not any(codes for _, codes in current)
            assert {key for key in steps if key is not None} == set(chain) - {_code_key(beta)}
        assert raises > 0

    def test_search_meets_the_chain(self):
        # desk corpus instance 4: beta sits two below alpha (inf -3 against -1)
        alpha = words_tuple(3, (2, 2, -1, 1, 2, -1, 2))
        beta = words_tuple(3, (-2, 1, 2, 2, -1, 1, 2, -1, 2, -1, 2))
        res = summit_search(alpha, beta, (-3,))
        ref = oracle.bfs_search(alpha, beta, (-3,), 1000)
        assert res.outcome is ref.outcome is Outcome.FOUND
        assert len(res.graph.nodes) < len(ref.graph.nodes)
        assert verify_conjugator(alpha, beta, res.conjugator)
        # x = P y^-1: the path P to the met node is positive, y^-1 negative
        letters = res.conjugator.letters
        k = next(i for i, e in enumerate(letters) if e < 0)
        path, y = BraidWord(3, letters[:k]), word_inverse(BraidWord(3, letters[k:]))
        assert all(e < 0 for e in letters[k:])
        met = [key for key in res.graph.nodes if verify_conjugator(alpha, res.graph.tuple(key), path)]
        assert len(met) == 1 and met[0] != _code_key(beta)
        assert verify_conjugator(beta, res.graph.tuple(met[0]), y)
        assert met[0] in self.run_chain(beta)[0]


class TestDifferentialOracle:
    """summit_search against the one-sided BFS of oracle.bfs_search.

    The search expands nodes in the oracle's order, so its graph is a prefix
    of the oracle's, and it stops no later.  Where the oracle reaches a
    verdict the outcomes agree, and a search that runs as long as the
    oracle stopped on beta itself and returns the oracle's conjugator.
    """

    @staticmethod
    def check(alpha, beta, node_cap=DEFAULT_NODE_CAP):
        floor = tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))
        res = summit_search(alpha, beta, floor, node_cap)
        ref = oracle.bfs_search(alpha, beta, floor, node_cap)
        new, old = list(res.graph.nodes.items()), list(ref.graph.nodes.items())
        assert new == old[: len(new)]
        assert res.counters.nodes_expanded <= ref.counters.nodes_expanded
        assert res.counters.lift_moves <= res.counters.nodes_expanded
        if ref.outcome is not Outcome.ABORTED or res.outcome is Outcome.ABORTED:
            assert res.outcome is ref.outcome
        if res.outcome is Outcome.ABORTED:
            assert len(new) == node_cap
        if res.outcome is Outcome.FOUND:
            assert verify_conjugator(alpha, beta, res.conjugator)
            if len(new) == len(old):
                assert res.conjugator == ref.conjugator
        return len(new), len(old)

    def test_desk_corpus(self):
        sizes = []
        for params in corpus_params():
            inst, _ = gen_instance(params)
            alpha, beta = tuple_from_words(inst.n, inst.alpha), tuple_from_words(inst.n, inst.beta)
            sizes.append(self.check(alpha, beta, node_cap=1000))
        assert sum(new for new, _ in sizes) < sum(old for _, old in sizes)

    def test_non_conjugacy_instances(self):
        self.check(words_tuple(3, (1,)), words_tuple(3, (1, 1, 1)))
        for n, alpha_words, beta_words in non_conjugacy_instances():
            self.check(tuple_from_words(n, alpha_words), tuple_from_words(n, beta_words))

    def test_non_conjugate_pairs(self):
        pairs = TestSummitSearch.NON_CONJUGATE
        for alpha_letters, beta_letters in zip(pairs[::2], pairs[1::2]):
            self.check(words_tuple(3, *alpha_letters), words_tuple(3, *beta_letters))


class TestSolve:
    def test_basic(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_mixed_signs(self):
        alpha = words_tuple(3, (1, -2))
        beta = words_tuple(3, (-2, 1))
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_swap_pair(self):
        alpha = words_tuple(3, (1,), (2,))
        beta = words_tuple(3, (2,), (1,))
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            solve_mscp(words_tuple(3, (1,)), words_tuple(3, (1,), (2,)))

    def test_round_trip_random(self):
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randint(2, 5)
            r = rng.randint(1, 3)
            alpha_words = [rand_word(rng, n, 6, min_len=1) for _ in range(r)]
            x = rand_word(rng, n, 4)
            beta_words = [word_concat(word_inverse(x), w, x) for w in alpha_words]
            alpha = tuple_from_words(n, alpha_words)
            beta = tuple_from_words(n, beta_words)
            res = solve_mscp(alpha, beta)
            assert res.outcome is Outcome.FOUND
            assert verify_conjugator(alpha, beta, res.conjugator)
            assert res.counters.set_size_max <= n - 1
            if res.counters.nodes_expanded:
                assert res.counters.conjugations / res.counters.nodes_expanded <= n - 1

    def test_wrong_conjugator_from_search_is_refused(self, monkeypatch, tmp_path, capsys):
        from braidmscp import VerificationFailed
        from braidmscp.cli import main

        search = solver_module.summit_search

        def wrong_search(alpha, beta, floor, node_cap):
            res = search(alpha, beta, floor, node_cap)
            assert res.outcome is Outcome.FOUND
            res.conjugator = BraidWord(alpha.n, (1,))
            return res

        monkeypatch.setattr(solver_module, "summit_search", wrong_search)
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        assert not verify_conjugator(alpha, beta, BraidWord(3, (1,)))
        with pytest.raises(VerificationFailed):
            solve_mscp(alpha, beta)
        path = tmp_path / "w.inst"
        path.write_text("n 3\nr 1\nalpha 1\nbeta 2\n")
        capsys.readouterr()
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification" in captured.err

    def test_search_nodes_stay_in_floor_and_conjugate(self):
        rng = random.Random(29)
        alpha_words = [rand_word(rng, 4, 6, min_len=1), rand_word(rng, 4, 6, min_len=1)]
        x = rand_word(rng, 4, 4)
        alpha = tuple_from_words(4, alpha_words)
        beta = tuple_from_words(4, [word_concat(word_inverse(x), w, x) for w in alpha_words])
        res = solve_mscp(alpha, beta)
        floor = tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))
        for key in res.graph.nodes:
            assert meets_floor(res.graph.tuple(key), floor)


class TestVerify:
    def test_examples(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        assert verify_conjugator(alpha, alpha, BraidWord(3, ()))
        assert verify_conjugator(alpha, beta, BraidWord(3, (2, 1)))
        assert not verify_conjugator(alpha, beta, BraidWord(3, (1,)))
        with pytest.raises(LengthMismatch):
            verify_conjugator(alpha, words_tuple(3, (1,), (2,)), BraidWord(3, ()))
        with pytest.raises(StrandMismatch):
            verify_conjugator(alpha, beta, BraidWord(4, ()))
