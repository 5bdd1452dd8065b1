import collections
import gc
import random
import weakref

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
    GenParams,
    NormalForm,
    conjugate_tuple,
    conjugation_keeps_floor,
    delta,
    enumerate_simples,
    exponent_sum,
    gen_instance,
    generator_simple,
    inf_vector,
    invert,
    meets_floor,
    minimal_conjugator,
    minimal_conjugator_set,
    multiply,
    nf_to_word,
    normalize,
    simple_divides,
    simple_from_positive_word,
    simple_to_word,
    solve_mscp,
    strand_permutation,
    summit_search,
    tau,
    tuple_from_words,
    tuple_key,
    verify_conjugator,
    word_concat,
    word_inverse,
)
import braidmscp.normal_form as normal_form_module
import braidmscp.solver as solver_module
from braidmscp.braid import _DELTA, _IDENTITY, _SIMPLE
from braidmscp.harness import random_word
from braidmscp.solver import (
    _active_entries,
    _code_key,
    _entries_key,
    _flip,
    _floor_step,
    _lift_chain,
    _lockstep,
    _minimal_codes,
    _path,
    _raised_floor,
    _search,
    _tuple,
    _vector,
)
from test_acceptance import corpus_params, non_conjugacy_instances


def words_tuple(n, *letter_lists):
    return tuple_from_words(n, [BraidWord(n, ls) for ls in letter_lists])


def rand_word(rng, n, max_len, min_len=0):
    length = rng.randint(min_len, max_len)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


def lift_chain(t):
    """t's lift chain, run alone to its end."""
    chain = {_code_key(t): SummitNode(None, None)}
    for _ in _lift_chain(t.n, chain, SearchCounters()):
        pass
    return chain


def lift_top(t):
    """The last tuple of t's lift chain."""
    return _tuple(t.n, next(reversed(lift_chain(t))))


def raw_floor(alpha, beta):
    return tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))


def summit_floor(alpha, beta):
    """The floor of both doubled tuples: infima, then the negated suprema."""
    return raw_floor(alpha, beta) + tuple(min(-a.sup, -b.sup) for a, b in zip(alpha.entries, beta.entries))


def chain_word(n, chain, key):
    return word_concat(BraidWord(n, ()), *(simple_to_word(_SIMPLE[s]) for s in _path(chain, key)))


def one_per_orbit(items):
    """The (key, node) items of a breadth-first graph, in order, less those whose flip came earlier.

    tau maps the children of X onto the children of tau(X), so when a
    breadth-first search meets a tuple whose flip came earlier, that flip's
    children were all built before it.  So a search that skips every child
    whose flip it has visited builds exactly these items, with the same
    parents and edges, for as long as it runs.  A tuple that is its own
    flip is kept.
    """
    kept, seen = [], set()
    for key, node in items:
        if key not in seen:
            kept.append((key, node))
            seen.update((key, _flip(key)))
    return kept


def orbit_cover(graph):
    """The tuple_keys of the graph's nodes and of their flips; no node may be the flip of another."""
    flips = {key: _flip(key) for key in graph.nodes}
    assert all(flipped == key or flipped not in graph.nodes for key, flipped in flips.items())
    return {tuple_key(graph.tuple(key)) for pair in flips.items() for key in pair}


def negative_pair(params):
    """The planted instance of params with beta's last entry replaced by y^-1 a_r y.

    y is random_word(Random(1000 + seed), n, conjugator_length), unrelated to
    the planted conjugator, so every entry of beta is conjugate to alpha's on
    its own, with the same exponent sum, but the tuples need not be.
    """
    inst, _ = gen_instance(params)
    y = random_word(random.Random(1000 + params.seed), params.n, params.conjugator_length)
    beta_words = inst.beta[:-1] + (word_concat(word_inverse(y), inst.alpha[-1], y),)
    return tuple_from_words(params.n, inst.alpha), tuple_from_words(params.n, beta_words)


def searched_from_beta(res, alpha):
    """Whether solve_mscp searched from lifted beta: only then is its root off alpha's lift chain."""
    return res.graph.root not in lift_chain(alpha)


def chain_search(alpha, beta, floor, node_cap, chain):
    """The search from alpha with every tuple of beta's lift chain, and its flip, as a target.

    This is the search solve_mscp runs after the lift; summit_search runs it
    with beta alone as the chain.
    """
    assert next(iter(chain)) == _code_key(beta)
    return _search(alpha.n, _code_key(alpha), tuple(floor), node_cap, chain, SearchCounters(), [])


def spied_search(*args):
    """chain_search(*args), and the doubled entries and floor of each call to _active, in order.

    A search calls _active once per expansion, and once more for the node
    that raises the floor, at the raised floor.
    """
    calls = []
    active = solver_module._active

    def spy(entries, floor):
        calls.append((entries, floor))
        return active(entries, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_active", spy)
        res = chain_search(*args)
    return res, calls


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


class TestFloorModel:
    """Every floor function takes r or 2r values on the doubled tuple, read once."""

    @pytest.mark.parametrize("kind", [tuple, list, iter], ids=["tuple", "list", "iterator"])
    def test_floor_is_read_once(self, kind):
        t = words_tuple(3, (1,))
        s21 = simple_from_positive_word(BraidWord(3, (2, 1)))
        assert meets_floor(t, kind((0,)))
        assert not meets_floor(t, kind((1,)))
        # sigma_2^-1 sigma_1 sigma_2 has infimum -1
        assert not conjugation_keeps_floor(generator_simple(3, 2), t, kind((0,)))
        assert conjugation_keeps_floor(s21, t, kind((0, -1)))
        assert minimal_conjugator(2, t, kind((0,))) == s21
        t4 = words_tuple(4, (1, 2), (3, -1))
        assert minimal_conjugator_set(t4, kind(inf_vector(t4))) == [
            generator_simple(4, 1),
            simple_from_positive_word(BraidWord(4, (3, 2, 1))),
        ]
        with pytest.raises(NotInFloor):
            minimal_conjugator_set(t4, kind((0, 0)))
        res = summit_search(words_tuple(4, (2,)), words_tuple(4, (1,)), kind((0, -1)))
        assert res.conjugator.letters == (1, 2)

    def test_2r_floor_matches_the_doubled_tuple(self):
        # a floor of 2r values on t is an r-value floor on the 2r-tuple of t's
        # entries and their inverses, which oracle.doubled builds by the
        # reference product; floors sit at or one below the doubled vector
        rng = random.Random(31)
        ceilings = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            t = tuple_from_words(n, [rand_word(rng, n, 8) for _ in range(rng.randint(1, 3))])
            d = oracle.doubled(t)
            assert inf_vector(d) == _vector(_code_key(t))
            floor = tuple(j - rng.randint(0, 1) for j in inf_vector(d))
            assert meets_floor(t, floor) and meets_floor(d, floor)
            for s in enumerate_simples(n):
                assert conjugation_keeps_floor(s, t, floor) == conjugation_keeps_floor(s, d, floor)
            for i in range(1, n):
                assert minimal_conjugator(i, t, floor) == minimal_conjugator(i, d, floor)
            minima = minimal_conjugator_set(t, floor)
            assert minima == minimal_conjugator_set(d, floor)
            ceilings += minima != minimal_conjugator_set(t, floor[: t.r])
        assert ceilings > 0  # the suprema's floor values bind on some tuples


class TestSummitSearch:
    def test_worked_example(self):
        # on 4 strands tau(sigma_2) is sigma_2 itself, not sigma_1, so the
        # root is no answer; its child by s1 s2 is sigma_1
        alpha, beta = words_tuple(4, (2,)), words_tuple(4, (1,))
        res = summit_search(alpha, beta, (0,))
        assert res.outcome is Outcome.FOUND
        assert res.conjugator.letters == (1, 2)
        assert len(res.graph.nodes) == 2
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_identical_tuples(self):
        alpha = words_tuple(3, (1,))
        res = summit_search(alpha, alpha, (0,))
        assert res.outcome is Outcome.FOUND
        assert res.conjugator.letters == ()
        assert len(res.graph.nodes) == 1

    def test_not_conjugate_exhausts_component(self):
        # the component of sigma_1 at floor 0 is one tau-orbit, {sigma_1, sigma_2}
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (1, 1, 1))
        res = summit_search(alpha, beta, (0,))
        assert res.outcome is Outcome.NOT_CONJUGATE
        assert list(res.graph.nodes) == [_code_key(alpha)]
        component = {tuple_key(alpha), tuple_key(words_tuple(3, (2,)))}
        assert orbit_cover(res.graph) == oracle.floor_component(alpha, (0,)) == component

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
    # per pair, whether lifted beta's doubled inf vector has the smaller sum,
    # so that solve_mscp searches from it
    FROM_BETA = [True, True, False, True, True, True]

    @pytest.mark.parametrize("k", range(len(NON_CONJUGATE) // 2))
    def test_not_conjugate_after_exhaustive_search(self, k):
        alpha_letters, beta_letters = self.NON_CONJUGATE[2 * k], self.NON_CONJUGATE[2 * k + 1]
        alpha, beta = words_tuple(3, *alpha_letters), words_tuple(3, *beta_letters)
        for a, b in zip(alpha.entries, beta.entries):
            assert exponent_sum(nf_to_word(a)) == exponent_sum(nf_to_word(b))
            assert strand_permutation(a) == strand_permutation(b)
        assert tuple_key(beta) not in oracle.floor_component(alpha, raw_floor(alpha, beta))
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.NOT_CONJUGATE
        # the search ran from the lifted side of lower vector sum at the floor
        # of both lifted doubled tuples; its nodes and their flips make up
        # exactly that floor set's component, projected onto the first r
        # entries, and no node is the flip of another
        a_top, b_top = lift_top(alpha), lift_top(beta)
        a_doubled, b_doubled = oracle.doubled(a_top), oracle.doubled(b_top)
        from_beta = sum(e.inf for e in b_doubled.entries) < sum(e.inf for e in a_doubled.entries)
        assert from_beta is searched_from_beta(res, alpha) is self.FROM_BETA[k]
        (top, doubled), other = ((b_top, b_doubled), a_top) if from_beta else ((a_top, a_doubled), b_top)
        assert res.graph.root == _code_key(top)
        floor = tuple(min(a.inf, b.inf) for a, b in zip(a_doubled.entries, b_doubled.entries))
        doubled_component = oracle.floor_component(doubled, floor)
        component = {" ; ".join(key.split(" ; ")[: alpha.r]) for key in doubled_component}
        assert len(component) == len(doubled_component)
        assert tuple_key(other) not in component
        assert orbit_cover(res.graph) == component

    def test_node_cap(self):
        alpha, beta = words_tuple(4, (2,)), words_tuple(4, (1,))
        res = summit_search(alpha, beta, (0,), node_cap=1)
        assert res.outcome is Outcome.ABORTED
        assert res.conjugator is None

    def test_floor_violation_rejected(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        with pytest.raises(NotInFloor):
            summit_search(alpha, beta, (1,))

    def test_graph_edges_replay(self):
        # planted pairs, every second one tampered with an extra letter; the
        # planted ones mostly meet while lifting, so the tampered ones, which
        # exhaust their component, give most of the edges
        rng = random.Random(27)
        outcomes, nodes = set(), 0
        for k in range(8):
            alpha_words = [rand_word(rng, 4, 5, min_len=1), rand_word(rng, 4, 5, min_len=1)]
            x = rand_word(rng, 4, 4)
            beta_words = [word_concat(word_inverse(x), w, x) for w in alpha_words]
            if k % 2:
                beta_words[-1] = word_concat(beta_words[-1], BraidWord(4, (1,)))
            res = solve_mscp(tuple_from_words(4, alpha_words), tuple_from_words(4, beta_words))
            outcomes.add(res.outcome)
            graph = res.graph
            nodes += len(graph.nodes)
            for key, node in graph.nodes.items():
                if node.parent is not None:
                    assert conjugate_tuple(graph.tuple(node.parent), _SIMPLE[node.edge]) == graph.tuple(key)
        assert outcomes == {Outcome.FOUND, Outcome.NOT_CONJUGATE}
        assert nodes == 20


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
        outcomes, from_beta = set(), 0
        for alpha, beta, cap in self.instances():
            res = solve_mscp(alpha, beta, node_cap=cap)
            outcomes.add(res.outcome)
            graph = res.graph
            # the root is lifted alpha, lifted beta when its doubled inf
            # vector has the smaller sum, or a tuple both lift chains hold
            a_chain, b_chain = lift_chain(alpha), lift_chain(beta)
            a_top, b_top = next(reversed(a_chain)), next(reversed(b_chain))
            if graph.root not in a_chain:  # searched from lifted beta
                from_beta += 1
                assert graph.root == b_top
                assert sum(_vector(b_top)) < sum(_vector(a_top))
            elif graph.root != a_top:
                assert graph.root in b_chain and len(graph.nodes) == 1
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
        assert from_beta == 5

    def test_search_builds_no_key_string(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("key string built during the search")

        for name in ("_entries_key", "_raw_key"):
            monkeypatch.setattr(solver_module, name, refuse)
        monkeypatch.setattr(normal_form_module, "_raw_key", refuse)
        found = summit_search(words_tuple(4, (2,)), words_tuple(4, (1,)), (0,))
        assert found.outcome is Outcome.FOUND and len(found.graph.nodes) == 2
        alpha_letters, beta_letters = TestSummitSearch.NON_CONJUGATE[:2]
        alpha, beta = words_tuple(3, *alpha_letters), words_tuple(3, *beta_letters)
        floor = tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))
        assert summit_search(alpha, beta, floor).outcome is Outcome.NOT_CONJUGATE
        aborted = summit_search(words_tuple(4, (2,)), words_tuple(4, (1,)), (0,), node_cap=1)
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
        """beta's chain run to its end, and what each move yielded after the start."""
        chain = {_code_key(beta): SummitNode(None, None)}
        counters = SearchCounters()
        start, *steps = _lift_chain(beta.n, chain, counters)
        assert start == _code_key(beta)
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
                    old = [(e.inf, e.sup) for e in _tuple(beta.n, current).entries]
                    new = [(e.inf, e.sup) for e in _tuple(beta.n, lifted).entries]
                    # no infimum falls and no supremum rises
                    assert all(a[0] <= b[0] and a[1] >= b[1] for a, b in zip(old, new))
                    if new != old:
                        raises += 1
                        stale = 0
                    current = lifted
                assert stale <= bound
            # it stops at the bound, when every entry is a half-twist power, or
            # once every entry of the doubled tuple has had a skipped move
            movable = 2 * sum(1 for _, codes in current if codes)
            assert stale == bound or not movable or steps[-movable:] == [None] * movable
            assert {key for key in steps if key is not None} == set(chain) - {_code_key(beta)}
        assert raises > 0

    def test_search_meets_the_chain(self):
        # desk corpus instance 4: beta sits two below alpha (inf -3 against -1)
        alpha = words_tuple(3, (2, 2, -1, 1, 2, -1, 2))
        beta = words_tuple(3, (-2, 1, 2, 2, -1, 1, 2, -1, 2, -1, 2))
        res = chain_search(alpha, beta, (-3,), DEFAULT_NODE_CAP, lift_chain(beta))
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

    def test_matches_reference_chain(self):
        # the reference conjugates all 2r entries, ascends through the
        # reference kernel and runs every move to the stale bound; half-twist
        # powers make no move, alone or beside movable entries
        d3, d4 = (1, 2, 1), (1, 2, 1, 3, 2, 1)
        half_twists = [
            words_tuple(3, d3),
            words_tuple(3, d3 * 2, word_inverse(BraidWord(3, d3)).letters),
            words_tuple(4, d4 * 3),
            words_tuple(3, d3, (1, 1, -2)),
            words_tuple(3, (2, -1, -1, 2), d3 * 2),
            words_tuple(4, (1, 2, 3, -1), d4, (3, -2, 1, 1)),
            words_tuple(4, d4, (2, 3, 2, -1, 3)),
        ]
        for beta in [*self.betas(), *half_twists]:
            chain, steps = self.run_chain(beta)
            ref = oracle.ref_lift_chain(beta)
            assert [(key, node.parent, node.edge) for key, node in chain.items()] == [
                (key, parent, edge) for key, (parent, edge) in ref.items()
            ]
            assert (steps == []) is all(not e.codes for e in beta.entries)

    def test_no_floor_step_tests_the_half_twist(self, monkeypatch):
        # hard n=8 r=3 seed 1: many lift ascents climb to D, which keeps
        # every floor, so an ascent returns it without testing an entry;
        # the entries it tests in a new order give the reference chains
        inst, _ = gen_instance(GenParams(8, 3, 16, 12, seed=1))
        alpha, beta = tuple_from_words(8, inst.alpha), tuple_from_words(8, inst.beta)
        tested, minima = [], []
        step, ascend = solver_module._floor_step, solver_module._minimal_conjugator_code

        def spy_step(n, parity, pcodes, s):
            tested.append(s)
            return step(n, parity, pcodes, s)

        def spy_ascend(*args):
            minima.append(ascend(*args))
            return minima[-1]

        monkeypatch.setattr(solver_module, "_floor_step", spy_step)
        monkeypatch.setattr(solver_module, "_minimal_conjugator_code", spy_ascend)
        res = solve_mscp(alpha, beta, node_cap=1000)
        assert res.outcome is Outcome.FOUND and res.counters.nodes_expanded > 0
        for t in (alpha, beta):
            chain = lift_chain(t)
            assert [(key, node.parent, node.edge) for key, node in chain.items()] == [
                (key, parent, edge) for key, (parent, edge) in oracle.ref_lift_chain(t).items()
            ]
        assert minima.count(_DELTA[8]) > 10
        assert tested and _DELTA[8] not in tested

    def test_chain_targets_need_the_floor(self):
        alpha, beta = words_tuple(3, (1,)), words_tuple(3, (2,))
        with pytest.raises(LengthMismatch):
            summit_search(alpha, beta, (0, -1, -1))
        # beta = sigma_2^3 has sup 3, above the ceiling of sigma_1's sup 1
        with pytest.raises(NotInFloor):
            summit_search(alpha, words_tuple(3, (2, 2, 2)), (0, -1))


class TestDifferentialOracle:
    """summit_search against the one-sided BFS of oracle.bfs_search.

    The search keeps one tuple per tau-orbit: it expands the oracle's nodes
    less those whose flip came earlier (one_per_orbit), in the oracle's
    order, so its graph is a prefix of that list, and it stops no later.
    Where the oracle reaches a verdict the outcomes agree, and a search that
    stops on the oracle's own target, beta itself, returns the oracle's
    conjugator.
    """

    @staticmethod
    def check(alpha, beta, node_cap=DEFAULT_NODE_CAP):
        """Sizes of the search, given beta's chain, and of the oracle's nodes one per orbit.

        Once from raw alpha at the raw floor, and once as solve_mscp runs
        it: from lifted alpha at the floor of both lifted doubled tuples,
        where the oracle searches for lifted beta.  A search that raises
        its floor is the oracle's search only up to the first raise; after
        it, the outcomes are compared where the oracle reaches a verdict.
        """
        chain = lift_chain(beta)
        a_top, b_top = lift_top(alpha), _tuple(beta.n, next(reversed(chain)))
        runs = ((alpha, beta, raw_floor(alpha, beta)), (a_top, b_top, summit_floor(a_top, b_top)))
        sizes = []
        for start, target, floor in runs:
            res, calls = spied_search(start, beta, floor, node_cap, chain)
            ref = oracle.bfs_search(start, target, floor, node_cap)
            new, old = list(res.graph.nodes.items()), one_per_orbit(ref.graph.nodes.items())
            if res.counters.floor_raises:
                # the node X that raised is expanded twice, at the old floor
                # and then at the raised one, before any child of X is built
                first = next(k for k, (_, f) in enumerate(calls) if f != floor)
                expanded = [entries[: start.r] for entries, _ in calls[:first]]
                assert expanded == [key for key, _ in old[:first]]
                done = set(expanded[:-1])
                size = 1 + sum(1 for _, node in old if node.parent in done)
                assert new[:size] == old[:size]
                if ref.outcome is not Outcome.ABORTED:
                    assert res.outcome is ref.outcome
            else:
                assert new == old[: len(new)]
                assert res.counters.nodes_expanded <= ref.counters.nodes_expanded
                if ref.outcome is not Outcome.ABORTED or res.outcome is Outcome.ABORTED:
                    assert res.outcome is ref.outcome
                if res.outcome is ref.outcome is Outcome.FOUND and new[-1][0] == _code_key(target):
                    y = chain_word(beta.n, chain, _code_key(target))
                    assert res.conjugator == word_concat(ref.conjugator, word_inverse(y))
            if res.outcome is Outcome.ABORTED:
                assert len(new) == node_cap
            if res.outcome is Outcome.FOUND:
                assert verify_conjugator(start, beta, res.conjugator)
            sizes.append((len(new), len(old)))
        return sizes

    def test_desk_corpus(self):
        sizes = []
        for params in corpus_params():
            inst, _ = gen_instance(params)
            alpha, beta = tuple_from_words(inst.n, inst.alpha), tuple_from_words(inst.n, inst.beta)
            sizes.append(self.check(alpha, beta, node_cap=1000))
        for k in (0, 1):  # the chain targets stop both searches earlier
            assert sum(s[k][0] for s in sizes) < sum(s[k][1] for s in sizes)

    def test_non_conjugacy_instances(self):
        self.check(words_tuple(3, (1,)), words_tuple(3, (1, 1, 1)))
        for n, alpha_words, beta_words in non_conjugacy_instances():
            self.check(tuple_from_words(n, alpha_words), tuple_from_words(n, beta_words))

    def test_non_conjugate_pairs(self):
        pairs = TestSummitSearch.NON_CONJUGATE
        for alpha_letters, beta_letters in zip(pairs[::2], pairs[1::2]):
            self.check(words_tuple(3, *alpha_letters), words_tuple(3, *beta_letters))

    def test_solve_matches_the_search_from_lifted_alpha(self):
        # solve_mscp searches from the lower summit, one tuple per tau-orbit;
        # the oracle searches every tuple from lifted alpha for lifted beta,
        # at the floor of both lifted doubled tuples
        letters = TestSummitSearch.NON_CONJUGATE
        pairs = [TestFlipMeeting.desk_pair(k) for k in range(len(corpus_params()))]
        pairs += TestFloorRaise.pairs()
        pairs += [(words_tuple(3, *a), words_tuple(3, *b)) for a, b in zip(letters[::2], letters[1::2])]
        tally = collections.Counter()
        for alpha, beta in pairs:
            a_top, b_top = lift_top(alpha), lift_top(beta)
            ref = oracle.bfs_search(a_top, b_top, summit_floor(a_top, b_top), 1000)
            res = solve_mscp(alpha, beta, node_cap=1000)
            if ref.outcome is not Outcome.ABORTED:
                assert res.outcome is ref.outcome
            tally[res.outcome, ref.outcome, searched_from_beta(res, alpha)] += 1
        # the oracle decides every pair; the last flag is whether the solve
        # searched from lifted beta
        found, not_conjugate = Outcome.FOUND, Outcome.NOT_CONJUGATE
        assert tally == {
            (found, found, False): 391,
            (found, found, True): 9,
            (not_conjugate, not_conjugate, False): 123,
            (not_conjugate, not_conjugate, True): 83,
        }


class TestFloorRaise:
    """summit_search raises its floor to what a visited tuple and a target both meet."""

    @staticmethod
    def pairs():
        # planted pairs at n <= 4, every second one tampered with an extra
        # letter, so that it is not conjugate
        rng = random.Random(43)
        for k in range(400):
            n, r = rng.randint(2, 4), rng.randint(1, 3)
            words = [rand_word(rng, n, 4, min_len=1) for _ in range(r)]
            x = rand_word(rng, n, 3)
            beta_words = [word_concat(word_inverse(x), w, x) for w in words]
            if k % 2:
                beta_words[-1] = word_concat(beta_words[-1], BraidWord(n, (1,)))
            yield tuple_from_words(n, words), tuple_from_words(n, beta_words)

    def test_verdicts_match_the_oracle(self):
        raised = []
        for alpha, beta in self.pairs():
            floor = raw_floor(alpha, beta)
            res = chain_search(alpha, beta, floor, 5_000, lift_chain(beta))
            if not res.counters.floor_raises:
                continue
            ref = oracle.bfs_search(alpha, beta, floor, 5_000)
            if ref.outcome is not Outcome.ABORTED:
                assert res.outcome is ref.outcome
            if res.outcome is Outcome.FOUND:
                assert verify_conjugator(alpha, beta, res.conjugator)
            raised.append(res.outcome)
        assert raised.count(Outcome.FOUND) > 0
        assert raised.count(Outcome.NOT_CONJUGATE) > 0

    def test_floors_rise_to_a_target_and_bound_every_expansion(self):
        raises = 0
        for alpha, beta in self.pairs():
            floor = raw_floor(alpha, beta)
            chain = lift_chain(beta)
            res, calls = spied_search(alpha, beta, floor, 5_000, chain)
            vectors = [tuple(e.inf for e in _tuple(beta.n, key).entries) for key in chain]
            previous = floor
            for entries, f in calls:
                # floors never fall, and a raised one lies below a target's vector
                assert all(a <= b for a, b in zip(previous, f))
                if f != previous:
                    assert any(all(a <= b for a, b in zip(f, v)) for v in vectors)
                # every expansion meets the floor it runs at
                assert all(power >= j for (power, _), j in zip(entries, f))
                previous = f
            assert len({floor, *(f for _, f in calls)}) == res.counters.floor_raises + 1
            raises += res.counters.floor_raises
        assert raises > 0

    def test_abort_at_the_cap_after_a_raise(self):
        # hard n=8 r=3 seed 1 raises its floor once, with 4 nodes built, and
        # its eleventh node is the flip of a tuple of beta's chain
        inst, _ = gen_instance(GenParams(8, 3, 16, 12, seed=1))
        alpha, beta = tuple_from_words(8, inst.alpha), tuple_from_words(8, inst.beta)
        before = solve_mscp(alpha, beta, node_cap=4)
        assert before.outcome is Outcome.ABORTED and before.counters.floor_raises == 0
        for cap in (5, 10):
            res = solve_mscp(alpha, beta, node_cap=cap)
            assert res.outcome is Outcome.ABORTED
            assert res.counters.floor_raises == 1
            assert len(res.graph.nodes) == cap
        assert solve_mscp(alpha, beta, node_cap=11).outcome is Outcome.FOUND

    def test_graph_freed_without_the_cycle_collector(self):
        # a search that raises its floor, and one answered at its root
        inst, _ = gen_instance(GenParams(8, 3, 16, 12, seed=1))
        alpha, beta = tuple_from_words(8, inst.alpha), tuple_from_words(8, inst.beta)
        gc.disable()
        try:
            for a, b in ((alpha, beta), (alpha, alpha)):
                res = solve_mscp(a, b)
                assert res.outcome is Outcome.FOUND
                graph = weakref.ref(res.graph)
                del res
                assert graph() is None
        finally:
            gc.enable()

    def test_graph_stays_one_tree(self):
        # nodes met again after a raise keep their first parent
        for alpha, beta in self.pairs():
            res = chain_search(alpha, beta, raw_floor(alpha, beta), 5_000, lift_chain(beta))
            graph = res.graph
            order = {key: k for k, key in enumerate(graph.nodes)}
            assert next(iter(graph.nodes)) == graph.root
            for key, node in list(graph.nodes.items())[1:]:
                # every parent was built before its child, so the parents form a tree
                assert order[node.parent] < order[key]
                assert conjugate_tuple(graph.tuple(node.parent), _SIMPLE[node.edge]) == graph.tuple(key)

    @staticmethod
    def node(*powers):
        """Doubled entries with these powers: _raised_floor reads nothing else."""
        return tuple((p, ()) for p in powers)

    def test_first_of_equal_sums_wins(self):
        node = self.node(1, 1)
        assert _raised_floor((0, 0), node, [(1, 0), (0, 1)]) == (1, 0)
        assert _raised_floor((0, 0), node, [(0, 1), (1, 0)]) == (0, 1)
        # a larger sum later in chain order still wins
        assert _raised_floor((0, 0), node, [(1, 0), (1, 1)]) == (1, 1)

    def test_none_when_every_floor_is_the_floor(self):
        assert _raised_floor((0, 0), self.node(1, 1), [(0, 0), (0, 0)]) is None
        assert _raised_floor((0, 0), self.node(0, 0), [(3, 3), (2, 5)]) is None
        assert _raised_floor((0, 0), self.node(1, 1), []) is None

    def test_target_above_the_node_is_cut_to_it(self):
        assert _raised_floor((0, 0), self.node(1, 2), [(5, 1)]) == (1, 1)
        # a floor of r values is compared with the first r entries of the doubled node
        assert _raised_floor((0, 0), self.node(1, 2, -3, -4), [(5, 1)]) == (1, 1)
        assert _raised_floor((0, 0, -5, -5), self.node(1, 2, -3, -4), [(5, 5, -1, -5)]) == (1, 2, -3, -5)


class TestNotConjugateAtFiveStrands:
    """Tuples whose entries are conjugate one by one but not as a whole, on 5 strands.

    The first is alpha = (s1, s3), beta = (s1, s1): a conjugator that fixes
    s1 and sends s3 to s1 would force s3 = s1.  The others take a planted
    instance and replace beta's last entry by y^-1 a_r y for an unrelated
    random y (negative_pair), so every entry keeps its exponent sum.  Two
    solves and two bare searches raise their floor before the search is
    exhausted, and four solves search from lifted beta.
    """

    @staticmethod
    def instances():
        yield words_tuple(5, (1,), (3,)), words_tuple(5, (1,), (1,))
        for point, seeds in (((5, 2, 8, 6), (2, 3, 5)), ((5, 3, 8, 6), (0, 2, 3))):
            for seed in seeds:
                yield negative_pair(GenParams(*point, seed=seed))

    def test_solve(self):
        results = [solve_mscp(alpha, beta, 5_000) for alpha, beta in self.instances()]
        assert {res.outcome for res in results} == {Outcome.NOT_CONJUGATE}
        assert [len(res.graph.nodes) for res in results] == [3, 8, 1, 3, 1, 29, 10]
        assert [res.counters.floor_raises for res in results] == [0, 0, 0, 0, 0, 1, 1]
        from_beta = [searched_from_beta(res, alpha) for res, (alpha, _) in zip(results, self.instances())]
        assert from_beta == [False, False, True, True, True, False, True]

    def test_search_at_the_summit_floor_matches_the_oracle(self):
        # the last instance aborts at this floor within 5,000 nodes; a floor
        # given as a list raises only where its tuple would.  A search that
        # keeps its floor exhausts the oracle's component up to tau: its
        # nodes and their flips are the oracle's nodes
        sizes, raises = [], []
        for alpha, beta in list(self.instances())[:-1]:
            floor = summit_floor(alpha, beta)
            res = summit_search(alpha, beta, list(floor), 5_000)
            ref = oracle.bfs_search(alpha, beta, floor, 5_000)
            assert res.outcome is ref.outcome is Outcome.NOT_CONJUGATE
            if not res.counters.floor_raises:
                assert orbit_cover(res.graph) == {tuple_key(ref.graph.tuple(key)) for key in ref.graph.nodes}
            sizes.append((len(res.graph.nodes), len(ref.graph.nodes)))
            raises.append(res.counters.floor_raises)
        assert sizes == [(3, 6), (37, 592), (12, 24), (111, 1124), (265, 530), (434, 868)]
        assert raises == [0, 1, 0, 1, 0, 0]


class TestNegativeSet:
    """The negative set: twelve negative_pair instances at n = 5..8, all decided at cap 20,000.

    GenParams (5,2,8,6), (6,2,10,8), (7,2,12,10) and (8,3,16,12), seeds 0-2.
    Every one is NOT_CONJUGATE, after an exhausted search; eleven search
    from lifted beta, and four raise their floor.
    """

    POINTS = [(5, 2, 8, 6), (6, 2, 10, 8), (7, 2, 12, 10), (8, 3, 16, 12)]
    NODES = [23, 7, 8, 128, 60, 2, 1586, 10045, 114, 514, 65, 14]

    def test_every_instance_is_not_conjugate(self):
        results = []
        for point in self.POINTS:
            for seed in range(3):
                alpha, beta = negative_pair(GenParams(*point, seed=seed))
                results.append((alpha, solve_mscp(alpha, beta, node_cap=20_000)))
        assert [res.outcome for _, res in results] == [Outcome.NOT_CONJUGATE] * 12
        assert [len(res.graph.nodes) for _, res in results] == self.NODES
        assert sum(self.NODES) == 12_566
        assert [res.counters.floor_raises for _, res in results] == [0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0]
        assert [searched_from_beta(res, alpha) for alpha, res in results] == [True, True, False] + [True] * 9


class TestBeyondHardSet:
    """The beyond-hard set: twelve planted instances at n = 8..10 and r = 3..5, at cap 2,000.

    GenParams (8,3,16,24), (9,3,18,20), (10,3,20,20) and (8,5,16,12), seeds
    0-2.  Eleven are FOUND; (10,3,20,20) seed 0 aborts on the cap.
    """

    POINTS = [(8, 3, 16, 24), (9, 3, 18, 20), (10, 3, 20, 20), (8, 5, 16, 12)]
    NODES = [1, 11, 6, 527, 1, 1, 2000, 1, 1, 31, 43, 1]

    def test_outcomes_nodes_and_lift_moves(self):
        results = []
        for point in self.POINTS:
            for seed in range(3):
                inst, _ = gen_instance(GenParams(*point, seed=seed))
                alpha, beta = inst.tuples()
                results.append((alpha, beta, solve_mscp(alpha, beta, node_cap=2_000)))
        outcomes = [res.outcome for _, _, res in results]
        assert outcomes == [Outcome.FOUND] * 6 + [Outcome.ABORTED] + [Outcome.FOUND] * 5
        found = [(alpha, beta, res.conjugator) for alpha, beta, res in results if res.outcome is Outcome.FOUND]
        assert all(verify_conjugator(*answer) for answer in found)
        assert [len(res.graph.nodes) for _, _, res in results] == self.NODES
        assert sum(self.NODES) == 2_624
        assert sum(res.counters.lift_moves for _, _, res in results) == 436


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

    # equal tuples, tau-images (sigma_1 and sigma_2 on 3 strands), lift
    # chains that meet at a tuple neither starts from, and a pair whose
    # search expands its root
    EQUAL = words_tuple(3, (1,)), words_tuple(3, (1,))
    FLIPPED = words_tuple(3, (1,)), words_tuple(3, (2,))
    MET = words_tuple(3, (-1,)), words_tuple(3, (1, -2, -1))
    SEARCHED = words_tuple(4, (2,)), words_tuple(4, (1,))

    @pytest.mark.parametrize("cap", [0, -1, 1.5, True])
    def test_node_cap_checked_before_any_work(self, cap):
        # each rejects the cap alike, whether it would search or not
        for alpha, beta in (self.EQUAL, self.FLIPPED, self.MET, self.SEARCHED):
            with pytest.raises(InvalidParams):
                solve_mscp(alpha, beta, node_cap=cap)
        assert solve_mscp(*self.FLIPPED, node_cap=1).outcome is Outcome.FOUND

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

        search = solver_module._search
        calls = []

        def wrong_search(n, *args):
            res = search(n, *args)
            assert res.outcome is Outcome.FOUND
            calls.append(res.conjugator)
            res.conjugator = BraidWord(n, (1,))
            return res

        monkeypatch.setattr(solver_module, "_search", wrong_search)
        # tau-images and met chains are answered at the search root; the
        # last pair searches
        for alpha, beta in (self.FLIPPED, self.MET, self.SEARCHED):
            with pytest.raises(VerificationFailed):
                solve_mscp(alpha, beta)
        path = tmp_path / "w.inst"
        path.write_text("n 4\nr 1\nalpha 2\nbeta 1\n")
        capsys.readouterr()
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification" in captured.err
        assert len(calls) == 4

    def test_every_found_is_verified_once(self, monkeypatch):
        verify = solver_module.verify_conjugator
        calls = []

        def spy(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(solver_module, "verify_conjugator", spy)
        for (alpha, beta), expanded in [
            (self.EQUAL, False),
            (self.FLIPPED, False),
            (self.MET, False),
            (self.SEARCHED, True),
        ]:
            calls.clear()
            res = solve_mscp(alpha, beta)
            assert res.outcome is Outcome.FOUND
            assert bool(res.counters.nodes_expanded) is expanded
            assert calls == [(alpha, beta, res.conjugator)]

    def test_lockstep_meeting(self):
        # beta's first move reaches the tuple of alpha's first move, which
        # neither starts from
        alpha, beta = self.MET
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        assert list(res.graph.nodes) == [res.graph.root]
        assert res.counters.nodes_expanded == 0 and res.counters.lift_moves == 2
        a_chain, b_chain = lift_chain(alpha), lift_chain(beta)
        met = res.graph.root
        assert met in a_chain and met in b_chain
        assert met not in (_code_key(alpha), _code_key(beta))
        y_a, y_b = chain_word(3, a_chain, met), chain_word(3, b_chain, met)
        assert res.conjugator == word_concat(y_a, word_inverse(y_b))
        assert res.conjugator.letters == (2, 1, -1)
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_hard_tier_instance(self):
        # hard n=8 r=3 seed 1: the lifted vectors are incomparable, so the
        # search starts at their minimum and raises it once; it meets the
        # flip of a tuple of beta's chain
        inst, _ = gen_instance(GenParams(8, 3, 16, 12, seed=1))
        alpha, beta = tuple_from_words(8, inst.alpha), tuple_from_words(8, inst.beta)
        res = solve_mscp(alpha, beta, node_cap=1000)
        assert res.outcome is Outcome.FOUND
        assert len(res.graph.nodes) == 11
        assert res.counters.floor_raises == 1
        assert verify_conjugator(alpha, beta, res.conjugator)

    def test_outcomes_match_bfs_at_the_raw_floor(self):
        # planted pairs at n <= 4, every third one tampered with an extra
        # letter, against the one-sided BFS from raw alpha at the raw floor
        rng = random.Random(41)
        outcomes = []
        for k in range(300):
            n, r = rng.randint(2, 4), rng.randint(1, 3)
            words = [rand_word(rng, n, 4, min_len=1) for _ in range(r)]
            x = rand_word(rng, n, 3)
            beta_words = [word_concat(word_inverse(x), w, x) for w in words]
            if k % 3 == 2:
                beta_words[-1] = word_concat(beta_words[-1], BraidWord(n, (1,)))
            alpha, beta = tuple_from_words(n, words), tuple_from_words(n, beta_words)
            res = solve_mscp(alpha, beta)
            ref = oracle.bfs_search(alpha, beta, raw_floor(alpha, beta), 5_000)
            assert res.outcome is ref.outcome
            outcomes.append(res.outcome)
        assert outcomes.count(Outcome.FOUND) == 200
        assert outcomes.count(Outcome.NOT_CONJUGATE) == 100

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


class TestFlipMeeting:
    """The lift and the search stop at a tuple whose flip tau the other side holds.

    tau(X) = D^-1 X D, so a node X with tau(X) = t on beta's chain gives
    x = L P D y^-1: D's canonical word joins the conjugator, and the graph
    gains no node or edge for it.
    """

    @staticmethod
    def desk_pair(k):
        inst, _ = gen_instance(corpus_params()[k])
        return tuple_from_words(inst.n, inst.alpha), tuple_from_words(inst.n, inst.beta)

    @staticmethod
    def lockstep(alpha, beta, monkeypatch):
        """_lockstep's root, both chains, its move count and the tuple whose flip met."""
        flips = []
        monkeypatch.setattr(solver_module, "_flip", lambda entries: flips.append(entries) or _flip(entries))
        a_chain = {_code_key(alpha): SummitNode(None, None)}
        b_chain = {_code_key(beta): SummitNode(None, None)}
        counters = SearchCounters()
        root = _lockstep(alpha.n, a_chain, b_chain, counters)
        monkeypatch.undo()
        return root, a_chain, b_chain, counters.lift_moves, flips[-1]

    @staticmethod
    def flip_pairs():
        inst, _ = gen_instance(GenParams(8, 3, 16, 12, seed=1))
        pairs = [(words_tuple(3, (1,)), words_tuple(3, (2,)))]
        pairs.append((tuple_from_words(8, inst.alpha), tuple_from_words(8, [tau(w) for w in inst.alpha])))
        return pairs

    @staticmethod
    def check_answered_at_the_start(alpha, beta, conjugator):
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        assert list(res.graph.nodes) == [_code_key(alpha)]
        assert res.counters.lift_moves == 0 and res.counters.nodes_expanded == 0
        assert res.conjugator == conjugator

    def test_beta_is_the_flip_of_alpha(self):
        for alpha, beta in self.flip_pairs():
            self.check_answered_at_the_start(alpha, beta, simple_to_word(delta(alpha.n)))

    def test_beta_equals_alpha(self):
        # alpha's start meets beta's start before either chain makes a move
        for alpha, _ in self.flip_pairs():
            self.check_answered_at_the_start(alpha, alpha, BraidWord(alpha.n, ()))

    def test_alpha_side_of_the_lockstep(self, monkeypatch):
        # desk corpus instance 38: alpha's first move reaches tau(beta)
        alpha, beta = self.desk_pair(38)
        root, a_chain, b_chain, moves, met = self.lockstep(alpha, beta, monkeypatch)
        assert met == root == next(reversed(a_chain)) != _code_key(alpha)
        assert root not in b_chain and _flip(root) == _code_key(beta)
        assert moves == 1
        self.check_root_answer(alpha, beta, root, a_chain, b_chain, moves)

    def test_beta_side_of_the_lockstep(self, monkeypatch):
        # desk corpus instance 137: beta's first move reaches tau(alpha)
        alpha, beta = self.desk_pair(137)
        root, a_chain, b_chain, moves, met = self.lockstep(alpha, beta, monkeypatch)
        assert met == next(reversed(b_chain)) != _code_key(beta)
        assert met not in a_chain and root == _flip(met) == _code_key(alpha)
        assert moves == 2
        self.check_root_answer(alpha, beta, root, a_chain, b_chain, moves)

    @staticmethod
    def check_root_answer(alpha, beta, root, a_chain, b_chain, moves):
        res = solve_mscp(alpha, beta)
        assert res.outcome is Outcome.FOUND
        assert list(res.graph.nodes) == [root] and res.counters.lift_moves == moves
        y_a, y_b = chain_word(alpha.n, a_chain, root), chain_word(alpha.n, b_chain, _flip(root))
        assert res.conjugator == word_concat(y_a, simple_to_word(delta(alpha.n)), word_inverse(y_b))

    def test_search_child(self):
        # desk corpus instance 129: the root's first new child is the flip of
        # a tuple of beta's chain, and is not itself in the chain run to its end
        self.check_search_child(129, from_beta=False)

    def test_search_child_from_beta(self):
        # desk corpus instance 1 searches from lifted beta, whose vector sum
        # is the lower: its first new child is the flip of a tuple of alpha's
        # chain, the search's word w has w^-1 beta w = alpha, and the answer
        # is its inverse
        self.check_search_child(1, from_beta=True)

    def check_search_child(self, k, from_beta):
        alpha, beta = self.desk_pair(k)
        res = solve_mscp(alpha, beta, node_cap=1000)
        assert res.outcome is Outcome.FOUND
        graph, n = res.graph, alpha.n
        assert len(graph.nodes) == 2 and res.counters.nodes_expanded == 1
        own, other = lift_chain(alpha), lift_chain(beta)
        if from_beta:
            own, other = other, own
        assert searched_from_beta(res, alpha) is from_beta
        assert graph.root == next(reversed(own))
        # instance 129's two sums are equal, so it searches from alpha
        assert (sum(_vector(graph.root)) < sum(_vector(next(reversed(other))))) is from_beta
        child = next(reversed(graph.nodes))
        assert child not in other and _flip(child) in other
        y_own = chain_word(n, own, graph.root)
        y_other = chain_word(n, other, _flip(child))
        path = chain_word(n, graph.nodes, child)
        word = word_concat(y_own, path, simple_to_word(delta(n)), word_inverse(y_other))
        assert res.conjugator == (word_inverse(word) if from_beta else word)

    @staticmethod
    def totals(params):
        nodes = expanded = moves = at_root = 0
        for p in params:
            inst, _ = gen_instance(p)
            alpha, beta = tuple_from_words(inst.n, inst.alpha), tuple_from_words(inst.n, inst.beta)
            res = solve_mscp(alpha, beta, node_cap=1000)
            assert res.outcome is Outcome.FOUND
            nodes += len(res.graph.nodes)
            expanded += res.counters.nodes_expanded
            moves += res.counters.lift_moves
            at_root += res.counters.nodes_expanded == 0
        return nodes, expanded, moves, at_root

    def test_desk_totals(self):
        # 423 nodes, 179 expansions and 1,129 lift moves without the flip;
        # 351 nodes and 115 expansions when every search ran from lifted
        # alpha and visited both tuples of a tau-orbit
        assert self.totals(corpus_params()) == (268, 49, 825, 180)

    def test_hard_totals(self):
        # the benchmark's hard workload: three (n, r, entry length, key
        # length) points, the same with one-letter keys, seeds 0-2; without
        # the flip 141 nodes, 81 expansions, 404 lift moves, 8 at the root
        points = [(6, 2, 10, 8), (7, 2, 12, 10), (8, 3, 16, 12)]
        points += [(n, r, length, 1) for n, r, length, _ in points]
        params = [GenParams(*point, seed=seed) for point in points for seed in (0, 1, 2)]
        assert self.totals(params) == (88, 49, 263, 14)


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

    def test_empty_word_is_equality(self):
        # equal (from different words), conjugate but unequal, and not conjugate
        pairs = [
            (words_tuple(3, (1, 2, 1), (2,)), words_tuple(3, (2, 1, 2), (2,))),
            (words_tuple(3, (1,)), words_tuple(3, (2,))),
            (words_tuple(3, (1,), (2,)), words_tuple(3, (2,), (1,))),
            (words_tuple(3, (1,)), words_tuple(3, (1, 1, 1))),
            (words_tuple(4, (1, -3)), words_tuple(4, (-3, 1))),
        ]
        for alpha, beta in pairs:
            want = alpha == beta
            assert verify_conjugator(alpha, beta, BraidWord(alpha.n, ())) is want
            # and by a nonempty word equal to the identity
            assert verify_conjugator(alpha, beta, BraidWord(alpha.n, (1, -1))) is want
        assert [alpha == beta for alpha, beta in pairs] == [True, False, False, False, True]

    @staticmethod
    def tampered(inst):
        """beta with one extra letter on its last entry, as the verify workload tampers it."""
        last = word_concat(inst.beta[-1], BraidWord(inst.n, (1,)))
        return tuple_from_words(inst.n, inst.beta[:-1] + (last,))

    def test_matches_public_operations(self):
        # the verifier works on raw entries; the public operations are its
        # reference, on the desk corpus and four verify-sized instances
        def by_public_operations(alpha, beta, x):
            xf = normalize(x)
            xinv = invert(xf)
            return all(multiply(multiply(xinv, a), xf) == b for a, b in zip(alpha.entries, beta.entries))

        verdicts = collections.Counter()
        for params in corpus_params() + [GenParams(8, 3, 128, 64, k) for k in range(4)]:
            inst, planted = gen_instance(params)
            alpha, beta = inst.tuples()
            keys = [
                (beta, planted),
                (beta, word_concat(planted, BraidWord(inst.n, (1,)))),
                (self.tampered(inst), planted),
            ]
            if params.n < 8:
                res = solve_mscp(alpha, beta, node_cap=1000)
                assert res.outcome is Outcome.FOUND
                keys.append((beta, res.conjugator))
            for target, x in keys:
                want = by_public_operations(alpha, target, x)
                assert verify_conjugator(alpha, target, x) is want
                verdicts[want] += 1
        assert verdicts[True] > 400 and verdicts[False] > 200

    def test_builds_no_normal_form(self, monkeypatch):
        # every operand is built first; then a NormalForm built by the
        # check itself raises
        inst, planted = gen_instance(GenParams(8, 3, 128, 64, 0))
        alpha, beta = inst.tuples()
        equal = words_tuple(3, (1, 2, 1), (2,)), words_tuple(3, (2, 1, 2), (2,))
        conj = words_tuple(3, (1,)), words_tuple(3, (2,))
        cases = [
            (*equal, BraidWord(3, ()), True),
            (*equal, BraidWord(3, (1,)), False),
            (*conj, BraidWord(3, (2, 1)), True),
            (*conj, BraidWord(3, (1,)), False),
            (alpha, beta, planted, True),
            (alpha, self.tampered(inst), planted, False),
        ]

        def refuse(self):
            raise AssertionError("verification built a NormalForm")

        monkeypatch.setattr(NormalForm, "__post_init__", refuse)
        for alpha, beta, x, want in cases:
            assert verify_conjugator(alpha, beta, x) is want
