"""The integer-coded kernel: code tables and the one-pair left-weighting move.

Simple elements are coded by Lehmer rank plus a per-strand-count offset, and
each code's complements, flip, start set and inversion set come from lazily
filled tables.  A fill of the left-complement or flip table also writes the
entry that an identity gives for free (rcomp(lcomp a) = a, tau(tau a) = a),
so an entry may be written before it is ever looked up.
These tests pin the tables to the permutation functions, whichever way an
entry was filled, and the left-weighting move to the brute-force meet of
tests/oracle.py, and the meet, the join complement and the move at larger n
to references built on the oracle's letter-by-letter peel.  The rank step
that grows a run's code one crossing at a time is pinned to the code of the
product permutation.
"""

import itertools
import math
import random
import sys
import tracemalloc

import pytest

import oracle
import braidmscp.braid
import braidmscp.cli  # loaded so that its parser memo is in the pinned set
import braidmscp.solver
from braidmscp import (
    BraidWord,
    SimpleElement,
    conjugate,
    counters_report,
    delta,
    enumerate_simples,
    export_graph,
    gen_instance,
    generator_simple,
    join,
    left_complement_simple,
    normalize,
    run_attack,
    simple_from_positive_word,
    word_from_text,
    word_to_text,
)
from braidmscp.braid import (
    _CODE,
    _DELTA,
    _INV,
    _LCOMP,
    _LETTER_TEXT,
    _LETTERS,
    _OFFSET,
    _PERM,
    _RANK_STEP,
    _RCOMP,
    _SIMPLE,
    _START,
    _TAU,
    _braid_mul,
    _left_complement,
    _letter_codes,
    _meet,
    _peel,
    _perm_inverse,
    _rank,
    _rcomp_perm,
    _tau_perm,
)
from braidmscp.harness import GenParams
from braidmscp.instance_io import write_instance
from braidmscp.normal_form import _PAIR_MOVE, _WORD_TEXT, _weight_seq
from test_acceptance import corpus_params


def perms(n):
    return list(itertools.permutations(range(n)))


def inversions(p):
    """The inversion set by its definition: bit i*n + j for each pair i < j with p[i] > p[j]."""
    n = len(p)
    return sum(1 << (i * n + j) for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def descents(p):
    return sum(1 << i for i in range(len(p) - 1) if p[i] > p[i + 1])


class TestCodes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_round_trip_and_lexicographic_rank(self, n):
        for rank, p in enumerate(perms(n)):
            code = SimpleElement(n, p).code
            assert code == _OFFSET[n] + rank
            assert _PERM[code] == p
            assert SimpleElement(n, _PERM[code]).code == code

    def test_strand_counts_use_disjoint_ranges(self):
        for n in range(2, 8):
            assert _OFFSET[n + 1] - _OFFSET[n] == math.factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complement_and_flip_tables(self, n):
        for p in perms(n):
            code = SimpleElement(n, p).code
            assert _PERM[_RCOMP[code]] == _rcomp_perm(p)
            assert _braid_mul(_PERM[_LCOMP[code]], p) == delta(n).perm
            assert _PERM[_TAU[code]] == _tau_perm(p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_start_and_inversion_sets(self, n):
        gens = [generator_simple(n, i).perm for i in range(1, n)]
        for p in perms(n):
            code = SimpleElement(n, p).code
            starts = {i for i, g in enumerate(gens) if oracle.brute_divides(g, p)}
            assert {i for i in range(n - 1) if _START[code] >> i & 1} == starts
            assert _INV[code].bit_count() == oracle.inv_count(p)
        for a, b in itertools.product(perms(n), repeat=2):
            ca, cb = SimpleElement(n, a).code, SimpleElement(n, b).code
            assert (not _INV[ca] & ~_INV[cb]) == oracle.brute_divides(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_inversion_set_exhaustive(self, n):
        for p in perms(n):
            assert _INV[_CODE[p]] == inversions(p)

    @pytest.mark.parametrize("n", [8, 9, 10, 12])
    def test_inversion_set_sampled(self, n):
        rng = random.Random(n)
        samples = [tuple(rng.sample(range(n), n)) for _ in range(300)]
        samples += [tuple(range(n)), tuple(range(n))[::-1]]
        for p in samples:
            assert _INV[_CODE[p]] == inversions(p)


class TestRunCodes:
    """The rank step by which normal_form._weight_seq grows a run's code.

    A run keeps its arrangement, the strand at each position (the inverse
    permutation).  Letter i after a simple p crosses the strands u, v at
    positions i-1 and i: when u < v the product is simple and its code is
    p's plus (n-1-u)!.  When u > v, s_i divides p on the right, and the
    quotient's code is p's minus (n-1-v)!, the smaller strand's step.
    """

    @staticmethod
    def check(p):
        n = len(p)
        code, arrangement, step = _CODE[p], _perm_inverse(p), _RANK_STEP[n]
        length = _INV[code].bit_count()
        for i in range(1, n):
            u, v = arrangement[i - 1], arrangement[i]
            # the permutation of p s_i and of p s_i^-1 alike
            other = _CODE[_braid_mul(p, oracle.gen_perm(n, i))]
            if u < v:
                assert other == code + step[u]
                assert _INV[other].bit_count() == length + 1
            else:
                assert other == code - step[v]
                assert _INV[other].bit_count() == length - 1

    @staticmethod
    def check_complement(p):
        """Growing the inverse run of P = p by s_j divides lcomp(P) on the right by s_j."""
        n = len(p)
        comp = _LCOMP[_CODE[p]]
        arrangement, step = _perm_inverse(_PERM[comp]), _RANK_STEP[n]
        for j in range(1, n):
            grown = _braid_mul(oracle.gen_perm(n, j), p)  # s_j P
            if _INV[_CODE[grown]].bit_count() == _INV[_CODE[p]].bit_count() + 1:
                u, v = arrangement[j - 1], arrangement[j]
                assert u > v
                assert _LCOMP[_CODE[grown]] == comp - step[v]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_simple(self, n):
        for p in perms(n):
            self.check(p)
            self.check_complement(p)

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
    def test_sampled(self, n):
        rng = random.Random(70 + n)
        samples = [tuple(rng.sample(range(n), n)) for _ in range(100)]
        for p in [*samples, tuple(range(n)), tuple(range(n))[::-1]]:
            self.check(p)
            self.check_complement(p)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_run_starts(self, n):
        # a run grows from its first letter's code and the arrangement of
        # that letter's simple: the identity, or the reversal, with
        # positions j-1 and j swapped
        letters = [*range(1, n), *range(1 - n, 0)]
        for e in letters:
            j = abs(e)
            start = list(range(n)) if e > 0 else list(range(n))[::-1]
            start[j - 1], start[j] = start[j], start[j - 1]
            assert start == list(_perm_inverse(_PERM[_LETTERS[n][e]]))
            # every other letter of the sign extends it by the rank step
            # read off that arrangement, to the two letters' simple: s_e s_f,
            # or for an inverse run D^-1 lcomp(s_|f| s_|e|)
            for f in letters:
                if f == e or (f > 0) is not (e > 0):
                    continue
                if e > 0:
                    expected = (0, (_CODE[oracle.word_perm(n, (e, f))],))
                else:
                    expected = (-1, (_LCOMP[_CODE[oracle.word_perm(n, (-f, -e))]],))
                assert _weight_seq(n, (e, f)) == expected
        assert _RANK_STEP[n] == tuple(math.factorial(n - 1 - u) for u in range(n))

    def test_large_strand_count_builds_no_arrangement_table(self):
        # no per-strand-count table of letter arrangements: one of 2(n-1)
        # arrangements of n strands reads 63.8 MB traced at n = 1000
        for cache in package_caches():
            cache.cache_clear()
        tracemalloc.start()
        try:
            normalize(BraidWord(1000, (1, -2)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", range(2, 13))
    def test_letter_codes_match_ranked_codes(self, n):
        # ranked here, not looked up: a lookup of a letter's permutation
        # unranks the letter's own code and writes it back to _CODE
        for i in range(1, n):
            gen = oracle.gen_perm(n, i)
            assert _LETTERS[n][i] == _OFFSET[n] + _rank(gen)
            assert _LETTERS[n][-i] == _OFFSET[n] + _rank(_tau_perm(_rcomp_perm(gen)))

    def test_factorial_tables_match_their_formulas(self):
        # built from running products; recomputed here one factorial at a time
        for n in range(2, 41):
            assert _OFFSET._build(n) == sum(math.factorial(k) for k in range(2, n))
            assert _DELTA._build(n) == sum(math.factorial(k) for k in range(2, n + 1)) - 1
            assert _RANK_STEP._build(n) == tuple(math.factorial(n - 1 - u) for u in range(n))

    def test_letter_codes_at_large_n_take_few_factorials(self, monkeypatch):
        # each factorial from scratch made about 3,000 calls at n = 1000
        tables = (_LETTERS, _OFFSET, _DELTA, _RANK_STEP)
        for table in tables:
            for n in (1000, 1001):
                table.pop(n, None)
        sizes = [len(table) for table in tables]
        calls, factorial = [], math.factorial
        monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or factorial(k))
        codes = _LETTERS[1000]
        monkeypatch.undo()
        fills = sum(len(table) - size for table, size in zip(tables, sizes))
        assert len(calls) <= fills
        assert codes == _letter_codes(1000)

    def test_letter_codes_rank_nothing(self, monkeypatch):
        # ranking the 2(n-1) letter codes at n = 1000 costs seconds
        def refuse(p):
            raise RuntimeError("a letter code was ranked")

        monkeypatch.setattr(braidmscp.braid, "_rank", refuse)
        codes = _letter_codes(1000)
        monkeypatch.undo()
        for i in (1, 500, 999):
            gen = oracle.gen_perm(1000, i)
            assert codes[i] == _OFFSET[1000] + _rank(gen)
            assert codes[-i] == _OFFSET[1000] + _rank(_tau_perm(_rcomp_perm(gen)))


def built_entry_problems():
    """Every entry of the filled tables that differs from its value recomputed from _PERM alone.

    A letter's text is recomputed from the letter.
    """
    bad = []
    for table, expect in (
        # a^-1 D, D a^-1 and D^-1 a D, with D the reversal x -> n-1-x
        (_RCOMP, lambda p: _CODE[tuple(len(p) - 1 - v for v in _perm_inverse(p))]),
        (_LCOMP, lambda p: _CODE[_perm_inverse(p)[::-1]]),
        (_TAU, lambda p: _CODE[tuple(len(p) - 1 - v for v in p[::-1])]),
        (_INV, inversions),
        (_START, descents),
    ):
        bad += [(c, v) for c, v in list(table.items()) if v != expect(_PERM[c])]
    for n, steps in list(_RANK_STEP.items()):
        if steps != tuple(math.factorial(n - 1 - u) for u in range(n)):
            bad.append((n, steps))
    bad += [(e, text) for e, text in list(_LETTER_TEXT.items()) if text != str(e)]
    for c, text in list(_WORD_TEXT.items()):
        p = _PERM[c]
        # the text is a reduced positive word of the code's permutation
        if simple_from_positive_word(word_from_text(text, len(p))).perm != p:
            bad.append((c, text))
    return bad


class TestWrittenEntries:
    """An entry written by a partner's fill equals the entry its own builder would make."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_identities(self, n):
        for p in perms(n):
            c = _CODE[p]
            assert _TAU[_LCOMP[c]] == _RCOMP[c]
            assert _RCOMP[_LCOMP[c]] == c
            assert _LCOMP[_RCOMP[c]] == c
            assert _TAU[_TAU[c]] == c
        assert built_entry_problems() == []

    def test_cold_workloads(self, tmp_path, capsys):
        for cache in package_caches():
            cache.cache_clear()
        inst, planted = gen_instance(GenParams(8, 3, 16, 12, seed=1))
        graph = run_attack(inst, planted, node_cap=1000).result.graph
        export_graph(graph, "dot")
        inst, planted = gen_instance(GenParams(12, 3, 64, 32, seed=5))
        path = tmp_path / "wide.inst"
        path.write_text(write_instance(inst))
        assert braidmscp.cli.main(["verify", str(path), word_to_text(planted)]) == 0
        assert capsys.readouterr().out == "valid\n"
        assert all((_RCOMP, _LCOMP, _TAU, _INV, _START, _WORD_TEXT, _LETTER_TEXT, _RANK_STEP))
        assert built_entry_problems() == []


def weighted_by_oracle(a, b):
    """The left-weighted pair (a h, h^-1 b) for h = meet(rcomp(a), b), by brute force."""
    h = oracle.brute_meet(_rcomp_perm(a), b)
    hinv = _perm_inverse(h)
    return h, _braid_mul(a, h), tuple(b[hinv[i]] for i in range(len(b)))


class TestLeftWeighting:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fix_pair_against_brute_meet(self, n):
        ident = tuple(range(n))
        for a, b in itertools.product(perms(n), repeat=2):
            ca, cb = SimpleElement(n, a).code, SimpleElement(n, b).code
            h, wa, wb = weighted_by_oracle(a, b)
            fa, fb = _PAIR_MOVE[ca, cb]
            assert (_PERM[fa], _PERM[fb]) == (wa, wb)
            # the start-set fast path reports "already weighted" exactly
            # when the meet is trivial
            assert (not _START[_RCOMP[ca]] & _START[cb]) == (h == ident)
            # the move commutes with the flip, which the comb's tau-frame needs
            assert _PAIR_MOVE[_TAU[ca], _TAU[cb]] == (_TAU[fa], _TAU[fb])


def sampled_pairs(n, count):
    """Codes of random pairs, pairs one swap apart, equal pairs and pairs with no common ascent."""
    rng = random.Random(n)
    pairs = []
    for _ in range(count):
        a = rng.sample(range(n), n)
        b = rng.sample(range(n), n)
        near = list(a)
        i = rng.randrange(n - 1)
        near[i], near[i + 1] = near[i + 1], near[i]
        # reversing the values turns every ascent of a into a descent
        for other in (b, near, a, [n - 1 - x for x in a]):
            pairs.append((SimpleElement(n, a).code, SimpleElement(n, other).code))
    return pairs


class TestMeetAgainstReference:
    """The insertion-pass meet against the letter-by-letter peel of tests/oracle.py.

    The exhaustive tests above stop at n = 5; these sample strand counts
    where a meet runs to dozens of letters.
    """

    @pytest.mark.parametrize("n", [8, 9, 10, 12])
    def test_sampled_pairs(self, n):
        join_is_delta = 0
        for a, b in sampled_pairs(n, 150):
            ry, rz = oracle.ref_peel(a, b)
            assert _peel(_PERM[a], _PERM[b]) == (list(_PERM[ry]), list(_PERM[rz]))
            assert _meet(a, b) == oracle.ref_meet(a, b)
            assert _left_complement(a, b) == oracle.ref_left_complement(a, b)
            assert _PAIR_MOVE[a, b] == oracle.ref_fix_pair(a, b)
            join_is_delta += (_START[a] | _START[b]).bit_count() == n - 1
        assert join_is_delta >= 150


class TestProductsStaySimple:
    def test_every_raw_product_is_simple(self, monkeypatch):
        # only simple_product checks that a product is simple; every other
        # product is b times a join complement past b, simple by construction
        raw = braidmscp.braid._mul
        calls = []

        def checked(a, b):
            if _INV[b] & ~_INV[_RCOMP[a]]:
                raise AssertionError(f"{_PERM[a]} * {_PERM[b]} is not simple")
            calls.append(a)
            return raw(a, b)

        monkeypatch.setattr(braidmscp.braid, "_mul", checked)
        monkeypatch.setattr(braidmscp.solver, "_mul", checked)
        for params in corpus_params()[:50]:
            inst, planted = gen_instance(params)
            run_attack(inst, planted, node_cap=1000)
        assert calls
        for n in (2, 3, 4):
            for a, b in itertools.product(enumerate_simples(n), repeat=2):
                c = left_complement_simple(a, b)
                assert checked(b.code, c.code) == join(a, b).code


def package_caches():
    """Module-level functools caches and tables, found the way a cold start finds them."""
    found = {}
    modules = [m for name, m in sys.modules.items() if name.startswith("braidmscp.")]
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


class TestMemoSet:
    def test_only_measured_memos(self):
        # Each memo kept here hits on most calls on the benchmark workloads
        # (see ROADMAP.md).  Adding one means adding it to this set and
        # recording its measured hit rates next to the others.
        memos = {
            f"{c.__module__}.{c.__qualname__}"
            for c in package_caches()
            if not isinstance(c, dict)
        }
        assert memos == {
            "braidmscp.braid._left_complement",
            "braidmscp.cli._build_parser",
        }


class TestColdStart:
    def test_clearing_empties_every_table(self):
        normalize(BraidWord(5, (1, -2, 3, 4, -1)))
        caches = package_caches()
        tables = [c for c in caches if isinstance(c, dict)]
        assert len(tables) >= 8
        for filled in (_PAIR_MOVE, _RANK_STEP):
            assert filled and any(t is filled for t in tables)
        for cache in caches:
            cache.cache_clear()
        assert all(not table for table in tables)

    def test_live_values_survive_clearing(self):
        f = normalize(BraidWord(5, (1, -2, 3, 4, -1, 2)))
        s = generator_simple(5, 3)
        expected = conjugate(f, s)
        for cache in package_caches():
            cache.cache_clear()
        assert conjugate(f, s) == expected
        assert normalize(BraidWord(5, (1, -2, 3, 4, -1, 2))) == f


class TestCodesOnly:
    def test_search_verify_and_export_build_no_simple_element(self, tmp_path, capsys):
        # a simple element is stored as its code alone: from cold caches, a
        # search, its verification, its export and CLI verify leave the
        # SimpleElement table empty
        for cache in package_caches():
            cache.cache_clear()
        for params in corpus_params()[:20]:
            inst, planted = gen_instance(params)
            graph = run_attack(inst, planted, node_cap=1000).result.graph
            counters_report(graph)
            export_graph(graph, "edgelist")
            export_graph(graph, "dot")
        path = tmp_path / "w.inst"
        path.write_text("n 3\nr 1\nalpha 1\nbeta 2\n")
        assert braidmscp.cli.main(["verify", str(path), "2 1"]) == 0
        assert capsys.readouterr().out == "valid\n"
        assert not _SIMPLE
