import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from braidmscp import (
    BadToken,
    BoundExceeded,
    BraidWord,
    InvalidParams,
    NegativeLetter,
    NotSimple,
    SimpleElement,
    StrandMismatch,
    delta,
    enumerate_simples,
    generator_simple,
    identity_simple,
    join,
    left_complement_simple,
    meet,
    right_complement,
    simple_divides,
    simple_from_positive_word,
    simple_product,
    simple_to_word,
    tau,
    word_concat,
    word_from_text,
    word_inverse,
    word_to_text,
)
from braidmscp.braid import _PERM


def s_word(n, *letters):
    return simple_from_positive_word(BraidWord(n, letters))


class TestWords:
    def test_inverse(self):
        assert word_inverse(BraidWord(3, (1, 2))).letters == (-2, -1)
        assert word_inverse(BraidWord(3, ())).letters == ()
        assert word_inverse(BraidWord(3, (-1,))).letters == (1,)

    def test_concat(self):
        a, b = BraidWord(4, (1, -2)), BraidWord(4, (3,))
        assert word_concat(a).letters == (1, -2)
        assert word_concat(a, BraidWord(4, ()), b, a).letters == (1, -2, 3, 1, -2)
        with pytest.raises(StrandMismatch):
            word_concat(a, BraidWord(3, (1,)))
        # a public function: no words is an input error, not an IndexError
        with pytest.raises(InvalidParams, match="at least one word"):
            word_concat()

    def test_letter_validation(self):
        with pytest.raises(InvalidParams):
            BraidWord(3, (3,))
        with pytest.raises(InvalidParams):
            BraidWord(3, (0,))
        with pytest.raises(InvalidParams):
            BraidWord(1, (1,))
        # a letter is an int and not a bool: True would be written as "True"
        for letters in ((True, -2), (1.0,), ("1",), (None,)):
            with pytest.raises(InvalidParams):
                BraidWord(3, letters)

    @pytest.mark.parametrize("bad", [True, 1.0, 0, 5, -5])
    def test_bad_last_letter_of_a_long_word_is_named(self, bad):
        rng = random.Random(5)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(255))
        with pytest.raises(InvalidParams, match=f"letter {bad!r} out of range for 5 strands"):
            BraidWord(5, (*letters, bad))

    def test_text_round_trip(self):
        assert word_to_text(BraidWord(3, (1, -2))) == "1 -2"
        assert word_to_text(BraidWord(3, ())) == "e"
        assert word_from_text("e", 4).letters == ()
        assert word_from_text("1 -2 3", 4).letters == (1, -2, 3)
        with pytest.raises(InvalidParams):
            word_from_text("x", 3)

    def test_letters_are_ascii_integer_tokens(self):
        # a sign and leading zeros are decimal; any whitespace separates
        assert word_from_text("+1 -02\u00a0001\u2003-1", 3).letters == (1, -2, 1, -1)

    @pytest.mark.parametrize(
        "text, message, offset, out_of_range",
        [
            ("1_0", "bad letter token '1_0'", 0, False),
            ("1 \u0661 +2", "bad letter token '\u0661'", 2, False),
            ("2 \uff12", "bad letter token '\uff12'", 2, False),
            ("1  e", "'e' cannot appear inside a word", 3, False),
            ("-1 +3 x", "letter 3 out of range 1..2", 3, True),
            ("1 0", "letter 0 out of range 1..2", 2, True),
            (" \t", "empty word text; the identity is written 'e'", 0, False),
        ],
    )
    def test_first_bad_token_is_named_with_its_offset_and_kind(self, text, message, offset, out_of_range):
        with pytest.raises(BadToken) as exc:
            word_from_text(text, 3)
        assert (str(exc.value), exc.value.offset, exc.value.out_of_range) == (message, offset, out_of_range)


class TestSimpleConstruction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_short_positive_word_against_the_product_rule(self, n):
        # simple exactly when no pair of strands crosses twice: the word is as
        # long as the inversion count of its permutation
        for length in range(7):
            for letters in itertools.product(range(1, n), repeat=length):
                p = oracle.word_perm(n, letters)
                if oracle.inv_count(p) == length:
                    assert simple_from_positive_word(BraidWord(n, letters)).perm == p
                else:
                    with pytest.raises(NotSimple):
                        simple_from_positive_word(BraidWord(n, letters))

    def test_from_positive_word(self):
        assert s_word(3, 1, 2).perm == (2, 0, 1)
        assert s_word(3).perm == (0, 1, 2)
        with pytest.raises(NotSimple):
            s_word(3, 1, 1)
        with pytest.raises(NegativeLetter):
            simple_from_positive_word(BraidWord(3, (-1,)))

    def test_equivalent_reduced_words_agree(self):
        assert s_word(3, 1, 2, 1) == s_word(3, 2, 1, 2) == delta(3)

    def test_delta(self):
        assert delta(2).perm == (1, 0)
        assert simple_to_word(delta(2)).letters == (1,)
        assert delta(3).length() == 3
        assert delta(4).length() == 6
        assert delta(4).perm == (3, 2, 1, 0)

    def test_to_word_canonical(self):
        assert simple_to_word(identity_simple(3)).letters == ()
        assert simple_to_word(s_word(3, 1)).letters == (1,)
        assert simple_to_word(delta(3)).letters == (1, 2, 1)

    def test_to_word_round_trip_exhaustive(self):
        for n in (2, 3, 4, 5):
            for s in enumerate_simples(n):
                w = simple_to_word(s)
                assert len(w.letters) == s.length()
                assert simple_from_positive_word(w) == s

    def test_census(self):
        assert len(enumerate_simples(2)) == 2
        assert {s.perm for s in enumerate_simples(2)} == {(0, 1), (1, 0)}
        assert len(enumerate_simples(3)) == 6
        assert len(enumerate_simples(4)) == 24
        with pytest.raises(BoundExceeded):
            enumerate_simples(7)

    def test_entries_must_be_ints(self):
        # a bool or float entry would be stored in the shared permutation
        # table and handed to every later user of that permutation
        from test_kernel import package_caches

        for warm in (False, True):
            for cache in package_caches():
                cache.cache_clear()
            if warm:
                assert SimpleElement(3, (0, 2, 1)).perm == (0, 2, 1)
            for perm in ((True, 0, 2), (0, 2.0, 1)):
                with pytest.raises(InvalidParams):
                    SimpleElement(3, perm)
            assert [type(v) for v in generator_simple(3, 1).perm] == [int] * 3
            assert all(type(v) is int for perm in _PERM.values() for v in perm)

    def test_mixed_strand_counts_rejected(self):
        with pytest.raises(StrandMismatch):
            meet(identity_simple(3), identity_simple(4))
        with pytest.raises(StrandMismatch):
            simple_divides(delta(3), delta(4))


class TestTau:
    def test_on_generator(self):
        assert tau(generator_simple(3, 1)) == generator_simple(3, 2)

    def test_on_word(self):
        assert tau(BraidWord(4, (1, -3, 2))).letters == (3, -1, 2)

    def test_parity(self):
        s = s_word(4, 1, 2)
        assert tau(s) != s
        assert tau(tau(s)) == s
        w = BraidWord(4, (1, -3, 2))
        assert tau(tau(w)) == w

    def test_lattice_automorphism_exhaustive(self):
        for n in (2, 3, 4):
            for a, b in itertools.product(enumerate_simples(n), repeat=2):
                assert tau(meet(a, b)) == meet(tau(a), tau(b))


class TestDivisibility:
    def test_examples(self):
        assert simple_divides(s_word(3, 1), s_word(3, 1, 2))
        assert not simple_divides(s_word(3, 2), s_word(3, 1, 2))

    def test_everything_divides_delta(self):
        for n in (2, 3, 4, 5):
            d = delta(n)
            assert all(simple_divides(s, d) for s in enumerate_simples(n))

    def test_against_word_oracle(self):
        # b = a * c for a positive word c iff the oracle finds a as a prefix
        for n in (2, 3, 4):
            for a, b in itertools.product(enumerate_simples(n), repeat=2):
                assert simple_divides(a, b) == oracle.brute_divides(a.perm, b.perm)


class TestLattice:
    def test_meet_examples(self):
        assert meet(s_word(3, 1, 2), s_word(3, 2, 1)) == identity_simple(3)
        for s in enumerate_simples(4):
            assert meet(delta(4), s) == s
            assert meet(s, s) == s

    def test_join_examples(self):
        assert join(generator_simple(3, 1), generator_simple(3, 2)) == delta(3)
        for s in enumerate_simples(4):
            assert join(s, identity_simple(4)) == s
            assert join(s, delta(4)) == delta(4)

    def test_meet_join_against_oracle_exhaustive(self):
        for n in (2, 3, 4):
            for a, b in itertools.product(enumerate_simples(n), repeat=2):
                assert meet(a, b).perm == oracle.brute_meet(a.perm, b.perm)
                assert join(a, b).perm == oracle.brute_join(a.perm, b.perm)

    def test_meet_against_oracle_sampled_b5(self):
        rng = random.Random(501)
        simples = enumerate_simples(5)
        for _ in range(300):
            a, b = rng.choice(simples), rng.choice(simples)
            assert meet(a, b).perm == oracle.brute_meet(a.perm, b.perm)

    def test_complements_exhaustive(self):
        for n in (2, 3, 4, 5):
            d = delta(n)
            for a in enumerate_simples(n):
                assert simple_product(a, right_complement(a)) == d

    def test_right_complement_example(self):
        assert right_complement(generator_simple(3, 1)) == s_word(3, 2, 1)
        assert right_complement(identity_simple(3)) == delta(3)
        assert right_complement(delta(3)) == identity_simple(3)

    def test_left_complement_simple(self):
        assert left_complement_simple(s_word(3, 2), s_word(3, 1, 2)) == s_word(3, 1)
        for n in (2, 3, 4):
            for a, b in itertools.product(enumerate_simples(n), repeat=2):
                c = left_complement_simple(a, b)
                assert simple_product(b, c) == join(a, b)
                assert c.is_identity() == simple_divides(a, b)
        assert left_complement_simple(delta(4), s_word(4, 2, 3)) == right_complement(
            s_word(4, 2, 3)
        )

    def test_simple_product_rejects_non_simple(self):
        with pytest.raises(NotSimple):
            simple_product(delta(3), generator_simple(3, 1))


@st.composite
def simple_pair(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    a = tuple(draw(st.permutations(range(n))))
    b = tuple(draw(st.permutations(range(n))))
    return SimpleElement(n, a), SimpleElement(n, b)


@st.composite
def simple_triple(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    perms = [tuple(draw(st.permutations(range(n)))) for _ in range(3)]
    return tuple(SimpleElement(n, p) for p in perms)


class TestLatticeAxioms:
    @given(simple_pair())
    def test_commutative(self, pair):
        a, b = pair
        assert meet(a, b) == meet(b, a)
        assert join(a, b) == join(b, a)

    @settings(max_examples=60)
    @given(simple_triple())
    def test_associative(self, triple):
        a, b, c = triple
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(join(a, b), c) == join(a, join(b, c))

    @given(simple_pair())
    def test_absorption_and_idempotence(self, pair):
        a, b = pair
        assert meet(a, a) == a and join(a, a) == a
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a

    @given(simple_pair())
    def test_order_compatibility(self, pair):
        a, b = pair
        assert simple_divides(meet(a, b), a)
        assert simple_divides(a, join(a, b))

    @given(simple_pair())
    def test_universal_properties(self, pair):
        a, b = pair
        m, j = meet(a, b), join(a, b)
        for c in enumerate_simples(a.n):
            if simple_divides(c, a) and simple_divides(c, b):
                assert simple_divides(c, m)
            if simple_divides(a, c) and simple_divides(b, c):
                assert simple_divides(j, c)
