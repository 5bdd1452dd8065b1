"""Left normal forms of braids: D^k A_1 ... A_l with left-weighted factors.

Every braid has a unique expression D^k A_1 ... A_l where D is the half
twist, no factor A_i is trivial or D, and each adjacent pair is left-weighted,
meaning meet(rcomp(A_i), A_(i+1)) is trivial: A_i already absorbs every
crossing that could be pulled out of the head of A_(i+1).  The exponent k is
the infimum of the braid and k + l its supremum.

All of the machinery runs on the integer codes of braid.py: a normal form
is its strand count, its power and the tuple of its factors' codes, and the
raw layer below takes and returns (power, code tuple) pairs.  The codes are
the only stored form of the factors; the factors property builds their
SimpleElement values on request.  A pair (a, b)
is already left-weighted exactly when no letter starts both rcomp(a) and b,
one AND of two start-set bitmasks, which is tested before any meet is
computed.

Normalization rewrites each inverse letter as D^-1 times a left complement,
pushes the D powers to the front through the flip tau, then restores
left-weightedness with the local move "transfer meet(rcomp(A), B) from B to
A".  The move sends (A, D) to (D, tau(A)) and (trivial, B) to (B, trivial),
so half twists bubble to the front and trivial factors to the back, where
they are stripped.  Products of two already-weighted sequences only need the
move combed outward from the junction, which keeps multiplication cheap.
Conjugating by a simple s adds one factor at each end of a weighted
sequence, so it is left-weighted in one pass over one list: a forward sweep
from the new head, then s combed back from the tail, then a single strip.
Only the one-pair move _fix_pair is memoised, since most calls hit it; whole
normal forms, conjugates and products rarely repeat, so they are recomputed.
"""

from __future__ import annotations

import dataclasses
import functools

from .braid import (
    _DELTA,
    _IDENTITY,
    _INV,
    _LCOMP,
    _LETTERS,
    _PERM,
    _RCOMP,
    _SIMPLE,
    _START,
    _TAU,
    BraidWord,
    SimpleElement,
    _braid_mul,
    _code_word,
    _LazyTable,
    _left_complement,
    _peel,
    check_same_strands,
    check_strand_count,
    word_inverse,
    word_to_text,
)
from .errors import InvalidParams, NotPositive, StrandMismatch

Codes = tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """A braid in left normal form: power of the half twist plus factor codes."""

    n: int
    power: int
    codes: Codes = ()

    def __post_init__(self):
        check_strand_count(self.n)
        if type(self.power) is not int:  # not a bool either
            raise InvalidParams(f"power {self.power!r} is not an integer")
        object.__setattr__(self, "codes", tuple(self.codes))
        # the codes of n strands run from the identity's to the half twist's
        lo, hi = _IDENTITY[self.n], _DELTA[self.n]
        for c in self.codes:
            if not isinstance(c, int) or c < 0 or c in (lo, hi):
                raise InvalidParams(f"factor {c!r} is not the code of a proper simple factor")
            if not lo < c < hi:
                raise StrandMismatch(f"factor code {c} is not on {self.n} strands")

    @property
    def factors(self) -> tuple[SimpleElement, ...]:
        return tuple(_SIMPLE[c] for c in self.codes)

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.codes)

    def canonical_length(self) -> int:
        return len(self.codes)

    def is_identity(self) -> bool:
        return self.power == 0 and not self.codes


def inf_sup(f: NormalForm) -> tuple[int, int]:
    return f.inf, f.sup


# ---------------------------------------------------------------------------
# Normalization machinery on raw code sequences.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fix_pair(a: int, b: int) -> tuple[int, int]:
    """Left-weight one adjacent pair by moving the head h = meet(rcomp(a), b) of b into a.

    Peeling h off rcomp(a) leaves rcomp(a*h), so a*h is the left complement
    of what remains.
    """
    y = _RCOMP[a]
    if not _START[y] & _START[b]:
        return a, b
    y, b = _peel(y, b)
    return _LCOMP[y], b


def _comb_back(factors: list[int], i: int) -> None:
    """Restore left-weightedness of pairs below i after factor i changed."""
    for k in range(i - 1, -1, -1):
        a, b = _fix_pair(factors[k], factors[k + 1])
        if a == factors[k]:
            break
        factors[k], factors[k + 1] = a, b


def _comb_forward(factors: list[int], i: int, stop: int) -> None:
    """Left-weight factors[:stop + 1] when only pairs from i on are unweighted.

    Sweeps the pairs (k, k + 1) for k from i below stop, combing back after
    each change, and stops at the first pair that is already weighted.
    """
    for k in range(i, stop):
        a, b = _fix_pair(factors[k], factors[k + 1])
        if a == factors[k]:
            break
        factors[k], factors[k + 1] = a, b
        _comb_back(factors, k)


def _strip(n: int, factors: list[int]) -> tuple[int, Codes]:
    """Absorb leading half twists into the power and drop trailing trivials."""
    ident = _IDENTITY[n]
    top = _DELTA[n]
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == top:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def _prod_normal(n: int, left: Codes, right: Codes) -> tuple[int, Codes]:
    """Left-weight the concatenation of two already left-weighted sequences.

    Violations can only start at the junction, so the local move is applied
    there and combed outward until a pair is already weighted: at once when
    the junction is weighted or a side is empty.  The strip takes a half
    twist that right = (D,) combs to the front, as in p*s for s = D.
    """
    factors = [*left, *right]
    _comb_forward(factors, max(len(left) - 1, 0), len(factors) - 1)
    return _strip(n, factors)


def _weight_seq(n: int, seq) -> tuple[int, Codes]:
    """Left-weight an arbitrary sequence of simple factors, appending one at a time.

    Appending a factor can only break the last pair, so the local move is
    combed back from there.  Half twists collect at the front, where combing
    stops, and at most the new last factor can become trivial, to be popped;
    so is an identity in seq, which only n = 2 gives (lcomp(s1) = e there).
    """
    ident = _IDENTITY[n]
    factors: list[int] = []
    for p in seq:
        factors.append(p)
        _comb_back(factors, len(factors) - 1)
        if factors[-1] == ident:
            factors.pop()
    return _strip(n, factors)


def _push_half_twists(items: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Move the D^d prefixes of a factor sequence to the front.

    Each item (d, p) denotes D^d * p; commuting D^d leftwards applies tau^d
    to every factor it passes, i.e. factor j picks up the total d of the
    items to its right.
    """
    total = 0
    out = []
    for d, p in reversed(items):
        out.append(_TAU[p] if total % 2 else p)
        total += d
    out.reverse()
    return total, out


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def normalize(w: BraidWord) -> NormalForm:
    """Left normal form of the braid represented by a word.

    A positive letter contributes its own simple element; an inverse letter
    contributes D^-1 times the left complement of the generator.
    """
    letters = _LETTERS[w.n]
    power, seq = _push_half_twists([(-1 if e < 0 else 0, letters[e]) for e in w.letters])
    extra, factors = _weight_seq(w.n, seq)
    return NormalForm(w.n, power + extra, factors)


def nf_of_simple(s: SimpleElement) -> NormalForm:
    return NormalForm(s.n, *_strip(s.n, [s.code]))


def nf_to_word(f: NormalForm) -> BraidWord:
    """A word representing the normal form: half-twist letters, then factors."""
    dword = _code_word(_DELTA[f.n])
    if f.power < 0:
        dword = word_inverse(dword)
    letters = list(dword.letters) * abs(f.power)
    for a in f.codes:
        letters.extend(_code_word(a).letters)
    return BraidWord(f.n, tuple(letters))


def multiply(f: NormalForm, g: NormalForm) -> NormalForm:
    """Normal form of the product fg."""
    check_same_strands(f, g)
    left = tuple(_TAU[a] for a in f.codes) if g.power % 2 else f.codes
    extra, codes = _prod_normal(f.n, left, g.codes)
    return NormalForm(f.n, f.power + g.power + extra, codes)


def invert(f: NormalForm) -> NormalForm:
    """Normal form of the inverse.

    A_i^-1 = D^-1 lcomp(A_i), so (D^k A_1 .. A_l)^-1 is D^-(k+l) times the
    left complements in reverse order, A_i flipped k+i-1 times by the half
    twists moved past it.  That sequence is already left-weighted: for a
    weighted pair (A, B), rcomp(lcomp B) = B and lcomp A = tau(rcomp A), so
    meet(rcomp(tau lcomp B), lcomp A) = tau meet(B, rcomp A) is trivial.
    Nor has it a trivial or half-twist factor.
    """
    k = f.power
    codes = tuple(
        _TAU[_LCOMP[a]] if (k + i) % 2 else _LCOMP[a]
        for i, a in reversed(list(enumerate(f.codes)))
    )
    return NormalForm(f.n, -k - len(codes), codes)


def _conj_raw(n: int, power: int, codes: Codes, s: int) -> tuple[int, Codes]:
    """Conjugate D^power A_1..A_l by the simple s, as raw data.

    s^-1 D^k A.. s = D^(k-1) tau^k(lcomp(s)) A_1 .. A_l s, one list with the
    weighted sequence between two new factors, left-weighted in one pass:
    a forward sweep from the head weights head A_1 .. A_l, then s is combed
    back from the end, and the list is stripped once.  The sweep may leave
    half twists at the front and trivial factors just before s; combing s
    back moves it past the trivials and any new half twist to the front, so
    the one strip meets them only at the ends.  For s = e the list is
    D A_1..A_l e, weighted, so the strip alone gives the result.  For s = D
    the trivial head is swept to just before D, and combing D back flips
    each factor it passes by the move (A, D) -> (D, tau A).
    """
    factors = [_TAU[_LCOMP[s]] if power % 2 else _LCOMP[s], *codes, s]
    last = len(factors) - 1
    _comb_forward(factors, 0, last - 1)
    _comb_back(factors, last)
    d, seq = _strip(n, factors)
    return power - 1 + d, seq


def conjugate(f: NormalForm, s: SimpleElement) -> NormalForm:
    """Normal form of s^-1 f s."""
    check_same_strands(f, s)
    return NormalForm(f.n, *_conj_raw(f.n, f.power, f.codes, s.code))


def _simple_prefix(n: int, s: int, power: int, codes: Codes) -> bool:
    """Whether the simple s left-divides the positive braid D^power A_1..A_l.

    For a positive braid in normal form the maximal simple prefix is the
    first factor, so the test reduces to one divisibility check.
    """
    if power >= 1:
        return True
    if not codes:
        return s == _IDENTITY[n]
    return not _INV[s] & ~_INV[codes[0]]


def _lcm_sweep(n: int, c: int, codes: Codes) -> int:
    """The simple c' with A_1..A_l c' = join(c, A_1..A_l), for factors without a half twist.

    Past each factor A the pending simple c becomes the c' with
    A c' = join(c, A).  Once c divides a factor that c' is the identity,
    whose complement past every later factor is the identity again, so the
    sweep stops there; one bitmask test replaces the remaining lookups.
    The result is simple since c and A_1..A_l both divide A_1..A_l D.  The
    solver's floor test sweeps tau^j(s) through an entry's p this way and
    cancels p on the left: tau^j(s) divides p*s exactly when the result
    divides s.
    """
    for a in codes:
        if not _INV[c] & ~_INV[a]:
            return _IDENTITY[n]
        c = _left_complement(c, a)
    return c


def simple_prefix_of_positive(s: SimpleElement, p: NormalForm) -> bool:
    """Whether the simple s left-divides the positive braid p."""
    check_same_strands(s, p)
    if p.power < 0:
        raise NotPositive(f"braid has infimum {p.power} < 0")
    return _simple_prefix(p.n, s.code, p.power, p.codes)


def lcm_complement(s: SimpleElement, p: NormalForm) -> SimpleElement:
    """The simple s' with p * s' = join(s, p), the lcm of s and a positive braid.

    Sweeps the complement of s through the factors.  Trivial exactly when
    s already divides p.
    """
    check_same_strands(s, p)
    if p.power < 0:
        raise NotPositive(f"braid has infimum {p.power} < 0")
    if p.power >= 1:
        return _SIMPLE[_IDENTITY[s.n]]
    return _SIMPLE[_lcm_sweep(s.n, s.code, p.codes)]


def strand_permutation(f: NormalForm) -> tuple[int, ...]:
    """Underlying permutation of the braid (image in the symmetric group)."""
    p = _PERM[_DELTA[f.n] if f.power % 2 else _IDENTITY[f.n]]
    for a in f.codes:
        p = _braid_mul(p, _PERM[a])
    return p


# The word text of each simple element's canonical word, by code.
_WORD_TEXT = _LazyTable(lambda c: word_to_text(_code_word(c)))


def _raw_key(power: int, codes: Codes) -> str:
    return " | ".join([f"D^{power}", *(_WORD_TEXT[a] for a in codes)])


def nf_key(f: NormalForm) -> str:
    """Canonical serialization "D^k | w1 | w2 | ..." used as a hash key."""
    return _raw_key(f.power, f.codes)


def validate_normal_form(f: NormalForm) -> None:
    """Assert the left-weightedness invariant; test and debugging aid."""
    for a, b in zip(f.codes, f.codes[1:]):
        if _fix_pair(a, b) != (a, b):
            raise AssertionError(f"factors {_PERM[a]} | {_PERM[b]} are not left-weighted")
