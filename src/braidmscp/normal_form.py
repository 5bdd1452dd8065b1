"""Left normal forms of braids: D^k A_1 ... A_l with left-weighted factors.

Every braid has a unique expression D^k A_1 ... A_l where D is the half
twist, no factor A_i is trivial or D, and each adjacent pair is left-weighted,
meaning meet(rcomp(A_i), A_(i+1)) is trivial: A_i already absorbs every
crossing that could be pulled out of the head of A_(i+1).  The exponent k is
the infimum of the braid and k + l its supremum.

Before a word is normalized, one pass over its letters cancels every pair
e .. e^-1 whose letters between all commute with e (_cancel_pairs).  It
is sound because s_i s_j = s_j s_i for |i - j| >= 2, so e u e^-1 = u when
no letter of u has an index next to |e|, and normal forms are unique, so
the result is the same normal form.  Each index keeps a stack of the list
positions of its kept letters, and a letter tests only the top of its
own stack against the tops of the two neighbouring indices' stacks, so
the pass does O(1) work per letter; it never walks back over the
commuting letters.  Published entries are words x^-1 a x, and on the
verify workload of perfbench the pass removes 38% of the letters before
the comb sees them.

All of the machinery runs on the integer codes of braid.py: a normal form
is its strand count, its power and the tuple of its factors' codes, and the
raw layer below takes and returns (power, code tuple) pairs.  The codes are
the only stored form of the factors; the factors property builds their
SimpleElement values on request.  A pair (a, b)
is already left-weighted exactly when no letter starts both rcomp(a) and b,
one AND of two start-set bitmasks, which is tested before any meet is
computed.

Normalization cuts the kept letters into maximal runs of one sign whose
braid is simple and appends one factor per run: a positive run as its
simple, a run of inverse letters as D^-1 times the left complement of its
reversed positive word.  A run's code is carried as it grows, by one
addition of a factorial per letter to the code of its first letter, so no
permutation is built or ranked.  The solver's conjugators are strings of
canonical words of simples, so there a run is a whole simple the solver
held as one code.  Each appended factor restores left-weightedness with the
local move "transfer meet(rcomp(A), B) from B to A".  The move sends
(trivial, B) to (B, trivial), so trivial factors go to the back, where they
are stripped; the forward sweep moves one there in one step.  A move that
leaves D at position k has only one continuation, (A, D) -> (D, tau(A))
past every earlier factor, so D leaves the list at once and counts into
the power.  That is cheap in a tau-frame:
the move commutes with the flip, move(tau a, tau b) = tau(move(a, b)),
so the list holds tau^g of each factor under one parity bit g and
stands for D^power tau^g(list).  Taking D out of X D Y flips the shorter of
X and Y, and flipping Y toggles g.  A D^-1 moved to the power toggles g too,
a run is grown from the flipped letters n-i when g is odd, so that it is
appended as tau^g of its simple, and the list is flipped once at the end if
g is odd.  Normalization never leaves D in the list, so none of its
moves has D as its right factor.  Products of two already-weighted
sequences only need the move combed outward from the junction, which keeps
multiplication cheap.
Conjugating by a simple s adds one factor at each end of a weighted
sequence, so it is left-weighted in one pass over one list: a forward sweep
from the new head, then s combed back from the tail, then a single strip.
Only the one-pair move is kept, in the table _PAIR_MOVE keyed by the pair
(a, b), since most lookups hit it; the comb reads it by subscript.  Whole
normal forms, conjugates and products rarely repeat, so they are
recomputed.
"""

from __future__ import annotations

import dataclasses

from .braid import (
    _CODE,
    _DELTA,
    _IDENTITY,
    _INV,
    _LCOMP,
    _LETTERS,
    _PERM,
    _RANK_STEP,
    _RCOMP,
    _RUN_START,
    _SIMPLE,
    _START,
    _TAU,
    BraidWord,
    SimpleElement,
    _braid_mul,
    _code_letters,
    _LazyTable,
    _left_complement,
    _letters_text,
    _peel,
    check_same_strands,
    check_strand_count,
    word_inverse,
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


def _pair_move(pair: tuple[int, int]) -> tuple[int, int]:
    """Left-weight one adjacent pair (a, b) by moving the head h = meet(rcomp(a), b) of b into a.

    Peeling h off rcomp(a) leaves rcomp(a*h), so a*h is the left complement
    of what remains.
    """
    a, b = pair
    y = _RCOMP[a]
    if not _START[y] & _START[b]:
        return pair
    p, q = _peel(_PERM[y], _PERM[b])
    return _LCOMP[_CODE[tuple(p)]], _CODE[tuple(q)]


# The left-weighting move of each pair (a, b) that the comb meets.
_PAIR_MOVE = _LazyTable(_pair_move)


def _take_half_twist(factors: list[int], k: int, b: int) -> int:
    """Take out of the list the half twist that a move left at k, b the move's right factor.

    The one continuation of such a move is (A, D) -> (D, tau A) past every
    earlier factor, so D leaves at once for the power.  In the tau-frame
    the list X D Y, read as D^P tau^g(X D Y), is D^(P+1) tau^(g+1)(X)
    tau^g(Y): either X is flipped and g kept, or Y is flipped and g
    toggled.  The shorter side is flipped; returns 1 when g toggles.
    """
    factors[k + 1] = b
    if 2 * k < len(factors):
        del factors[k]
        factors[:k] = [_TAU[c] for c in factors[:k]]
        return 0
    factors[k:] = [_TAU[c] for c in factors[k + 1 :]]
    return 1


def _comb_back(factors: list[int], i: int, top: int, g: int) -> int:
    """Restore left-weightedness of pairs below i after factor i changed.

    The factors are stored in the tau-frame of parity g, and the frame
    parity after the comb is returned.  A move that forms the half twist
    top ends the comb: the half twist leaves the list, one factor shorter.
    """
    for k in range(i - 1, -1, -1):
        a, b = _PAIR_MOVE[factors[k], factors[k + 1]]
        if a == factors[k]:
            break
        if a == top:
            return g ^ _take_half_twist(factors, k, b)
        factors[k], factors[k + 1] = a, b
    return g


def _comb_forward(factors: list[int], i: int, ident: int, top: int, g: int) -> int:
    """Left-weight the list when only pair i is unweighted; returns the frame parity.

    Sweeps the pairs (k, k + 1) from k = i, combing back after each change,
    and stops at the first pair that is already weighted.  At each k the
    pairs below k are weighted and so are those above it.  A half twist
    that forms leaves the list, which moves the next pair down to k.

    Only this sweep leaves a trivial factor inside the list, besides a
    trivial head that the caller puts there: a move that empties its right
    factor, or a half twist that takes all of it.  In the comb-back only
    the appended tail can become trivial, since every other factor it
    reaches has grown on the right from one whose pair below was weighted.
    A trivial factor followed by a proper one would pass every later
    factor B by the move (e, B) -> (B, e), which changes no other factor,
    so it goes to the end of the list at once, and the pair it leaves
    behind, the one below k, is checked next; at k = 0 there is none, and
    every pair is weighted.  The list keeps its length, so the callers
    still count the half twists that left it by the length, and _strip
    drops the trailing trivial factors.  A trivial factor followed by
    another has only trivial factors after it, all weighted pairs, so the
    sweep stops there rather than move it to the end for ever.
    """
    k = i
    while k < len(factors) - 1:
        if factors[k] == ident:
            if factors[k + 1] == ident:
                break
            factors.append(factors.pop(k))
            if not k:
                break
            k -= 1
            continue
        a, b = _PAIR_MOVE[factors[k], factors[k + 1]]
        if a == factors[k]:
            break
        if a == top:
            g ^= _take_half_twist(factors, k, b)
            continue
        factors[k], factors[k + 1] = a, b
        m = len(factors)
        g = _comb_back(factors, k, top, g)
        if len(factors) == m:
            k += 1
    return g


def _strip(n: int, factors: list[int], g: int = 0) -> tuple[int, Codes]:
    """Absorb leading half twists into the power, drop trailing trivials, and leave the tau-frame."""
    ident = _IDENTITY[n]
    top = _DELTA[n]
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == top:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    if g:
        return lo, tuple([_TAU[c] for c in factors[lo:hi]])
    return lo, tuple(factors[lo:hi])


def _cancel_pairs(n: int, letters) -> list[int]:
    """The letters left after cancelling every pair e .. e^-1 whose letters between commute with e.

    Sound because s_i s_j = s_j s_i for |i - j| >= 2, so e u e^-1 = u
    whenever no letter of u has index |e| - 1 or |e| + 1 (a letter of index
    |e| itself commutes too, but the pass never needs it: e cancels only the
    last kept letter of its own index).  The kept letters are a list, and
    each index a keeps a stack of the list positions of its kept letters:
    top[a] is the last one (-1 for none) and below[p] the one under p.  A
    letter e of index a cancels the letter at p = top[a] when that letter
    is -e and neither a - 1 nor a + 1 has a kept letter after p, which the
    two neighbouring tops say, so the pass does O(1) work per letter.  The
    cancelled slot is blanked (letters are never 0), and the blanks are
    dropped at the end.  Cancelling the letter at p never frees another
    pair, since every kept letter after p has an index two or more away
    from a, so no kept pair e .. e^-1 is left with only letters that
    commute with e between them.
    """
    kept: list[int] = []
    below: list[int] = []
    top = [-1] * (n + 1)
    for e in letters:
        a = -e if e < 0 else e
        p = top[a]
        if p >= 0 and kept[p] == -e and top[a - 1] < p and top[a + 1] < p:
            kept[p] = 0
            top[a] = below[p]
        else:
            top[a] = len(kept)
            below.append(p)
            kept.append(e)
    return list(filter(None, kept))


def _weight_seq(n: int, letters) -> tuple[int, Codes]:
    """Left normal form of a word's letters, appending one simple run at a time.

    The letters are cut into maximal runs of one sign whose braid is simple,
    and each run is appended as one factor.  That is sound because:

      * a positive run's product is a simple r, appended as r;
      * a run s_j1^-1 .. s_jk^-1 is P^-1 for the simple P = s_jk .. s_j1,
        and P^-1 = D^-1 lcomp(P): a D^-1 for the power, then the left
        complement of the run's reversed positive word;
      * the comb accepts any simple appended at the tail, as _conj_raw
        already relies on: only the last pair can be unweighted, the move
        combed back from there weights the rest, and only the new last
        factor can become trivial, since appending a simple does not lower
        the supremum;
      * the rank step holds for an adjacent transposition.  A run keeps its
        arrangement, the strand at each position, and letter i meets the
        strands x, y at positions i-1 and i.  Swapping them changes the
        Lehmer digit of the smaller strand alone, by one, so the rank moves
        by that strand's (n-1-min(x, y))!.  A positive run grows when x < y,
        the two not yet crossed, and its rank rises.  An inverse run grows
        lcomp(P) to lcomp(s_i P) = lcomp(P) s_i^-1, a right division by s_i,
        possible when x > y, the two already crossed, and its rank falls.

    A run starts from its first letter's code and arrangement, so a run of
    one letter builds nothing.  The list holds tau^g of each factor and
    stands for D^power tau^g(list): a D^-1 moved to the power toggles g, and
    a run is grown from the flipped letters n-i when g is odd, so that it is
    appended as tau^g of its simple.  A half twist that the comb forms
    leaves at once.  Neither a half twist nor the identity stays in the
    list: a run equal to D counts into the power and toggles g, and the
    complement of a run equal to D^-1 is trivial and popped.  At n = 2
    every positive run is D and every inverse run's complement trivial.
    """
    codes, starts, step = _LETTERS[n], _RUN_START[n], _RANK_STEP[n]
    ident, top = _IDENTITY[n], _DELTA[n]
    factors: list[int] = []
    power = g = k = 0
    end = len(letters)
    while k < end:
        e = letters[k]
        k += 1
        up = e > 0
        if not up:
            power -= 1
            g ^= 1
        i = (n - e if up else -n - e) if g else e  # the letter in the list's frame
        run, c = starts[i], codes[i]  # the run's arrangement, copied once it grows
        while k < end:
            e = letters[k]
            if (e > 0) is not up:
                break
            i = (n - e if up else n + e) if g else (e if up else -e)  # its index, framed
            u, v = run[i - 1], run[i]
            if (u < v) is not up:
                break
            if run.__class__ is tuple:
                run = list(run)
            run[i - 1], run[i] = v, u
            c += step[u] if up else -step[v]
            k += 1
        if c == top:
            power += 1
            g ^= 1
            continue
        factors.append(c)
        m = len(factors)
        if m > 1:  # a lone factor is weighted
            g = _comb_back(factors, m - 1, top, g)
            power += m - len(factors)
        if factors[-1] == ident:
            factors.pop()
    return power, tuple([_TAU[c] for c in factors] if g else factors)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def normalize(w: BraidWord) -> NormalForm:
    """Left normal form of the braid represented by a word.

    The pairs e .. e^-1 that cancel across far-commuting letters go first
    (_cancel_pairs); the rest is appended one simple run at a time: a
    positive run contributes its simple and an inverse run D^-1 times the
    left complement of its reversed positive word (_weight_seq).
    """
    return NormalForm(w.n, *_weight_seq(w.n, _cancel_pairs(w.n, w.letters)))


def nf_of_simple(s: SimpleElement) -> NormalForm:
    return NormalForm(s.n, *_strip(s.n, [s.code]))


def nf_to_word(f: NormalForm) -> BraidWord:
    """A word representing the normal form: half-twist letters, then factors."""
    dword = BraidWord(f.n, _code_letters(_DELTA[f.n]))
    if f.power < 0:
        dword = word_inverse(dword)
    letters = list(dword.letters) * abs(f.power)
    for a in f.codes:
        letters.extend(_code_letters(a))
    return BraidWord(f.n, tuple(letters))


def multiply(f: NormalForm, g: NormalForm) -> NormalForm:
    """Normal form of the product fg.

    D^j A D^k B = D^(j+k) tau^k(A) B, one list of two weighted sequences.
    Violations can only start at the junction, so the local move is applied
    there and combed outward until a pair is already weighted; each half
    twist that forms on the way counts into the power.
    """
    check_same_strands(f, g)
    left = tuple(_TAU[a] for a in f.codes) if g.power % 2 else f.codes
    factors = [*left, *g.codes]
    frame = _comb_forward(factors, max(len(left) - 1, 0), _IDENTITY[f.n], _DELTA[f.n], 0)
    extra = len(left) + len(g.codes) - len(factors)
    d, codes = _strip(f.n, factors, frame)
    return NormalForm(f.n, f.power + g.power + extra + d, codes)


def invert(f: NormalForm) -> NormalForm:
    """Normal form of the inverse.

    A_i^-1 = D^-1 lcomp(A_i), so (D^k A_1 .. A_l)^-1 is D^-(k+l) times the
    left complements in reverse order, A_i flipped k+i-1 times by the half
    twists moved past it.  That sequence is already left-weighted: for a
    weighted pair (A, B), rcomp(lcomp B) = B and lcomp A = tau(rcomp A), so
    meet(rcomp(tau lcomp B), lcomp A) = tau meet(B, rcomp A) is trivial.
    Nor has it a trivial or half-twist factor.
    """
    return NormalForm(f.n, *_invert_raw(f.power, f.codes))


def _invert_raw(power: int, codes: Codes) -> tuple[int, Codes]:
    """The inverse of D^power A_1..A_l as raw data, by invert's formula."""
    flip = (power + len(codes) - 1) % 2  # A_l is flipped k + l - 1 times
    out = []
    for a in reversed(codes):
        out.append(_RCOMP[a] if flip else _LCOMP[a])  # tau(lcomp a) = rcomp a
        flip ^= 1
    return -power - len(codes), tuple(out)


def _conj_raw(n: int, power: int, codes: Codes, s: int) -> tuple[int, Codes]:
    """Conjugate D^power A_1..A_l by the simple s, as raw data.

    s^-1 D^k A.. s = D^(k-1) tau^k(lcomp(s)) A_1 .. A_l s, one list with the
    weighted sequence between two new factors, left-weighted in one pass:
    a forward sweep from the head weights head A_1 .. A_l, then s is
    appended in the list's tau-frame and combed back, and the list is
    stripped once.  Every half twist that forms leaves the list at once.
    The sweep may leave a trivial factor at the end, which s passes by the
    move (e, B) -> (B, e).  For s = e the list is D A_1..A_l e, weighted,
    so the strip alone gives the result.  For s = D the trivial head goes
    to the end at once, and D forms at once in the last pair and leaves.
    """
    top = _DELTA[n]
    head = _RCOMP[s] if power % 2 else _LCOMP[s]  # tau(lcomp s) = rcomp s
    factors = [head, *codes]
    g = _comb_forward(factors, 0, _IDENTITY[n], top, 0)
    factors.append(_TAU[s] if g else s)
    g = _comb_back(factors, len(factors) - 1, top, g)
    extra = len(codes) + 2 - len(factors)
    d, seq = _strip(n, factors, g)
    return power - 1 + extra + d, seq


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
    A c' = join(c, A).  When c divides A that c' is the identity, whose
    complement past every later factor is the identity again.  Only the
    first factor is tested that way.  Past A_(k-1) the pending c_k divides
    rcomp(A_(k-1)), since join(c_(k-1), A_(k-1)) divides
    D = A_(k-1) rcomp(A_(k-1)), and c_k is not trivial unless c_(k-1)
    divided A_(k-1).  In a left-weighted list meet(rcomp(A_(k-1)), A_k) is
    trivial, so a nontrivial c_k never divides A_k, and past a first
    factor that c does not divide the sweep always runs to the end.  A list
    that is not left-weighted gets the same result, since the identity
    stays the identity under every complement; it only loses the early exit.
    The result is simple since c and A_1..A_l both divide A_1..A_l D.  The
    solver's floor test sweeps tau^j(s) through an entry's p this way and
    cancels p on the left: tau^j(s) divides p*s exactly when the result
    divides s.
    """
    if codes and not _INV[c] & ~_INV[codes[0]]:
        return _IDENTITY[n]
    for a in codes:
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
_WORD_TEXT = _LazyTable(lambda c: _letters_text(_code_letters(c)))


def _raw_key(power: int, codes: Codes) -> str:
    return " | ".join([f"D^{power}", *(_WORD_TEXT[a] for a in codes)])


def nf_key(f: NormalForm) -> str:
    """Canonical serialization "D^k | w1 | w2 | ..." used as a hash key."""
    return _raw_key(f.power, f.codes)


def validate_normal_form(f: NormalForm) -> None:
    """Assert the left-weightedness invariant; test and debugging aid."""
    for a, b in zip(f.codes, f.codes[1:]):
        if _PAIR_MOVE[a, b] != (a, b):
            raise AssertionError(f"factors {_PERM[a]} | {_PERM[b]} are not left-weighted")
