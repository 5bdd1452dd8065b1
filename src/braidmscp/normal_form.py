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
raw layer below takes and returns (power, code tuple) pairs.  The public
normalize, multiply, invert and conjugate are thin wrappers that build a
NormalForm around _normalize_raw, _multiply_raw, _invert_raw and _conj_raw,
which the solver's search and its verifier call directly.  The codes are
the only stored form of the factors; the factors property builds their
SimpleElement values on request.  A pair (a, b)
is already left-weighted exactly when no letter starts both rcomp(a) and b,
one AND of two start-set bitmasks, which is tested before any meet is
computed.

Every normal form is built the same way, by _push: a list of factors is
multiplied on the right by one simple.  The list is kept in a tau-frame:
it holds tau^g of each factor under one parity bit g and stands for
D^power tau^g(list).  Between pushes it is left-weighted and holds no
trivial factor and no D.  A pushed D counts into the power and toggles g,
since X D = D tau(X), and a pushed identity changes nothing.  Any other
simple is appended as tau^g of itself and restores left-weightedness with
the local move "transfer meet(rcomp(A), B) from B to A", combed back from
the tail until a pair is already weighted.  The move commutes with the
flip, move(tau a, tau b) = tau(move(a, b)), so the frame never has to be
undone while combing.  A move that leaves D at position k has only one
continuation, (A, D) -> (D, tau(A)) past every earlier factor, so D
leaves the list at once and counts into the power: taking D out of X D Y
flips the shorter of X and Y, and flipping Y toggles g.  Only the new tail
can become trivial, since every other factor the comb reaches has grown
on the right from one whose pair below was weighted, and a trivial tail
is dropped.  So no move ever has the identity or D as either factor, and
the list leaves the frame once, at the end.

Normalization cuts the kept letters into maximal runs of one sign whose
braid is simple and pushes one simple per run: a positive run as its
simple, a run of inverse letters as D^-1 times the left complement of its
reversed positive word.  A run's code is carried as it grows, by one
addition of a factorial per letter to the code of its first letter, so no
permutation is built or ranked.  The solver's conjugators are strings of
canonical words of simples, so there a run is a whole simple the solver
held as one code.  simple_from_positive_word reads a positive word the
same way, and the word is simple exactly when its normal form is the
identity, one factor or D.

A product D^j A D^k B is D^(j+k) tau^k(A) B: the factors of B are pushed
onto the list tau^k(A), and conjugating D^k A by a simple s pushes
tau^k(lcomp s), then A's factors, then s onto D^(k-1).  When the factors
of a normal form are pushed, the pushes stop at the first one that needs
no move, because its junction is already weighted or the list was empty,
and the rest is copied unchanged, framed by g.  That is sound because
those factors are weighted in themselves and tau keeps a pair weighted,
so the list with the copied tail is weighted everywhere; and none of them
is trivial or D.  Pushing the rest one at a time would give the same
list, since each push would find its junction weighted and move nothing;
the copy only skips those lookups.  Only the one-pair move is kept, in
the table _PAIR_MOVE keyed by the pair (a, b), since most lookups hit it;
the comb reads it by subscript.  Whole normal forms, conjugates and
products rarely repeat, so they are recomputed.
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
    check_int,
    check_same_strands,
    word_inverse,
)
from .errors import InvalidParams, NegativeLetter, NotPositive, NotSimple, StrandMismatch

Codes = tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """A braid in left normal form: power of the half twist plus factor codes."""

    n: int
    power: int
    codes: Codes = ()

    def __post_init__(self):
        check_int("strand count", self.n, 2)
        check_int("power", self.power)
        object.__setattr__(self, "codes", tuple(self.codes))
        # every code an int and not a bool, as for letters; the codes of n
        # strands run from the identity's to the half twist's
        if not {*map(type, self.codes)} <= {int}:
            raise InvalidParams(f"factor codes {self.codes!r} are not all integers")
        lo, hi = _IDENTITY[self.n], _DELTA[self.n]
        for c in self.codes:
            if c < 0 or c in (lo, hi):
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


def _push(factors: list[int], power: int, g: int, c: int, ident: int, top: int) -> tuple[int, int, bool]:
    """Multiply D^power tau^g(factors) on the right by the simple c.

    Every normal form is built by these pushes.  D counts into the power
    and toggles g, since X D = D tau(X), and the identity changes nothing.
    Any other simple is appended in the list's frame, and the pairs below
    it are weighted again by combing the move back from the tail until a
    pair is already weighted.  A move that forms the half twist top ends
    the comb, since the half twist leaves the list for the power.  Only the
    new tail can become trivial, and then it is dropped.  Returns the new
    power and g, and whether c was appended with no move: the list was
    empty, or its junction with c was already weighted.
    """
    if g:
        c = _TAU[c]
    if c == top:
        return power + 1, g ^ 1, False
    if c == ident:
        return power, g, False
    factors.append(c)
    settled = True
    for k in range(len(factors) - 2, -1, -1):
        a, b = _PAIR_MOVE[factors[k], factors[k + 1]]
        if a == factors[k]:
            break
        settled = False
        if a == top:
            power += 1
            g ^= _take_half_twist(factors, k, b)
            break
        factors[k], factors[k + 1] = a, b
    if factors[-1] == ident:
        factors.pop()
    return power, g, settled


def _push_weighted(factors: list[int], power: int, g: int, seq: Codes, ident: int, top: int) -> tuple[int, int]:
    """Push the factors of a normal form one at a time; returns the new power and g.

    The pushes stop once a factor is appended with no move, and the rest of
    seq is copied unchanged, framed by g.  That is sound since seq is
    weighted in itself and tau keeps a pair weighted.
    """
    for j, c in enumerate(seq):
        power, g, settled = _push(factors, power, g, c, ident, top)
        if settled:
            factors.extend([_TAU[a] for a in seq[j + 1 :]] if g else seq[j + 1 :])
            break
    return power, g


def _unframed(factors: list[int], g: int) -> Codes:
    """The factors of D^power tau^g(factors), out of the tau-frame."""
    return tuple([_TAU[c] for c in factors] if g else factors)


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
    """Left normal form of a word's letters, pushing one simple run at a time.

    The letters are cut into maximal runs of one sign whose braid is simple,
    and each run is pushed as one simple (_push).  That is sound because:

      * a positive run's product is a simple r, pushed as r;
      * a run s_j1^-1 .. s_jk^-1 is P^-1 for the simple P = s_jk .. s_j1,
        and P^-1 = D^-1 lcomp(P): a D^-1 for the power, which toggles the
        list's frame, then the left complement of the run's reversed
        positive word;
      * the rank step holds for an adjacent transposition.  A run keeps its
        arrangement, the strand at each position, and letter i meets the
        strands x, y at positions i-1 and i.  Swapping them changes the
        Lehmer digit of the smaller strand alone, by one, so the rank moves
        by that strand's (n-1-min(x, y))!.  A positive run grows when x < y,
        the two not yet crossed, and its rank rises.  An inverse run grows
        lcomp(P) to lcomp(s_i P) = lcomp(P) s_i^-1, a right division by s_i,
        possible when x > y, the two already crossed, and its rank falls.

    A run starts from its first letter's code, and its arrangement is built
    only when a second letter extends it, so a run of one letter builds
    nothing.  That arrangement is the one of the first letter's simple: s_j
    crosses positions j-1 and j of the identity, and lcomp(s_j) = D s_j^-1
    is the reversal with those two positions uncrossed again; both are
    copied from a list made once per call.  A same-sign letter f extends
    the one-letter run e exactly when f != e: for a positive run from s_j
    every other index crosses a pair not yet crossed, and an inverse run is
    the mirror case.  A run equal to D, or an inverse run whose complement
    is trivial, is left to _push.  At n = 2 every positive run is D and
    every inverse run's complement trivial.
    """
    codes, step = _LETTERS[n], _RANK_STEP[n]
    ident, top = _IDENTITY[n], _DELTA[n]
    increasing = list(range(n))
    decreasing = increasing[::-1]
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
        c = codes[e]
        if k < end and letters[k] != e and (letters[k] > 0) is up:
            j = e if up else -e
            run = (increasing if up else decreasing)[:]
            run[j - 1], run[j] = run[j], run[j - 1]
            while k < end:
                e = letters[k]
                if (e > 0) is not up:
                    break
                i = e if up else -e
                u, v = run[i - 1], run[i]
                if (u < v) is not up:
                    break
                run[i - 1], run[i] = v, u
                c += step[u] if up else -step[v]
                k += 1
        power, g, _ = _push(factors, power, g, c, ident, top)
    return power, _unframed(factors, g)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def normalize(w: BraidWord) -> NormalForm:
    """Left normal form of the braid represented by a word.

    The pairs e .. e^-1 that cancel across far-commuting letters go first
    (_cancel_pairs); the rest is pushed one simple run at a time: a
    positive run contributes its simple and an inverse run D^-1 times the
    left complement of its reversed positive word (_weight_seq).
    """
    return NormalForm(w.n, *_normalize_raw(w.n, w.letters))


def _normalize_raw(n: int, letters) -> tuple[int, Codes]:
    """Left normal form of a word's letters as raw data, by normalize's composition."""
    return _weight_seq(n, _cancel_pairs(n, letters))


def simple_from_positive_word(w: BraidWord) -> SimpleElement:
    """Interpret a positive word as a permutation braid.

    The word is read as normalize reads it.  All positive words of one braid
    have the same length, so the word is simple exactly when its normal form
    is the identity, one factor or D.  Raises NegativeLetter for the first
    negative letter, and NotSimple when some pair of strands crosses twice.
    """
    for e in w.letters:
        if e < 0:
            raise NegativeLetter(f"letter {e} in a positive word")
    power, codes = _weight_seq(w.n, w.letters)
    if power + len(codes) > 1:
        raise NotSimple(f"{w.letters!r} crosses some strand pair more than once")
    return _SIMPLE[codes[0] if codes else _DELTA[w.n] if power else _IDENTITY[w.n]]


def nf_of_simple(s: SimpleElement) -> NormalForm:
    """Normal form of a simple: D^1 for D, D^0 with no factor for the identity, else the one factor."""
    factors: list[int] = []
    power, g, _ = _push(factors, 0, 0, s.code, _IDENTITY[s.n], _DELTA[s.n])
    return NormalForm(s.n, power, _unframed(factors, g))


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

    D^j A D^k B = D^(j+k) tau^k(A) B: the factors of B are pushed onto the
    weighted list tau^k(A) until one needs no move, and the rest of B is
    copied (_push_weighted).  Each half twist that forms on
    the way counts into the power.
    """
    check_same_strands(f, g)
    return NormalForm(f.n, *_multiply_raw(f.n, f.power, f.codes, g.power, g.codes))


def _multiply_raw(n: int, power1: int, codes1: Codes, power2: int, codes2: Codes) -> tuple[int, Codes]:
    """The product of D^power1 A_1..A_l and D^power2 B_1..B_m as raw data, by multiply's formula."""
    factors = [_TAU[a] for a in codes1] if power2 % 2 else list(codes1)
    power, frame = _push_weighted(factors, power1 + power2, 0, codes2, _IDENTITY[n], _DELTA[n])
    return power, _unframed(factors, frame)


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

    s^-1 D^k A.. s = D^(k-1) tau^k(lcomp(s)) A_1 .. A_l s: onto D^(k-1) the
    head tau^k(lcomp s) is pushed, then the weighted A_1 .. A_l, then s.
    For s = e the head is D, so the factors are copied into the flipped
    frame and e changes nothing; for s = D the head is trivial, and D
    flips the frame.
    """
    head = _RCOMP[s] if power % 2 else _LCOMP[s]  # tau(lcomp s) = rcomp s
    factors: list[int] = []
    ident, top = _IDENTITY[n], _DELTA[n]
    power, g, _ = _push(factors, power - 1, 0, head, ident, top)
    power, g = _push_weighted(factors, power, g, codes, ident, top)
    power, g, _ = _push(factors, power, g, s, ident, top)
    return power, _unframed(factors, g)


def conjugate(f: NormalForm, s: SimpleElement) -> NormalForm:
    """Normal form of s^-1 f s."""
    check_same_strands(f, s)
    return NormalForm(f.n, *_conj_raw(f.n, f.power, f.codes, s.code))


def _lcm_sweep(n: int, c: int, codes: Codes) -> int:
    """The simple c' with A_1..A_l c' = join(c, A_1..A_l), for factors without a half twist.

    This is also the package's one prefix test: c divides A_1..A_l exactly
    when the result is trivial, since then the join is A_1..A_l itself.
    Past each factor A the pending simple c becomes the c' with
    A c' = join(c, A).  When c divides A that c' is the identity, whose
    complement past every later factor is the identity again.  Only the
    first factor is tested that way, and in a left-weighted list that one
    bitmask test is the whole prefix test, since the first factor is the
    largest simple prefix.  Past A_(k-1) the pending c_k divides
    rcomp(A_(k-1)), since join(c_(k-1), A_(k-1)) divides
    D = A_(k-1) rcomp(A_(k-1)), and c_k is not trivial unless c_(k-1)
    divided A_(k-1).  In a left-weighted list meet(rcomp(A_(k-1)), A_k) is
    trivial, so a nontrivial c_k never divides A_k, and past a first
    factor that c does not divide the sweep always runs to the end.  With
    no factors the result is c, trivial exactly when c is.  A list
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


def simple_prefix_of_positive(s: SimpleElement, p: NormalForm) -> bool:
    """Whether the simple s left-divides the positive braid p: its lcm complement is trivial."""
    return lcm_complement(s, p).is_identity()


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
