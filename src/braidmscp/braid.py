"""Braid words, permutation braids, and the lattice of divisors of the half twist.

A braid on n strands is written as a word in the Artin generators: a sequence
of signed integers e with 1 <= |e| <= n-1, where e = i encodes the positive
crossing of the strands at positions i and i+1, and e = -i its inverse.

A permutation braid (a positive braid in which any two strands cross at most
once, equivalently a left divisor of the half twist D) is determined by the
permutation it induces on strand positions: perm[i] is the final position of
the strand starting at position i, 0-indexed.  Under this encoding:

  * the product a*b (a first, then b) has permutation p_b o p_a;
  * the positive word length of a permutation braid equals the inversion
    count of its permutation;
  * left divisibility a < b (meaning b = a*c with c positive) is inclusion
    of inversion sets, inv(a) inside inv(b).

Internally a permutation braid is a small int, its code: the Lehmer rank of
the permutation (its index in lexicographic order) plus an offset per strand
count, 2! + 3! + ... + (n-1)!, so codes of different strand counts never
collide.  A code is a pure function of (n, perm); no counter or cache state
enters it.  Per-code data lives in tables filled lazily on first lookup:
permutation, right and left complement, flip, the start set (bit i set when
letter i+1 can begin the braid) and the inversion set, both as bitmasks.
So "a divides b" is inv[a] & ~inv[b] == 0, and a product a*b is simple
exactly when b divides the right complement of a.  That is tested once, in
simple_product, the one caller that can be handed a pair whose product is
not simple; every other product in the package is b times the left
complement of some a past b, which is join(a, b) and so simple, and the
raw product _mul checks nothing.  A fill of the left
complement or flip table also writes the entry that an identity gives for
free, rcomp(lcomp a) = a or tau(tau a) = a, so a later lookup of the
partner finds it instead of building it; and since tau(lcomp a) = rcomp a,
a flipped left complement is read as a right complement.  The tables expose
cache_clear like functools caches and are rebuilt on demand after clearing.
Per strand count, the letter codes and the factorial steps of the rank
let normal_form carry a run's code one crossing at a time, without
ranking its permutation.
The SimpleElement value type carries its code next to its permutation;
elsewhere the package stores a simple element as its code alone.
Table-driven permutation braids follow the CBraid library (J. C. Cha).

The divisors of D form a lattice under left divisibility.  The meet of two
simples is found by peeling their common first letters, and a common first
letter is a position where both permutations descend.  One insertion pass
over the pairs (y[k], z[k]) peels them all: each pair moves left past the
pairs before it that beat it in both coordinates.  The peel takes and
returns permutations, so callers hand it the permutations they already
hold.  Reversing a permutation is an order-reversing involution of the
lattice, so it turns meets into joins: the join of a and b is b times the
left complement that a peel of the reversed permutations leaves.  When a
and b have no common ascent that peel moves nothing, and the complement
it gives is rcomp(b), so the join D needs no case of its own.  Meets and
joins are cross-checked in the test suite against a brute-force divisor
enumeration built from reduced-word prefixes, and at larger n against
the letter-by-letter peel of the test oracle.

The flip tau is conjugation by the half twist, tau(x) = D^-1 x D.  Since D^2
is central, tau is an involution; on generators it maps letter i to n-i.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import re

from .errors import (
    BadToken,
    BoundExceeded,
    InvalidParams,
    LengthMismatch,
    NotSimple,
    StrandMismatch,
)

Perm = tuple[int, ...]

# Ceiling for exhaustive enumeration of all n! simple elements.
SIMPLE_ENUM_BOUND = 6


def check_int(name: str, value, low: int | None = None) -> None:
    """The one test of a scalar integer input: exactly an int, no bool or subclass, and at least low."""
    if type(value) is not int:
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidParams(f"{name} must be at least {low}, got {value}")


def check_same_strands(a, b) -> None:
    if a.n != b.n:
        raise StrandMismatch(f"cannot mix objects on {a.n} and {b.n} strands")


def check_same_length(a, b) -> None:
    if len(a) != len(b):
        raise LengthMismatch(f"tuples of length {len(a)} and {len(b)}")


_INTEGER = re.compile(r"[+-]?[0-9]+")


def integer(token: str) -> int:
    """The int that a text token spells in the one integer grammar, ASCII [+-]?[0-9]+.

    int() alone also reads underscores between digits, non-ASCII digits and
    surrounding whitespace.  Raises ValueError, as int() does, so argparse
    takes it as a type.
    """
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


# ---------------------------------------------------------------------------
# Permutation-level helpers, used to fill the code tables.
# ---------------------------------------------------------------------------


def _perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _braid_mul(a: Perm, b: Perm) -> Perm:
    """Permutation of the product braid "a then b"."""
    return tuple(b[x] for x in a)


def _tau_perm(p: Perm) -> Perm:
    """Conjugate by the half twist: w0 o p o w0."""
    top = len(p) - 1
    return tuple([top - v for v in reversed(p)])


def _rcomp_perm(a: Perm) -> Perm:
    """Right complement a^-1 D, the simple element with a * rcomp(a) = D."""
    top = len(a) - 1
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = top - i
    return tuple(out)


def _rank(p: Perm) -> int:
    """Lehmer rank: the index of p among the permutations of len(p) in lexicographic order."""
    n = len(p)
    rank = used = 0
    for i, v in enumerate(p):
        # digit i counts the values below v not used by earlier positions
        rank = rank * (n - i) + v - (used & ((1 << v) - 1)).bit_count()
        used |= 1 << v
    return rank


def _unrank(n: int, rank: int) -> Perm:
    digits = []
    for base in range(1, n + 1):
        rank, digit = divmod(rank, base)
        digits.append(digit)
    free = list(range(n))
    return tuple(free.pop(d) for d in reversed(digits))


# ---------------------------------------------------------------------------
# Code tables.
# ---------------------------------------------------------------------------


class _LazyTable(dict):
    """A dict whose missing entries are built on first lookup by build(key).

    It exposes cache_clear like a functools cache, so clearing the package's
    caches clears the tables too.  Every entry is a pure function of its key,
    so clearing never invalidates a value already handed out.
    """

    def __init__(self, build):
        super().__init__()
        self._build = build
        self.cache_clear = self.clear

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


def _code_of_perm(p: Perm) -> int:
    code = _OFFSET[len(p)] + _rank(p)
    _PERM[code] = p
    return code


def _perm_of_code(code: int) -> Perm:
    """Unrank the code within its strand count's block [offset, offset + n!), found by running sums."""
    n, offset, size = 2, 0, 2
    while offset + size <= code:
        n += 1
        offset += size
        size *= n
    p = _unrank(n, code - offset)
    _CODE[p] = code
    return p


def _start_set(code: int) -> int:
    p = _PERM[code]
    starts = 0
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            starts |= 1 << i
    return starts


def _inversion_set(code: int) -> int:
    """Bit i*n + j set for each inversion i < j, p[i] > p[j].

    The strands are placed in the order of their final positions, so when
    strand i is placed, the strands j > i already placed are exactly those
    that end left of it: row i is the placed set above i, shifted into place.
    """
    p = _PERM[code]
    n = len(p)
    inv = placed = 0
    for i in _perm_inverse(p):
        inv |= placed >> (i + 1) << (i * n + i + 1)
        placed |= 1 << i
    return inv


def _lcomp_code(code: int) -> int:
    """lcomp(a) = D a^-1 = tau(a^-1 D), writing rcomp(lcomp a) = a on the way."""
    c = _TAU[_RCOMP[code]]
    _RCOMP[c] = code
    return c


def _tau_code(code: int) -> int:
    """tau(a), writing tau(tau a) = a on the way."""
    c = _CODE[_tau_perm(_PERM[code])]
    _TAU[c] = code
    return c


def _letter_codes(n: int) -> list[int]:
    """Index e in 1..n-1 holds the code of letter e; index -e that of lcomp(letter e).

    An inverse letter is D^-1 times the left complement of the generator, so
    these are the simple factors that a run of one letter contributes.  Both
    are one rank step from an end of the order, so no permutation is built
    or ranked: letter i crosses the strands i-1 < i of the identity, which
    raises the rank by (n-i)!, and lcomp(letter i) is the reversal with the
    strands n-1-i < n-i uncrossed again, which lowers the rank of D by i!.
    """
    ident, top, step = _IDENTITY[n], _DELTA[n], _RANK_STEP[n]
    codes = [0] * (2 * n - 1)
    for i in range(1, n):
        codes[i], codes[-i] = ident + step[i - 1], top - step[n - 1 - i]
    return codes


def _factorials(n: int) -> list[int]:
    """0!, 1!, ..., (n-1)!, as running products."""
    return list(itertools.accumulate(range(1, n), operator.mul, initial=1))


# First code of each strand count: 2! + 3! + ... + (n-1)!.
_OFFSET = _LazyTable(lambda n: sum(_factorials(n)) - 2)
_CODE = _LazyTable(_code_of_perm)
_PERM = _LazyTable(_perm_of_code)
# lcomp(a) is the simple element with lcomp(a) * a = D.  A fill of _LCOMP or
# _TAU also writes its partner entry, as the builders say.  A fill of _RCOMP
# does not write lcomp(rcomp a) = a: those entries saved no measurable time
# (ROADMAP.md item 6, "Measured and rejected").
_RCOMP = _LazyTable(lambda c: _CODE[_rcomp_perm(_PERM[c])])
_LCOMP = _LazyTable(_lcomp_code)
_TAU = _LazyTable(_tau_code)
_START = _LazyTable(_start_set)
_INV = _LazyTable(_inversion_set)
_LETTERS = _LazyTable(_letter_codes)
# Index u holds (n-1-u)!, the weight of strand u's Lehmer digit: crossing
# two side-by-side strands u < v raises the rank by it, uncrossing them
# lowers it by it.
_RANK_STEP = _LazyTable(lambda n: tuple(reversed(_factorials(n))))
# The valid letters of a word on n strands: 1 <= |e| <= n - 1.
_LETTER_SET = _LazyTable(lambda n: frozenset(range(1 - n, n)) - {0})
_SIMPLE = _LazyTable(lambda c: SimpleElement(len(_PERM[c]), _PERM[c]))
# Codes of the identity and the half twist per strand count: the identity has
# the first rank, so its code is the offset, and the half twist, which
# reverses the order, the last, n! - 1.
_IDENTITY = _OFFSET
_DELTA = _LazyTable(lambda n: _OFFSET[n] + math.factorial(n) - 1)


def _peel(yp: Perm, zp: Perm) -> tuple[list[int], list[int]]:
    """Divide the meet m of y and z off the front of both: (m^-1 y, m^-1 z), as permutations.

    Letter i+1 starts a simple x exactly when x[i] > x[i+1], and peeling it
    swaps positions i and i+1.  Any common first letter divides the meet,
    and once none is left the remaining meet is trivial, so every order of
    peeling common first letters ends in the same pair: the end state is
    unique.  One insertion pass reaches it.  The pair (y[k], z[k]) moves
    left past each pair before it that beats it in both coordinates; every
    such step swaps a common descent, so it peels a common first letter.
    Before step k the first k pairs have no common descent.  After it the
    moved pair has none with its left neighbour, which stopped it, nor with
    its right one, which beats it, and all other neighbours were neighbours
    before; so the pass ends with no common descent anywhere.
    """
    p, q = list(yp), list(zp)
    for k in range(1, len(p)):
        y, z = p[k], q[k]
        j = k
        while j and p[j - 1] > y and q[j - 1] > z:
            p[j], q[j] = p[j - 1], q[j - 1]
            j -= 1
        if j < k:
            p[j], q[j] = y, z
    return p, q


def _mul(a: int, b: int) -> int:
    """The product a*b, for a pair whose product is simple: b divides rcomp(a).

    Only simple_product can be handed a pair that fails, so only it checks.
    Every other caller multiplies b by the left complement c of some a past
    b, and b*c = join(a, b) is simple.
    """
    return _CODE[_braid_mul(_PERM[a], _PERM[b])]


def _meet(a: int, b: int) -> int:
    """Greatest common left divisor m: peeling leaves r = m^-1 a, so m = a r^-1."""
    pa = _PERM[a]
    rest, _ = _peel(pa, _PERM[b])
    rinv = _perm_inverse(rest)
    return _CODE[tuple([rinv[x] for x in pa])]


@functools.lru_cache(maxsize=None)
def _left_complement(a: int, b: int) -> int:
    """The simple c with b * c = join(a, b).

    The join is the mirror of m = meet(mirror a, mirror b), where the mirror
    x[::-1] = D x reverses the lattice order, so peeling m off mirror(b)
    leaves a z with b = join * z: c is z^-1.  A common first letter of the
    mirrors is a common ascent of a and b.  Without one the peel moves
    nothing, m is trivial, the join is D, and c = mirror(b)^-1 is rcomp(b).
    """
    _, z = _peel(_PERM[a][::-1], _PERM[b][::-1])
    return _CODE[_perm_inverse(z)]


# ---------------------------------------------------------------------------
# Public value types.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators: signed 1-based letters."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        check_int("strand count", self.n, 2)
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        # two set tests in C; True == 1.0 == 1, so the types are tested too
        if {*map(type, letters)} <= {int} and _LETTER_SET[self.n].issuperset(letters):
            return
        for e in letters:
            if type(e) is not int or e not in _LETTER_SET[self.n]:  # not a bool either
                raise InvalidParams(f"letter {e!r} out of range for {self.n} strands")

    def __len__(self) -> int:
        return len(self.letters)


@dataclasses.dataclass(frozen=True)
class SimpleElement:
    """A permutation braid: its strand permutation (0-indexed images) and its code."""

    n: int
    perm: Perm
    code: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_int("strand count", self.n, 2)
        object.__setattr__(self, "perm", tuple(self.perm))
        # every entry an int and not a bool, as for letters: the tables key on perm
        if not {*map(type, self.perm)} <= {int} or sorted(self.perm) != list(range(self.n)):
            raise InvalidParams(f"{self.perm!r} is not a permutation of 0..{self.n - 1}")
        object.__setattr__(self, "code", _CODE[self.perm])

    def length(self) -> int:
        """Positive word length, i.e. the inversion count of the permutation."""
        return _INV[self.code].bit_count()

    def is_identity(self) -> bool:
        return self.code == _IDENTITY[self.n]

    def is_delta(self) -> bool:
        return self.code == _DELTA[self.n]


def identity_simple(n: int) -> SimpleElement:
    check_int("strand count", n, 2)
    return _SIMPLE[_IDENTITY[n]]


def delta(n: int) -> SimpleElement:
    """The half twist, maximum of the lattice of simple elements."""
    check_int("strand count", n, 2)
    return _SIMPLE[_DELTA[n]]


def generator_simple(n: int, i: int) -> SimpleElement:
    """The simple element of the single letter i."""
    check_int("strand count", n, 2)
    check_int("generator index", i)
    if not 1 <= i <= n - 1:
        raise InvalidParams(f"generator index {i} out of range for {n} strands")
    return _SIMPLE[_LETTERS[n][i]]


# ---------------------------------------------------------------------------
# Word operations.
# ---------------------------------------------------------------------------


def word_inverse(w: BraidWord) -> BraidWord:
    """Reverse the word and flip every crossing sign."""
    return BraidWord(w.n, tuple(map(operator.neg, reversed(w.letters))))


def word_concat(*words: BraidWord) -> BraidWord:
    """The product of one or more words on the same strands, in order."""
    if not words:
        raise InvalidParams("word_concat needs at least one word")
    for w in words[1:]:
        check_same_strands(words[0], w)
    return BraidWord(words[0].n, tuple(itertools.chain.from_iterable(w.letters for w in words)))


def exponent_sum(w: BraidWord) -> int:
    """Sum of crossing signs; a conjugacy invariant."""
    return sum(1 if e > 0 else -1 for e in w.letters)


def word_to_text(w: BraidWord) -> str:
    """Serialize as space-separated signed integers; the empty word is "e"."""
    return _letters_text(w.letters)


def _letters_text(letters) -> str:
    return " ".join(map(str, letters)) or "e"


def word_from_text(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated letters, each an integer token, or the single token "e".

    The first token that is not a letter of n strands raises BadToken at its
    character offset: a syntax error, or a letter out of range.  An empty
    text raises it at offset 0.
    """
    check_int("strand count", n, 2)
    tokens = text.split()
    if tokens == ["e"]:
        return BraidWord(n, ())
    if tokens and text.isascii() and "_" not in text:  # there int() reads exactly the integer grammar
        try:
            return BraidWord(n, tuple(map(int, tokens)))
        except (ValueError, InvalidParams):
            pass  # the loop below names the first bad token
    letters = []
    for m in re.finditer(r"\S+", text):
        tok = m.group()
        try:
            letter = integer(tok)
        except ValueError:
            why = "'e' cannot appear inside a word" if tok == "e" else f"bad letter token {tok!r}"
            raise BadToken(why, m.start()) from None
        if letter not in _LETTER_SET[n]:
            raise BadToken(f"letter {letter} out of range 1..{n - 1}", m.start(), out_of_range=True)
        letters.append(letter)
    if not letters:
        raise BadToken("empty word text; the identity is written 'e'", 0)
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# Simple-element operations.
# ---------------------------------------------------------------------------


def _code_letters(code: int) -> tuple[int, ...]:
    """Letters of the canonical reduced positive word of the permutation braid with this code.

    Walks the target positions from rightmost to leftmost and slides the
    strand destined for each into place; deterministic, and of length equal
    to the inversion count.
    """
    dest = _PERM[code]
    n = len(dest)
    arrangement = list(range(n))  # strand occupying each position
    pos = list(range(n))  # position of each strand
    source = _perm_inverse(dest)
    letters = []
    for target in range(n - 1, 0, -1):
        strand = source[target]
        for q in range(pos[strand], target):
            other = arrangement[q + 1]
            arrangement[q], arrangement[q + 1] = other, strand
            pos[strand], pos[other] = q + 1, q
            letters.append(q + 1)
    return tuple(letters)


def simple_to_word(s: SimpleElement) -> BraidWord:
    """Canonical reduced positive word for a permutation braid."""
    return BraidWord(s.n, _code_letters(s.code))


def tau(x: BraidWord | SimpleElement):
    """Apply the flip, conjugation by the half twist; involutive."""
    if isinstance(x, BraidWord):
        return BraidWord(x.n, tuple((1 if e > 0 else -1) * (x.n - abs(e)) for e in x.letters))
    return _SIMPLE[_TAU[x.code]]


def simple_divides(a: SimpleElement, b: SimpleElement) -> bool:
    """Left divisibility a < b, as inclusion of inversion sets."""
    check_same_strands(a, b)
    return not _INV[a.code] & ~_INV[b.code]


def meet(a: SimpleElement, b: SimpleElement) -> SimpleElement:
    """Greatest common left divisor of two simple elements."""
    check_same_strands(a, b)
    return _SIMPLE[_meet(a.code, b.code)]


def join(a: SimpleElement, b: SimpleElement) -> SimpleElement:
    """Least common multiple of two simple elements."""
    check_same_strands(a, b)
    return _SIMPLE[_mul(b.code, _left_complement(a.code, b.code))]


def right_complement(a: SimpleElement) -> SimpleElement:
    """The simple element c with a * c equal to the half twist."""
    return _SIMPLE[_RCOMP[a.code]]


def left_complement_simple(a: SimpleElement, b: SimpleElement) -> SimpleElement:
    """The simple c with b * c = join(a, b); trivial exactly when a divides b."""
    check_same_strands(a, b)
    return _SIMPLE[_left_complement(a.code, b.code)]


def simple_product(a: SimpleElement, b: SimpleElement) -> SimpleElement:
    """Product of two simple elements, required to be simple again: b must divide rcomp(a)."""
    check_same_strands(a, b)
    if _INV[b.code] & ~_INV[_RCOMP[a.code]]:
        raise NotSimple("product of the given simple elements is not simple")
    return _SIMPLE[_mul(a.code, b.code)]


def enumerate_simples(n: int) -> list[SimpleElement]:
    """All n! simple elements, for brute-force oracles at small n."""
    check_int("strand count", n, 2)
    if n > SIMPLE_ENUM_BOUND:
        raise BoundExceeded(f"enumeration of {n}! simple elements exceeds bound {SIMPLE_ENUM_BOUND}")
    return [SimpleElement(n, p) for p in itertools.permutations(range(n))]
