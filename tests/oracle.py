"""Brute-force oracles, independent of the library's lattice shortcuts.

Divisibility is derived from first principles: a reduced word of a
permutation is any sequence of adjacent swaps that removes one inversion per
step, every positive word of a permutation braid arises this way, and the
left divisors are exactly the prefixes of reduced words.  Everything else
(meets as maximal common divisors, joins as minimal common multiples) is
computed by exhaustive search over those divisor sets.

The search oracle bfs_search runs on reference copies of the floor test, the
conjugator ascent and conjugation, ref_floor_step, ref_minimal_codes and
ref_conj_raw, which build every product outright and skip none of the
kernel's shortcuts.  Inverse entries, for floors on the doubled tuple
(a_1..a_r, a_1^-1..a_r^-1), are each checked by multiplying them back.
Every product here is left-weighted by the reference comb below, a copy of
the plain comb that bubbles each half twist to the front one pair move at a
time, so none of them runs the package's comb.  Its pair moves peel with
ref_peel, a copy of the letter-by-letter meet, so they share no meet with
the package either; ref_meet and ref_left_complement are built on it too.
ref_random_word draws a word's letters through random.Random's choice and
randint, the reference for the generator's own draws.  word_perm is the
reference permutation product: a word's strand permutation built letter by
letter, with no code table.
"""

from __future__ import annotations

import functools
import itertools

Perm = tuple[int, ...]


def swap_positions(p: Perm, i: int) -> Perm:
    q = list(p)
    q[i], q[i + 1] = q[i + 1], q[i]
    return tuple(q)


@functools.lru_cache(maxsize=None)
def reduced_words(p: Perm) -> tuple[tuple[int, ...], ...]:
    """All reduced words (1-based letters) for a permutation."""
    n = len(p)
    if p == tuple(range(n)):
        return ((),)
    out = []
    for i in range(n - 1):
        if p[i] > p[i + 1]:
            # peeling letter i+1 from the left removes exactly that inversion
            for rest in reduced_words(swap_positions(p, i)):
                out.append((i + 1,) + rest)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def divisor_perms(p: Perm) -> frozenset[Perm]:
    """All left divisors of a permutation braid, as prefix permutations."""
    n = len(p)
    divs = set()
    for word in reduced_words(p):
        q = tuple(range(n))
        divs.add(q)
        for letter in word:
            q = _apply_letter(q, letter - 1)
            divs.add(q)
    return frozenset(divs)


def _apply_letter(q: Perm, i: int) -> Perm:
    """Right-multiply the prefix by the crossing at positions i, i+1."""
    out = list(q)
    # crossing acts on positions after q: new[x] = t_i(q[x])
    for x in range(len(q)):
        if out[x] == i:
            out[x] = i + 1
        elif out[x] == i + 1:
            out[x] = i
    return tuple(out)


def gen_perm(n: int, i: int) -> Perm:
    """Permutation of the generator letter i (1-based): it crosses positions i-1 and i."""
    return swap_positions(tuple(range(n)), i - 1)


def word_perm(n: int, letters) -> Perm:
    """The strand permutation of a word: each letter, of either sign, swaps the strands at its positions."""
    p = tuple(range(n))
    for e in letters:
        p = _apply_letter(p, abs(e) - 1)
    return p


def brute_divides(a: Perm, b: Perm) -> bool:
    return a in divisor_perms(b)


def inv_count(p: Perm) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def brute_meet(a: Perm, b: Perm) -> Perm:
    """Unique maximal common divisor; asserts it dominates all others."""
    common = divisor_perms(a) & divisor_perms(b)
    best = max(common, key=inv_count)
    assert all(d in divisor_perms(best) for d in common), "meet is not a lattice meet"
    return best


def brute_join(a: Perm, b: Perm) -> Perm:
    """Unique minimal common simple multiple; asserts it divides all others."""
    n = len(a)
    multiples = [
        m
        for m in map(tuple, itertools.permutations(range(n)))
        if a in divisor_perms(m) and b in divisor_perms(m)
    ]
    best = min(multiples, key=inv_count)
    assert all(best in divisor_perms(m) for m in multiples), "join is not a lattice join"
    return best


def floor_component(alpha, floor) -> set[str]:
    """Keys of every tuple reachable from alpha through the floor set.

    Breadth-first over conjugation by all n! simple elements, done at word
    level and renormalized, keeping only tuples whose entries all have
    infimum at least the floor.  Conjugate tuples of the floor set are joined
    by such chains, so a tuple missing from the result is not conjugate to
    alpha within the floor, and a complete search from alpha visits exactly
    this set when it finds no match.
    """
    from braidmscp import (
        BraidTuple,
        enumerate_simples,
        meets_floor,
        nf_to_word,
        normalize,
        simple_to_word,
        tuple_key,
        word_concat,
        word_inverse,
    )

    words = [simple_to_word(s) for s in enumerate_simples(alpha.n)]
    seen = {tuple_key(alpha): alpha}
    frontier = [alpha]
    while frontier:
        nxt = []
        for t in frontier:
            entries = [nf_to_word(e) for e in t.entries]
            for sw in words:
                u = BraidTuple(
                    t.n, tuple(normalize(word_concat(word_inverse(sw), w, sw)) for w in entries)
                )
                key = tuple_key(u)
                if key not in seen and meets_floor(u, floor):
                    seen[key] = u
                    nxt.append(u)
        frontier = nxt
    return set(seen)


def ref_peel(y: int, z: int) -> tuple[int, int]:
    """Divide the meet m of y and z off the front of both: (m^-1 y, m^-1 z).

    Letter i+1 starts a simple x exactly when x[i] > x[i+1], and any common
    first letter divides the meet, so peeling common first letters until
    none is left is exact.  Peeling swaps positions i and i+1, which leaves
    no first letter at i and can only add first letters at i-1 and i+1.
    """
    from braidmscp.braid import _CODE, _PERM, _START

    common = _START[y] & _START[z]
    if not common:
        return y, z
    p, q = list(_PERM[y]), list(_PERM[z])
    last = len(p) - 2
    while common:
        bit = common & -common
        i = bit.bit_length() - 1
        p[i], p[i + 1] = p[i + 1], p[i]
        q[i], q[i + 1] = q[i + 1], q[i]
        common ^= bit
        if i and p[i - 1] > p[i] and q[i - 1] > q[i]:
            common |= bit >> 1
        if i < last and p[i + 1] > p[i + 2] and q[i + 1] > q[i + 2]:
            common |= bit << 1
    return _CODE[tuple(p)], _CODE[tuple(q)]


def ref_meet(a: int, b: int) -> int:
    """Greatest common left divisor of two codes: a times the inverse of what ref_peel leaves of a."""
    from braidmscp.braid import _CODE, _PERM, _perm_inverse

    rest, _ = ref_peel(a, b)
    rinv = _perm_inverse(_PERM[rest])
    return _CODE[tuple(rinv[x] for x in _PERM[a])]


def ref_left_complement(a: int, b: int) -> int:
    """The code c with b * c = join(a, b), by ref_peel on the reversed permutations."""
    from braidmscp.braid import _CODE, _PERM, _perm_inverse

    _, z = ref_peel(_CODE[_PERM[a][::-1]], _CODE[_PERM[b][::-1]])
    return _CODE[_perm_inverse(_PERM[z])]


@functools.lru_cache(maxsize=None)
def ref_fix_pair(a, b):
    """The one-pair move: the head meet(rcomp(a), b) of b moves into a."""
    from braidmscp.braid import _LCOMP, _RCOMP, _START

    y = _RCOMP[a]
    if not _START[y] & _START[b]:
        return a, b
    y, b = ref_peel(y, b)
    return _LCOMP[y], b


def ref_comb_back(factors, i):
    """Re-weight the pairs below i after factor i changed, one move per pair.

    A half twist that forms moves on by (A, D) -> (D, tau A), pair by pair,
    until it meets the front or another half twist.
    """
    for k in range(i - 1, -1, -1):
        a, b = ref_fix_pair(factors[k], factors[k + 1])
        if a == factors[k]:
            break
        factors[k], factors[k + 1] = a, b


def ref_comb_forward(factors, i, stop):
    """Weight factors[:stop + 1] when only pairs from i on are unweighted."""
    for k in range(i, stop):
        a, b = ref_fix_pair(factors[k], factors[k + 1])
        if a == factors[k]:
            break
        factors[k], factors[k + 1] = a, b
        ref_comb_back(factors, k)


def ref_strip(n, factors):
    """Leading half twists into the power, trailing trivial factors dropped."""
    from braidmscp.braid import _DELTA, _IDENTITY

    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == _DELTA[n]:
        lo += 1
    while lo < hi and factors[hi - 1] == _IDENTITY[n]:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def ref_prod_normal(n, left, right):
    """Weight the concatenation of two weighted sequences, combed from the junction."""
    factors = [*left, *right]
    ref_comb_forward(factors, max(len(left) - 1, 0), len(factors) - 1)
    return ref_strip(n, factors)


def ref_normalize(n, letters):
    """Normal form of a word as (power, codes), one factor appended at a time.

    Each inverse letter is D^-1 lcomp(s_i); the D powers are first moved to
    the front, flipping every factor they pass, and the factors are then
    appended one by one, each combed back from the end.
    """
    from braidmscp.braid import _IDENTITY, _LETTERS, _TAU

    power, seq = 0, []
    for e in reversed(letters):
        p = _LETTERS[n][e]
        seq.append(_TAU[p] if power % 2 else p)
        power -= e < 0
    factors = []
    for p in reversed(seq):
        factors.append(p)
        ref_comb_back(factors, len(factors) - 1)
        if factors[-1] == _IDENTITY[n]:
            factors.pop()
    d, codes = ref_strip(n, factors)
    return power + d, codes


def ref_multiply(n, f, g):
    """The product of two raw normal forms (power, codes), combed from the junction."""
    from braidmscp.braid import _TAU

    left = tuple(_TAU[a] for a in f[1]) if g[0] % 2 else f[1]
    d, codes = ref_prod_normal(n, left, g[1])
    return f[0] + g[0] + d, codes


@functools.lru_cache(maxsize=None)
def ref_inverse(n, power, codes):
    """The inverse of D^power A_1..A_l as raw data, checked by its product.

    invert's result g is taken only once f * g is the identity: the inverse
    is unique, so that product, built by the reference comb rather than by
    invert's formula, proves it.
    """
    from braidmscp import NormalForm, invert

    g = invert(NormalForm(n, power, codes))
    if ref_multiply(n, (power, codes), (g.power, g.codes)) != (0, ()):
        raise AssertionError("invert gave a wrong inverse")
    return g.power, g.codes


def doubled(t):
    """The 2r-tuple (a_1..a_r, a_1^-1..a_r^-1) of an r-tuple, inverses by ref_inverse."""
    from braidmscp import BraidTuple, NormalForm

    inverses = (NormalForm(t.n, *ref_inverse(t.n, e.power, e.codes)) for e in t.entries)
    return BraidTuple(t.n, t.entries + tuple(inverses))


def ref_conj_raw(n, power, codes, s):
    """s^-1 D^power A_1..A_l s as raw data, by two junction products.

    The reference for normal_form._conj_raw: the head tau^k(lcomp(s)) is
    multiplied onto the weighted sequence, the result is stripped, and s is
    multiplied onto that, both by the reference comb.
    """
    from braidmscp.braid import _DELTA, _IDENTITY, _LCOMP, _TAU

    if s == _IDENTITY[n]:
        return power, codes
    if s == _DELTA[n]:
        return power, tuple(_TAU[a] for a in codes)
    head = _TAU[_LCOMP[s]] if power % 2 else _LCOMP[s]
    d1, seq = ref_prod_normal(n, (head,), codes)
    d2, seq = ref_prod_normal(n, seq, (s,))
    return power - 1 + d1 + d2, seq


def ref_floor_step(n, parity, pcodes, s):
    """The reference for solver._floor_step: the floor test on the product p*s.

    Builds the whole product p*s = D^k A_1..A_l and asks whether
    t = tau^j(s) divides it, by its own prefix test: t divides it when
    k >= 1 or t divides A_1, the largest simple prefix of a positive normal
    form, and it divides the identity only when t is the identity.  A
    rejecting entry grows s to s s' with (p s) s' = join(t, p s), s' swept
    through every factor of p*s, and s s' is checked to be simple before
    it is built.  Returns None when the entry keeps the floor, else the
    grown s.
    """
    from braidmscp.braid import _IDENTITY, _INV, _RCOMP, _TAU, _left_complement, _mul

    t = _TAU[s] if parity else s
    power, factors = ref_prod_normal(n, pcodes, (s,))
    if power >= 1 or (not _INV[t] & ~_INV[factors[0]] if factors else t == _IDENTITY[n]):
        return None
    if power != 0:
        raise AssertionError("a rejecting product starts with the half twist")
    for a in factors:
        t = _left_complement(t, a)
    if _INV[t] & ~_INV[_RCOMP[s]]:
        raise AssertionError("the grown candidate is not simple")
    return _mul(s, t)


def ref_ascend(n, active, s):
    """The minimal floor-keeping simple above s, every floor test by ref_floor_step."""
    for _ in range(n * (n - 1) // 2 + 1):
        for parity, pcodes in active:
            grown = ref_floor_step(n, parity, pcodes, s)
            if grown is not None:
                s = grown
                break
        else:
            return s
    raise AssertionError("the ascent did not reach the half twist in time")


def ref_minimal_codes(n, active):
    """The reference for solver._minimal_codes: every ascent run to its end.

    Each floor test is ref_floor_step; a rejecting entry grows s.  The
    per-generator minima are deduplicated, and any element strictly
    divisible by another is dropped.
    """
    from braidmscp.braid import _INV, _LETTERS

    found = []
    for i in range(1, n):
        r_i = ref_ascend(n, active, _LETTERS[n][i])
        if r_i not in found:
            found.append(r_i)
    return [s for s in found if not any(o != s and not _INV[o] & ~_INV[s] for o in found)]


def ref_lift_chain(t):
    """The lift chain of solver._lift_chain, run move by move to the stale bound.

    Conjugates all 2r entries of the doubled tuple by ref_conj_raw, ascends
    by ref_ascend, and stops only after n(n-1)/2 moves in a row that raise
    no infimum, or when every entry is a half-twist power; it does not end
    the chain when a round of turns has left it unchanged.  Returns the chain keyed by r entries, each
    mapped to its parent key and edge code.
    """
    from braidmscp.braid import _DELTA, _TAU

    n, r = t.n, t.r
    current = doubled(t)
    current = tuple((e.power, e.codes) for e in current.entries)
    chain = {current[:r]: (None, None)}
    turn = stale = 0
    while stale < n * (n - 1) // 2:
        if not any(codes for _, codes in current):
            break
        power, codes = current[turn % (2 * r)]
        turn += 1
        if not codes:
            continue
        stale += 1
        active = [(p % 2, c) for p, c in current]
        s = ref_ascend(n, active, _TAU[codes[0]] if power % 2 else codes[0])
        lifted = tuple(ref_conj_raw(n, p, c, s) for p, c in current)
        if s == _DELTA[n] or lifted[:r] in chain:
            continue
        if lifted[r:] != tuple(ref_inverse(n, p, c) for p, c in lifted[:r]):
            raise AssertionError("conjugation does not commute with inversion")
        chain[lifted[:r]] = (current[:r], s)
        if any(new[0] > old[0] for new, old in zip(lifted, current)):
            stale = 0
        current = lifted
    return chain


def bfs_search(alpha, beta, floor, node_cap):
    """Breadth-first search from alpha for beta alone, with no lift-chain targets.

    This is the search as it was before it kept one tuple per tau-orbit.
    summit_search also stops at a node whose flip is beta, and the search
    after solve_mscp's lift at every tuple of beta's lift chain.  Both
    expand the same minimal conjugator sets, but skip a child whose flip
    they have visited, so they visit a prefix of these nodes less those
    whose flip came earlier, with the same parents and edges, and reach a
    verdict no later.  A floor of 2r values also bounds the inverse entries,
    as summit_search's does.  It expands and conjugates through the
    reference kernel above, not the package's, so a kernel change that
    alters a move or a child shows as a different graph.
    """
    from collections import deque

    from braidmscp import (
        BraidWord,
        ConjugatorResult,
        Outcome,
        SearchCounters,
        SummitGraph,
        SummitNode,
        simple_to_word,
        word_concat,
    )
    from braidmscp.braid import _SIMPLE
    from braidmscp.solver import _active, _code_key

    n = alpha.n
    counters = SearchCounters()
    root, target = _code_key(alpha), _code_key(beta)
    nodes = {root: SummitNode(None, None)}
    graph = SummitGraph(n, root, nodes, counters)

    def found(key):
        edges = []
        while nodes[key].parent is not None:
            edges.append(simple_to_word(_SIMPLE[nodes[key].edge]))
            key = nodes[key].parent
        return ConjugatorResult(
            Outcome.FOUND, word_concat(BraidWord(n, ()), *reversed(edges)), None, graph
        )

    if root == target:
        return found(root)
    queue = deque([root])
    while queue:
        entries = queue.popleft()
        doubled_entries = entries
        if len(floor) > len(entries):
            doubled_entries += tuple(ref_inverse(n, power, codes) for power, codes in entries)
        moves = ref_minimal_codes(n, _active(doubled_entries, floor))
        counters.nodes_expanded += 1
        counters.set_size_sum += len(moves)
        counters.set_size_max = max(counters.set_size_max, len(moves))
        for s in moves:
            counters.conjugations += 1
            child = tuple(ref_conj_raw(n, power, codes, s) for power, codes in entries)
            if child in nodes:
                continue
            if len(nodes) >= node_cap:
                return ConjugatorResult(Outcome.ABORTED, None, "node cap", graph)
            nodes[child] = SummitNode(entries, s)
            if child == target:
                return found(child)
            queue.append(child)
    return ConjugatorResult(Outcome.NOT_CONJUGATE, None, None, graph)


def ref_random_word(rng, n: int, length: int) -> tuple[int, ...]:
    """The letters of a random word drawn through the stdlib's choice and randint.

    harness.random_word draws each letter from rng.getrandbits by the rule
    that these two calls apply in CPython 3.11, so on that release the two
    take the same letters from the same stream.
    """
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
