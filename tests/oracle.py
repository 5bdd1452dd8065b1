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
kernel's shortcuts.
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


def ref_conj_raw(n, power, codes, s):
    """s^-1 D^power A_1..A_l s as raw data, by two junction products.

    The reference for normal_form._conj_raw: the head tau^k(lcomp(s)) is
    multiplied onto the weighted sequence, the result is stripped, and s is
    multiplied onto that.
    """
    from braidmscp.braid import _DELTA, _IDENTITY, _LCOMP, _TAU
    from braidmscp.normal_form import _prod_normal

    if s == _IDENTITY[n]:
        return power, codes
    if s == _DELTA[n]:
        return power, tuple(_TAU[a] for a in codes)
    head = _TAU[_LCOMP[s]] if power % 2 else _LCOMP[s]
    d1, seq = _prod_normal(n, (head,), codes)
    d2, seq = _prod_normal(n, seq, (s,))
    return power - 1 + d1 + d2, seq


def ref_floor_step(n, parity, pcodes, s):
    """The reference for solver._floor_step: the floor test on the product p*s.

    Builds the whole product p*s and asks whether t = tau^j(s) divides its
    head; a rejecting entry grows s to s s' with (p s) s' = join(t, p s),
    s' swept through every factor of p*s.  Returns None when the entry
    keeps the floor, else the grown s.
    """
    from braidmscp.braid import _TAU, _left_complement, _mul
    from braidmscp.normal_form import _prod_normal, _simple_prefix

    t = _TAU[s] if parity else s
    power, factors = _prod_normal(n, pcodes, (s,))
    if _simple_prefix(n, t, power, factors):
        return None
    if power != 0:
        raise AssertionError("a rejecting product starts with the half twist")
    for a in factors:
        t = _left_complement(t, a)
    return _mul(s, t)


def ref_minimal_codes(n, active):
    """The reference for solver._minimal_codes: every ascent run to its end.

    Each floor test is ref_floor_step; a rejecting entry grows s.  The
    per-generator minima are deduplicated, and any element strictly
    divisible by another is dropped.
    """
    from braidmscp.braid import _INV, _LETTERS

    def ascend(s):
        for _ in range(n * (n - 1) // 2 + 1):
            for parity, pcodes in active:
                grown = ref_floor_step(n, parity, pcodes, s)
                if grown is not None:
                    s = grown
                    break
            else:
                return s
        raise AssertionError("the ascent did not reach the half twist in time")

    found = []
    for i in range(1, n):
        r_i = ascend(_LETTERS[n][i])
        if r_i not in found:
            found.append(r_i)
    return [s for s in found if not any(o != s and not _INV[o] & ~_INV[s] for o in found)]


def bfs_search(alpha, beta, floor, node_cap):
    """Breadth-first search from alpha for beta alone, with no lift-chain targets.

    This is the one-sided search that summit_search ran before it also
    stopped at cycling lifts of beta.  It expands the same minimal conjugator
    sets in the same order and builds the same graph, so a search with more
    targets visits a prefix of these nodes, with the same parents and edges,
    and reaches a verdict no later.  It expands and conjugates through the
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
        moves = ref_minimal_codes(n, _active(entries, floor))
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
