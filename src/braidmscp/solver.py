"""Simultaneous conjugacy search in braid groups via minimal conjugator sets.

The problem: given tuples alpha = (a_1, ..., a_r) and beta = (b_1, ..., b_r)
with beta = x^-1 alpha x entrywise for some unknown braid x, recover such an
x.  The search space is the set of tuples conjugate to alpha whose entries
all keep infimum at least a fixed floor J; chains of conjugations by simple
elements connect any two members of that set, so a breadth-first search that
conjugates by simple elements and deduplicates on canonical normal forms is
complete and reconstructs a conjugator from its parent edges.

The crucial economy: instead of conjugating every visited tuple by all n!
simple elements, for each generator index i we compute the minimal simple
element divisible by letter i whose conjugation respects the floor.  Those
minimal elements (at most n-1 of them, since the floor-respecting property is
closed under meet) suffice to keep the search complete, and each is found by
a short ascent: starting from the bare generator, repeatedly absorb the
complement forced by an entry that rejects the candidate, until every entry
passes.  The candidate grows strictly while staying below the true minimum,
so the ascent ends within half-twist length many steps.  One step tests an
entry D^j p and grows s if the entry rejects it, building p*s only when
tau^j(s) is not a prefix of p, as a prefix of p is one of p*s; an ascent
stops early once s lies above a minimum found for an earlier generator.

The search from alpha stops at beta or at any tuple of beta's lift chain.
Cycling a braid D^p A_1 ... A_l conjugates it by tau^p(A_1), and repeated
cycling raises the infimum of a braid that is below its summit infimum
(Elrifai-Morton); the Lee-Lee algorithm lifts tuples this way before it
searches.  Here the chain lifts beta alone, one cycling move per expanded
node, each ascended like a minimal conjugator to keep every infimum of the
tuple.  Each chain tuple is beta conjugated by a known product y, so a
search that reaches one along the path P has found x = P y^-1.  A planted
beta often sits far below alpha, and a BFS from alpha would first cross a
large low-floor set to reach it; its lifts sit nearer alpha's level.  The
chain only adds targets, so the order of the search, its single root and
its completeness are those of the search for beta alone.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque

from .braid import (
    _DELTA,
    _INV,
    _LETTERS,
    _SIMPLE,
    _TAU,
    BraidWord,
    SimpleElement,
    _code_word,
    _mul,
    check_same_strands,
    word_concat,
    word_inverse,
)
from .errors import (
    InvalidParams,
    LengthMismatch,
    NotInFloor,
    StrandMismatch,
    VerificationFailed,
)
from .normal_form import (
    Codes,
    NormalForm,
    _conj_raw,
    _lcm_sweep,
    _prod_normal,
    _raw_key,
    _simple_prefix,
    conjugate,
    invert,
    multiply,
    normalize,
)

InfFloor = tuple[int, ...]
# A tuple's value as ints: per entry, its half-twist power and factor codes.
Entries = tuple[tuple[int, Codes], ...]

DEFAULT_NODE_CAP = 10**6


@dataclasses.dataclass(frozen=True)
class BraidTuple:
    """An r-tuple of braids in normal form, all on the same strand count."""

    n: int
    entries: tuple[NormalForm, ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidParams("a braid tuple needs at least one entry")
        for e in self.entries:
            if e.n != self.n:
                raise StrandMismatch(f"entry on {e.n} strands in a tuple on {self.n}")

    @property
    def r(self) -> int:
        return len(self.entries)


def tuple_from_words(n: int, words) -> BraidTuple:
    return BraidTuple(n, tuple(normalize(w) for w in words))


def inf_vector(t: BraidTuple) -> InfFloor:
    return tuple(e.inf for e in t.entries)


def tuple_key(t: BraidTuple) -> str:
    """Canonical serialization, naming exported graph nodes; the search dedups on raw entries."""
    return _entries_key(_code_key(t))


def _entries_key(entries: Entries) -> str:
    """The tuple_key string of a tuple given as raw entries."""
    return " ; ".join(_raw_key(power, codes) for power, codes in entries)


def _code_key(t: BraidTuple) -> Entries:
    """The tuple's raw entries: equal exactly when the tuple_key strings are."""
    return tuple((e.power, e.codes) for e in t.entries)


def meets_floor(t: BraidTuple, floor: InfFloor) -> bool:
    """Whether every entry has infimum at least the floor value."""
    if len(floor) != t.r:
        raise LengthMismatch(f"floor of length {len(floor)} against a {t.r}-tuple")
    return all(e.inf >= j for e, j in zip(t.entries, floor))


def conjugate_tuple(t: BraidTuple, s: SimpleElement) -> BraidTuple:
    check_same_strands(t, s)
    return BraidTuple(t.n, tuple(conjugate(e, s) for e in t.entries))


def _active(entries: Entries, floor: InfFloor) -> list[tuple[int, Codes]]:
    """Floor parity and positive-part factor codes of the entries sitting on the floor.

    Conjugating by a simple element lowers an infimum by at most one, so
    entries strictly above the floor can never fall below it and are skipped.
    For an entry D^j p with j on the floor, the conjugate keeps the floor
    exactly when tau^j(s) divides p*s, so only the positive part p matters.
    The entries must already meet the floor.
    """
    return [(j % 2, codes) for (power, codes), j in zip(entries, floor) if power == j]


def _active_entries(t: BraidTuple, floor: InfFloor) -> list[tuple[int, Codes]]:
    if not meets_floor(t, floor):
        raise NotInFloor("tuple does not satisfy the required infimum floor")
    return _active(_code_key(t), floor)


def _floor_step(n: int, parity: int, pcodes: Codes, s: int) -> int | None:
    """None when conjugating by s keeps this on-floor entry's infimum, else s grown.

    The entry is D^j p, parity = j % 2 and p = pcodes; it keeps the floor
    exactly when t = tau^j(s) divides p*s, which is built only when t is not
    a prefix of p, as a prefix of p is one of p*s.  A rejecting entry grows s
    to s s' with (p s) s' = lcm(t, p s): _simple_prefix accepts every product
    of power at least 1, so a rejected p*s has power 0 and the sweep needs no D.
    """
    t = _TAU[s] if parity else s
    if _simple_prefix(n, t, 0, pcodes):
        return None
    ps = _prod_normal(n, pcodes, (s,))
    if _simple_prefix(n, t, *ps):
        return None
    return _mul(s, _lcm_sweep(t, ps[1]))


def conjugation_keeps_floor(s: SimpleElement, t: BraidTuple, floor: InfFloor) -> bool:
    """Whether conjugating every entry by s keeps all infima at the floor or above."""
    check_same_strands(t, s)
    return all(
        _floor_step(t.n, parity, pcodes, s.code) is None
        for parity, pcodes in _active_entries(t, floor)
    )


def _minimal_conjugator_code(n: int, active, s: int, found=()) -> int | None:
    """The minimal floor-keeping simple element that the simple s divides.

    Returns None instead, as soon as the growing candidate is divisible by
    a simple in found.  Every candidate divides the minimum the ascent would
    reach, so that minimum is then also divisible by the found simple: it is
    that simple or strictly above it.
    """
    for _ in range(n * (n - 1) // 2 + 1):
        for parity, pcodes in active:
            grown = _floor_step(n, parity, pcodes, s)
            if grown is not None:
                s = grown
                break
        else:
            return s
        if any(not _INV[o] & ~_INV[s] for o in found):
            return None
    raise AssertionError("unreachable: the half twist keeps every floor")


def minimal_conjugator(i: int, t: BraidTuple, floor: InfFloor) -> SimpleElement:
    """Minimal simple element divisible by letter i whose conjugation keeps the floor.

    Ascends from the bare generator: while some on-floor entry D^j p rejects
    the candidate s (tau^j(s) does not divide p*s), absorb the complement
    that makes the rejecting entry's lcm go through.  Every absorbed factor
    also divides the true minimum, so the ascent converges to it from below;
    the half twist always passes, so it converges within its word length.
    """
    if not 1 <= i <= t.n - 1:
        raise InvalidParams(f"generator index {i} out of range for {t.n} strands")
    active = _active_entries(t, floor)
    return _SIMPLE[_minimal_conjugator_code(t.n, active, _LETTERS[t.n][i])]


def _minimal_codes(n: int, active) -> list[int]:
    """The codes of minimal_conjugator_set, in ascending generator order.

    Each ascent is given the minima found so far and stops once its
    candidate is divisible by one of them (see _minimal_conjugator_code).
    The minimum it would have reached then equals that earlier one, a
    duplicate, or lies strictly above it, so the filter would drop it; and
    it cannot be what drops another element, since the earlier minimum
    below it drops that element too.  So the result and its order are those
    of running every ascent to its end.
    """
    found: list[int] = []
    letters = _LETTERS[n]
    for i in range(1, n):
        r_i = _minimal_conjugator_code(n, active, letters[i], found)
        if r_i is not None:
            found.append(r_i)
    return [s for s in found if not any(o != s and not _INV[o] & ~_INV[s] for o in found)]


def minimal_conjugator_set(t: BraidTuple, floor: InfFloor) -> list[SimpleElement]:
    """The distinct minimal floor-keeping conjugators, at most n-1 of them.

    Deduplicates the per-generator minima and defensively drops any element
    strictly divisible by another, preserving ascending generator order.
    """
    return [_SIMPLE[s] for s in _minimal_codes(t.n, _active_entries(t, floor))]


# ---------------------------------------------------------------------------
# Search over the floor-respecting conjugates.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SearchCounters:
    nodes_expanded: int = 0
    conjugations: int = 0
    set_size_max: int = 0
    set_size_sum: int = 0
    lift_moves: int = 0


@dataclasses.dataclass(frozen=True, slots=True)
class SummitNode:
    """How a visited tuple was reached: its parent's key and the edge from it.

    The edge is the code of the simple element that conjugates the parent
    to this tuple.  The root has neither parent nor edge.  The parent is the
    very tuple object that keys the parent node, so storing it copies nothing.
    """

    parent: Entries | None
    edge: int | None


@dataclasses.dataclass
class SummitGraph:
    """Explored search tree on n strands: nodes keyed by their raw entries."""

    n: int
    root: Entries
    nodes: dict[Entries, SummitNode]
    counters: SearchCounters

    def tuple(self, key: Entries) -> BraidTuple:
        """The BraidTuple of a node key."""
        return BraidTuple(self.n, tuple(NormalForm(self.n, p, c) for p, c in key))


class Outcome(enum.Enum):
    FOUND = "found"
    NOT_CONJUGATE = "not-conjugate"
    ABORTED = "aborted"


@dataclasses.dataclass
class ConjugatorResult:
    outcome: Outcome
    conjugator: BraidWord | None
    reason: str | None
    graph: SummitGraph

    @property
    def counters(self) -> SearchCounters:
        return self.graph.counters


def _path(nodes: dict[Entries, SummitNode], key: Entries) -> list[int]:
    """The edge codes along the tree path from the root of nodes to key."""
    edges: list[int] = []
    node = nodes[key]
    while node.parent is not None:
        edges.append(node.edge)
        node = nodes[node.parent]
    edges.reverse()
    return edges


def _check_pair(alpha: BraidTuple, beta: BraidTuple) -> None:
    if alpha.r != beta.r:
        raise LengthMismatch(f"tuples of length {alpha.r} and {beta.r}")
    check_same_strands(alpha, beta)


def _lift_chain(n: int, chain: dict[Entries, SummitNode], counters: SearchCounters):
    """Lift the one tuple in chain by cycling moves, one move per next().

    A move cycles one entry D^p A_1 ... A_l, taking the entries in turn and
    passing over powers of the half twist: its cycling factor tau^p(A_1) is
    ascended to the minimal simple element above it whose conjugation keeps
    the tuple's own inf vector, and the tuple is conjugated by that.  So no
    move lowers an infimum.  A move to the half twist or to a tuple already
    in chain is skipped.  Each new tuple is added to chain as the child of
    the previous one, labelled by its conjugator, and yielded; a skipped
    move yields None.  The chain ends after n(n-1)/2 moves in a row that
    raise no infimum, the number of cycles within which cycling raises the
    infimum of a single braid below its summit infimum, or when every entry
    is a power of the half twist.
    """
    (current,) = chain
    r = len(current)
    turn = stale = 0
    while stale < n * (n - 1) // 2:
        for _ in range(r):
            power, codes = current[turn % r]
            turn += 1
            if codes:
                break
        else:
            return
        counters.lift_moves += 1
        stale += 1
        active = [(p % 2, c) for p, c in current]
        s = _minimal_conjugator_code(n, active, _TAU[codes[0]] if power % 2 else codes[0])
        if s == _DELTA[n]:
            yield None
            continue
        lifted = tuple(_conj_raw(n, p, c, s) for p, c in current)
        if lifted in chain:
            yield None
            continue
        chain[lifted] = SummitNode(current, s)
        if any(new[0] > old[0] for new, old in zip(lifted, current)):
            stale = 0
        current = lifted
        yield lifted


def summit_search(
    alpha: BraidTuple,
    beta: BraidTuple,
    floor: InfFloor,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConjugatorResult:
    """Breadth-first search from alpha for beta or a cycling lift of beta.

    Expands each tuple by its minimal conjugator set in ascending generator
    order, so sequential runs are deterministic.  The search runs on raw
    entries, (power, factor codes) per entry, and these key the graph: the
    floor is validated once, here, since every minimal conjugator keeps it; a
    child is conjugated entry by entry on codes and looked up among the nodes
    before anything else is built.  Normal forms are unique, so equal entries
    mean equal tuples and the node dict is the only dedup structure.  The
    search builds no NormalForm, BraidTuple, SimpleElement or key string.

    The targets are beta and its lift chain (see _lift_chain), grown by one
    cycling move after each expansion that did not meet a target.  A chain
    tuple is t = y^-1 beta y for the product y of the conjugators on its
    chain path, so when the search reaches t along the path P from alpha,
    x = P y^-1 conjugates alpha to beta.  A new chain tuple that the search
    has already visited is a meeting too.

    Why the targets are sound: every chain tuple is conjugate to beta and
    keeps infima at least beta's, so it lies in the floor set, and beta stays
    a target.  So FOUND is right, a search for a tuple not conjugate to
    alpha meets no target and exhausts the component exactly as a search for
    beta alone does, and since the chain never changes which nodes are
    expanded or in what order, the search stops at the same node as a
    search for beta alone or earlier, never later.  The graph keeps one
    root, and ABORTED still happens exactly at node_cap.
    Exhausting the frontier without meeting a target proves the tuples are
    not conjugate within the floor; exceeding node_cap aborts without a
    verdict.
    """
    _check_pair(alpha, beta)
    if node_cap < 1:
        raise InvalidParams("node_cap must be at least 1")
    for t in (alpha, beta):
        if not meets_floor(t, floor):
            raise NotInFloor("both tuples must satisfy the infimum floor")

    n = alpha.n
    counters = SearchCounters()
    root = _code_key(alpha)
    nodes = {root: SummitNode(None, None)}
    targets = {_code_key(beta): SummitNode(None, None)}
    graph = SummitGraph(n, root, nodes, counters)

    def result(outcome, conjugator=None, reason=None):
        return ConjugatorResult(outcome, conjugator, reason, graph)

    def found(key):
        x = [_code_word(s) for s in _path(nodes, key)]
        y_inv = [word_inverse(_code_word(s)) for s in reversed(_path(targets, key))]
        return result(Outcome.FOUND, word_concat(BraidWord(n, ()), *x, *y_inv))

    if root in targets:  # alpha is beta
        return found(root)

    lifts = _lift_chain(n, targets, counters)
    queue = deque([root])
    while queue:
        entries = queue.popleft()
        moves = _minimal_codes(n, _active(entries, floor))
        counters.nodes_expanded += 1
        counters.set_size_sum += len(moves)
        counters.set_size_max = max(counters.set_size_max, len(moves))
        for s in moves:
            counters.conjugations += 1
            child = tuple(_conj_raw(n, power, codes, s) for power, codes in entries)
            if child in nodes:
                continue
            if len(nodes) >= node_cap:
                return result(Outcome.ABORTED, reason=f"node cap {node_cap} exceeded")
            nodes[child] = SummitNode(entries, s)
            if child in targets:
                return found(child)
            queue.append(child)
        # None, from a skipped move or an ended chain, is never a node key
        lifted = next(lifts, None)
        if lifted in nodes:
            return found(lifted)
    return result(Outcome.NOT_CONJUGATE)


def solve_mscp(
    alpha: BraidTuple,
    beta: BraidTuple,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConjugatorResult:
    """Find x with x^-1 alpha x = beta, or decide there is none.

    Uses the componentwise minimum of the two infimum vectors as the floor,
    which both tuples satisfy by construction, and re-verifies any found
    conjugator before returning it.
    """
    _check_pair(alpha, beta)
    floor = tuple(min(a.inf, b.inf) for a, b in zip(alpha.entries, beta.entries))
    outcome = summit_search(alpha, beta, floor, node_cap)
    if outcome.outcome is Outcome.FOUND and not verify_conjugator(alpha, beta, outcome.conjugator):
        raise VerificationFailed("search returned a conjugator that fails verification")
    return outcome


def verify_conjugator(alpha: BraidTuple, beta: BraidTuple, x: BraidWord) -> bool:
    """Whether x^-1 a_i x = b_i holds for every entry, by normal forms."""
    _check_pair(alpha, beta)
    if x.n != alpha.n:
        raise StrandMismatch(f"conjugator on {x.n} strands against tuples on {alpha.n}")
    xf = normalize(x)
    xinv = invert(xf)
    return all(
        multiply(multiply(xinv, a), xf) == b
        for a, b in zip(alpha.entries, beta.entries)
    )
