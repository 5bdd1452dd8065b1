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
entry D^j p and grows s if the entry rejects it, by lattice operations on
simple elements alone: with t = tau^j(s) and c the simple with
p*c = join(t, p), t divides p*s exactly when c divides s, and a rejected s
grows to join(s, c), so the product p*s is never built.  An ascent stops
early once s lies above a minimum found for an earlier generator, and once
s is the half twist D, which keeps every floor since conjugating by D is
tau; no entry is tested against D.

The search runs between the summits of both sides, as the Lee-Lee
algorithm does: over conjugates whose entries have high infimum and low
supremum.  sup(a) = -inf(a^-1), and (s^-1 a s)^-1 = s^-1 a^-1 s, so a
ceiling on the supremum of a_i is a floor on the infimum of a_i^-1: the
solver works on the doubled tuple (a_1..a_r, a_1^-1..a_r^-1), and the floor
test, the minimal conjugators and their meet closure apply to its 2r
entries unchanged.  Cycling a braid D^p A_1 ... A_l conjugates it by
tau^p(A_1), and repeated cycling raises the infimum of a braid that is
below its summit infimum (Elrifai-Morton); cycling an inverse entry
decycles the entry, which lowers its supremum.  solve_mscp lifts both
doubled tuples this way (see _lift_chain), one move per side per round,
and stops as soon as one side reaches a tuple the other already holds, or
the flip of one.  The flip tau(X) = D^-1 X D maps each entry
D^p A_1 ... A_l to D^p tau(A_1) ... tau(A_l), a normal form again with
the same infimum and supremum.  Summit sets and cycling are both closed
under it, so when beta's chain runs through tau-images of alpha's, the
two chains can pass each other without meeting.  The search (_search)
then runs at the componentwise minimum F of the two final inf vectors.
When the chains met, it runs from the tuple of alpha's chain where they
met, and every tuple of beta's chain that meets F is a target.  Otherwise
it runs from the lower summit: the lifted side whose final doubled inf
vector has the smaller sum, alpha's on a tie.  Every tuple of the other
side's chain that meets F is then a target.  A floor raise (below) fires
only when a target lies above the floor, which a target on the higher
summit can, and one on the lower cannot.  A node whose flip is a target
answers as a target does.  Equal tuples, tau-images and chains that meet
are answered at once, since the root or its flip is a target; every
answer leaves the solver through that one search.

Why this is sound and complete: each lift is a conjugation by a known
element, so the answer is x = y_a P y_b^-1 for the lift y_a to the root,
the search path P and the chain path y_b to the target met.  A node X
whose flip is the target t gives x = y_a P D y_b^-1, since t = D^-1 X D.
Every target is conjugate to beta and meets the floor, so FOUND is right,
and solve_mscp still checks every FOUND with verify_conjugator.  The set of
conjugates of the doubled tuple that meet a floor is connected under
minimal floor-keeping conjugators, by the same meet closure as for r
entries: it is just a floor on a 2r-tuple.  Both final lifts meet F, so if
alpha and beta are conjugate, lifted beta lies in the component of lifted
alpha.  Until the floor rises, the targets and their flips never change
which nodes are expanded or in what order: they only stop the search, so
it stops where a search for beta alone would, or earlier.  A flip match
proves conjugacy, so it cannot touch a NOT_CONJUGATE verdict, and
exhausting the frontier proves that no target, and so not beta, is
conjugate to alpha: NOT_CONJUGATE.  A search that exceeds its node cap
aborts without a verdict.  A flip match adds no node and no edge, so the
graph stays a breadth-first tree.

The search also raises its floor while it runs, and each floor is one
phase of it: a breadth-first pass with its own queue and visited set.
When a visited tuple X and a target t both lie above the floor, the
componentwise minimum F_t of their inf vectors is a floor that both meet,
and the next phase starts from X at F_t.  This stays complete: X is
conjugate to alpha by its tree path and t to beta by its chain path, so
if alpha and beta are conjugate then t is a conjugate of X that meets F_t,
and it lies in X's component of that floor set, which is connected under
minimal floor-keeping conjugators by the same meet closure.  So
exhausting the last phase still proves NOT_CONJUGATE.  Each raise lifts a
coordinate and lowers none, and F_t never exceeds a target's vector, so
the phases are finite.

Nothing in these arguments, the floor raises included, depends on which
tuple is alpha.  With alpha and beta exchanged they say: a search from
lifted beta, with alpha's chain as its targets, finds a word w with
w^-1 beta w = alpha when the tuples are conjugate, since every tuple of
alpha's chain that meets F lies in lifted beta's component, and exhausts
otherwise.  Then x = w^-1, which solve_mscp verifies on the original
tuples like any other answer.  So the side searched changes the cost
only.

Each phase also visits one tuple per tau-orbit.  tau keeps every infimum
and supremum and is an automorphism of the lattice of simple elements, so
the minimal conjugator set of tau(X) is tau of that of X, and the
children of tau(X) are the flips of the children of X.  Conjugating by D
is tau, which keeps every floor, so the component of the tuple a phase
starts from holds that tuple's flip and is closed under tau.  A phase's
visited set holds every node together with its flip, and a child that it
holds is skipped.  By induction along any path from the start, each tuple
on it has itself or its flip visited, so every orbit of the component has
a visited representative.  A representative answers for its orbit: the
target test accepts a node whose flip is a target, and a floor raise reads
only the inf vector, which the flip shares.  So FOUND and NOT_CONJUGATE
are sound as before, and an exhausted component costs about half as many
nodes.
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
    _code_letters,
    _left_complement,
    _mul,
    check_int,
    check_same_length,
    check_same_strands,
    generator_simple,
    word_inverse,
)
from .errors import (
    InvalidParams,
    LengthMismatch,
    NotInFloor,
    VerificationFailed,
)
from .normal_form import (
    Codes,
    NormalForm,
    _conj_raw,
    _invert_raw,
    _lcm_sweep,
    _multiply_raw,
    _normalize_raw,
    _raw_key,
    conjugate,
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
        check_int("strand count", self.n, 2)
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise InvalidParams("a braid tuple needs at least one entry")
        for e in self.entries:
            if not isinstance(e, NormalForm):
                raise InvalidParams(f"tuple entry {e!r} is not a NormalForm")
            check_same_strands(self, e)

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


def _meets(vector: InfFloor, floor: InfFloor) -> bool:
    """Whether the inf vector is at least the floor in every coordinate."""
    return all(i >= j for i, j in zip(vector, floor))


def _check_floor(floor, r: int, widths: tuple[int, ...]) -> InfFloor:
    """The one check of a floor from outside: an allowed length, then an exact int per entry."""
    floor = tuple(floor)
    if len(floor) not in widths:
        raise LengthMismatch(f"floor of length {len(floor)} against a {r}-tuple")
    for j in floor:
        check_int("floor entry", j)
    return floor


def meets_floor(t: BraidTuple, floor: InfFloor) -> bool:
    """Whether every entry has infimum at least the floor value."""
    return _meets(inf_vector(t), _check_floor(floor, t.r, (t.r,)))


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
    exactly when t = tau^j(s) divides p*s.  Let c be the simple with
    p*c = join(t, p), which the sweep of t through p gives; c is simple
    because t and p both divide p*D = D*tau(p).  Since p divides p*s, t
    divides p*s exactly when join(t, p) = p*c does, and cancelling p on the
    left, exactly when c divides s: one bitmask test.  A rejecting entry
    grows s to s s' with (p s) s' = join(t, p s), the least multiple of s
    whose product with p is divisible by t; by the same cancellation that
    is the least multiple of s divisible by c, join(s, c).
    """
    c = _lcm_sweep(n, _TAU[s] if parity else s, pcodes)
    if not _INV[c] & ~_INV[s]:
        return None
    return _mul(s, _left_complement(c, s))


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
    that simple or strictly above it.  That check comes first, so a
    candidate above an earlier minimum gives None even when it is D.

    A candidate equal to the half twist D is returned without a floor step:
    conjugating by D is tau, which keeps every infimum, so D is the minimum
    above itself.  That covers a start at D too, as at n = 2, where the
    only letter is D.  Every other step grows s strictly, to join(s, c) for
    a c that does not divide s, so the ascent reaches D or an accepted
    candidate within D's word length.
    """
    top = _DELTA[n]
    while s != top:
        for parity, pcodes in active:
            grown = _floor_step(n, parity, pcodes, s)
            if grown is not None:
                s = grown
                break
        else:
            return s
        if any(not _INV[o] & ~_INV[s] for o in found):
            return None
    return s


def minimal_conjugator(i: int, t: BraidTuple, floor: InfFloor) -> SimpleElement:
    """Minimal simple element divisible by letter i whose conjugation keeps the floor.

    Ascends from the bare generator: while some on-floor entry D^j p rejects
    the candidate s (tau^j(s) does not divide p*s), absorb the complement
    that makes the rejecting entry's lcm go through.  Every absorbed factor
    also divides the true minimum, so the ascent converges to it from below;
    the half twist always passes, so it converges within its word length.
    """
    start = generator_simple(t.n, i).code
    return _SIMPLE[_minimal_conjugator_code(t.n, _active_entries(t, floor), start)]


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

    One ascent per generator, in ascending generator order, each stopping
    once it lies above a minimum already found, so no minimum is found
    twice.  A later generator's minimum can still lie strictly below an
    earlier one, and then the earlier one is dropped: only the minima that
    no other divides strictly are kept, in the order they were found.
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
    floor_raises: int = 0


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
        return _tuple(self.n, key)


def _tuple(n: int, entries: Entries) -> BraidTuple:
    return BraidTuple(n, tuple(NormalForm(n, p, c) for p, c in entries))


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
    check_same_length(alpha.entries, beta.entries)
    check_same_strands(alpha, beta)


def _lift_chain(n: int, chain: dict[Entries, SummitNode], counters: SearchCounters):
    """Lift the one tuple in chain by cycling moves: yield it, then one move per next().

    The moves act on the doubled tuple, the r entries followed by their
    inverses (see _doubled), and chain is keyed by the r entries, which fix
    the inverses.  A move cycles one entry D^p A_1 ... A_l of the doubled
    tuple, taking the entries in turn and passing over powers of the half
    twist: its cycling factor tau^p(A_1) is ascended to the minimal simple
    element above it whose conjugation keeps the doubled tuple's own inf
    vector, and the tuple is conjugated by that.  So no move lowers an
    infimum or, through the inverse entries, raises a supremum; cycling an
    inverse entry decycles the entry.  A move to the half twist or to a
    tuple already in chain is skipped.  The start is yielded first, before
    any move, so that a caller tests it as it tests every later tuple.  Each
    new tuple is added to chain as the child of the previous one, labelled
    by its conjugator, and yielded; a skipped move yields None.  The chain
    ends after n(n-1)/2 moves in a row that raise no infimum, the number of
    cycles within which cycling raises the infimum of a single braid below
    its summit infimum.  It also ends once a turn has come to every entry
    of the doubled tuple since the chain last grew: a move depends only on
    the tuple and the entry, so every later move would be skipped too, and
    the chain is the one the longer run would build.  A turn on a
    half-twist power makes no move, so a tuple of half-twist powers ends
    the chain after one round of turns.

    The ascent tests the turn's entry and its partner (the same braid's
    inverse, or its original) last.  Both accept the start: cycling
    D^p A_1 ... A_l by tau^p(A_1) gives D^p A_2 ... A_l tau^p(A_1), which
    keeps the entry's infimum and does not raise its supremum, whose
    negation is the partner's infimum.  The minimum above the start is
    unique, so the order of the tests changes no result; it only skips the
    two tests whenever another entry rejects first.
    """
    (key,) = chain
    yield key
    current = _doubled(key)
    width = len(current)
    turn = stale = idle = 0
    while stale < n * (n - 1) // 2 and idle < width:
        k = turn % width
        power, codes = current[k]
        turn += 1
        idle += 1
        if not codes:
            continue
        counters.lift_moves += 1
        stale += 1
        partner = (k + width // 2) % width
        order = [e for i, e in enumerate(current) if i != k and i != partner]
        active = [(p % 2, c) for p, c in (*order, current[k], current[partner])]
        s = _minimal_conjugator_code(n, active, _TAU[codes[0]] if power % 2 else codes[0])
        lifted = None if s == _DELTA[n] else tuple(_conj_raw(n, p, c, s) for p, c in key)
        if lifted is None or lifted in chain:
            yield None
            continue
        chain[lifted] = SummitNode(key, s)
        doubled = _doubled(lifted)
        if any(new[0] > old[0] for new, old in zip(doubled, current)):
            stale = 0
        key, current, idle = lifted, doubled, 0
        yield lifted


def _flip(entries: Entries) -> Entries:
    """tau of every entry: D^-1 (D^p A_1 ... A_l) D = D^p tau(A_1) ... tau(A_l), a normal form again."""
    return tuple((power, tuple(_TAU[c] for c in codes)) for power, codes in entries)


def _doubled(entries: Entries) -> Entries:
    """The raw entries followed by their inverses: a floor on both is a floor and a ceiling."""
    return entries + tuple(_invert_raw(power, codes) for power, codes in entries)


def _vector(entries: Entries) -> InfFloor:
    """The inf vector of the doubled tuple, read off without inverting: inf(a^-1) = -sup(a)."""
    return tuple(power for power, _ in entries) + tuple(-power - len(codes) for power, codes in entries)


def summit_search(
    alpha: BraidTuple,
    beta: BraidTuple,
    floor: InfFloor,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConjugatorResult:
    """Breadth-first search from alpha for beta, or the flip of beta.

    The floor has 2r values, one per entry of the doubled tuple
    (a_1..a_r, a_1^-1..a_r^-1): the last r cap the suprema, since
    sup(a) = -inf(a^-1).  A floor of r values leaves the suprema free: every
    floor test zips the doubled entries with the floor, so the inverse
    entries go untested.  alpha and beta must both meet the floor.  A node
    whose flip tau is beta answers too, with D's code on the path.  The
    checks are made here; the search is _search, with beta as its one-tuple
    chain, so it too visits one tuple per tau-orbit, and the module
    docstring says why its verdicts are sound.
    """
    _check_pair(alpha, beta)
    check_int("node_cap", node_cap, 1)
    floor = _check_floor(floor, alpha.r, (alpha.r, 2 * alpha.r))
    root, target = _code_key(alpha), _code_key(beta)
    if not _meets(_vector(root), floor) or not _meets(_vector(target), floor):
        raise NotInFloor("alpha and beta must satisfy the floor")
    chain = {target: SummitNode(None, None)}
    return _search(alpha.n, root, floor, node_cap, chain, SearchCounters(), [])


def _search(
    n: int,
    root: Entries,
    floor: InfFloor,
    node_cap: int,
    chain: dict[Entries, SummitNode],
    counters: SearchCounters,
    lead: list[int],
) -> ConjugatorResult:
    """The search of summit_search on raw entries, its root reached from alpha along lead.

    solve_mscp runs it with alpha and beta exchanged when lifted beta is the
    lower summit; below, alpha is the side searched from, and beta the side
    whose chain is given.  A root that chain holds, directly or up to the
    flip tau, is answered at once, with a one-node graph.  Otherwise the
    targets are the chain tuples that meet the floor; the caller has
    checked that the root and some chain tuple meet it.  The chain itself
    is the stop set: every child meets the floor, and so does its flip,
    which has the same inf vector, so a child is a target, or the flip of
    one, exactly when chain holds it or its flip, the tests _lockstep makes
    too.
    Only the targets' inf vectors are kept, in chain order, for
    _raised_floor.  Nodes are keyed and conjugated on their r raw entries,
    (power, factor codes) per entry, which fix the inverse entries; those
    are derived once per expansion by invert's formula and join the floor
    test.  Each tuple is expanded by the minimal conjugator set of its
    doubled entries in ascending generator order, so sequential runs are
    deterministic, and every minimal conjugator keeps the floor, so a child
    is conjugated entry by entry on codes and looked up among the nodes
    before anything else is built.
    Normal forms are unique, so equal entries mean equal tuples: a phase
    dedups on its own visited set of raw entries, which holds every node
    together with its flip tau, so a child that is a visited node or the
    flip of one is skipped, and a phase keeps one tuple per tau-orbit (the
    module docstring says why that stays complete).  The flip added to the
    visited set is the one the target test reads, so each new child is
    flipped once.  The node dict is keyed by real tuples, not orbits, so
    paths and the exported tree keep their shape, and it keeps each tuple's
    first parent across phases.  The search builds no NormalForm,
    BraidTuple, SimpleElement or key string.

    A chain tuple t is y^-1 beta y for the product y of the conjugators on
    its chain path, so when the search reaches t along the path P from the
    root, x = L P y^-1 conjugates alpha to beta, with L the product of lead.
    When it reaches X with tau(X) = t instead, t = D^-1 X D and
    x = L P D y^-1.  Either match stops the search at a node already in
    the graph, so it adds no node or edge and the graph stays a tree.

    The search runs in phases, one breadth-first pass per floor, each a
    turn of the outer loop with its own queue and visited set; the first
    starts at the root.  When a node X is taken off the queue and some
    entry of its doubled tuple lies above the floor, each target t gives
    F_t, the componentwise minimum of X's and t's inf vectors cut to the
    floor's length.  If the F_t of largest sum (the first in chain order on
    a tie) lies strictly above the floor, the phase ends and the next one
    starts from X at that F_t, with the targets that meet it.  Nothing
    inside a phase changes its floor, targets, queue or visited set; the
    outer loop sets them between phases.  X's first expansion in the new
    phase cannot raise again: X's vector is unchanged, and each surviving
    target meets the new floor F, so its F_t is at least F and, as F won,
    of no larger sum, so it equals F.  So X is expanded once, at F, and
    the raise is counted once.  The phases are few: each raise lifts
    sum(floor) by at least one, and every floor stays below the vector of
    a target.  A phase is not a nested function that calls itself on a
    raise: that would hold every graph in a reference cycle until the
    cyclic garbage collector ran.

    The phases share the graph, which keeps the first parent of every node,
    so it stays one tree rooted at the root and found paths run through it.
    A phase starts a new visited set, of its start and that tuple's flip, so
    nodes met in an earlier phase are expanded again at the new floor, and a
    child whose flip is a node of an earlier phase, but was not visited in
    this one, joins the graph as a node of its own.  Only a node new to the
    graph counts against node_cap, and ABORTED happens exactly there.
    """
    nodes = {root: SummitNode(None, None)}
    graph = SummitGraph(n, root, nodes, counters)

    def result(outcome, conjugator=None, reason=None):
        return ConjugatorResult(outcome, conjugator, reason, graph)

    def found(key, flipped):
        """The FOUND result when chain holds key or its flip flipped = D^-1 key D, else None."""
        if key in chain:
            return result(Outcome.FOUND, _conjugator(n, lead + _path(nodes, key), _path(chain, key)))
        if flipped in chain:
            forward = lead + _path(nodes, key) + [_DELTA[n]]
            return result(Outcome.FOUND, _conjugator(n, forward, _path(chain, flipped)))
        return None

    answer = found(root, _flip(root))
    if answer is not None:
        return answer
    # the inf vectors, cut to the floor's length, of the chain tuples that meet the floor
    width = len(floor)
    targets = [v for v in (_vector(key)[:width] for key in chain) if _meets(v, floor)]
    entries = root
    while True:  # one phase per floor, from the node that raised it
        queue = deque([entries])
        seen = {entries, _flip(entries)}  # every node with its flip: one tuple per tau-orbit
        while queue:
            entries = queue.popleft()
            doubled = _doubled(entries)
            active = _active(doubled, floor)
            if len(active) < width:  # an entry lies above the floor
                raised = _raised_floor(floor, doubled, targets)
                if raised is not None:
                    break
            moves = _minimal_codes(n, active)
            counters.nodes_expanded += 1
            counters.set_size_sum += len(moves)
            counters.set_size_max = max(counters.set_size_max, len(moves))
            for s in moves:
                counters.conjugations += 1
                child = tuple(_conj_raw(n, power, codes, s) for power, codes in entries)
                if child in seen:  # the child or its flip was visited in this phase
                    continue
                flipped = _flip(child)
                seen.add(child)
                seen.add(flipped)
                if child not in nodes:  # a node met in an earlier phase keeps its first parent
                    if len(nodes) >= node_cap:
                        return result(Outcome.ABORTED, reason=f"node cap {node_cap} exceeded")
                    nodes[child] = SummitNode(entries, s)
                    answer = found(child, flipped)
                    if answer is not None:
                        return answer
                queue.append(child)
        else:
            return result(Outcome.NOT_CONJUGATE)
        counters.floor_raises += 1
        floor = raised
        targets = [v for v in targets if _meets(v, floor)]


def _raised_floor(floor: InfFloor, doubled: Entries, vectors) -> InfFloor | None:
    """The floor of largest sum (first in chain order on a tie) met by the node and a target.

    For each target's inf vector v_t, in chain order, F_t is the
    componentwise minimum of v_t and the node's own vector; both meet floor,
    so F_t >= floor.  The first F_t of largest sum wins, and None means
    that the winner, and so every F_t, equals floor.  Floors are only
    partially ordered, so another F_t can be higher than the winner in some
    coordinate.
    """
    mine = [power for power, _ in doubled]
    best = max((tuple(map(min, mine, v)) for v in vectors), key=sum, default=floor)
    return None if best == floor else best


def _conjugator(n: int, forward: list[int], backward: list[int]) -> BraidWord:
    """The word of the product of the simples in forward times the inverse of that of backward."""
    letters = [e for s in forward for e in _code_letters(s)]
    letters += [-e for s in reversed(backward) for e in reversed(_code_letters(s))]
    return BraidWord(n, tuple(letters))


def _lockstep(n: int, a_chain, b_chain, counters: SearchCounters) -> Entries | None:
    """Lift both chains in turn, one step each per round, until one reaches a tuple the other holds.

    A step also stops the lift when the other chain holds the flip tau of
    its tuple.  Each chain's first step is its start (see _lift_chain), so
    alpha's start meets the same test as every later tuple, before any
    move; beta's start, tested against alpha's start alone, cannot match
    where alpha's did not, tau being an involution.  Returns a tuple of
    alpha's chain that beta's chain holds, directly or up to tau: alpha's
    own step, or the flip of beta's step, which alpha's chain holds.
    Returns None once both chains have ended without meeting.
    """
    sides = deque([(_lift_chain(n, a_chain, counters), b_chain), (_lift_chain(n, b_chain, counters), a_chain)])
    while sides:
        moves, other = sides.popleft()
        for step in moves:  # one step; a chain that has ended leaves the rotation
            if step is not None:
                if step in other:
                    return step
                flipped = _flip(step)
                if flipped in other:  # a tuple of alpha's chain that beta's holds up to tau
                    return step if other is b_chain else flipped
            sides.append((moves, other))
            break
    return None


def solve_mscp(
    alpha: BraidTuple,
    beta: BraidTuple,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ConjugatorResult:
    """Find x with x^-1 alpha x = beta, or decide there is none.

    The node cap is checked first, so that no input answers under a cap
    below 1.  Both doubled tuples are then lifted in lockstep (_lockstep),
    and _search runs once, at the componentwise minimum of the two final
    inf vectors.  When the chains met, it runs from where they met to the
    tuples of beta's chain and their flips.  Otherwise it runs from the
    lower summit: from lifted beta to alpha's chain when beta's final
    doubled inf vector has the smaller sum, so that its word w has
    w^-1 beta w = alpha and x = w^-1, and from lifted alpha to beta's chain
    when alpha's sum is smaller or the sums are equal.  Equal tuples,
    tau-images and chains that meet are answered by the search at its root.
    The module docstring says why the verdicts are sound, from either side.
    A found conjugator is re-verified on the original tuples before it is
    returned.
    """
    _check_pair(alpha, beta)
    check_int("node_cap", node_cap, 1)
    n = alpha.n
    counters = SearchCounters()
    a_chain = {_code_key(alpha): SummitNode(None, None)}
    b_chain = {_code_key(beta): SummitNode(None, None)}
    met = _lockstep(n, a_chain, b_chain, counters)
    a_top, b_top = next(reversed(a_chain)), next(reversed(b_chain))
    a_vector, b_vector = _vector(a_top), _vector(b_top)
    floor = tuple(map(min, a_vector, b_vector))
    inverted = met is None and sum(b_vector) < sum(a_vector)
    if inverted:  # beta's summit is the lower: search for w with w^-1 beta w = alpha
        root, chain, lead = b_top, a_chain, _path(b_chain, b_top)
    else:
        root = a_top if met is None else met
        chain, lead = b_chain, _path(a_chain, root)
    outcome = _search(n, root, floor, node_cap, chain, counters, lead)
    if outcome.outcome is Outcome.FOUND:
        if inverted:
            outcome = dataclasses.replace(outcome, conjugator=word_inverse(outcome.conjugator))
        if not verify_conjugator(alpha, beta, outcome.conjugator):
            raise VerificationFailed("search returned a conjugator that fails verification")
    return outcome


def verify_conjugator(alpha: BraidTuple, beta: BraidTuple, x: BraidWord) -> bool:
    """Whether x^-1 a_i x = b_i holds for every entry, comparing raw entries.

    x's normal form, its inverse and each product x^-1 a_i x are computed
    as (power, codes) pairs and compared with b_i's, so no NormalForm is
    built; the first entry that differs ends the check.
    """
    _check_pair(alpha, beta)
    check_same_strands(alpha, x)
    n = x.n
    power, codes = _normalize_raw(n, x.letters)
    inv_power, inv_codes = _invert_raw(power, codes)
    return all(
        _multiply_raw(n, *_multiply_raw(n, inv_power, inv_codes, a.power, a.codes), power, codes)
        == (b.power, b.codes)
        for a, b in zip(alpha.entries, beta.entries)
    )
