"""Parsing and serialization of conjugacy instances, results, and search graphs.

The primary format is line-based plain text so corpora diff cleanly:

    # optional metadata
    n 3
    r 1
    alpha 1
    beta 2

Words are whitespace-separated letters with 1 <= |v| <= n-1; the empty
word is the single token "e".  The n and r values and every letter are
integer tokens, ASCII [+-]?[0-9]+, and the first token refused is reported
at its line and column.  Comment lines start with "#" and round-trip.
Explored search graphs export as an edge list or DOT.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re

from .braid import (
    BraidWord,
    check_int,
    check_same_length,
    check_same_strands,
    integer,
    word_from_text,
    word_to_text,
)
from .errors import (
    BadToken,
    CountMismatch,
    IndexOutOfRange,
    InstanceSyntaxError,
    InvalidParams,
)
from .normal_form import _WORD_TEXT
from .solver import BraidTuple, Entries, SummitGraph, _entries_key, tuple_from_words


def _metadata_entry_ok(m) -> bool:
    """The metadata rule, so that "# entry" reads back: one line, no outer whitespace."""
    return isinstance(m, str) and m == m.strip() and m.splitlines() in ([], [m])


@dataclasses.dataclass(frozen=True)
class InstanceFile:
    """A conjugacy instance: two r-tuples of words over the same strand count."""

    n: int
    alpha: tuple[BraidWord, ...]
    beta: tuple[BraidWord, ...]
    metadata: tuple[str, ...] = ()

    def __post_init__(self):
        check_int("strand count", self.n, 2)
        for name in ("alpha", "beta", "metadata"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.alpha or not self.beta:
            raise InvalidParams("alpha and beta must be non-empty")
        # the checks the solver makes of a pair of tuples
        check_same_length(self.alpha, self.beta)
        for w in self.alpha + self.beta:
            check_same_strands(self, w)
        if not all(map(_metadata_entry_ok, self.metadata)):
            raise InvalidParams(f"a metadata entry is not a single trimmed line: {self.metadata!r}")

    @property
    def r(self) -> int:
        return len(self.alpha)

    def tuples(self) -> tuple[BraidTuple, BraidTuple]:
        """alpha and beta as the solver takes them: tuples of normal forms."""
        return tuple_from_words(self.n, self.alpha), tuple_from_words(self.n, self.beta)


def _parse_word(body: str, n: int, lineno: int, offset: int) -> BraidWord:
    """The word of one alpha or beta line, whose body starts after offset characters.

    word_from_text names the first bad token; this adds its line and column.
    """
    try:
        return word_from_text(body, n)
    except BadToken as ex:
        error = IndexOutOfRange if ex.out_of_range else InstanceSyntaxError
        raise error(str(ex), lineno, offset + ex.offset + 1) from None


def _parse_int_line(line: str, key: str, lineno: int) -> int:
    m = re.fullmatch(rf"{key} (\S+)", line)
    if m is None:
        raise InstanceSyntaxError(f"expected '{key} <int>'", lineno, 1)
    try:
        return integer(m.group(1))
    except ValueError:
        raise InstanceSyntaxError(f"bad integer {m.group(1)!r}", lineno, len(key) + 2) from None


def parse_instance(text: str) -> InstanceFile:
    """Parse the line format; strict about keywords, indices, and counts."""
    metadata: list[str] = []
    body: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            metadata.append(line[1:].strip())
        elif line.strip():
            body.append((lineno, line))

    if not body:
        raise InstanceSyntaxError("empty instance", 1, 1)
    lineno, line = body[0]
    n = _parse_int_line(line, "n", lineno)
    if n < 2:
        raise InstanceSyntaxError(f"strand count must be at least 2, got {n}", lineno, 3)
    if len(body) < 2:
        raise InstanceSyntaxError("missing 'r' line", lineno, 1)
    lineno, line = body[1]
    r = _parse_int_line(line, "r", lineno)
    if r < 1:
        raise InstanceSyntaxError(f"tuple length must be at least 1, got {r}", lineno, 3)

    alpha: list[BraidWord] = []
    beta: list[BraidWord] = []
    for lineno, line in body[2:]:
        if line.startswith("alpha "):
            if beta:
                raise InstanceSyntaxError("alpha line after beta lines", lineno, 1)
            alpha.append(_parse_word(line[6:], n, lineno, 6))
        elif line.startswith("beta "):
            beta.append(_parse_word(line[5:], n, lineno, 5))
        else:
            raise InstanceSyntaxError(f"unrecognized line {line!r}", lineno, 1)
    if len(alpha) != r or len(beta) != r:
        raise CountMismatch(
            f"declared r={r} but found {len(alpha)} alpha and {len(beta)} beta lines"
        )
    return InstanceFile(n, tuple(alpha), tuple(beta), tuple(metadata))


def write_instance(inst: InstanceFile) -> str:
    """Canonical serialization; parse(write(inst)) == inst."""
    lines = [f"# {m}" for m in inst.metadata]
    lines.append(f"n {inst.n}")
    lines.append(f"r {inst.r}")
    lines.extend(f"alpha {word_to_text(w)}" for w in inst.alpha)
    lines.extend(f"beta {word_to_text(w)}" for w in inst.beta)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graph and counter exports.
# ---------------------------------------------------------------------------


def key_hash(key: str) -> str:
    """Stable short identifier for a canonical node key."""
    return hashlib.sha256(key.encode()).hexdigest()[:12]


def export_graph(graph: SummitGraph, format: str = "edgelist") -> str:
    """Serialize the explored search tree.

    Edge list: one "src dst word" triple per line, in discovery order.
    DOT: a digraph whose nodes are key hashes and whose edges carry the
    conjugator word as label.  A node is named by the hash of its tuple_key
    string, built and hashed once per node here, and edge words come from
    the per-code word-text table.
    """
    if format not in ("edgelist", "dot"):
        raise InvalidParams(f"unknown graph format {format!r}")
    dot = format == "dot"
    hashes: dict[Entries, str] = {}
    node_lines, edge_lines = [], []
    for key, node in graph.nodes.items():  # a parent is stored before its children
        h = hashes[key] = key_hash(_entries_key(key))
        if dot:
            mark = " [shape=doublecircle]" if key == graph.root else ""
            node_lines.append(f'  "{h}"{mark};')
        if node.parent is not None:
            src, word = hashes[node.parent], _WORD_TEXT[node.edge]
            edge_lines.append(f'  "{src}" -> "{h}" [label="{word}"];' if dot else f"{src} {h} {word}")
    if dot:
        return "\n".join(["digraph summit {", *node_lines, *edge_lines, "}"]) + "\n"
    return "\n".join(edge_lines) + ("\n" if edge_lines else "")


def counters_report(graph: SummitGraph) -> str:
    """Flat key=value report of the search counters."""
    c = graph.counters
    mean = c.set_size_sum / c.nodes_expanded if c.nodes_expanded else 0
    lines = [
        f"nodes={len(graph.nodes)}",
        f"nodes_expanded={c.nodes_expanded}",
        f"conjugations={c.conjugations}",
        f"set_size_max={c.set_size_max}",
        f"set_size_mean={mean:.3f}",
        f"lift_moves={c.lift_moves}",
        f"floor_raises={c.floor_raises}",
    ]
    return "\n".join(lines) + "\n"
