import hashlib
import random
import re

import pytest

from braidmscp import (
    BraidWord,
    CountMismatch,
    GenParams,
    IndexOutOfRange,
    InstanceFile,
    InstanceSyntaxError,
    InvalidParams,
    Outcome,
    counters_report,
    export_graph,
    gen_instance,
    parse_instance,
    simple_to_word,
    solve_mscp,
    tuple_from_words,
    tuple_key,
    word_to_text,
    write_instance,
)
from braidmscp.braid import _SIMPLE
from braidmscp.instance_io import key_hash
from test_acceptance import corpus_params

WORKED = "n 3\nr 1\nalpha 1\nbeta 2\n"


class TestParse:
    def test_basic(self):
        inst = parse_instance(WORKED)
        assert inst.n == 3 and inst.r == 1
        assert inst.alpha[0].letters == (1,)
        assert inst.beta[0].letters == (2,)

    def test_empty_word_token(self):
        inst = parse_instance("n 3\nr 1\nalpha e\nbeta e\n")
        assert inst.alpha[0].letters == ()

    def test_metadata_round_trip(self):
        text = "# seed 7\n# note desk scale\nn 3\nr 1\nalpha 1 -2\nbeta 2\n"
        inst = parse_instance(text)
        assert inst.metadata == ("seed 7", "note desk scale")
        assert write_instance(inst) == text
        # an entry that would not read back as itself is refused
        for meta in ((" padded ",), ("x\r",), ("a\nb",), ("a\u2028b",), ("ok", "tab\t")):
            with pytest.raises(InvalidParams):
                InstanceFile(3, inst.alpha, inst.beta, meta)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as exc:
            parse_instance("n 3\nr 1\nalpha 5\nbeta 1\n")
        assert exc.value.line == 3
        with pytest.raises(IndexOutOfRange):
            parse_instance("n 3\nr 1\nalpha -3\nbeta 1\n")
        with pytest.raises(IndexOutOfRange):
            parse_instance("n 3\nr 1\nalpha 0\nbeta 1\n")

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_instance("n 3\nr 2\nalpha 1\nbeta 2\n")
        with pytest.raises(CountMismatch):
            parse_instance("n 3\nr 1\nalpha 1\nalpha 2\nbeta 2\nbeta 1\n")

    def test_syntax_errors(self):
        bad = [
            "",
            "n x\nr 1\nalpha 1\nbeta 1\n",
            "r 1\nn 3\nalpha 1\nbeta 1\n",
            "n 3\nr 1\nalpha 1\ngamma 2\n",
            "n 3\nr 1\nalpha 1 q\nbeta 1\n",
            "n 3\nr 1\nalpha e 1\nbeta 1\n",
            "n 3\nr 1\nbeta 1\nalpha 1\n",
            "n 3\nr 1\nalpha\nbeta 1\n",
            "n 1\nr 1\nalpha e\nbeta e\n",
            "n 3\n",
        ]
        for text in bad:
            with pytest.raises(InstanceSyntaxError):
                parse_instance(text)

    def test_location_reporting(self):
        with pytest.raises(InstanceSyntaxError) as exc:
            parse_instance("n 3\nr 1\nalpha 1 zz\nbeta 1\n")
        assert exc.value.line == 3
        assert exc.value.col == 9


class TestRoundTrip:
    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(2, 7)
            r = rng.randint(1, 4)
            def w():
                length = rng.randint(0, 10)
                return BraidWord(
                    n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
                )
            meta = tuple(f"k{i} v{rng.randint(0, 99)}" for i in range(rng.randint(0, 3)))
            inst = InstanceFile(n, tuple(w() for _ in range(r)), tuple(w() for _ in range(r)), meta)
            text = write_instance(inst)
            assert parse_instance(text) == inst
            assert write_instance(parse_instance(text)) == text

    def test_lists_stored_as_tuples(self):
        w = BraidWord(3, (1, -2))
        inst = InstanceFile(3, [w], [w], ["x"])
        assert inst.alpha == (w,) and inst.metadata == ("x",)
        assert hash(inst) == hash(parse_instance(write_instance(inst)))
        assert inst == parse_instance(write_instance(inst))
        assert InstanceFile(3, (w,), [w]) == InstanceFile(3, (w,), (w,))


def solved_worked_example():
    inst = parse_instance(WORKED)
    alpha = tuple_from_words(inst.n, inst.alpha)
    beta = tuple_from_words(inst.n, inst.beta)
    return solve_mscp(alpha, beta)


def node_name(graph, key):
    return key_hash(tuple_key(graph.tuple(key)))


def reference_export(graph, format):
    """export_graph written out plainly: every key hashed and every edge word derived anew."""
    edges = [
        (node_name(graph, node.parent), node_name(graph, key), word_to_text(simple_to_word(_SIMPLE[node.edge])))
        for key, node in graph.nodes.items()
        if node.parent is not None
    ]
    if format == "edgelist":
        return "".join(f"{src} {dst} {word}\n" for src, dst, word in edges)
    lines = ["digraph summit {"]
    for key in graph.nodes:
        mark = " [shape=doublecircle]" if key == graph.root else ""
        lines.append(f'  "{node_name(graph, key)}"{mark};')
    lines.extend(f'  "{src}" -> "{dst}" [label="{word}"];' for src, dst, word in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestGraphExport:
    def test_matches_reference(self):
        outcomes = set()
        for seed in range(30):
            params = GenParams(n=3 + seed % 4, r=1 + seed % 3, entry_length=5, conjugator_length=4, seed=seed)
            inst, _ = gen_instance(params)
            alpha = tuple_from_words(inst.n, inst.alpha)
            beta = tuple_from_words(inst.n, inst.beta)
            res = solve_mscp(alpha, beta, node_cap=300)
            outcomes.add(res.outcome)
            for format in ("edgelist", "dot"):
                assert export_graph(res.graph, format) == reference_export(res.graph, format)
        assert outcomes == {Outcome.FOUND, Outcome.ABORTED}

    # sha256 of the edge list, DOT and counters report of the first 20 corpus
    # instances.  Instances 1, 4, 8, 10 and 16 stop at a lift of beta, with
    # 14, 6, 7, 18 and 10 nodes instead of 16, 33, 16, 478 and 645; the other
    # 15 give the same bytes as a search that stops on beta alone.
    PINNED_DIGEST = "99b7f7c539d34714afdf42245890bf057283da71b861629e5c50c1bab47777d9"

    def test_pinned_bytes(self):
        digest = hashlib.sha256()
        for params in corpus_params()[:20]:
            inst, _ = gen_instance(params)
            alpha = tuple_from_words(inst.n, inst.alpha)
            beta = tuple_from_words(inst.n, inst.beta)
            graph = solve_mscp(alpha, beta, node_cap=1000).graph
            for text in (export_graph(graph, "edgelist"), export_graph(graph, "dot"), counters_report(graph)):
                digest.update(text.encode())
        assert digest.hexdigest() == self.PINNED_DIGEST

    def test_single_node(self):
        alpha = tuple_from_words(3, [BraidWord(3, (1,))])
        res = solve_mscp(alpha, alpha)
        assert export_graph(res.graph, "edgelist") == ""
        dot = export_graph(res.graph, "dot")
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert "->" not in dot

    def test_worked_example_edge(self):
        res = solved_worked_example()
        edgelist = export_graph(res.graph, "edgelist")
        lines = edgelist.strip().splitlines()
        assert len(lines) == 1
        src, dst, word = lines[0].split(maxsplit=2)
        assert word == "2 1"
        assert src == node_name(res.graph, res.graph.root)
        assert src != dst

    def test_dot_syntax(self):
        res = solved_worked_example()
        dot = export_graph(res.graph, "dot")
        assert dot.splitlines()[0] == "digraph summit {"
        assert dot.rstrip().endswith("}")
        assert '[label="2 1"]' in dot
        # every non-brace line is a node or edge statement ending in ;
        for line in dot.splitlines()[1:-1]:
            assert line.rstrip().endswith(";")
            assert re.match(r'\s+"[0-9a-f]{12}"', line)

    def test_deterministic(self):
        a = export_graph(solved_worked_example().graph, "dot")
        b = export_graph(solved_worked_example().graph, "dot")
        assert a == b

    def test_counters_report(self):
        res = solved_worked_example()
        report = counters_report(res.graph)
        data = dict(line.split("=") for line in report.strip().splitlines())
        assert data["nodes"] == "2"
        assert data["nodes_expanded"] == "1"
        assert int(data["conjugations"]) >= 1
        assert set(data) == {"nodes", "nodes_expanded", "conjugations", "set_size_max", "set_size_mean"}
