import hashlib
import random
import re

import pytest

from braidmscp import (
    BraidTuple,
    BraidWord,
    CountMismatch,
    GenParams,
    IndexOutOfRange,
    InstanceFile,
    InstanceFormatError,
    InstanceSyntaxError,
    InvalidParams,
    LengthMismatch,
    Outcome,
    StrandMismatch,
    counters_report,
    export_graph,
    gen_instance,
    normalize,
    parse_instance,
    simple_to_word,
    solve_mscp,
    tuple_from_words,
    tuple_key,
    word_from_text,
    word_to_text,
    write_instance,
)
from braidmscp.braid import _SIMPLE
from braidmscp.instance_io import key_hash
from test_acceptance import corpus_params

WORKED = "n 3\nr 1\nalpha 1\nbeta 2\n"
# the lift chains of this pair do not meet, not even up to the flip tau, so
# its solve searches
SEARCHED = "n 4\nr 1\nalpha 2\nbeta 1\n"


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
        with pytest.raises(InstanceSyntaxError) as exc:
            parse_instance("n 3\nr 0\n")
        assert str(exc.value) == "line 2, col 3: tuple length must be at least 1, got 0"

    @pytest.mark.parametrize(
        "line, error, message, col",
        [
            ("alpha 1\t\te 2", InstanceSyntaxError, "'e' cannot appear inside a word", 10),
            ("alpha  2   -1 e", InstanceSyntaxError, "'e' cannot appear inside a word", 15),
            ("alpha 1\t \tx2 1", InstanceSyntaxError, "bad letter token 'x2'", 11),
            ("alpha 1  q  e", InstanceSyntaxError, "bad letter token 'q'", 10),
            ("alpha 1\t\t-3 q", IndexOutOfRange, "letter -3 out of range 1..2", 10),
            ("alpha   2  0\t1", IndexOutOfRange, "letter 0 out of range 1..2", 12),
            ("alpha 1 1_0 9", InstanceSyntaxError, "bad letter token '1_0'", 9),
            ("alpha 1\u00a0\uff12", InstanceSyntaxError, "bad letter token '\uff12'", 9),
        ],
    )
    def test_columns_past_tabs_and_repeated_spaces(self, line, error, message, col):
        # the first token that fails names the error, at its 1-based column
        with pytest.raises(error) as exc:
            parse_instance(f"n 3\nr 1\n{line}\nbeta 1\n")
        assert type(exc.value) is error
        assert message in str(exc.value)
        assert (exc.value.line, exc.value.col) == (3, col)

    @pytest.mark.parametrize("header", ["n 1_1\nr 1", "n \uff13\nr 1", "n 3\nr 0_1", "n 3\nr \u0661"])
    def test_header_values_are_ascii_integer_tokens(self, header):
        with pytest.raises(InstanceSyntaxError) as exc:
            parse_instance(f"{header}\nalpha 1\nbeta 1\n")
        assert "bad integer" in str(exc.value) and exc.value.col == 3

    def test_word_lines_accept_what_word_from_text_accepts(self):
        # a word line parses through word_from_text: the same texts are
        # accepted, with the same letters, and the rest raise located errors
        rng = random.Random(17)
        accepted = rejected = 0
        for _ in range(600):
            n = rng.choice((2, 3, 5, 11))
            pool = ("e", "0", "+1", "1_0", str(n), str(-n), str(n - 1), str(1 - n), "x")
            text = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            try:
                want = word_from_text(text, n).letters
            except InvalidParams:
                want = None
            try:
                inst = parse_instance(f"n {n}\nr 1\nalpha {text}\nbeta {text}\n")
                got = inst.alpha[0].letters
                assert inst.beta[0].letters == got
            except InstanceFormatError as exc:
                assert exc.line == 3
                got = None
            assert got == want, (n, text)
            accepted += got is not None
            rejected += got is None
        assert accepted > 50 and rejected > 50


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

    def test_mismatches_raise_as_in_the_solver(self):
        # an instance refuses a pair with the class the solver raises for it
        w3, w4 = BraidWord(3, (1,)), BraidWord(4, (1,))
        cases = [
            ((w3,), (w3, w3), LengthMismatch),
            ((w3, w3), (w3,), LengthMismatch),
            ((w3,), (w4,), StrandMismatch),
            ((w3, w4), (w3, w3), StrandMismatch),
        ]
        for alpha, beta, error in cases:
            with pytest.raises(error):
                InstanceFile(3, alpha, beta)
            with pytest.raises(error):
                solve_mscp(tuple_from_words(alpha[0].n, alpha), tuple_from_words(beta[0].n, beta))

    def test_lists_stored_as_tuples(self):
        w = BraidWord(3, (1, -2))
        inst = InstanceFile(3, [w], [w], ["x"])
        assert inst.alpha == (w,) and inst.metadata == ("x",)
        assert hash(inst) == hash(parse_instance(write_instance(inst)))
        assert inst == parse_instance(write_instance(inst))
        assert InstanceFile(3, (w,), [w]) == InstanceFile(3, (w,), (w,))
        f = normalize(w)
        assert BraidTuple(3, [f]) == BraidTuple(3, (f,))
        assert hash(BraidTuple(3, [f])) == hash(BraidTuple(3, (f,)))
        assert BraidTuple(3, (e for e in [f])).entries == (f,)
        with pytest.raises(InvalidParams):
            BraidTuple(3, (w,))
        with pytest.raises(InvalidParams):
            BraidTuple(3.0, (f,))
        with pytest.raises(InvalidParams):
            BraidTuple(3, ())
        with pytest.raises(InvalidParams):
            InstanceFile(3, (), ())


def solved_searched_pair():
    inst = parse_instance(SEARCHED)
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
        # each planted pair, and its twin with an extra letter on beta's last
        # entry, which is not conjugate and exhausts or overruns its component
        outcomes = set()
        for seed in range(30):
            params = GenParams(n=3 + seed % 4, r=1 + seed % 3, entry_length=5, conjugator_length=4, seed=seed)
            inst, _ = gen_instance(params)
            alpha = tuple_from_words(inst.n, inst.alpha)
            tampered = [*inst.beta[:-1], BraidWord(inst.n, inst.beta[-1].letters + (1,))]
            for beta_words in (inst.beta, tampered):
                res = solve_mscp(alpha, tuple_from_words(inst.n, beta_words), node_cap=300)
                outcomes.add(res.outcome)
                for format in ("edgelist", "dot"):
                    assert export_graph(res.graph, format) == reference_export(res.graph, format)
        assert outcomes == set(Outcome)

    # sha256 of the edge list, DOT and counters report of the first 20 corpus
    # instances.  Instances 4, 8, 9, 15 and 16 end where the lift chains of
    # alpha and beta meet, directly or up to the flip tau, a one-node graph;
    # 1 searches from lifted beta, whose vector sum is the lower, with 2
    # nodes, and 10 from lifted alpha, with 9; the other 13 have equal tuples.
    PINNED_DIGEST = "9af721da1b30b58e371bc5b46825ac3af30530da4c8b4f85eecb7aa12645ddc7"

    def test_pinned_bytes(self):
        digest = hashlib.sha256()
        for params in corpus_params()[:20]:
            inst, _ = gen_instance(params)
            alpha = tuple_from_words(inst.n, inst.alpha)
            beta = tuple_from_words(inst.n, inst.beta)
            graph = solve_mscp(alpha, beta, node_cap=1000).graph
            # the digest was pinned when the report had only its first five lines
            report = "".join(counters_report(graph).splitlines(keepends=True)[:5])
            for text in (export_graph(graph, "edgelist"), export_graph(graph, "dot"), report):
                digest.update(text.encode())
        assert digest.hexdigest() == self.PINNED_DIGEST

    def test_single_node(self):
        alpha = tuple_from_words(3, [BraidWord(3, (1,))])
        res = solve_mscp(alpha, alpha)
        assert export_graph(res.graph, "edgelist") == ""
        dot = export_graph(res.graph, "dot")
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert "->" not in dot
        with pytest.raises(InvalidParams):
            export_graph(res.graph, "svg")

    def test_worked_example_edge(self):
        res = solved_searched_pair()
        edgelist = export_graph(res.graph, "edgelist")
        lines = edgelist.strip().splitlines()
        assert len(lines) == 1
        src, dst, word = lines[0].split(maxsplit=2)
        assert word == "1 2"
        assert src == node_name(res.graph, res.graph.root)
        assert src != dst

    def test_dot_syntax(self):
        res = solved_searched_pair()
        dot = export_graph(res.graph, "dot")
        assert dot.splitlines()[0] == "digraph summit {"
        assert dot.rstrip().endswith("}")
        assert '[label="1 2"]' in dot
        # every non-brace line is a node or edge statement ending in ;
        for line in dot.splitlines()[1:-1]:
            assert line.rstrip().endswith(";")
            assert re.match(r'\s+"[0-9a-f]{12}"', line)

    def test_deterministic(self):
        a = export_graph(solved_searched_pair().graph, "dot")
        b = export_graph(solved_searched_pair().graph, "dot")
        assert a == b

    def test_counters_report(self):
        res = solved_searched_pair()
        report = counters_report(res.graph)
        data = dict(line.split("=") for line in report.strip().splitlines())
        assert data["nodes"] == "2"
        assert data["nodes_expanded"] == "1"
        assert int(data["conjugations"]) >= 1
        assert list(data) == [
            "nodes",
            "nodes_expanded",
            "conjugations",
            "set_size_max",
            "set_size_mean",
            "lift_moves",
            "floor_raises",
        ]
