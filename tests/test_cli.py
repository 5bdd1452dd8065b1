from braidmscp.cli import main

# beta = tau(alpha): solve answers at the root with the half twist
WORKED = "n 3\nr 1\nalpha 1\nbeta 2\n"
NONCONJ = "n 3\nr 1\nalpha 1\nbeta 1 1 1\n"
# sigma_1 and sigma_1^-1 are not conjugate, and the search set of lifted
# sigma_1 holds 2 tuples that are not tau-images of each other
CAPPED = "n 3\nr 1\nalpha 1\nbeta -1\n"
# the lift chains of this pair do not meet, not even up to tau, so its
# solve searches
SEARCHED = "n 4\nr 1\nalpha 2\nbeta 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNf:
    def test_mixed_word(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "-n", "3", "1 -2")
        assert code == 0
        assert out == "inf=-1 sup=1 len=2\nD^-1 | 2 | 2 1\n"

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "-n", "3", "e")
        assert code == 0
        assert out.splitlines()[0] == "inf=0 sup=0 len=0"

    def test_bad_letter(self, capsys):
        code, _, err = run_cli(capsys, "nf", "-n", "3", "7")
        assert code == 3
        assert "error" in err

    def test_integers_are_ascii_decimal_tokens(self, capsys):
        # int() would read these as 10, 11 and 3
        assert run_cli(capsys, "nf", "-n", "11", "1_0")[0] == 3
        assert run_cli(capsys, "nf", "-n", "1_1", "1")[0] == 3
        assert run_cli(capsys, "nf", "-n", "\uff13", "1")[0] == 3
        assert run_cli(capsys, "nf", "-n", "3", "+1 -2") == run_cli(capsys, "nf", "-n", "3", "1 -2")


class TestSolve:
    def test_worked(self, tmp_path, capsys):
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out == "1 2 1\n"

    def test_not_conjugate(self, tmp_path, capsys):
        path = tmp_path / "nc.inst"
        path.write_text(NONCONJ)
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 1
        assert out == "NOT CONJUGATE\n"

    def test_cap(self, tmp_path, capsys):
        path = tmp_path / "cap.inst"
        path.write_text(CAPPED)
        code, out, _ = run_cli(capsys, "solve", str(path), "--cap", "1")
        assert code == 2
        assert out == "ABORTED: node cap 1 exceeded\n"
        # the search set of lifted sigma_1 against sigma_1^3 is one tau-orbit
        path.write_text(NONCONJ)
        assert run_cli(capsys, "solve", str(path), "--cap", "1") == (1, "NOT CONJUGATE\n", "")

    def test_cap_below_one(self, tmp_path, capsys):
        # the lift chains of the generated pair meet, so only the cap check
        # keeps solve from answering without a search
        path = tmp_path / "t.inst"
        assert run_cli(capsys, "gen", str(path), "-n", "4", "-r", "2", "--seed", "1")[0] == 0
        assert run_cli(capsys, "solve", str(path))[0] == 0
        searched = tmp_path / "s.inst"
        searched.write_text(SEARCHED)
        for inst in (path, searched):
            code, out, err = run_cli(capsys, "solve", str(inst), "--cap", "0")
            assert (code, out) == (3, "")
            assert "node_cap" in err
        assert run_cli(capsys, "attack", "-n", "3", "--cap", "0")[0] == 3
        assert run_cli(capsys, "attack", "--trials", "0", "--cap", "0")[0] == 3

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/file.inst")
        assert code == 3

    def test_header_integer_grammar(self, tmp_path, capsys):
        path = tmp_path / "u.inst"
        path.write_text("n 1_1\nr 1\nalpha 1\nbeta 1\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert "line 1, col 3: bad integer '1_1'" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.inst"
        path.write_text("n 3\nr 2\nalpha 1\nbeta 2\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3

    def test_graph_export(self, tmp_path, capsys):
        path = tmp_path / "s.inst"
        path.write_text(SEARCHED)
        dot = tmp_path / "g.dot"
        edges = tmp_path / "g.edges"
        assert run_cli(capsys, "solve", str(path), "--graph", str(dot))[0] == 0
        assert dot.read_text().startswith("digraph")
        assert run_cli(capsys, "solve", str(path), "--graph", str(edges))[0] == 0
        assert edges.read_text().strip().split(maxsplit=2)[2] == "1 2"

    def test_graph_export_of_a_lift_meeting(self, tmp_path, capsys):
        # sigma_2 is tau(sigma_1) on 3 strands: one node, no edge
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        dot = tmp_path / "g.dot"
        edges = tmp_path / "g.edges"
        assert run_cli(capsys, "solve", str(path), "--graph", str(dot))[0] == 0
        assert run_cli(capsys, "solve", str(path), "--graph", str(edges))[0] == 0
        assert edges.read_text() == ""
        assert dot.read_text().count("doublecircle") == 1 and "->" not in dot.read_text()

    def test_stats(self, tmp_path, capsys):
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        code, out, _ = run_cli(capsys, "solve", str(path), "--stats")
        assert code == 0
        assert out.splitlines()[0] == "nodes=1" and out.endswith("\n1 2 1\n")
        assert "lift_moves=0" in out.splitlines()
        path.write_text(SEARCHED)
        code, out, _ = run_cli(capsys, "solve", str(path), "--stats")
        assert code == 0
        assert out.splitlines()[:2] == ["nodes=2", "nodes_expanded=1"] and out.endswith("\n1 2\n")


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.inst", tmp_path / "b.inst"
        args = ["-n", "3", "-r", "2", "--entry-len", "4", "--conj-len", "3", "--seed", "9"]
        assert run_cli(capsys, "gen", str(p1), *args)[0] == 0
        assert run_cli(capsys, "gen", str(p2), *args)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.inst.key").read_bytes() == (tmp_path / "b.inst.key").read_bytes()

    def test_generated_file_reparses_and_solves(self, tmp_path, capsys):
        path = tmp_path / "g.inst"
        run_cli(capsys, "gen", str(path), "-n", "3", "--entry-len", "3", "--conj-len", "2", "--seed", "4")
        key = (tmp_path / "g.inst.key").read_text().strip()
        code, _, _ = run_cli(capsys, "verify", str(path), key)
        assert code == 0

    def test_zero_conjugator_copies_alpha(self, tmp_path, capsys):
        path = tmp_path / "g.inst"
        run_cli(capsys, "gen", str(path), "-n", "3", "--conj-len", "0", "--seed", "4")
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        alphas = [l.split(" ", 1)[1] for l in lines if l.startswith("alpha")]
        betas = [l.split(" ", 1)[1] for l in lines if l.startswith("beta")]
        assert alphas == betas
        assert (tmp_path / "g.inst.key").read_text() == "e\n"

    def test_bad_params(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", str(tmp_path / "x"), "-n", "1")
        assert code == 3


class TestVerify:
    def test_valid(self, tmp_path, capsys):
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        assert run_cli(capsys, "verify", str(path), "2 1")[0] == 0

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        assert run_cli(capsys, "verify", str(path), "1")[0] == 1

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "verify", "/nonexistent.inst", "1")[0] == 3

    def test_bad_word(self, tmp_path, capsys):
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        assert run_cli(capsys, "verify", str(path), "9")[0] == 3


class TestAttack:
    def test_single_trial_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "-n", "3", "-r", "1",
            "--entry-len", "3", "--conj-len", "2", "--seed", "1", "--trials", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
        assert row["found"] == "1" and row["recovered"] == "1"

    def test_zero_trials_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--trials", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "-n", "3", "-r", "1,2", "--trials", "1", "--seed", "3"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_bad_sweep(self, capsys):
        assert run_cli(capsys, "attack", "-r", "1,x")[0] == 3
        assert run_cli(capsys, "attack", "-r", ",")[0] == 3
        assert run_cli(capsys, "attack", "--jobs", "-3")[0] == 3
        assert run_cli(capsys, "attack", "-r", "1,1_0")[0] == 3
        assert run_cli(capsys, "attack", "-r", "\u0661")[0] == 3
        assert run_cli(capsys, "attack", "--trials", "1_0")[0] == 3


class TestContract:
    def test_unknown_flag_rejected(self, capsys):
        assert run_cli(capsys, "nf", "-n", "3", "--bogus", "1")[0] == 3
        assert run_cli(capsys, "nf", "-n", "3", "--pretty", "1")[0] == 3
        assert run_cli(capsys, "attack", "-n", "3", "--sweep-r", "1,2")[0] == 3
        assert run_cli(capsys, "attack", "--instance", "w.inst")[0] == 3

    def test_unknown_command_rejected(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 3

    def test_repeated_runs_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        cases = [
            ["nf", "-n", "4", "1 -2 3"],
            ["solve", str(path), "--stats"],
            ["verify", str(path), "2 1"],
            ["attack", "-n", "3", "--trials", "2", "--seed", "5"],
            ["attack", "-n", "3", "-r", "1,2", "--trials", "1", "--seed", "5"],
        ]
        for argv in cases:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second

    def test_parser_reuse_matches_fresh_parser(self, tmp_path, capsys):
        # main reuses one parser per process; a run after other subcommands,
        # and after a rejected flag, must behave as on a freshly built parser
        from braidmscp import cli

        path = tmp_path / "w.inst"
        path.write_text(WORKED)
        capped = tmp_path / "cap.inst"
        capped.write_text(CAPPED)
        sequence = [
            ["solve", str(path), "--stats"],
            ["nf", "-n", "3", "--bogus", "1"],
            ["verify", str(path), "2 1"],
            ["nf", "-n", "4", "1 -2 3"],
            ["solve", str(capped), "--cap", "1"],
            ["attack", "-n", "3", "--trials", "1", "--seed", "2"],
            ["verify", str(path), "1"],
        ]
        reused = [run_cli(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 3, 0, 0, 2, 0, 1]
