"""Command-line interface: nf, solve, gen, verify, attack.

Exit codes are part of the contract: 0 success or solved, 1 not conjugate
(or failed verification), 2 search aborted on the node cap, 3 bad input of
any kind (flags, files, words).  Output is machine-parseable plain text.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import harness, instance_io
from .braid import integer, word_from_text, word_to_text
from .errors import BraidError
from .normal_form import nf_key, normalize
from .solver import DEFAULT_NODE_CAP, Outcome, solve_mscp, verify_conjugator

EXIT_OK = 0
EXIT_NOT_CONJUGATE = 1
EXIT_ABORTED = 2
EXIT_INPUT = 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reject unknown flags with the input-error code
        raise CliError(message)


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    """The flags that gen and attack share: how long the words are and the seed."""
    p.add_argument("--entry-len", type=integer, default=4)
    p.add_argument("--conj-len", type=integer, default=4)
    p.add_argument("--seed", type=integer, default=0)


def _gen_params(args, r: int) -> harness.GenParams:
    return harness.GenParams(
        n=args.n, r=r, entry_length=args.entry_len, conjugator_length=args.conj_len, seed=args.seed
    )


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves no state in it."""
    parser = _Parser(prog="braidmscp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="print the left normal form of a word")
    p_nf.add_argument("-n", type=integer, required=True, help="strand count")
    p_nf.add_argument("word", help="word text, e.g. '1 -2' or 'e'")
    p_nf.set_defaults(run=_cmd_nf)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", type=Path)
    p_solve.add_argument("--cap", type=integer, default=DEFAULT_NODE_CAP, help="node cap")
    p_solve.add_argument("--graph", type=Path, help="write the explored graph here")
    p_solve.add_argument("--stats", action="store_true", help="print search counters")
    p_solve.set_defaults(run=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a seeded instance with a planted key")
    p_gen.add_argument("out", type=Path, help="output instance path (key goes to <out>.key)")
    p_gen.add_argument("-n", type=integer, required=True)
    p_gen.add_argument("-r", type=integer, default=1)
    _add_gen_flags(p_gen)
    p_gen.set_defaults(run=_cmd_gen)

    p_verify = sub.add_parser("verify", help="check a conjugator against an instance")
    p_verify.add_argument("instance", type=Path)
    p_verify.add_argument("conjugator", help="word text")
    p_verify.set_defaults(run=_cmd_verify)

    p_attack = sub.add_parser("attack", help="run seeded attacks and report a table")
    p_attack.add_argument("-n", type=integer, default=3)
    p_attack.add_argument("-r", default="1", help="tuple length, or a comma list of them to sweep")
    _add_gen_flags(p_attack)
    p_attack.add_argument("--trials", type=integer, default=1)
    p_attack.add_argument("--cap", type=integer, default=DEFAULT_NODE_CAP)
    p_attack.add_argument("--jobs", type=integer, default=1, help="parallel trials")
    p_attack.add_argument("--times", action="store_true", help="include wall-time column")
    p_attack.set_defaults(run=_cmd_attack)

    return parser


def _cmd_nf(args) -> int:
    f = normalize(word_from_text(args.word, args.n))
    print(f"inf={f.inf} sup={f.sup} len={f.canonical_length()}")
    print(nf_key(f))
    return EXIT_OK


def _load_instance(path: Path) -> instance_io.InstanceFile:
    return instance_io.parse_instance(path.read_text())


def _cmd_solve(args) -> int:
    alpha, beta = _load_instance(args.instance).tuples()
    result = solve_mscp(alpha, beta, node_cap=args.cap)
    if args.graph is not None:
        fmt = "dot" if args.graph.suffix == ".dot" else "edgelist"
        args.graph.write_text(instance_io.export_graph(result.graph, fmt))
    if args.stats:
        print(instance_io.counters_report(result.graph), end="")
    if result.outcome is Outcome.FOUND:
        print(word_to_text(result.conjugator))
        return EXIT_OK
    if result.outcome is Outcome.NOT_CONJUGATE:
        print("NOT CONJUGATE")
        return EXIT_NOT_CONJUGATE
    print(f"ABORTED: {result.reason}")
    return EXIT_ABORTED


def _cmd_gen(args) -> int:
    inst, planted = harness.gen_instance(_gen_params(args, args.r))
    args.out.write_text(instance_io.write_instance(inst))
    args.out.with_name(args.out.name + ".key").write_text(word_to_text(planted) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    x = word_from_text(args.conjugator, inst.n)
    alpha, beta = inst.tuples()
    if verify_conjugator(alpha, beta, x):
        print("valid")
        return EXIT_OK
    print("invalid")
    return EXIT_NOT_CONJUGATE


def _cmd_attack(args) -> int:
    try:
        r_values = [integer(tok.strip()) for tok in args.r.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad -r value {args.r!r}") from None
    if not r_values:
        raise CliError("-r lists no values")
    points = [_gen_params(args, r) for r in r_values]
    rows = harness.batch_stats(points, args.trials, node_cap=args.cap, jobs=args.jobs)
    print(harness.format_report(rows, include_time=args.times), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (CliError, BraidError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
