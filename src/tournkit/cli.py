"""Command line front end: generate, decompose, profile, sum-profile, embed, enumerate, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array

from . import tfile
from .core import ChainSpec, Tournament, TournamentError, find_embedding
from .decomp import _is_prime, _monomorphic_classes, acyclic_components, is_acyclically_indecomposable
from .families import KINDS, WITNESS_NAMES, checked_family, family, schmerl_trotter, witness
from .profiles import SumSpec, UNBOUNDED, growth_of_sum, series_fit, sum_profile_sequence, profile_sequence
from .verify import (
    check_compactness,
    check_decomposition,
    check_duality,
    check_incomparability,
    check_profile_formulas,
    _census,
    _decode,
)

USAGE_EXIT = 2
FAIL_EXIT = 1
CLOSED_STDOUT_EXIT = 141  # 128 + SIGPIPE, what a shell shows for a writer SIGPIPE ended


def _emit(payload):
    json.dump(payload, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _matrix(t: Tournament) -> list[str]:
    return tfile.dumps(t).splitlines()[1:]


def _cmd_gen(args) -> int:
    picked = sum(1 for flag in (args.family, args.witness, args.st) if flag)
    if picked != 1:
        raise TournamentError("USAGE", "pick exactly one of --family, --witness, --st")
    if args.family:
        if args.n is None:
            raise TournamentError("USAGE", "--family needs --n CHAIN_LENGTH")
        spec = ChainSpec(args.n, "desc" if args.desc else "asc")
        t = checked_family(args.family, spec) if args.checked else family(args.family, spec)
    elif args.witness:
        t = witness(args.witness)
    else:
        if args.h is None:
            raise TournamentError("USAGE", "--st needs --h H")
        t = schmerl_trotter(args.st, args.h)
    if args.output:
        tfile.dump_path(t, args.output)
    else:
        sys.stdout.write(tfile.dumps(t))
    return 0


def _cmd_decompose(args) -> int:
    t = tfile.load_path(args.file)
    d = acyclic_components(t)
    _emit(
        {
            "n": t.n,
            "blocks": [list(b) for b in d.blocks],
            "spectrum": list(d.spectrum),
            "quotient": {"n": d.quotient.n, "matrix": _matrix(d.quotient)},
            # the blocks are the maximal acyclic autonomous sets, so this is
            # is_acyclically_indecomposable(t) without a second scan
            "acyclically_indecomposable": all(len(b) == 1 for b in d.blocks),
            # primality and monomorphic parts come from the same strong-module tree
            "indecomposable": _is_prime(d.tree, t.n),
            "monomorphic_components": [list(b) for b in _monomorphic_classes(d)],
        }
    )
    return 0


def _cmd_profile(args) -> int:
    t = tfile.load_path(args.file)
    series = profile_sequence(t, args.max)
    payload = {"n": t.n, "values": list(series.values)}
    if args.fit is not None:
        numerator = series_fit(series, args.fit)
        payload["fit"] = {"k": args.fit, "numerator": numerator}
    _emit(payload)
    return 0


def _parse_caps(text: str):
    caps = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece in ("inf", "unbounded", "*"):
            caps.append(UNBOUNDED)
        else:
            try:
                caps.append(int(piece))
            except ValueError:
                raise TournamentError("USAGE", f"bad cap {piece!r}: use integers or 'inf'") from None
    return tuple(caps)


def _cmd_sum_profile(args) -> int:
    index = tfile.load_path(args.index)
    spec = SumSpec(index, _parse_caps(args.caps))
    series = sum_profile_sequence(spec, args.max)
    payload = {
        "index_n": index.n,
        "caps": ["inf" if c is UNBOUNDED else c for c in spec.caps],
        "values": list(series.values),
        "growth": growth_of_sum(spec),
    }
    if args.fit is not None:
        payload["fit"] = {"k": args.fit, "numerator": series_fit(series, args.fit)}
    _emit(payload)
    return 0


def _cmd_embed(args) -> int:
    pattern = tfile.load_path(args.pattern)
    host = tfile.load_path(args.host)
    mapping = find_embedding(pattern, host)
    _emit({"embeds": mapping is not None, "witness": mapping})
    return 0


def _cmd_enumerate(args) -> int:
    n = args.n
    codes = _census(n)[n]
    if args.filter == "acyclically-indecomposable":
        codes = array("Q", (bits for bits in codes if is_acyclically_indecomposable(_decode(n, bits))))
    # the document json.dump(..., sort_keys=True, indent=2) would write, one
    # tournament at a time, so no level of tournaments is ever held
    out = sys.stdout
    out.write(f'{{\n  "count": {len(codes)},\n  "n": {n},\n  "tournaments": [')
    sep = ""
    for bits in codes:
        rows = ",\n      ".join(f'"{row}"' for row in _matrix(_decode(n, bits)))
        out.write(f"{sep}\n    [\n      {rows}\n    ]" if rows else f"{sep}\n    []")
        sep = ","
    out.write("\n  ]\n}\n" if codes else "]\n}\n")
    return 0


# suite -> runner; runners look checks up when called, as a tracer rebinds them
SUITES = {
    "decomposition": lambda args: check_decomposition(args.n_max),
    "formulas": lambda args: check_profile_formulas(args.n_max),
    "incomparability": lambda args: check_incomparability(args.host_size),
    "duality": lambda args: check_duality(args.max_chain),
    "compactness": lambda args: check_compactness(args.n, args.size_bound),
}


def _cmd_verify(args) -> int:
    report = SUITES[args.suite](args)
    sys.stdout.write(report.to_json() + "\n")
    if report.elapsed is not None:
        print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    return 0 if report.passed else FAIL_EXIT


def _gen_arguments(p):
    p.add_argument("--family", choices=KINDS)
    p.add_argument("--witness", choices=WITNESS_NAMES)
    p.add_argument("--st", choices=("t", "u", "v"), help="classical odd tournament tag")
    p.add_argument("--n", type=int, help="chain length for --family")
    p.add_argument("--h", type=int, help="half-size parameter for --st (gives 2h+1 vertices)")
    p.add_argument("--desc", action="store_true", help="build over the reversed chain")
    p.add_argument("--checked", action="store_true", help="emit the acyclic-quotient variant")
    p.add_argument("-o", "--output")


def _decompose_arguments(p):
    p.add_argument("file")


def _profile_arguments(p):
    p.add_argument("file")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--fit", type=int, help="fit the series against k unbounded chains")


def _sum_profile_arguments(p):
    p.add_argument("--index", required=True)
    p.add_argument("--caps", required=True, help="comma list of lengths, 'inf' for unbounded")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--fit", type=int)


def _embed_arguments(p):
    p.add_argument("pattern")
    p.add_argument("host")


def _enumerate_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", choices=("acyclically-indecomposable",))


def _verify_arguments(p):
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--host-size", type=int, default=14)
    p.add_argument("--max-chain", type=int, default=5)
    p.add_argument("--n", type=int, default=2, help="chain length for compactness members")
    p.add_argument("--size-bound", type=int, default=8)


# command -> (help line, function adding its arguments, handler), in `tournkit --help` order
COMMANDS = {
    "gen": ("generate a family member, witness, or classical tournament", _gen_arguments, _cmd_gen),
    "decompose": ("acyclic decomposition of a tournament file", _decompose_arguments, _cmd_decompose),
    "profile": ("induced subtournament census of a file", _profile_arguments, _cmd_profile),
    "sum-profile": ("profile of a sum of chains over an index file", _sum_profile_arguments, _cmd_sum_profile),
    "embed": ("search an induced embedding of PATTERN into HOST", _embed_arguments, _cmd_embed),
    "enumerate": ("canonical representatives on n vertices", _enumerate_arguments, _cmd_enumerate),
    "verify": ("run a verification suite", _verify_arguments, _cmd_verify),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of one command, or of every command when `command` is None."""
    parser = argparse.ArgumentParser(prog="tournkit", description=__doc__)
    # a one-command parser still names every command in the top-level usage,
    # which "unrecognized arguments" prints; the full parser leaves metavar
    # unset, as it would rename the "argument command: invalid choice" error
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_line, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its command builds only that command's parser; help,
    # an unknown command or a leading option get the full one
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and point stdout at /dev/null so
        # that flushing what is still buffered at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT_EXIT
    except (TournamentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
