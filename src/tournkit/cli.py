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
    # a flag of another source is refused, not ignored
    for flag, given, source, chosen in (("--n", args.n is not None, "--family", args.family),
                                        ("--desc", args.desc, "--family", args.family),
                                        ("--checked", args.checked, "--family", args.family),
                                        ("--h", args.h is not None, "--st", args.st)):
        if given and not chosen:
            raise TournamentError("USAGE", f"{flag} applies only with {source}")
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


# each command's arguments as (flags, add_argument keywords); the keywords are
# only action="store_true", type=int, choices, required, default and help,
# which is all that _read understands
GEN_ARGUMENTS = (
    (("--family",), {"choices": KINDS}),
    (("--witness",), {"choices": WITNESS_NAMES}),
    (("--st",), {"choices": ("t", "u", "v"), "help": "classical odd tournament tag"}),
    (("--n",), {"type": int, "help": "chain length for --family"}),
    (("--h",), {"type": int, "help": "half-size parameter for --st (gives 2h+1 vertices)"}),
    (("--desc",), {"action": "store_true", "help": "build over the reversed chain"}),
    (("--checked",), {"action": "store_true", "help": "emit the acyclic-quotient variant"}),
    (("-o", "--output"), {}),
)
DECOMPOSE_ARGUMENTS = ((("file",), {}),)
PROFILE_ARGUMENTS = (
    (("file",), {}),
    (("--max",), {"type": int, "required": True}),
    (("--fit",), {"type": int, "help": "fit the series against k unbounded chains"}),
)
SUM_PROFILE_ARGUMENTS = (
    (("--index",), {"required": True}),
    (("--caps",), {"required": True, "help": "comma list of lengths, 'inf' for unbounded"}),
    (("--max",), {"type": int, "required": True}),
    (("--fit",), {"type": int}),
)
EMBED_ARGUMENTS = ((("pattern",), {}), (("host",), {}))
ENUMERATE_ARGUMENTS = (
    (("--n",), {"type": int, "required": True}),
    (("--filter",), {"choices": ("acyclically-indecomposable",)}),
)
VERIFY_ARGUMENTS = (
    (("--suite",), {"required": True, "choices": tuple(SUITES)}),
    (("--n-max",), {"type": int, "default": 6}),
    (("--host-size",), {"type": int, "default": 14}),
    (("--max-chain",), {"type": int, "default": 5}),
    (("--n",), {"type": int, "default": 2, "help": "chain length for compactness members"}),
    (("--size-bound",), {"type": int, "default": 8}),
)

# command -> (help line, arguments, handler), in `tournkit --help` order
COMMANDS = {
    "gen": ("generate a family member, witness, or classical tournament", GEN_ARGUMENTS, _cmd_gen),
    "decompose": ("acyclic decomposition of a tournament file", DECOMPOSE_ARGUMENTS, _cmd_decompose),
    "profile": ("induced subtournament census of a file", PROFILE_ARGUMENTS, _cmd_profile),
    "sum-profile": ("profile of a sum of chains over an index file", SUM_PROFILE_ARGUMENTS, _cmd_sum_profile),
    "embed": ("search an induced embedding of PATTERN into HOST", EMBED_ARGUMENTS, _cmd_embed),
    "enumerate": ("canonical representatives on n vertices", ENUMERATE_ARGUMENTS, _cmd_enumerate),
    "verify": ("run a verification suite", VERIFY_ARGUMENTS, _cmd_verify),
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
        help_line, arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=handler)
    return parser


def _value(token, keywords):
    """`token` as argparse stores it for an argument with these keywords, or None if refused."""
    if token.startswith("-"):
        return None  # an option, a negative number or "--": argparse decides
    if "type" in keywords:
        try:
            token = keywords["type"](token)
        except ValueError:
            return None
    return token if token in keywords.get("choices", (token,)) else None


def _read(argv):
    """The namespace that `build_parser().parse_args(argv)` returns, or None.

    Only a call that names its command and gives each argument plainly is
    read: every option by its exact flag with its value as the next token,
    the positionals in order, each value valid and each required option
    given. Anything else, help, `--opt=value`, an abbreviation, `--` and
    every error included, gets None and is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, arguments, handler = COMMANDS[argv[0]]
    values, options, positionals, required = {"command": argv[0]}, {}, [], set()
    for flags, keywords in arguments:
        # argparse's dest: the first long flag, else the first flag, or the positional's name
        dest = next((f for f in flags if f.startswith("--")), flags[0]).lstrip("-").replace("-", "_")
        switch = keywords.get("action") == "store_true"
        values[dest] = keywords.get("default", False if switch else None)
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (dest, keywords, switch)))
        else:
            positionals.append((dest, keywords))
        if keywords.get("required"):
            required.add(dest)
    values["func"] = handler
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, keywords, switch = options[token]
            # a missing value reads as "-", which _value refuses
            value = True if switch else _value(next(tokens, "-"), keywords)
            required.discard(dest)
        elif positionals:
            dest, keywords = positionals.pop(0)
            value = _value(token, keywords)
        else:
            return None
        if value is None:
            return None
        values[dest] = value
    if positionals or required:
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a well-formed call is read straight from COMMANDS; help and refused
    # calls go to argparse, with only the named command's parser when one is
    # named and the full one for help, an unknown command or a leading option
    args = _read(argv)
    if args is None:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
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
