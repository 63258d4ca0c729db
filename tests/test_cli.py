import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tournkit import cli, decomp
from tournkit.cli import SUITES, main
from tournkit.core import ChainSpec, canonical_form, chain, cycle3, lex_sum
from tournkit.decomp import (
    acyclic_components,
    is_acyclically_indecomposable,
    is_indecomposable,
    monomorphic_components,
)
from tournkit.families import KINDS, WITNESS_NAMES, family, witness
from tournkit.tfile import dump_path, dumps, load_path
from tournkit.verify import SuiteReport

from conftest import random_tournament
from test_readme import command_lines


# SHA-256 of ``tournkit decompose`` stdout for every family member of
# lengths 1-8 over the ascending and the descending chain
DECOMPOSE_DIGESTS = {
    ("c3", 1, "asc"): "f3e029b40aea62caf11bd6dc6828737cde5ee5ac595a1fa0a441a524a9b8a0df",
    ("c3", 1, "desc"): "f3e029b40aea62caf11bd6dc6828737cde5ee5ac595a1fa0a441a524a9b8a0df",
    ("c3", 2, "asc"): "30c1ebe8794507220ee9d4bdcf784a525bb1fa6b093978154f626cbf690c2aee",
    ("c3", 2, "desc"): "033711121e250fbc6341079dc6d99895fc6f337e574a660a93cee5c22c813b73",
    ("c3", 3, "asc"): "43a5d12e58c82947a29c3c9b5bbb264887a880b0b4fec535e94a81758908d783",
    ("c3", 3, "desc"): "455b7975f09cc5ff2da8fbc2d21f0ab93ac997e7705fcdad6829cb4125ea3e47",
    ("c3", 4, "asc"): "c8a884751e47ec47d362128231b0d9435fc0724cec181b723431905436e8e927",
    ("c3", 4, "desc"): "11cdea4488573155b66e64505e4e30018b413a3044b1843c27c6c4b8c73854de",
    ("c3", 5, "asc"): "f8fda64f7414bf15969fcdb19a4d7c176a2c1fa4d55cbca62fc726cc301972a5",
    ("c3", 5, "desc"): "96d323a7c8468d2e2820089944ac60af381646ab79c4800b55018e1631e3562d",
    ("c3", 6, "asc"): "bf58c40bd5732d1853d18c5b2c4d614fda6854ad72401e901274662fb27f517e",
    ("c3", 6, "desc"): "65e564e2c4dc8b6da911a812e6adb6f471734bc71cae711d910827591f4ffb59",
    ("c3", 7, "asc"): "a3551f6ce0cc1b11f7f61fb3ad2ce0ff26d084abcf7692f0933601c665675e5f",
    ("c3", 7, "desc"): "483a4d553dfaba9542e600f44b73984b0c87a81586294ef08256b455d6a2f8d5",
    ("c3", 8, "asc"): "d7461e3e1505d7d1ea757f715ca4cd4789ecd65ff2554aed2df7f402d2fa49e9",
    ("c3", 8, "desc"): "d86fea9677d60542efbae510ae6dc97ebf1fe5974bc236a5a4453210a62bf07c",
    ("v", 1, "asc"): "f3e029b40aea62caf11bd6dc6828737cde5ee5ac595a1fa0a441a524a9b8a0df",
    ("v", 1, "desc"): "f3e029b40aea62caf11bd6dc6828737cde5ee5ac595a1fa0a441a524a9b8a0df",
    ("v", 2, "asc"): "565f07e349468b7da099f699b92fa40efd0856b2e5dc47ed3e99fa07c2ec0424",
    ("v", 2, "desc"): "9241ab6d2e03c06e48b290061d64aee04b30b6eddc54757fc6b1e3d50d3fd72b",
    ("v", 3, "asc"): "fb91a6c5e06be36f7f14465ae4eca262c6060d7421e7d8e44e7daec5745ac646",
    ("v", 3, "desc"): "865f287a0c44454c8c85137643124f9324aa84af171317cd86d650da09289cb6",
    ("v", 4, "asc"): "ac5c88c5d44601024c5eb447c76bc48e44080a627aa1d143bce8a21b73374d7c",
    ("v", 4, "desc"): "ade87230e5f7b8d85dedfdeb1f9cdae58c0cb4492396552cc262beefcf588486",
    ("v", 5, "asc"): "8d59d47c5101b36fb4180108309c2612f8b215225efa4b1d2dac7552eef6845c",
    ("v", 5, "desc"): "5aaa3b97c2e23fd2eb9a72ad203934373488b7d10dd7a0392e8b3f7d1169a284",
    ("v", 6, "asc"): "f0bd5dbd2bd19aab221d4f1b2843df8f74c29e16d894889e34f1cf4da7ccf5ef",
    ("v", 6, "desc"): "7b90de9c0fd2656aee89170b92084c776b60870b02c66d81066a78c679de5913",
    ("v", 7, "asc"): "aefa114032ac2ec6a060825f5cc29b0a7997d81667de5dc7f482b776c0509ba8",
    ("v", 7, "desc"): "7b19a652746e1f9e9c4e056342221c98889705e1cb50e4b28fe8cddc71832921",
    ("v", 8, "asc"): "ff08c0c12f5b2ad3bb6f3a0edd3fb43688eb520116c27755134ab12bb792af1d",
    ("v", 8, "desc"): "aa35c2f09a9a7f583c716e01fa4437cba2fa3b44e77b51c9dcfa16e426024a4d",
    ("t", 1, "asc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("t", 1, "desc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("t", 2, "asc"): "d3609b758e2d3437ac732b6b6b002d2a5116c11b3772e702676767f643306b80",
    ("t", 2, "desc"): "9b974877f7922c35564f24501d50e8d5072298ced37231ad3b6738f117b2ccf9",
    ("t", 3, "asc"): "4e946c5ca2a5111303c7633f0d47b7f6f5ddbed40915b6c07ae4542d8ea5e858",
    ("t", 3, "desc"): "e309931aedbc2e499162ef4c72bff1922f63e098a7e333c3bd6ee9fa88d82e9f",
    ("t", 4, "asc"): "0d45e2d7b077df0422a15d26eb775d8eb35c8c1c227b57dca57df47bb712d30a",
    ("t", 4, "desc"): "75f33a2ac9f2fac1f40ffbac9ce38bb94eb831fbaa8b61cc167dbe9e8ecfcac5",
    ("t", 5, "asc"): "13b599398dfe1b2165c790f95ceaf5e1c1adda5ddd2d1a28ca05d3beae216c46",
    ("t", 5, "desc"): "4b506077c0863e34be4b9ef13bff35926a81d23cfdfe616f4183efb1eba85357",
    ("t", 6, "asc"): "639c1beb12067c110e5a134852a6bdb9db385700e8165ce50b87422ccf49bdd3",
    ("t", 6, "desc"): "0129f4f5682420e59e23fbfff78bf892fbd6ad40a06380bfbb18c026cb4dd580",
    ("t", 7, "asc"): "8b8556d55add607dede97d7acd3f2c4aafdc985acc0037f3efb33fe1ddd16f39",
    ("t", 7, "desc"): "62772fc1941682454efbddaa99abcfdad5ec219c283fc6d0234be5a57890062e",
    ("t", 8, "asc"): "f11f3ba00081ee1538fbb802a96d2a1e7700da345a1404acfc2df000862a2d5c",
    ("t", 8, "desc"): "8506600953c02bba569613f061af6680f8cdb0b4c0d6f1cfac8548ec5953f2a7",
    ("u", 1, "asc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("u", 1, "desc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("u", 2, "asc"): "3def414c7edb199426594249341506173b29e73d56b4b363678dcfb1f0269853",
    ("u", 2, "desc"): "06e9a4edbec9bdc93ca1c9f56e2e79d9805730ea916b252cd4ae769f58e9f37c",
    ("u", 3, "asc"): "e70eed8a31d8714d0a903e4decefb7143e560f68df1f00166a33108fda7282ad",
    ("u", 3, "desc"): "c2cb17cadf3604ef2d2df7cc96ff7e3bc67e8f76c7270a7769ac29adb6df26d6",
    ("u", 4, "asc"): "36e003b31d6ed64afb08b69df9aebce90f23f41eb7e7b51cf38599c00d030772",
    ("u", 4, "desc"): "b2084a133d8b9eecf27d9efdca554c24e0e843f28ac736efc71a42e9af966957",
    ("u", 5, "asc"): "56f6842b7185ffd9d604fa7894785992e90540a33628622fa7d9a433a25f2cdd",
    ("u", 5, "desc"): "fdaab98cce2b2c361209051ce624b1969c33545571b5686c90d0f34204c292ae",
    ("u", 6, "asc"): "87aeaf4226b44b1cc03edf24f27048e6fd3fe7867922efcdb5aa18dadbae940d",
    ("u", 6, "desc"): "917983781afe48b5e1325968fb3a8b920fdaefe88f9309a4f94d003836f7f9ef",
    ("u", 7, "asc"): "472a0530b3d94e203820afb81c40b22006e7f3add5041e111b4ad0e3cce907e8",
    ("u", 7, "desc"): "a711c57ed292ab77eb7c987b6b4713000e8d4c798e295a3663c979870af44dad",
    ("u", 8, "asc"): "330f3ea734f7420fe1f2126f073a5b3c9c025f181b8ae3ebb53684ca88624e00",
    ("u", 8, "desc"): "8e630beb5bd99a50891b07b411cdff770a75078f69889b27a3dbd064bd0d8d3b",
    ("h", 1, "asc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("h", 1, "desc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("h", 2, "asc"): "d3609b758e2d3437ac732b6b6b002d2a5116c11b3772e702676767f643306b80",
    ("h", 2, "desc"): "9b974877f7922c35564f24501d50e8d5072298ced37231ad3b6738f117b2ccf9",
    ("h", 3, "asc"): "3a68496c0a487dc4d52a574263d56598eda2cf2285f352c886899f6a974f90f1",
    ("h", 3, "desc"): "6f2a5bc2fc2acf5232001e6d068b912fbf005941a49d29d2664ecaa8a431b687",
    ("h", 4, "asc"): "cdf1bc49404eaaad756af6d6c8f4806a475561ddc206ae1a65de9e732dfc1916",
    ("h", 4, "desc"): "095597b9c2641a7e89a9fe18f079dcb88859926ca906a28558b0d0558148ceb2",
    ("h", 5, "asc"): "ba8dcde15aa78c4977c5c8eadfee503be055cea090e3b3b92c02634f1b46d8e6",
    ("h", 5, "desc"): "5ebc061484b88679973c8006e0798abb97d7ad0ae704935f697c594e4c1b07e7",
    ("h", 6, "asc"): "258b9bcdc947b0a1cac62af11094302dcf39672034a56e0fb9cf121c3399c434",
    ("h", 6, "desc"): "a70b1a9eca4fa8645c133e36e8e35b1784a82d0060b59a58f676866225ce8ef6",
    ("h", 7, "asc"): "93024799b359e104d755fda9777538e875a113794fdb7d56ec4cbe4cb7b38064",
    ("h", 7, "desc"): "56369b99744f3cdf9636f2bcc39969005bd9b068b236b5b2f852d8e04214b57f",
    ("h", 8, "asc"): "8d325896a3a7b5c223e805349257f2677581d9d07e8bc122dbbfae2e87fca93d",
    ("h", 8, "desc"): "fdc0009efcea11c164f2909124c6c8ca9d2aa8fe45e8d03da8937835a84e3129",
    ("k", 1, "asc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("k", 1, "desc"): "36d96f3ca71dfa9b3b4b60d4b1dc3bffc33c57be558a6ea6c1aa0b6b9a1c28dc",
    ("k", 2, "asc"): "9352ffcdfe745ffe61ff599fac65eae854ed516b707ce7d8f966fa7211262c38",
    ("k", 2, "desc"): "d812f058e3097c6104eb88f591462f4183a9c41b230da3f820d890c8626251f0",
    ("k", 3, "asc"): "a4235e23b9566fadee359e7445b096f3b002d0121f11f85033f30e6c90f3a7f6",
    ("k", 3, "desc"): "c112cbffd9d6722e1b295a5e0390d7065056e228b4d3494a630dbba053b70ee4",
    ("k", 4, "asc"): "087b9b38880de2e7455dfe01dc56a852207c924f84f78493f2496f350153341f",
    ("k", 4, "desc"): "d55ac1ab9e939b9653ef2df31c5bdadb37009f5ae5e7cb5fcf579375b894830c",
    ("k", 5, "asc"): "409ee8a0d26d59c3b4edef13e91c03a54ff215b7c9b64b8408fcfcff66ff15aa",
    ("k", 5, "desc"): "a0c30df75c63881942f2b75a5ef6656b9d803f580d4d59c15af411383a11a700",
    ("k", 6, "asc"): "680c568163d5b7d41deb798c8862cf687eddba8ef441ea5281b2192849d6ce60",
    ("k", 6, "desc"): "0dc5f67bb13f0fae35d23287e39297db730a4c63f9fc44baf32c33345a67050f",
    ("k", 7, "asc"): "45201398491f9513de5e320659380731d119eb74e12cb9ed2b630dc28da2490d",
    ("k", 7, "desc"): "840a3ae9d2364d193d09b4f05ac63d9f7f873da1f7261f7af535533eac8743b6",
    ("k", 8, "asc"): "91aeb34bc82a8ae9fe1df6cc5d714e81357d9583e90ff03745b6540f16257468",
    ("k", 8, "desc"): "b5f498a285e2b470e719bd36c47dfada09e39f76a1017c411d1ea045ad5069c1",
}

# SHA-256 of the ``tournkit embed`` stdouts of each witness into the family
# members of one kind, lengths 1-4 over the ascending chain, then the
# descending one, concatenated in that order
EMBED_DIGESTS = {
    ("tau1", "c3"): "96f56ff82ec959caf551bd8e8d81c3d9dba46113051f142b18d2b2e7f58821d2",
    ("tau1", "v"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau1", "t"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau1", "u"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau1", "h"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau1", "k"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau2", "c3"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau2", "v"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau2", "t"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau2", "u"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau2", "h"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("tau2", "k"): "983cf7396abb0e1df881a50126abea1b588dfd251ca82068db9dfbae6fbb60ce",
    ("T5", "c3"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("T5", "v"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("T5", "t"): "cc851414c635ed24c75c66bc43798a64c2d73ba6b081d3175f0f7e952d63bd50",
    ("T5", "u"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("T5", "h"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("T5", "k"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("U7", "c3"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("U7", "v"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("U7", "t"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("U7", "u"): "a237a4ac7a9c0cce0c97b69cd63cb2fc3181e0d9cdf3882f9d2db9354d2f4a1d",
    ("U7", "h"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("U7", "k"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("V7", "c3"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("V7", "v"): "de59f39be2b6ab8b75c24393a9a80949ffbe7542f8bf9879890642603aef3c80",
    ("V7", "t"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("V7", "u"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("V7", "h"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("V7", "k"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("H3", "c3"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("H3", "v"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("H3", "t"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("H3", "u"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
    ("H3", "h"): "950bcc667c3c0d14a961c0d3e06153c5874220094f91cd5781f86f0e12dd3ed8",
    ("H3", "k"): "c7831141085cfb0da38d67d45b3d1ea194c5adcb9f5b96929256320ed53dddaf",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv), an argparse exit included."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parser_main(argv):
    # the oracle: parse with every command's parser, then dispatch
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


# FILE stands for a tournament file written by the test
USAGE_SURFACE = [[], ["--help"]] + [[command, "--help"] for command in cli.COMMANDS] + [
    ["bogus"],
    ["decompose"],
    ["decompose", "FILE", "--bogus"],
    ["verify", "--suite", "nope"],
    ["gen", "--family", "zz"],
]


class TestParser:
    @pytest.fixture
    def c3_file(self, tmp_path):
        dump_path(cycle3(), tmp_path / "c3.t")
        return str(tmp_path / "c3.t")

    @pytest.mark.parametrize("columns", ["80", "40"])
    @pytest.mark.parametrize("argv", USAGE_SURFACE, ids=lambda argv: " ".join(argv) or "(none)")
    def test_usage_surface_matches_full_parser(self, argv, columns, c3_file, capsys, monkeypatch):
        # COLUMNS fixes argparse's wrapping; the full parser is the oracle, as
        # argparse's wording differs between Python versions
        monkeypatch.setenv("COLUMNS", columns)
        argv = [c3_file if arg == "FILE" else arg for arg in argv]
        got = outcome(capsys, main, argv)
        assert got == outcome(capsys, full_parser_main, argv)
        assert got[0] == (0 if "--help" in argv else cli.USAGE_EXIT)
        assert got[1 if got[0] == 0 else 2].startswith("usage: tournkit")

    def test_unrecognized_argument_usage_lists_every_command(self, c3_file, capsys):
        _, _, err = outcome(capsys, main, ["decompose", c3_file, "--bogus"])
        assert err.startswith("usage: tournkit [-h]")
        assert "{" + ",".join(cli.COMMANDS) + "} ..." in err
        assert err.endswith("tournkit: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv, message", [
        ([], "tournkit: error: the following arguments are required: command\n"),
        (["bogus"], "tournkit: error: argument command: invalid choice: 'bogus'"),
    ], ids=["(none)", "bogus"])
    def test_full_parser_errors_name_the_command_argument(self, argv, message, capsys):
        # the oracle above shares build_parser, so its error text is pinned here
        code, _, err = outcome(capsys, main, argv)
        assert code == cli.USAGE_EXIT
        assert message in err

    @pytest.fixture
    def built(self, monkeypatch):
        """Names of the subparsers built, in order."""
        seen = []
        add_parser = argparse._SubParsersAction.add_parser
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            lambda self, name, **kwargs: seen.append(name) or add_parser(self, name, **kwargs))
        return seen

    @pytest.mark.parametrize("argv", [["decompose", "FILE"], ["profile", "FILE", "--max", "5", "--fit", "1"],
                                      ["verify", "--suite", "duality", "--max-chain", "1"]], ids=" ".join)
    def test_well_formed_call_builds_no_subparser(self, argv, built, c3_file, capsys):
        code, _, _ = outcome(capsys, main, [c3_file if arg == "FILE" else arg for arg in argv])
        assert code == 0
        assert built == []

    @pytest.mark.parametrize("argv", [[command, "--help"] for command in cli.COMMANDS] + [
        ["decompose", "FILE", "--bogus"],
        ["profile", "FILE", "--max=3"],
    ], ids=" ".join)
    def test_named_command_builds_one_subparser(self, argv, built, c3_file, capsys):
        outcome(capsys, main, [c3_file if arg == "FILE" else arg for arg in argv])
        assert built == [argv[0]]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--bogus", "decompose"]],
                             ids=lambda argv: " ".join(argv) or "(none)")
    def test_other_calls_build_every_subparser(self, argv, built, capsys):
        outcome(capsys, main, argv)
        assert built == list(cli.COMMANDS)

    def test_argv_defaults_to_sys_argv(self, c3_file, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["tournkit", "decompose", c3_file])
        code, out, _ = outcome(capsys, lambda argv: main(), [])
        assert code == 0
        assert json.loads(out)["indecomposable"] is True

    def test_help_description_names_every_command(self):
        listed = cli.__doc__.rstrip(".").split(": ", 1)[1].split(", ")
        assert listed == ["generate" if command == "gen" else command for command in cli.COMMANDS]


# The argument functions that cli.COMMANDS replaced, verbatim: the oracle for
# the table, which the USAGE_SURFACE tests cannot be, as both of the parsers
# they compare are built from it.
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


REFERENCE_ARGUMENTS = {
    "gen": _gen_arguments,
    "decompose": _decompose_arguments,
    "profile": _profile_arguments,
    "sum-profile": _sum_profile_arguments,
    "embed": _embed_arguments,
    "enumerate": _enumerate_arguments,
    "verify": _verify_arguments,
}


def reference_parser():
    """The full parser as built before the table: every command, from the functions above."""
    parser = argparse.ArgumentParser(prog="tournkit", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add_arguments in REFERENCE_ARGUMENTS.items():
        help_line, _, handler = cli.COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


class Recorder:
    """Stands in for a parser and keeps each add_argument call as (flags, keywords)."""

    def __init__(self):
        self.arguments = []

    def add_argument(self, *flags, **keywords):
        self.arguments.append((flags, keywords))


def reference_arguments(command):
    recorder = Recorder()
    REFERENCE_ARGUMENTS[command](recorder)
    return recorder.arguments


def parsed(parser, argv):
    """vars() of parser.parse_args(argv), or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


# well-formed values by kind; " 7", "+2", "1_0" and "\u0663" (Arabic-Indic 3)
# are ints to int(), as to argparse
GOOD_INTS = ("0", "3", "12", " 7", "+2", "1_0", "\u0663")
GOOD_TEXTS = ("in.t", "a b", "inf,2", "")
BAD_VALUES = ("x", "1.5", "", "-1", "zz", "--", "-", "--max")


def argv_corpus(command, count, seed):
    """Seeded argvs for `command`, about half of them well-formed.

    A call gives every positional and required option and each other option
    with even odds, in any order, some of them twice; then some calls get one
    or two faults: a bad or missing value, a missing argument, help, an
    `=` form, an abbreviation, `--`, an unknown option or an extra positional.
    """
    rng = random.Random(seed)
    arguments = reference_arguments(command)

    def good(keywords):
        if "choices" in keywords:
            return rng.choice(keywords["choices"])
        return rng.choice(GOOD_INTS if "type" in keywords else GOOD_TEXTS)

    corpus = []
    for _ in range(count):
        pieces = []
        for flags, keywords in arguments:
            if not flags[0].startswith("-"):
                pieces.append([rng.choice(("in.t", "other.t", "a b"))])
            elif keywords.get("required") or rng.random() < 0.5:
                flag = rng.choice(flags)
                pieces.append([flag] if "action" in keywords else [flag, good(keywords)])
        if pieces and rng.random() < 0.2:
            pieces.append(list(rng.choice(pieces)))
        rng.shuffle(pieces)
        for _ in range(rng.choice((0, 0, 1, 2))):
            fault = rng.randrange(9)
            at = rng.randrange(len(pieces) + 1)
            piece = pieces[at] if at < len(pieces) else None
            if fault == 0 and piece:
                piece[-1] = rng.choice(BAD_VALUES)
            elif fault == 1 and piece:
                del pieces[at]
            elif fault == 2 and piece and piece[0].startswith("--"):
                pieces[at] = [piece[0][:-1]] + piece[1:]
            elif fault == 3 and piece and len(piece) == 2:
                pieces[at] = [f"{piece[0]}={piece[1]}"]
            elif fault == 4 and piece and len(piece) == 2:
                pieces[at] = piece[:1]
            else:
                pieces.insert(at, [rng.choice(("-h", "--help", "--", "--bogus", "extra", "-o"))])
        corpus.append([command] + [token for piece in pieces for token in piece])
    return corpus


CORPUS = {command: argv_corpus(command, 300, seed) for seed, command in enumerate(cli.COMMANDS, 3001)}


def workload_argvs(tmp_path, monkeypatch):
    """Every tournkit call of perfbench/workloads.py, a decompose task's file under tmp_path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclass looks its module up there
    spec.loader.exec_module(workloads)
    argvs = []
    for tasks in workloads.WORKLOADS.values():
        for task in tasks:
            if task.job == "cli":
                argvs.append(list(task.args))
            elif task.job == "decompose":
                argvs.append(["decompose", str(tmp_path / f"{task.name}.txt")])
    return argvs


class TestCommandTable:
    @pytest.mark.parametrize("columns", ["80", "40"])
    @pytest.mark.parametrize("command", ["(none)", *cli.COMMANDS])
    def test_help_matches_reference_parser(self, command, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        argv = ["--help"] if command == "(none)" else [command, "--help"]
        got = parsed(cli.build_parser(), argv)
        assert got == parsed(reference_parser(), argv)
        assert got[0] == 0 and got[1].startswith("usage: tournkit")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_parse_matches_reference_parser(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        table, reference = cli.build_parser(), reference_parser()
        for argv in CORPUS[command]:
            assert parsed(table, argv) == parsed(reference, argv), argv

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_table_uses_only_keywords_the_reader_knows(self, command):
        # _read understands these and nothing else
        for flags, keywords in cli.COMMANDS[command][1]:
            assert set(keywords) <= {"action", "type", "choices", "required", "default", "help"}, flags
            assert keywords.get("action", "store_true") == "store_true", flags
            assert keywords.get("type", int) is int, flags


class TestReader:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_reader_agrees_with_argparse(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser()
        read = 0
        for argv in CORPUS[command]:
            got = cli._read(argv)
            if got is not None:
                # argparse accepts it, into the same namespace
                assert vars(got) == parsed(parser, argv), argv
                read += 1
        # both paths are walked: many calls read, many left to argparse
        assert 60 <= read <= len(CORPUS[command]) - 60

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus", "x"], ["--bogus", "decompose", "x"],
        ["decompose", "x", "--help"], ["decompose", "-h"], ["decompose", "--", "x"], ["decompose", "-"],
        ["profile", "x", "--max=3"], ["profile", "x", "--ma", "3"], ["profile", "x", "--max", "-1"],
        ["profile", "x", "--max"], ["profile", "x"], ["profile", "x", "--max", "3", "y"],
        ["gen", "--family", "zz", "--n", "3"], ["gen", "--n", "three"], ["gen", "-o"],
        ["verify", "--suite", "formulas", "--n-max", "1.5"], ["embed", "a"],
    ], ids=lambda argv: " ".join(argv) or "(none)")
    def test_reader_leaves_to_argparse(self, argv):
        assert cli._read(argv) is None

    def test_reader_reads_every_documented_call(self, tmp_path, monkeypatch):
        # the README block and every call the benchmark makes
        argvs = [shlex.split(line, comments=True)[1:] for line in command_lines()]
        argvs += workload_argvs(tmp_path, monkeypatch)
        assert len(argvs) == 11 + 15
        for argv in argvs:
            got = cli._read(argv)
            assert got is not None, argv
            assert vars(got) == vars(cli.build_parser().parse_args(argv))


class TestGen:
    def test_witness_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "w.t"
        code, _, _ = run(capsys, "gen", "--witness", "tau1", "-o", str(out))
        assert code == 0
        assert canonical_form(load_path(out)) == canonical_form(witness("tau1"))

    def test_family_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "f.t"
        code, _, _ = run(capsys, "gen", "--family", "v", "--n", "3", "-o", str(out))
        assert code == 0
        assert canonical_form(load_path(out)) == canonical_form(family("v", 3))

    def test_checked_flag(self, tmp_path, capsys):
        out = tmp_path / "c.t"
        code, _, _ = run(capsys, "gen", "--family", "k", "--n", "3", "--checked", "-o", str(out))
        assert code == 0
        assert load_path(out).n == 5

    def test_st(self, tmp_path, capsys):
        out = tmp_path / "u7.t"
        code, _, _ = run(capsys, "gen", "--st", "u", "--h", "3", "-o", str(out))
        assert code == 0
        assert load_path(out).n == 7

    def test_stdout_when_no_output(self, capsys):
        code, out, _ = run(capsys, "gen", "--witness", "T5")
        assert code == 0
        assert out.startswith("5\n")

    def test_usage_needs_one_source(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "c3", "--witness", "tau1", "--n", "2")
        assert code == 2
        assert "USAGE" in err

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "c3")
        assert code == 2

    def test_st_needs_h(self, capsys):
        code, out, err = run(capsys, "gen", "--st", "t")
        assert (code, out) == (2, "")
        assert err == "error: USAGE: --st needs --h H\n"

    @pytest.mark.parametrize("argv", [
        "--witness tau1 --n 5",
        "--st t --h 2 --n 9",
        "--witness tau1 --desc",
        "--st t --h 2 --desc",
        "--witness tau1 --checked",
        "--st t --h 2 --checked",
        "--family c3 --n 1 --h 5",
        "--witness tau1 --h 5",
    ])
    def test_flag_of_another_source_refused(self, capsys, argv):
        # each used to exit 0 with its last flag silently ignored
        flag = [token for token in argv.split() if token.startswith("--")][-1]
        source = "--st" if flag == "--h" else "--family"
        code, out, err = run(capsys, "gen", *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: USAGE: {flag} applies only with {source}\n"


class TestQueries:
    def test_decompose_two_vertices(self, tmp_path, capsys):
        f = tmp_path / "two.t"
        f.write_text("2\n01\n00\n")
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["blocks"] == [[0, 1]]
        assert data["quotient"]["n"] == 1

    @pytest.mark.parametrize(
        "text, payload",
        [
            ("0\n", {"n": 0, "blocks": [], "spectrum": [], "quotient": {"n": 0, "matrix": []},
                     "acyclically_indecomposable": True, "indecomposable": True, "monomorphic_components": []}),
            ("1\n0\n", {"n": 1, "blocks": [[0]], "spectrum": [1], "quotient": {"n": 1, "matrix": ["0"]},
                         "acyclically_indecomposable": True, "indecomposable": True,
                         "monomorphic_components": [[0]]}),
            # a single edge is a LINEAR root, yet no autonomous set lies strictly between
            ("2\n01\n00\n", {"n": 2, "blocks": [[0, 1]], "spectrum": [2], "quotient": {"n": 1, "matrix": ["0"]},
                              "acyclically_indecomposable": False, "indecomposable": True,
                              "monomorphic_components": [[0, 1]]}),
        ],
        ids=["n0", "n1", "n2"],
    )
    def test_decompose_tiny_cases_exact(self, text, payload, tmp_path, capsys):
        f = tmp_path / "tiny.t"
        f.write_text(text)
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_decompose_k_family(self, tmp_path, capsys):
        f = tmp_path / "k3.t"
        run(capsys, "gen", "--family", "k", "--n", "3", "-o", str(f))
        code, out, _ = run(capsys, "decompose", str(f))
        data = json.loads(out)
        assert data["spectrum"][0] == 2

    def test_decompose_prime_v15(self, tmp_path, capsys):
        # 31 vertices: a 2^31 autonomous-subset scan would never finish here
        f = tmp_path / "v15.t"
        run(capsys, "gen", "--family", "v", "--n", "15", "-o", str(f))
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        data = json.loads(out)
        assert data["indecomposable"] is True
        assert data["acyclically_indecomposable"] is True
        assert data["spectrum"] == [1] * 31

    def test_profile(self, tmp_path, capsys):
        f = tmp_path / "c34.t"
        run(capsys, "gen", "--family", "c3", "--n", "4", "-o", str(f))
        code, out, _ = run(capsys, "profile", str(f), "--max", "8")
        assert code == 0
        assert json.loads(out)["values"] == [1, 1, 1, 2, 3, 4, 6, 9, 13]

    def test_profile_fit_stdout(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        code, out, _ = run(capsys, "profile", str(f), "--max", "5", "--fit", "1")
        assert code == 0
        # (1 + x + x^2 + x^3)(1 - x) = 1 - x^4
        assert out == (
            '{\n  "fit": {\n    "k": 1,\n    "numerator": [\n      1,\n      0,\n      0,\n      0,\n      -1\n'
            '    ]\n  },\n  "n": 3,\n  "values": [\n    1,\n    1,\n    1,\n    1,\n    0,\n    0\n  ]\n}\n'
        )

    def test_sum_profile_with_fit(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        code, out, _ = run(
            capsys, "sum-profile", "--index", str(f), "--caps", "inf,inf,inf", "--max", "14", "--fit", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["fit"]["numerator"] == [1, 0, -1, 0, 0, 1, 1]
        assert data["growth"] == {"p": 3, "k": 3, "degree": 2}

    @pytest.mark.parametrize("caps, plain", [
        ("unbounded,unbounded,unbounded", "inf,inf,inf"),
        ("*,*,*", "inf,inf,inf"),
        ("unbounded,*,2", "inf,inf,2"),
        (" inf , 2,* ", "inf,2,inf"),
        ("1 , unbounded ,  3", "1,inf,3"),
    ])
    def test_sum_profile_cap_spellings(self, caps, plain, tmp_path, capsys):
        # the other spellings of 'inf', and padded pieces, mean what the plain spelling does
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        argv = ["sum-profile", "--index", str(f), "--caps", caps, "--max", "9"]
        assert cli._read(argv).caps == caps
        got = run(capsys, *argv)
        assert got[0] == 0
        assert got == run(capsys, "sum-profile", "--index", str(f), "--caps", plain, "--max", "9")

    def test_sum_profile_bad_cap(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        code, _, err = run(capsys, "sum-profile", "--index", str(f), "--caps", "inf,x,1", "--max", "5")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "t",
        [
            chain(1),
            cycle3(),
            chain(7),
            lex_sum(cycle3(), [chain(3)] * 3),
            family("c3", 3),
            family("v", 4),
            family("t", 5),
            witness("tau2"),
            *(random_tournament(random.Random(seed), 9) for seed in range(4)),
        ],
    )
    def test_decompose_one_decomposition(self, t, tmp_path, capsys, monkeypatch):
        # the output the command printed when it ran each library call on its own
        d = acyclic_components(t)
        payload = {
            "n": t.n,
            "blocks": [list(b) for b in d.blocks],
            "spectrum": list(d.spectrum),
            "quotient": {"n": d.quotient.n, "matrix": dumps(d.quotient).splitlines()[1:]},
            "acyclically_indecomposable": is_acyclically_indecomposable(t),
            "indecomposable": is_indecomposable(t),
            "monomorphic_components": [list(b) for b in monomorphic_components(t)],
        }
        f = tmp_path / "t.t"
        dump_path(t, f)
        calls = []

        def counted(t):
            calls.append(t)
            return acyclic_components(t)

        monkeypatch.setattr(cli, "acyclic_components", counted)
        monkeypatch.setattr(decomp, "acyclic_components", counted)
        code, out, _ = run(capsys, "decompose", str(f))
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert len(calls) == 1

    def test_embed(self, tmp_path, capsys):
        pat = tmp_path / "p.t"
        host = tmp_path / "h.t"
        run(capsys, "gen", "--witness", "tau2", "-o", str(pat))
        run(capsys, "gen", "--family", "k", "--n", "3", "-o", str(host))
        code, out, _ = run(capsys, "embed", str(pat), str(host))
        assert code == 0
        data = json.loads(out)
        assert data["embeds"] is True and len(data["witness"]) == 5

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5")
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "tournkit", "enumerate", "--n", "3"],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["count"] == 2

    def test_enumerate_filtered(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--filter", "acyclically-indecomposable")
        data = json.loads(out)
        assert data["count"] == 1

    @pytest.mark.parametrize("argv, digest", [
        (["--n", "0"], "bf45a9c5737e10913db816b4d5e0076e84bfb26ba2cb04025f7b63c8f71c33fb"),
        (["--n", "1"], "89080066ec0eda1451a6669064cc6998ee78a05c1e433bb41d961dd2524c81f0"),
        (["--n", "2"], "6dcab69aec35af8bc7a0b60b490c38821acc1c3f13a1597ee1afdb14474fad06"),
        (["--n", "3"], "819a1490a68aa53801b654e30842fbd1c34643f6174386cae7103059e2eeebba"),
        (["--n", "4"], "2ec94a433ef94b5251810a06d433befd336aa29468c3ead8b9a9609bb018b8dc"),
        (["--n", "5"], "c34675a4261d3aa9eb57bab82f34bd97ae0dd48db5943288f63204713a604a61"),
        (["--n", "6"], "9d0a0bb236db881daa59962a9ee0e7f0c45debc14c7e3361986db40c49b6de37"),
        (["--n", "7"], "3152c241a3ea96dc08d5ba6c81f44e842457be76d608da4bcc98142f3db59ac5"),
        (["--n", "2", "--filter", "acyclically-indecomposable"],
         "5eee074b74581ec3633c1c796822681381916add51c8c62882cd308d2d9a4bfe"),
        (["--n", "3", "--filter", "acyclically-indecomposable"],
         "566c32cf6241d8fbb5219e3ad467a1735faf199bc87f3b3e1d44e339330f1e79"),
        (["--n", "6", "--filter", "acyclically-indecomposable"],
         "3e83ef0c3ef33bef17169f6519976418f63f4b77fc208eb5c37dbb5bdcbc7252"),
    ], ids=[*(f"n{n}" for n in range(8)), "ai2", "ai3", "ai6"])
    def test_enumerate_stdout_pinned(self, capsys, argv, digest):
        # the bytes json.dump(..., sort_keys=True, indent=2) wrote when the
        # whole document was built first; n = 0 lists one empty matrix and
        # the filtered n = 2 an empty list (n = 8 is pinned by the memory test)
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_enumerate_streams_in_little_memory(self, monkeypatch):
        # 0.65 MB traced at n = 8, against 5.3 MB when the tournaments and
        # the document were held whole
        digest = hashlib.sha256()

        class Sink:
            def write(self, text):
                digest.update(text.encode())

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Sink())
        tracemalloc.start()
        try:
            code = main(["enumerate", "--n", "8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert digest.hexdigest() == "f2573d18589ede3c658c04a15a82b348a2f13378e2c62915929b9cbf22a6870c"
        assert peak < 2 * 2**20

    def test_closed_stdout_ends_quietly(self):
        # the n = 8 document (1.2 MB) outgrows the pipe, so the writer meets
        # the closed end
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, "-m", "tournkit", "enumerate", "--n", "8"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(100).startswith(b'{\n  "count": 6880,')
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == cli.CLOSED_STDOUT_EXIT
        assert err == b""


class TestVerifyCommand:
    def test_duality_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "duality", "--max-chain", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_decomposition(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "decomposition", "--n-max", "4")
        assert code == 0

    @pytest.mark.parametrize("n_max", ["0", "1", "2"])
    def test_formulas_pass_at_the_smallest_bounds(self, capsys, n_max):
        code, out, _ = run(capsys, "verify", "--suite", "formulas", "--n-max", n_max)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_compactness_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "compactness", "--n", "2", "--size-bound", "5")
        code2, out2, _ = run(capsys, "verify", "--suite", "compactness", "--n", "2", "--size-bound", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv, digest", [
        (["decomposition", "--n-max", "6"], "64a13094c50ced7f0540de2ceb6055b3a92027e6c2a5ec34aec0f8f1b0d3d670"),
        (["formulas", "--n-max", "9"], "abfa762a53f072ca2fba00ce4bd7abd6e6f48fdece14f7edd0ad0f6a600f0fe3"),
        (["incomparability", "--host-size", "14"], "914f8aa104e928f9f4f1c7e92da5174dcf1e12a4b21cd0d99a44b53cdfefd567"),
        (["duality", "--max-chain", "5"], "bec4b167ea4846623d945ca1f7d9eed10236a0599ef8b224ff73e7c7d5cb2707"),
        (["compactness", "--n", "2", "--size-bound", "8"],
         "d0694e2220c985c96b203b68cfb5624f702ae49e1710cfe5f22c79d426ad453c"),
        (["compactness", "--n", "3", "--size-bound", "8"],
         "c239e032a51138edb9ff3aeafdc34950eb0609053401fd79119affe2c381a961"),
    ], ids=["decomposition", "formulas", "incomparability", "duality", "compactness-n2", "compactness-n3"])
    def test_suite_stdout_pinned(self, capsys, argv, digest):
        # every suite's report at its acceptance parameters, byte for byte
        code, out, _ = run(capsys, "verify", "--suite", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind, length, orientation", list(DECOMPOSE_DIGESTS),
                             ids=[f"{k}{n}-{o}" for k, n, o in DECOMPOSE_DIGESTS])
    def test_decompose_stdout_pinned(self, tmp_path, capsys, kind, length, orientation):
        # the decomposition's report, byte for byte, beside the suites' reports
        path = tmp_path / "t.t"
        dump_path(family(kind, ChainSpec(length, orientation)), path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[kind, length, orientation]

    @pytest.mark.parametrize("name, kind", list(EMBED_DIGESTS), ids=[f"{w}-{k}" for w, k in EMBED_DIGESTS])
    def test_embed_stdout_pinned(self, tmp_path, capsys, name, kind):
        # the witness of each embedding (or its absence), byte for byte
        dump_path(witness(name), tmp_path / "w.t")
        digest = hashlib.sha256()
        for orientation in ("asc", "desc"):
            for length in range(1, 5):
                dump_path(family(kind, ChainSpec(length, orientation)), tmp_path / "h.t")
                code, out, _ = run(capsys, "embed", str(tmp_path / "w.t"), str(tmp_path / "h.t"))
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == EMBED_DIGESTS[name, kind]

    @pytest.mark.parametrize("suite, flag", [
        ("compactness", "--size-bound"),
        ("decomposition", "--n-max"),
        ("duality", "--max-chain"),
        ("incomparability", "--host-size"),
        ("formulas", "--n-max"),
    ])
    def test_negative_bound_exits_2(self, capsys, suite, flag):
        code, out, err = run(capsys, "verify", "--suite", suite, flag, "-1")
        assert code == 2
        assert out == ""
        assert "OUT_OF_RANGE" in err

    def test_decomposition_refuses_n_max_0(self, capsys):
        # the suite makes no check below n_max 1
        code, out, err = run(capsys, "verify", "--suite", "decomposition", "--n-max", "0")
        assert code == 2
        assert out == ""
        assert "OUT_OF_RANGE: n_max must be at least 1" in err

    def test_compactness_refuses_size_bound_0(self, capsys):
        # at 0 the report holds only checks that cannot fail
        code, out, err = run(capsys, "verify", "--suite", "compactness", "--n", "2", "--size-bound", "0")
        assert code == 2
        assert out == ""
        assert "OUT_OF_RANGE: size bound must be at least 1" in err

    @pytest.mark.parametrize(
        "suite, check, argv, expect",
        [
            ("decomposition", "check_decomposition", ["--n-max", "3"], (3,)),
            ("formulas", "check_profile_formulas", ["--n-max", "4"], (4,)),
            ("incomparability", "check_incomparability", ["--host-size", "5"], (5,)),
            ("duality", "check_duality", ["--max-chain", "2"], (2,)),
            ("compactness", "check_compactness", ["--n", "3", "--size-bound", "6"], (3, 6)),
        ],
    )
    def test_suite_dispatch_looks_check_up_when_run(self, monkeypatch, capsys, suite, check, argv, expect):
        # a check rebound on the module after import (as a tracer does) is the one run
        seen = []
        monkeypatch.setattr(cli, check, lambda *a: seen.append(a) or SuiteReport(suite, {}))
        code, out, _ = run(capsys, "verify", "--suite", suite, *argv)
        assert code == 0
        assert seen == [expect]
        assert json.loads(out)["suite"] == suite

    def test_unknown_suite_lists_choices_in_order(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--suite", "nope"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "{decomposition,formulas,incomparability,duality,compactness}" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "decompose", "/nonexistent/path.t")
        assert code == 2

    def test_malformed_file_line_number(self, tmp_path, capsys):
        f = tmp_path / "bad.t"
        f.write_text("3\n010\n011\n100\n")
        code, _, err = run(capsys, "decompose", str(f))
        assert code == 2
        assert "line 3" in err

    def test_negative_profile_size(self, tmp_path, capsys):
        f = tmp_path / "c3.t"
        f.write_text("3\n010\n001\n100\n")
        for argv in (("profile", str(f), "--max", "-1"),
                     ("sum-profile", "--index", str(f), "--caps", "inf,inf,inf", "--max", "-1")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "OUT_OF_RANGE" in err
