"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 domain
error, 4 precondition failure, 10 unknown (bounded equality search gave no
answer; not an error). A negative strand count, a verify range that is empty,
starts below 2 or is not N or LO..HI, is a parse error (exit 2), and so is
an equal --depth (default 6) that is not a non-negative integer.
main returns the exit code of every outcome, argparse's own included.
--json makes every subcommand print JSON; reduce and closure-gauss print their
text as a JSON string.

Each run is a fresh interpreter, so each subcommand imports only the modules
its computation calls, inside its branch of _run. Besides vbraid, cli,
braidword and errors, which every run loads:

    reduce, equal   nothing
    perm            reps, laurent, freegrp, perm
    abelianize      reps, laurent, freegrp
    closure-gauss   gauss, reps, laurent, freegrp, perm
    burau, det      reps, laurent, freegrp, lpmatrix
    verify          verify, reps, laurent, freegrp

json is imported only by a run that prints JSON (`_dumps`, or the codecs
in laurent): --json, burau and abelianize.
"""

from __future__ import annotations

import argparse
import sys

from .braidword import Flavor, bfs_equal, free_reduce, parse_word
from .errors import (
    NegativeDepthError,
    NonUnitDeterminantError,
    NotAKnotError,
    StrandCountError,
    VbraidError,
    WordSyntaxError,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_PRECONDITION = 4
EXIT_UNKNOWN = 10

_FLAVORS = [f.value for f in Flavor]


def _dumps(obj, **kwargs):
    """json.dumps, importing json only for a run that prints JSON."""
    import json

    return json.dumps(obj, **kwargs)


def _parse_range(text):
    """N or LO..HI as the pair (lo, hi); argparse reports anything else (exit 2)."""
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a strand count N or a range LO..HI, got {text!r}"
        ) from None


def build_parser():
    p = argparse.ArgumentParser(
        prog="vbraid",
        description="Exact word algebra and representations for virtual braid groups.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON output everywhere")
    sub = p.add_subparsers(dest="command", required=True)

    def word_cmd(name, help_text):
        c = sub.add_parser(name, help=help_text)
        c.add_argument("--flavor", choices=_FLAVORS, default="vb")
        c.add_argument("-n", type=int, required=True, help="strand count")
        c.add_argument("word", help="word text, e.g. 's1 s2^-1 z1'")
        return c

    word_cmd("reduce", "freely reduce a word")
    word_cmd("burau", "Burau matrix of a word")
    word_cmd("det", "determinant of the Burau matrix")
    word_cmd("perm", "permutation image of a word")
    word_cmd("abelianize", "image in Z/2 + Z")
    word_cmd("closure-gauss", "Gauss code of the braid closure")

    v = sub.add_parser("verify", help="check every relator under every representation")
    v.add_argument("--flavor", choices=_FLAVORS, default="vb")
    v.add_argument(
        "-n",
        type=_parse_range,
        required=True,
        help="strand count or range, e.g. 3 or 2..7",
    )
    v.add_argument(
        "--reps",
        help="comma-separated subset of checks (default: all applicable)",
    )

    e = sub.add_parser("equal", help="bounded search for a rewrite derivation")
    e.add_argument("--flavor", choices=_FLAVORS, default="vb")
    e.add_argument("-n", type=int, required=True)
    e.add_argument("--depth", type=int, default=6)
    e.add_argument("word1")
    e.add_argument("word2")

    return p


def _run(args) -> int:
    out = sys.stdout

    if args.command == "verify":
        from .verify import verify_range

        lo, hi = args.n
        checks = None if args.reps is None else args.reps.split(",")
        records = verify_range(args.flavor, lo, hi, checks)
        if args.json:
            out.write(_dumps([r.to_json_obj() for r in records]) + "\n")
        else:
            for r in records:
                out.write(r.line() + "\n")
        return EXIT_OK if all(r.passed for r in records) else EXIT_VERIFY_FAIL

    if args.command == "equal":
        w1 = parse_word(args.word1, args.flavor, args.n)
        w2 = parse_word(args.word2, args.flavor, args.n)
        result = bfs_equal(w1, w2, args.depth)
        if args.json:
            obj = {"result": "equal" if result.equal else "unknown"}
            if result.equal:
                obj["witness"] = [
                    {"rule": s.rule, "direction": s.direction, "position": s.position}
                    for s in result.witness
                ]
            out.write(_dumps(obj) + "\n")
        else:
            if result.equal:
                out.write("equal\n")
                for s in result.witness:
                    arrow = "->" if s.direction == 1 else "<-"
                    out.write(f"  {s.rule} {arrow} at {s.position}\n")
            else:
                out.write("unknown\n")
        return EXIT_OK if result.equal else EXIT_UNKNOWN

    word = parse_word(args.word, args.flavor, args.n)

    if args.command == "reduce":
        text = str(free_reduce(word))
        out.write((_dumps(text) if args.json else text) + "\n")
    elif args.command == "burau":
        from .reps import burau

        out.write(burau(word).to_json() + "\n")
    elif args.command == "det":
        from .lpmatrix import mat_det
        from .reps import burau

        d = mat_det(burau(word))
        out.write((d.to_json() if args.json else str(d)) + "\n")
    elif args.command == "perm":
        from .reps import perm_proj

        p = perm_proj(word)
        if args.json:
            out.write(_dumps(list(p.images)) + "\n")
        else:
            out.write(str(p) + "\n")
    elif args.command == "abelianize":
        from .reps import abelianize

        out.write(_dumps(abelianize(word).to_json_obj(), sort_keys=True) + "\n")
    elif args.command == "closure-gauss":
        from .gauss import closure_code

        text = str(closure_code(word))
        out.write((_dumps(text) if args.json else text) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage or help
        return exc.code
    try:
        return _run(args)
    except (WordSyntaxError, NegativeDepthError, StrandCountError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NonUnitDeterminantError, NotAKnotError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (VbraidError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
