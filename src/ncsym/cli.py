"""Command-line interface: shorthand notation in, text or JSON out.

Exit codes: 0 on success, 1 when ``verify`` finds a failing check, 2 for
unparseable or invalid input (the message names the offending token).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime

from . import hopf, serialize, setparts, verify, words
from .hopf import NCSymElement
from .setparts import SetComposition, SetPartition
from .words import Word

__all__ = ["main", "build_parser"]

WARN_PARTS = 8


def _label(obj):
    return obj.format() or chr(0x2205)


def _emit_element(element, fmt):
    if fmt == "json":
        print(json.dumps(serialize.element_to_obj(element)))
    else:
        print(hopf.format_element(element))


def _cmd_product(args):
    left = NCSymElement.from_partition(SetPartition.parse(args.left))
    right = NCSymElement.from_partition(SetPartition.parse(args.right))
    _emit_element(left * right, args.fmt)
    return 0


def _cmd_coproduct(args):
    part = SetPartition.parse(args.partition)
    delta = hopf.coproduct(NCSymElement.from_partition(part))
    if args.fmt == "json":
        print(json.dumps(serialize.tensor_to_obj(delta)))
    else:
        print(hopf.format_tensor(delta))
    return 0


def _cmd_counit(args):
    part = SetPartition.parse(args.partition)
    print(json.dumps(hopf.counit(NCSymElement.from_partition(part))))
    return 0


def _cmd_antipode(args):
    part = SetPartition.parse(args.partition)
    x = NCSymElement.from_partition(part)
    # Warn on the size that bounds the chosen method's cost, if the method runs.
    if args.method == "factored":
        size = max((atom.length for atom in part.atoms()), default=0)
        subject = f"an atom of {size} blocks"
        growth = "the per-atom recursion grows like 3^r for an atom of r blocks"
    else:
        size = part.length
        subject = f"{size} blocks"
        growth = (
            "the composition sum grows like the ordered Bell numbers"
            if args.method == "direct"
            else "the coproduct recursion grows exponentially"
        )
    if size > WARN_PARTS and (args.method == "oracle" or size <= hopf.MAX_PARTS):
        print(f"warning: {subject}; {growth} and will be slow", file=sys.stderr)
    _emit_element(hopf.antipode(x, args.method), args.fmt)
    return 0


def _cmd_primitive(args):
    part = SetPartition.parse(args.partition)
    _emit_element(hopf.primitive(part), args.fmt)
    return 0


def _cmd_atoms(args):
    part = SetPartition.parse(args.partition)
    atoms = part.atoms()
    if args.fmt == "json":
        print(json.dumps([serialize.partition_to_obj(a) for a in atoms]))
    else:
        print("|".join(a.format() for a in atoms))
    return 0


def _cmd_is_atomic(args):
    part = SetPartition.parse(args.partition)
    print(json.dumps(part.is_atomic()))
    return 0


def _cmd_eval(args):
    gamma = SetComposition.parse(args.composition)
    part = SetPartition.parse(args.partition)
    result = gamma.evaluate(part)
    if args.fmt == "json":
        print(json.dumps(serialize.partition_to_obj(result)))
    else:
        print(_label(result))
    return 0


def _cmd_qshuffle(args):
    u = Word.parse(args.left)
    v = Word.parse(args.right)
    shuffled = words.left_quasi_shuffle(u, v) if args.left_only else words.quasi_shuffle(u, v)
    ordered = sorted(shuffled, key=Word.sort_key)
    if args.fmt == "json":
        print(json.dumps([serialize.word_to_obj(w) for w in ordered]))
    else:
        for w in ordered:
            print(_label(w))
    return 0


def _cmd_lyndon(args):
    word = args.word
    if not word:
        raise ValueError("empty word")
    lyndon = words.is_lyndon(word)
    split = words.lyndon_split(word) if lyndon and len(word) > 1 else None
    if args.fmt == "json":
        print(json.dumps({"lyndon": lyndon, "factorization": list(split) if split else None}))
    else:
        print(json.dumps(lyndon))
        if split:
            print(f"({split[0]},{split[1]})")
    return 0


def _tree_to_obj(tree):
    if isinstance(tree, tuple) and len(tree) == 2:
        return [_tree_to_obj(tree[0]), _tree_to_obj(tree[1])]
    return tree


def _cmd_hall(args):
    word = args.word
    if not word:
        raise ValueError("empty word")
    tree = words.hall_tree(word)
    if args.fmt == "json":
        print(json.dumps(_tree_to_obj(tree)))
    else:
        print(words.bracket_format(tree))
    return 0


def _cmd_enumerate(args):
    streams = {
        "partitions": setparts.set_partitions,
        "atomic": setparts.atomic_set_partitions,
        "compositions": setparts.set_compositions,
        "anchored": setparts.anchored_compositions,
    }
    stream = streams[args.kind](args.size)
    if args.count:
        total = sum(1 for _ in stream)
        if args.fmt == "json":
            print(json.dumps({"count": total}))
        else:
            print(total)
        return 0
    if args.fmt == "json":
        encode = (
            serialize.partition_to_obj
            if args.kind in ("partitions", "atomic")
            else serialize.composition_to_obj
        )
        print(json.dumps([encode(obj) for obj in stream]))
    else:
        for obj in stream:
            print(_label(obj))
    return 0


def _cmd_verify(args):
    names = None
    if args.checks is not None:
        names = [token.strip() for token in args.checks.split(",") if token.strip()]
    results = verify.run_checks(args.max_weight, names, args.seed)
    failed = [r for r in results if not r.ok]
    for result in failed:
        for detail in result.failures:
            print(json.dumps({"check": result.name, "detail": detail}), file=sys.stderr)
    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "max_weight": args.max_weight,
                    "seed": args.seed,
                    "ok": not failed,
                    "checks": [
                        {
                            "name": r.name,
                            "ok": r.ok,
                            "cases": r.cases,
                            "failures": len(r.failures),
                        }
                        for r in results
                    ],
                }
            )
        )
    else:
        stamp = datetime.now().isoformat(timespec="seconds")
        print(f"# verify max-weight={args.max_weight} seed={args.seed} started {stamp}")
        for r in results:
            status = "ok" if r.ok else "FAIL"
            extra = "" if r.ok else f" failures={len(r.failures)}"
            print(f"{status} {r.name} cases={r.cases}{extra}")
        total = sum(r.cases for r in results)
        if failed:
            print(f"failed {len(failed)} of {len(results)} checks ({total} cases)")
        else:
            print(f"passed {len(results)} checks ({total} cases)")
    return 1 if failed else 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json"),
        default="text",
        help="output encoding (default text)",
    )
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description="Exact computations in the Hopf algebra of set partitions "
        "(powersum basis), with set-composition and quasi-shuffle combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", parents=[common], help="concatenation product of two partitions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("coproduct", parents=[common], help="block-split coproduct of a partition")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_coproduct)

    p = sub.add_parser("counit", parents=[common], help="counit of a partition")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_counit)

    p = sub.add_parser("antipode", parents=[common], help="antipode of a partition")
    p.add_argument("partition")
    p.add_argument(
        "--method",
        choices=("direct", "factored", "oracle"),
        default="factored",
        help=f"direct composition sum (at most {hopf.MAX_PARTS} blocks), factored: by "
        "atoms, each atom's composition sum by first-part recursion, up to 3^r pairs "
        f"for r blocks (default; at most {hopf.MAX_PARTS} blocks per atom), or the "
        "oracle recursion",
    )
    p.set_defaults(handler=_cmd_antipode)

    p = sub.add_parser("primitive", parents=[common], help="primitive element attached to a partition")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_primitive)

    p = sub.add_parser("atoms", parents=[common], help="maximal atomic splitting of a partition")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_atoms)

    p = sub.add_parser("is-atomic", parents=[common], help="test whether a partition is atomic")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_is_atomic)

    p = sub.add_parser("eval", parents=[common], help="apply a set composition to a partition")
    p.add_argument("composition")
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("qshuffle", parents=[common], help="quasi-shuffle two disjoint words")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--left",
        dest="left_only",
        action="store_true",
        help="keep only the left quasi-shuffles",
    )
    p.set_defaults(handler=_cmd_qshuffle)

    p = sub.add_parser("lyndon", parents=[common], help="Lyndon test and standard factorization of a letter word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_lyndon)

    p = sub.add_parser("hall", parents=[common], help="Hall bracketing of a Lyndon letter word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_hall)

    p = sub.add_parser("enumerate", parents=[common], help="stream partitions or compositions")
    p.add_argument("kind", choices=("partitions", "atomic", "compositions", "anchored"))
    p.add_argument("size", type=int)
    p.add_argument("--count", action="store_true", help="print only the cardinality")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    p.add_argument("--max-weight", type=int, default=4, dest="max_weight")
    p.add_argument("--checks", default=None, help="comma-separated check names")
    p.add_argument("--seed", type=int, default=0, help="seed for the above-weight-5 samples")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
