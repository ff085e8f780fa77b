"""Command-line interface: shorthand notation in, text or JSON out.

The subcommands are declared once, in ``_COMMANDS``.  ``main`` parses with the
top parser and one parser per subcommand, built on its first call and kept
for the life of the process.  An argv whose first token names a subcommand
is parsed once, by that subcommand's parser, which is all the top parser
would do with it; any other argv, and one that leaves arguments over, goes
through the top parser, so usage lines, messages and exit codes are as the
top parser gives them.

Exit codes: 0 on success, 1 when ``verify`` finds a failing check, 2 for
unparseable or invalid input (the message names the offending token), for a
call whose predicted count of values, splits, compositions or terms exceeds
``setparts.WORK_LIMIT`` (``enumerate`` here, every other route in the
library), for input too large to compute (recursion limit or memory
exhausted) and for a ``TypeError`` escaping a command, and 130 when
interrupted (Ctrl-C), each error with one ``error:`` line on stderr.  When
the reader of stdout goes away early (``ncsym enumerate partitions 10 | head
-1``), the exit code is 141 (128 + SIGPIPE), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime

from . import hopf, serialize, setparts, verify, words
from .hopf import NCSymElement, TensorElement
from .setparts import SetComposition, SetPartition, _label
from .words import Word

__all__ = ["main", "build_parser"]

_STREAMS = {
    "partitions": setparts.set_partitions,
    "atomic": setparts.atomic_set_partitions,
    "compositions": setparts.set_compositions,
    "anchored": setparts.anchored_compositions,
}


def _atomic_count(n):
    # A partition is its first atom times the rest: Bell(m) = sum a(k) Bell(m - k).
    bell, atomic = setparts.bell_numbers(n), [0]
    for m in range(1, n + 1):
        atomic.append(bell[m] - sum(atomic[k] * bell[m - k] for k in range(1, m)))
    return atomic[n]


# The exact size of each stream, for ``enumerate --count``.  An anchored
# composition is the part holding 1, with j of the n - 1 others, then a
# composition of the rest: sum_j C(n-1, j) Fubini(n-1-j), which the first-part
# recurrence of Fubini(n - 1) makes 2 Fubini(n - 1) once n >= 2.
_COUNTS = {
    "partitions": lambda n: setparts.bell_numbers(n)[n],
    "atomic": _atomic_count,
    "compositions": lambda n: setparts.fubini_numbers(n)[n],
    "anchored": lambda n: min(n, 2) * setparts.fubini_numbers(n)[n - 1],
}


def _emit(value, fmt):
    """Print an element, a tensor or a partition in the chosen encoding."""
    if fmt != "json":
        print(_label(value) if isinstance(value, SetPartition) else value)
    elif isinstance(value, TensorElement):
        print(json.dumps(serialize.tensor_to_obj(value)))
    elif isinstance(value, NCSymElement):
        print(json.dumps(serialize.element_to_obj(value)))
    else:
        print(json.dumps(serialize.partition_to_obj(value)))


def _emit_all(values, fmt):
    """Print partitions, compositions or words one per line, or as one JSON
    list (one encoder serves all three)."""
    if fmt == "json":
        print(json.dumps([serialize.partition_to_obj(v) for v in values]))
    else:
        for v in values:
            print(_label(v))


def _element(text):
    return NCSymElement.from_partition(SetPartition.parse(text))


def _cmd_product(args):
    return _element(args.left) * _element(args.right)


def _cmd_coproduct(args):
    return hopf.coproduct(_element(args.partition))


def _cmd_counit(args):
    print(json.dumps(hopf.counit(_element(args.partition))))


def _cmd_antipode(args):
    return hopf.antipode(_element(args.partition), args.method)


def _cmd_primitive(args):
    return hopf.primitive(SetPartition.parse(args.partition))


def _cmd_atoms(args):
    atoms = SetPartition.parse(args.partition).atoms()
    if args.fmt == "json":
        print(json.dumps([serialize.partition_to_obj(a) for a in atoms]))
    else:
        print("|".join(a.format() for a in atoms))


def _cmd_is_atomic(args):
    print(json.dumps(SetPartition.parse(args.partition).is_atomic()))


def _cmd_eval(args):
    return SetComposition.parse(args.composition).evaluate(SetPartition.parse(args.partition))


def _cmd_qshuffle(args):
    shuffle = words.left_quasi_shuffle if args.left_only else words.quasi_shuffle
    shuffled = shuffle(Word.parse(args.left), Word.parse(args.right))
    _emit_all(sorted(shuffled, key=Word.sort_key), args.fmt)


def _cmd_lyndon(args):
    lyndon = words.is_lyndon(args.word)  # an empty word raises "empty word"
    split = words.lyndon_split(args.word) if lyndon and len(args.word) > 1 else None
    if args.fmt == "json":
        print(json.dumps({"lyndon": lyndon, "factorization": list(split) if split else None}))
    else:
        print(json.dumps(lyndon))
        if split:
            print(f"({split[0]},{split[1]})")


def _cmd_hall(args):
    tree = words.hall_tree(args.word)
    if args.fmt == "json":
        print(json.dumps(tree))  # a bracket is a pair, which JSON writes as a list
    else:
        print(words.bracket_format(tree))


def _check_enumerable(kind, n):
    """Refuse ``kind`` at size ``n`` if Bell(n) (partitions) or Fubini(n)
    (compositions) exceeds the work limit."""
    if kind in ("partitions", "atomic"):
        name, numbers = "Bell", setparts.bell_numbers
    else:
        name, numbers = "Fubini", setparts.fubini_numbers
    message = "enumerate {1} {0}: predicted count {2}({0}) {count}"
    setparts._check_growth(lambda m: numbers(m)[-1], n, message, n, kind, name)


def _cmd_enumerate(args):
    _check_enumerable(args.kind, args.size)
    if not args.count:
        _emit_all(_STREAMS[args.kind](args.size), args.fmt)
        return
    count = _COUNTS[args.kind](setparts._checked_size(args.size))
    print(json.dumps({"count": count}) if args.fmt == "json" else count)


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
        checks = [
            {"name": r.name, "ok": r.ok, "cases": r.cases, "failures": len(r.failures)}
            for r in results
        ]
        report = {"max_weight": args.max_weight, "seed": args.seed, "ok": not failed}
        print(json.dumps({**report, "checks": checks}))
    else:
        stamp = datetime.now().isoformat(timespec="seconds")
        print(f"# verify max-weight={args.max_weight} seed={args.seed} started {stamp}")
        for r in results:
            status = "ok" if r.ok else "FAIL"
            extra = "" if r.ok else f" failures={len(r.failures)}"
            print(f"{status} {r.name} cases={r.cases}{extra}")
        verdict = f"failed {len(failed)} of" if failed else "passed"
        print(f"{verdict} {len(results)} checks ({sum(r.cases for r in results)} cases)")
    return 1 if failed else 0


# (name, help, positional arguments, handler) of each subcommand.  A handler
# prints its output and returns None or an exit code, or returns a value for
# ``_emit`` to print: an element, a tensor or a partition.
_COMMANDS = (
    ("product", "concatenation product of two partitions", ("left", "right"), _cmd_product),
    ("coproduct", "block-split coproduct of a partition", ("partition",), _cmd_coproduct),
    ("counit", "counit of a partition", ("partition",), _cmd_counit),
    ("antipode", "antipode of a partition", ("partition",), _cmd_antipode),
    ("primitive", "primitive element attached to a partition", ("partition",), _cmd_primitive),
    ("atoms", "maximal atomic splitting of a partition", ("partition",), _cmd_atoms),
    ("is-atomic", "test whether a partition is atomic", ("partition",), _cmd_is_atomic),
    ("eval", "apply a set composition to a partition", ("composition", "partition"), _cmd_eval),
    ("qshuffle", "quasi-shuffle two disjoint words", ("left", "right"), _cmd_qshuffle),
    ("lyndon", "Lyndon test and standard factorization of a letter word", ("word",), _cmd_lyndon),
    ("hall", "Hall bracketing of a Lyndon letter word", ("word",), _cmd_hall),
    ("enumerate", "stream partitions or compositions", (), _cmd_enumerate),
    ("verify", "run the invariant suites", (), _cmd_verify),
)


def build_parser():
    return _build_parsers()[0]


def _build_parsers():
    """The top parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description="Exact computations in the Hopf algebra of set partitions "
        "(powersum basis), with set-composition and quasi-shuffle combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, positionals, handler in _COMMANDS:
        commands[name] = p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "json"),
            default="text",
            help="output encoding (default text)",
        )
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(handler=handler)
    commands["antipode"].add_argument(
        "--method",
        choices=hopf._ANTIPODE_METHODS,
        default="factored",
        help="direct composition sum (Fubini(r) compositions for r blocks), factored: by "
        "atoms, each atom's composition sum by last-part recursion, up to 3^r splits for "
        "an atom of r blocks (default), or the oracle recursion (up to 3^r splits); a "
        f"predicted count over {setparts.WORK_LIMIT} is refused",
    )
    commands["qshuffle"].add_argument(
        "--left",
        dest="left_only",
        action="store_true",
        help="keep only the left quasi-shuffles",
    )
    p = commands["enumerate"]
    p.add_argument("kind", choices=_STREAMS)
    p.add_argument("size", type=int)
    p.add_argument("--count", action="store_true", help="print only the cardinality")
    p = commands["verify"]
    p.add_argument(
        "--max-weight",
        type=int,
        default=4,
        dest="max_weight",
        help=f"largest weight swept (at most {verify.MAX_WEIGHT})",
    )
    p.add_argument("--checks", default=None, help="comma-separated check names")
    p.add_argument("--seed", type=int, default=0, help="seed for the above-weight-5 samples")
    return parser, commands


# The parsers ``main`` shares across calls: argparse only reads them while parsing.
_shared_parsers = functools.cache(_build_parsers)


def _parse(argv):
    """``build_parser().parse_args(argv)``, with one parse level when the
    first token names a subcommand and nothing is left over: the top parser
    would hand the rest of argv to that subcommand's parser as it is."""
    parser, commands = _shared_parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def _drop_stdout():
    """Point stdout's descriptor at the null device, so that the flush at
    exit does not fail on the closed pipe again.  A stdout without a
    descriptor (an in-memory stream) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.handler(args)
        if result is not None and not isinstance(result, int):
            _emit(result, args.fmt)
            result = 0
        # Flushed here, so that a reader gone before the exit is met below.
        sys.stdout.flush()
        return result or 0
    except BrokenPipeError:
        _drop_stdout()
        return 141
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except RecursionError:
        print("error: input too large: recursion limit exceeded", file=sys.stderr)
    except MemoryError:
        print("error: input too large: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
