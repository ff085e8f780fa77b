"""Print sha256 fingerprints of ncsym's output, to show that a change keeps
it byte-identical.

One ``<sha256>  <what>`` line each for:

* the stdout of ``ncsym verify --max-weight 7 --format json`` with seeds 0,
  1 and 2, each run in a fresh interpreter;
* the ``str`` of ``coproduct``, ``reduced_coproduct``, the three antipode
  routes and ``primitive`` on every standard partition of weight 1 to 6, in
  ``set_partitions`` order, one line per partition;
* the same for ``antipode_factored`` and ``primitive`` on every standard
  partition of weight 7;
* the same, in one line, on four wide atoms that weight 7 never reaches,
  of 6, 11, 12 and 12 blocks (``WIDE_ATOMS``);
* the same, in one line, on every atomic partition of weight 8, in
  ``atomic_set_partitions`` order: every shape of up to 8 blocks that an
  atom's table of splits can take, two-block atoms included;
* the refusals, one ``<type>: <message>`` line per call, of each
  integer-argument entry point called with -1, True, 1.5 and "2", and of
  each route that predicts 3^r splits (``antipode_factored``,
  ``antipode_oracle``, ``primitive``, ``hall_primitive``) on a 13-block
  atom;
* ``atoms()`` and ``is_atomic()`` of every standard partition of weight 0
  to 9, one line per partition;
* the ``str`` of ``hall_primitive`` on every Lyndon atom word of weight 1
  to 7, in ``lyndon_atom_words`` order, one line per word;
* the (exit code, stdout, stderr) of ``cli.main`` on help and error argv,
  run in process with both streams captured and help wrapped at 80
  columns, one JSON line per argv.

Usage: ``python tools/fingerprint.py``.  It runs the ``src`` tree beside it,
so the same file run from two checkouts compares them.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# No argv, an option first, an unknown name, leftover and missing arguments,
# the "--" separator and a bad option value.
CLI_ARGV = [
    [],
    ["-h"],
    ["antipode", "-h"],
    ["frobnicate"],
    ["antipode", "1", "--bogus"],
    ["antipode", "--", "1"],
    ["product", "1"],
    ["verify", "--max-weight", "x"],
    ["enumerate", "partitions", "3", "extra"],
]


# Atoms of weight 8 to 16, of 6, 11, 12 and 12 blocks: 12 blocks is the
# widest atom the work limit runs.
WIDE_ATOMS = [
    "15.2.38.4.6.7",
    "1,12.2.3.4.5.6.7.8.9.10.11",
    "1,14.2,11.3.4.5.6.7.8.9.10.12.13",
    "1,8.2.3,5.4.6,14.7.9.10.11,16.12.13.15",
]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _refusal(call):
    """``<type>: <message>`` of the exception ``call()`` raises, or
    ``accepted`` when it raises none."""
    try:
        call()
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def main():
    sys.path.insert(0, str(SRC))
    from ncsym import NCSymElement, SetPartition, cli, hopf, setparts, set_partitions, verify

    env = dict(os.environ, PYTHONPATH=str(SRC))
    for seed in range(3):
        argv = ["verify", "--max-weight", "7", "--format", "json", "--seed", str(seed)]
        out = subprocess.run(
            [sys.executable, "-m", "ncsym", *argv], env=env, capture_output=True, check=True
        ).stdout
        print(f"{_digest(out)}  ncsym {' '.join(argv)}")
    parts = [part for n in range(1, 7) for part in set_partitions(n)]
    calls = {
        "coproduct": lambda part: hopf.coproduct(NCSymElement.from_partition(part)),
        "reduced_coproduct": lambda part: hopf.reduced_coproduct(NCSymElement.from_partition(part)),
        "antipode_direct": hopf.antipode_direct,
        "antipode_factored": hopf.antipode_factored,
        "antipode_oracle": hopf.antipode_oracle,
        "primitive": hopf.primitive,
    }
    for name, call in calls.items():
        text = "".join(f"{call(part)}\n" for part in parts)
        print(f"{_digest(text.encode())}  {name} on the {len(parts)} partitions of weight 1-6")
    parts = list(set_partitions(7))
    names = ("antipode_factored", "primitive")
    for name in names:
        text = "".join(f"{calls[name](part)}\n" for part in parts)
        print(f"{_digest(text.encode())}  {name} on the {len(parts)} partitions of weight 7")
    atoms = [SetPartition.parse(text) for text in WIDE_ATOMS]
    text = "".join(f"{calls[name](atom)}\n" for atom in atoms for name in names)
    print(f"{_digest(text.encode())}  antipode_factored and primitive on {len(atoms)} wide atoms")
    atoms = list(setparts.atomic_set_partitions(8))
    text = "".join(f"{calls[name](atom)}\n" for atom in atoms for name in names)
    what = f"antipode_factored and primitive on the {len(atoms)} atomic partitions of weight 8"
    print(f"{_digest(text.encode())}  {what}")
    integer_calls = [
        lambda n: SetPartition.parse("12.3").shift(n),
        set_partitions,
        setparts.atomic_set_partitions,
        setparts.set_compositions,
        setparts.anchored_compositions,
        verify.growth_string_count,
        lambda n: verify.quasi_shuffle_count(n, 2),
        lambda n: verify.quasi_shuffle_count(2, n),
        lambda n: verify.run_checks(n, ["cardinalities"]),
        hopf.lyndon_atom_words,
        hopf.primitive_space_dimension,
        hopf.hall_span_check,
    ]
    atom = SetPartition.parse("1,14.2.3.4.5.6.7.8.9.10.11.12.13")
    split_calls = [
        hopf.antipode_factored,
        hopf.antipode_oracle,
        hopf.primitive,
        lambda atom: hopf.hall_primitive([atom]),
    ]
    refusals = [_refusal(lambda: call(bad)) for call in integer_calls for bad in (-1, True, 1.5, "2")]
    refusals += [_refusal(lambda: call(atom)) for call in split_calls]
    text = "".join(f"{line}\n" for line in refusals)
    print(f"{_digest(text.encode())}  refusals of {len(refusals)} integer-argument and 3^r calls")
    parts = [part for n in range(10) for part in set_partitions(n)]
    text = ""
    for part in parts:
        atoms = "|".join(atom.format("extended") for atom in part.atoms())
        text += f"{part.format('extended')} {atoms} {part.is_atomic()}\n"
    what = f"atoms and is_atomic of the {len(parts)} partitions of weight 0-9"
    print(f"{_digest(text.encode())}  {what}")
    hall_words = [word for n in range(1, 8) for word in hopf.lyndon_atom_words(n)]
    text = "".join(f"{hopf.hall_primitive(word)}\n" for word in hall_words)
    what = f"hall_primitive on the {len(hall_words)} Lyndon atom words of weight 1-7"
    print(f"{_digest(text.encode())}  {what}")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    text = ""
    for argv in CLI_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        text += json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n"
    print(f"{_digest(text.encode())}  cli.main on {len(CLI_ARGV)} help and error argv")


if __name__ == "__main__":
    main()
