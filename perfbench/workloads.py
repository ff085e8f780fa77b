"""Seeded workloads of the ncsym benchmark.

Every workload is a closed loop with one client: one process, one thread,
and the next op starts when the previous one returns.  Ops are grouped into
passes with a fixed cost mix, so that a run which ends on a pass boundary
sees the same mix whatever its seed; the seed picks the concrete inputs and
their order.  Inputs are drawn from fixed pools whose expected outputs are
stored under ``refs/`` (see ``regen_refs.py``), so any seed can be checked.

``build(name, seed)`` imports ncsym, generates the inputs and loads the
references; it is the set-up the benchmark times.  This module itself
imports nothing from ncsym, so the runner can read ``WORKLOADS`` without the
library.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

REFS = Path(__file__).resolve().parent / "refs"

# Passes generated at set-up; a run cycles through them.
PASS_CYCLE = 8

WORKLOADS = {
    "antipode": {
        "op": "hopf.antipode(NCSymElement.from_partition(p)) on the default route",
        "loop": "closed, 1 client",
        "pass": "20 ops: the 6-block atom, the 4 five-block atoms, the 4 four-block "
        "atoms, 2 of the 4 three-block atoms, the 8 light inputs of 1-4 atoms, 1 of "
        "4 inputs over MAX_PARTS",
        "limits": "atoms of 2-6 blocks, one 6-block atom (no 7-block atom: 7.5 s each); "
        "at most 4683 summands per op on the factored route; 1 in 20 inputs has 11-12 "
        "blocks, all in atoms of 1-2 blocks, and is refused today",
        "stresses": "setparts enumeration, SetComposition.evaluate, hopf antipode "
        "term accumulation; linalg and words idle",
    },
    "verify": {
        "op": "verify.run_checks(max_weight=6, names=[check], seed=s)",
        "loop": "closed, 1 client",
        "pass": "the 16 checks in CHECK_NAMES order, one seed per pass derived from "
        "the workload seed",
        "limits": "max_weight 6: weight 6 is sampled, weights up to 5 are exhaustive",
        "stresses": "words quasi-shuffle and pairing, setparts enumeration, many small "
        "hopf element operations",
    },
    "primitive-rank": {
        "op": "primitive_space_dimension(n), lyndon_atom_words(n) or hall_span_check(n)",
        "loop": "closed, 1 client",
        "pass": "all 18 ops for n = 1..6 in a seeded order",
        "limits": "n <= 6 (n = 7 takes 18 s per dimension)",
        "stresses": "linalg.integer_rank and reduced-coproduct row building; no "
        "composition-sum antipode",
    },
    "cli": {
        "op": "one in-process cli.main(argv) call with stdout and stderr captured",
        "loop": "closed, 1 client",
        "pass": "the whole argv pool (every subcommand, about half with --format json, "
        "plus invalid argv that must exit 2) in a seeded order",
        "limits": "coproduct <= 9 blocks, antipode and primitive <= 5-block atoms, "
        "enumerate n <= 7, verify runs one cheap check with --format json "
        "(hall-span and unitriangular at weight 4 among them)",
        "stresses": "argparse, parsing, formatting, serialize; per-call overhead; "
        "linalg.integer_rank and the Hall primitives through verify hall-span",
    },
}

# Atomic partitions the antipode inputs are built from, by block count.
ATOMS = {
    2: ("12356.4", "1246.357", "1256.347", "1346.25"),
    3: ("1346.27.5", "1367.2.45", "167.234.5", "167.24.35"),
    4: ("13.247.5.6", "146.2.37.5", "147.2.3.56", "16.2.37.45"),
    5: ("16.2.3.4.57", "16.27.3.4.5", "17.24.3.5.6", "17.26.3.4.5"),
    6: ("15.2.38.4.6.7",),
}

# Cheap inputs of 1-4 atoms, as (block count, index into ATOMS) sequences.
LIGHT = (
    ((2, 0),),
    ((3, 1),),
    ((4, 2),),
    ((2, 1), (2, 3)),
    ((3, 0), (3, 2)),
    ((4, 3), (2, 2)),
    ((2, 0), (3, 3), (2, 1)),
    ((2, 2), (2, 0), (2, 3), (2, 1)),
)

# Inputs over MAX_PARTS = 10 blocks, all in atoms of 1-2 blocks.  The
# factored route refuses them although their antipodes are small; they stay
# in the workload so that this shows in error_rate.
OVER_LIMIT = (
    ("1",) * 11,
    ("1",) * 12,
    ("1",) * 10 + ("12",),
    ("12",) + ("1",) * 10,
)


def concat_atoms(setparts, atoms):
    """Standard partition concatenating the given atom strings, in order."""
    out = setparts.EMPTY_PARTITION
    for atom in atoms:
        out = out.concat(setparts.SetPartition.parse(atom))
    return out


def antipode_pool():
    """Every atom sequence the antipode workload can draw, by input class."""
    pool = {f"atom{k}": [(a,) for a in ATOMS[k]] for k in (6, 5, 4, 3)}
    pool["light"] = [tuple(ATOMS[k][i] for k, i in seq) for seq in LIGHT]
    pool["over"] = list(OVER_LIMIT)
    return pool


def _antipode_passes(rng):
    # Every pass holds the same inputs but three cheap ones, so each heavy
    # input repeats in every pass and its fastest repeat in a run rests on
    # many samples; the seed picks the cheap inputs and the order.
    passes = []
    for _ in range(PASS_CYCLE):
        ops = [(a,) for k in (6, 5, 4) for a in ATOMS[k]]
        ops += [(a,) for a in rng.sample(ATOMS[3], 2)]
        ops += [tuple(ATOMS[b][i] for b, i in seq) for seq in LIGHT]
        ops.append(rng.choice(OVER_LIMIT))
        rng.shuffle(ops)
        passes.append(ops)
    return passes


def canon_element(element):
    """Element as a sorted list of [extended partition string, coefficient]."""
    return sorted([p.format("extended"), c] for p, c in element.items())


def _load(name):
    with open(REFS / name, encoding="utf-8") as fh:
        return json.load(fh)


class Workload(NamedTuple):
    """Passes of (key, thunk) ops plus the check of each op's value.

    ``canon`` turns an op's return value into plain JSON data, and ``check``
    tells whether that data is right for the op's key.
    """

    passes: list
    canon: Callable
    check: Callable


def _build_antipode(seed):
    from ncsym import hopf, setparts

    refs = _load("antipode.json")
    parsed = {}
    passes = []
    for atoms_list in _antipode_passes(random.Random(seed)):
        ops = []
        for atoms in atoms_list:
            if atoms not in parsed:
                parsed[atoms] = concat_atoms(setparts, atoms)
            part = parsed[atoms]
            key = part.format("extended")

            def thunk(part=part):
                return hopf.antipode(hopf.NCSymElement.from_partition(part))

            ops.append((key, thunk))
        passes.append(ops)
    return Workload(passes, canon_element, lambda key, value: refs[key] == value)


def _build_verify(seed):
    from ncsym import verify

    rng = random.Random(seed)
    passes = []
    for _ in range(PASS_CYCLE):
        pass_seed = rng.getrandbits(31)
        ops = []
        for check in verify.CHECK_NAMES:

            def thunk(check=check, pass_seed=pass_seed):
                return verify.run_checks(max_weight=6, names=[check], seed=pass_seed)

            ops.append((f"{check}@{pass_seed}", thunk))
        passes.append(ops)

    def canon(results):
        return [[r.name, r.ok, r.cases] for r in results]

    def check(key, value):
        name = key.split("@")[0]
        return len(value) == 1 and value[0][0] == name and value[0][1] is True

    return Workload(passes, canon, check)


PRIMITIVE_OPS = ("primitive_space_dimension", "lyndon_atom_words", "hall_span_check")


def _build_primitive_rank(seed):
    from ncsym import hopf

    refs = _load("primitive_rank.json")
    rng = random.Random(seed)
    ops = [(f"{fn}({n})", fn, n) for fn in PRIMITIVE_OPS for n in range(1, 7)]
    passes = []
    for _ in range(PASS_CYCLE):
        order = rng.sample(ops, len(ops))
        passes.append(
            [(key, lambda fn=fn, n=n: getattr(hopf, fn)(n)) for key, fn, n in order]
        )

    def canon(value):
        if isinstance(value, list):
            return [[atom.format() for atom in word] for word in value]
        return value

    return Workload(passes, canon, lambda key, value: refs[key] == value)


def cli_call(cli, argv):
    """Run cli.main in process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _build_cli(seed):
    from ncsym import cli

    refs = _load("cli.json")
    rng = random.Random(seed)
    expected = {
        json.dumps(entry["argv"]): [entry["exit"], entry["stdout"], entry["stderr"]]
        for entry in refs
    }
    passes = []
    for _ in range(PASS_CYCLE):
        order = rng.sample([entry["argv"] for entry in refs], len(refs))
        passes.append(
            [(json.dumps(argv), lambda argv=argv: cli_call(cli, argv)) for argv in order]
        )
    return Workload(passes, list, lambda key, value: expected[key] == value)


_BUILDERS = {
    "antipode": _build_antipode,
    "verify": _build_verify,
    "primitive-rank": _build_primitive_rank,
    "cli": _build_cli,
}


def build(name, seed):
    """Import ncsym, generate the seeded passes and load the references."""
    return _BUILDERS[name](seed)
