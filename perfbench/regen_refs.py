"""Regenerate the stored references under perfbench/refs/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/regen_refs.py [antipode.json ...]

With file names, only those files are rebuilt.

antipode.json        every input the antipode workload can draw; inputs of
                     at most MAX_PARTS blocks are stored only where
                     antipode_direct and antipode_oracle agree, larger ones
                     come from the oracle alone
primitive_rank.json  primitive dimensions (which must be 1, 1, 3, 9, 34, 135),
                     the Lyndon atom words and hall_span_check for n = 1..6
cli.json             the cli workload's argv pool with golden exit code,
                     stdout and stderr

The verify workload needs no stored values: every check must report ok.
"""

from __future__ import annotations

import json
import sys

import workloads
from ncsym import cli, hopf, setparts

PRIMITIVE_DIMENSIONS = (1, 1, 3, 9, 34, 135)

# Each subcommand with small inputs; costs stay between about 0.1 and 120 ms.
CLI_POOL = [
    ["product", "13.2", "12"],
    ["product", "1", "1", "--format", "json"],
    ["product", "124.3", "1.2.3.4.5.6.7.8.9"],
    ["product", "∅", "13.2", "--format", "json"],
    ["coproduct", "13.2.4"],
    ["coproduct", "12.35.4", "--format", "json"],
    ["coproduct", "1.2.3.4.5.6.7.8.9"],
    ["coproduct", "14.2.3.5.6.7", "--format", "json"],
    ["counit", "∅"],
    ["counit", "12.3", "--format", "json"],
    ["antipode", "13.2.4"],
    ["antipode", "15.2.3.4", "--format", "json"],
    ["antipode", "16.2.3.4.5"],
    ["antipode", "12.3", "--method", "oracle", "--format", "json"],
    ["antipode", "13.2.45", "--method", "direct"],
    ["primitive", "13.2"],
    ["primitive", "14.2.3", "--format", "json"],
    ["primitive", "16.27.3.4.5"],
    ["primitive", "12.3", "--format", "json"],
    ["atoms", "12.346.57.8"],
    ["atoms", "1.2.3", "--format", "json"],
    ["is-atomic", "13.2"],
    ["is-atomic", "12.3", "--format", "json"],
    ["eval", "13|2", "13.29.458.7"],
    ["eval", "2|13", "13.2.4", "--format", "json"],
    ["qshuffle", "1|3", "24"],
    ["qshuffle", "1|2", "3|4", "--left", "--format", "json"],
    ["qshuffle", "1|2|3", "4|5|6"],
    ["lyndon", "aab"],
    ["lyndon", "aabab", "--format", "json"],
    ["lyndon", "abab"],
    ["hall", "aab"],
    ["hall", "aabab", "--format", "json"],
    ["enumerate", "partitions", "5"],
    ["enumerate", "atomic", "6", "--count"],
    ["enumerate", "compositions", "4", "--format", "json"],
    ["enumerate", "anchored", "5", "--count", "--format", "json"],
    ["enumerate", "partitions", "7", "--count"],
    ["verify", "--checks", "counit-laws", "--max-weight", "4", "--format", "json"],
    ["verify", "--checks", "restriction-sum", "--max-weight", "5", "--format", "json"],
    ["verify", "--checks", "cocommutativity", "--max-weight", "3", "--format", "json"],
    ["verify", "--checks", "hall-span", "--max-weight", "4", "--format", "json"],
    ["verify", "--checks", "unitriangular", "--max-weight", "4", "--format", "json"],
    # Invalid input: each must exit 2 with its message.
    ["product", "1a", "2"],
    ["antipode", "13.3", "--format", "json"],
    ["eval", "1|1", "12"],
    ["qshuffle", "12", "23"],
    ["qshuffle", "1|3", "3|4", "--left", "--format", "json"],
]


def _antipode_refs():
    refs = {}
    pool = workloads.antipode_pool()
    for cls, inputs in pool.items():
        for atoms in inputs:
            part = workloads.concat_atoms(setparts, atoms)
            oracle = hopf.antipode_oracle(part)
            if part.length <= hopf.MAX_PARTS:
                direct = hopf.antipode_direct(part)
                if direct != oracle:
                    sys.exit(f"antipode routes disagree on {part.format('extended')}")
            refs[part.format("extended")] = workloads.canon_element(oracle)
            print(f"antipode {cls:7} {part.format('extended')}", file=sys.stderr)
    return refs


def _primitive_refs():
    refs = {}
    for n, dim in enumerate(PRIMITIVE_DIMENSIONS, start=1):
        words = [[atom.format() for atom in word] for word in hopf.lyndon_atom_words(n)]
        found = hopf.primitive_space_dimension(n)
        span = hopf.hall_span_check(n)
        if found != dim or len(words) != dim or span is not True:
            sys.exit(f"primitive-rank reference mismatch at n={n}")
        refs[f"primitive_space_dimension({n})"] = found
        refs[f"lyndon_atom_words({n})"] = words
        refs[f"hall_span_check({n})"] = span
    return refs


def _cli_refs():
    refs = []
    for argv in CLI_POOL:
        code, out, err = workloads.cli_call(cli, argv)
        if argv[0] == "verify" and (code != 0 or not json.loads(out)["ok"]):
            sys.exit(f"verify failed: {argv}")
        if code not in (0, 2):
            sys.exit(f"unexpected exit {code} for {argv}")
        refs.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    return refs


def main(argv=None):
    names = {"antipode.json": _antipode_refs, "primitive_rank.json": _primitive_refs, "cli.json": _cli_refs}
    wanted = argv if argv else list(names)
    workloads.REFS.mkdir(exist_ok=True)
    for name in wanted:
        make = names[name]
        data = make()
        with open(workloads.REFS / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
