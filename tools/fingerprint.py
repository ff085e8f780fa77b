"""Print sha256 fingerprints of ncsym's output, to show that a change keeps
it byte-identical.

One ``<sha256>  <what>`` line each for:

* the stdout of ``ncsym verify --max-weight 7 --format json`` with seeds 0,
  1 and 2, each run in a fresh interpreter;
* the ``str`` of ``coproduct``, ``reduced_coproduct``, the three antipode
  routes and ``primitive`` on every standard partition of weight 1 to 6, in
  ``set_partitions`` order, one line per partition;
* the same for ``antipode_factored`` and ``primitive`` on every standard
  partition of weight 7.

Usage: ``python tools/fingerprint.py``.  It runs the ``src`` tree beside it,
so the same file run from two checkouts compares them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def main():
    sys.path.insert(0, str(SRC))
    from ncsym import NCSymElement, hopf, set_partitions

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
    for name in ("antipode_factored", "primitive"):
        text = "".join(f"{calls[name](part)}\n" for part in parts)
        print(f"{_digest(text.encode())}  {name} on the {len(parts)} partitions of weight 7")


if __name__ == "__main__":
    main()
