"""The benchmark's traced run still fits the library.

``perfbench/tracing.py`` rebinds ncsym's module attributes and class methods
by name (each type's own ``parse``, ``format_element``/``format_tensor``, the
``*_to_obj`` encoders, ``__init__`` and ``__mul__`` of the element types), so
a refactor that moves one of them breaks ``perfbench/run.py --trace 1``
without failing any other test.  This runs the first pass of the ``cli`` and
``antipode`` workloads under the tracer, in a fresh interpreter as the
benchmark does, and checks every value against the stored references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import tracing
import workloads

tracer = tracing.Tracer()
finish = tracing.install(tracer)
wrong = []
for name in ("cli", "antipode"):
    work = workloads.build(name, 3)
    for key, thunk in work.passes[0]:
        if not work.check(key, work.canon(tracer.op(key, thunk))):
            wrong.append(key)
finish()
print(json.dumps({"wrong": wrong, "calls": {n: row[0] for n, row in tracer.spans.items()}}))
"""


def test_traced_first_pass_matches_references():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["wrong"] == []
    for span in (
        "cli.main",
        "setparts.parse",
        "hopf.format",
        "serialize.encode",
        "hopf.product",
        "hopf.coproduct",
        "hopf.antipode",
    ):
        assert result["calls"].get(span, 0) > 0, span
