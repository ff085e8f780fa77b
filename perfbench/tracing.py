"""Span tracer for the benchmark's traced runs, installed from outside ncsym.

``install(tracer)`` rebinds the public functions and methods of each ncsym
module to wrappers that open a span per call.  Every binding is patched, not
only the defining one, because several modules import names by value (for
example ``hopf.set_compositions`` or ``hopf.integer_rank``).  Nothing is ever
unpatched: traced runs happen in a fresh interpreter of their own.

Spans are kept in memory, aggregated by (parent span, span) so that verify's
millions of enumerator steps stay small, and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
Time the tracer spends counting terms or matrix entries is charged to no
span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# Enumerator items that count as antipode and primitive summands.
ANTIPODE_SUMMANDS = ("setparts.set_compositions.items", "setparts.refinements.items")
PRIMITIVE_SUMMANDS = ("setparts.anchored_compositions.items",)


class Tracer:
    """Open-span stack plus per-span and per-edge totals and named counts."""

    def __init__(self):
        # Frame: [name, time covered by children, start].
        self.stack = [["bench", 0.0, _clock()]]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> same
        self.counts = Counter()
        self.ops = []  # (key, start, end) of each top-level op

    def enter(self, name):
        self.stack.append([name, 0.0, _clock()])

    def leave(self):
        end = _clock()
        name, covered, start = self.stack.pop()
        parent = self.stack[-1]
        duration = end - start
        parent[1] += duration
        for row in (self.spans[name], self.edges[(parent[0], name)]):
            row[0] += 1
            row[1] += duration
            row[2] += duration - covered
        return end

    def hide(self, since):
        """Charge the time since ``since`` to no span."""
        self.stack[-1][1] += _clock() - since

    def op(self, key, thunk):
        """Run one top-level op inside its own span."""
        self.enter("bench.op")
        start = self.stack[-1][2]
        try:
            return thunk()
        finally:
            self.ops.append((key, start, self.leave()))

    def flat(self):
        """Every span's calls, self time and total time, plus the counts."""
        out = dict(self.counts)
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        summands = out.get("hopf.antipode.summands", 0)
        out["hopf.antipode.survival_ratio"] = (
            out.get("hopf.antipode.terms_out", 0) / summands if summands else 0.0
        )
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "ops": [{"key": k, "start": s, "end": e} for k, s, e in self.ops],
                    "edges": [
                        {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                        for (p, n), (c, t, s) in sorted(self.edges.items())
                    ],
                },
                fh,
                indent=1,
            )


def _span(tracer, name, fn, sizes=None, summands=None, terms=None):
    """Wrap ``fn`` in a span.

    ``sizes(*args)`` returns counts taken from the arguments; ``summands``
    names counters whose growth during the call is this call's summands;
    ``terms(result)`` returns the output size counted as ``<name>.<terms>``.
    """
    counts = tracer.counts
    terms_name = f"{name}.{terms[0]}" if terms else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sizes is not None:
            begin = _clock()
            counts.update({f"{name}.{k}": v for k, v in sizes(*args).items()})
            tracer.hide(begin)
        if summands is not None:
            before = sum(counts[c] for c in summands)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.leave()
        if summands is not None:
            counts[f"{name}.summands"] += sum(counts[c] for c in summands) - before
        if terms is not None:
            counts[terms_name] += terms[1](result)
            tracer.hide(end)
        return result

    return wrapper


class _Steps:
    """Iterator whose every ``next()`` is a span that counts its item."""

    __slots__ = ("tracer", "name", "items", "it")

    def __init__(self, tracer, name, it):
        self.tracer = tracer
        self.name = name
        self.items = f"{name}.items"
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        self.tracer.enter(self.name)
        try:
            item = next(self.it)
        finally:
            self.tracer.leave()
        self.tracer.counts[self.items] += 1
        return item


def _enumerator(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            tracer.leave()
        return _Steps(tracer, name, it)

    return wrapper


def _count_init(tracer, cls, name):
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        tracer.counts[name] += 1
        original(self, *args, **kwargs)

    cls.__init__ = __init__


def _support_size(element):
    return len(element.support())


def _matrix_sizes(rows):
    """Shape and nonzero count of a matrix given as a list of int rows."""
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "nonzeros": sum(1 for row in rows for v in row if v),
    }


def _rebind(modules, original, wrapper):
    """Point every module attribute and module-level dict value at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = wrapper


def _product(tracer, cls):
    """Span on element-by-element products; scalar multiples pass through."""
    original = cls.__mul__
    spanned = _span(tracer, "hopf.product", original, terms=("terms", _support_size))

    @functools.wraps(original)
    def __mul__(self, other):
        if not isinstance(other, cls):
            return original(self, other)
        return spanned(self, other)

    return __mul__


def install(tracer):
    """Wrap ncsym's public functions; returns a callable for end-of-run counts."""
    import ncsym
    from ncsym import cli, hopf, linalg, serialize, setparts, verify, words

    modules = (ncsym, setparts, words, hopf, linalg, serialize, verify, cli)

    def patch(module, attr, wrapper_of):
        original = getattr(module, attr)
        _rebind(modules, original, wrapper_of(original))

    for attr in (
        "set_partitions",
        "atomic_set_partitions",
        "set_compositions",
        "anchored_compositions",
        "refinements",
    ):
        patch(setparts, attr, lambda f, a=attr: _enumerator(tracer, f"setparts.{a}", f))

    for attr in ("quasi_shuffle", "left_quasi_shuffle"):
        patch(words, attr, lambda f, a=attr: _span(tracer, f"words.{a}", f, terms=("words", len)))
    for attr in ("pairing", "restriction_tensor_sum"):
        patch(words, attr, lambda f, a=attr: _span(tracer, f"words.{a}", f))

    oracle = hopf.antipode_oracle
    oracle_before = oracle.cache_info()
    patch(
        hopf,
        "antipode",
        lambda f: _span(
            tracer,
            "hopf.antipode",
            f,
            summands=ANTIPODE_SUMMANDS,
            terms=("terms_out", _support_size),
        ),
    )
    for attr in ("antipode_direct", "antipode_factored", "antipode_oracle"):
        patch(hopf, attr, lambda f, a=attr: _span(tracer, f"hopf.{a}", f))

    patch(hopf, "coproduct", lambda f: _span(tracer, "hopf.coproduct", f, terms=("terms", _support_size)))
    patch(hopf, "reduced_coproduct", lambda f: _span(tracer, "hopf.reduced_coproduct", f))
    patch(
        hopf,
        "primitive",
        lambda f: _span(
            tracer,
            "hopf.primitive",
            f,
            summands=PRIMITIVE_SUMMANDS,
            terms=("terms_out", _support_size),
        ),
    )
    for attr in ("format_element", "format_tensor"):
        patch(hopf, attr, lambda f: _span(tracer, "hopf.format", f))
    for attr in ("primitive_space_dimension", "lyndon_atom_words", "hall_primitive", "hall_span_check"):
        patch(hopf, attr, lambda f, a=attr: _span(tracer, f"hopf.{a}", f))

    patch(
        linalg,
        "integer_rank",
        lambda f: _span(tracer, "linalg.integer_rank", f, sizes=_matrix_sizes),
    )
    for attr in serialize.__all__:
        if attr.endswith("_to_obj"):
            patch(serialize, attr, lambda f: _span(tracer, "serialize.encode", f))
    patch(cli, "main", lambda f: _span(tracer, "cli.main", f))

    for cls, attr in (
        (setparts.SetComposition, "evaluate"),
        (setparts.SetComposition, "__call__"),
        (setparts.SetPartition, "atoms"),
    ):
        short = "evaluate" if cls is setparts.SetComposition else attr
        setattr(cls, attr, _span(tracer, f"setparts.{short}", getattr(cls, attr)))
    for cls in (setparts.SetPartition, setparts.SetComposition):
        parse = vars(cls)["parse"].__func__
        cls.parse = classmethod(_span(tracer, "setparts.parse", parse))
    for cls in (hopf.NCSymElement, hopf.TensorElement):
        cls.__mul__ = _product(tracer, cls)

    _count_init(tracer, setparts.SetPartition, "setparts.construct.count")
    _count_init(tracer, setparts.SetComposition, "setparts.construct.count")
    _count_init(tracer, hopf.NCSymElement, "hopf.element.construct.count")
    _count_init(tracer, hopf.TensorElement, "hopf.element.construct.count")

    checks = []
    for name, fn in verify._CHECKS:
        wrapper = _span(tracer, f"verify.{name}", fn, terms=("cases", lambda r: r.cases))
        _rebind(modules, fn, wrapper)
        checks.append((name, wrapper))
    verify._CHECKS = tuple(checks)

    def finish():
        after = oracle.cache_info()
        tracer.counts["hopf.antipode_oracle.hits"] += after.hits - oracle_before.hits
        tracer.counts["hopf.antipode_oracle.misses"] += after.misses - oracle_before.misses

    return finish

