"""In-memory spans and counters around lincat's public entry points.

`installed(tracer)` replaces each traced function by a wrapper in every
lincat module that holds a reference to it, so a name a caller imported
with ``from .derham import get_complex`` is traced as well as the
definition, and restores the originals on exit.  Methods are wrapped on
their class.  Nothing in `src/` is edited.

A span is ``(name, start, end, parent, op)``: `parent` indexes the
enclosing span (or is None) and `op` names the operation the span
belongs to, so the spans of one operation share an identifier.  Counters
are kept per operation as well.  Size counters that need a scan of a
result (composition tensor entries, quotient ranks) run after the traced
call returns, inside a `trace.counters` span, so they never inflate the
self time of the layer they describe.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = "setup"
        self._stack: list[int] = []
        self._complexes: weakref.WeakSet = weakref.WeakSet()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict[str, Counter]:
        """Per operation: span name -> self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, Counter] = defaultdict(Counter)
        for (name, start, end, parent, op), inner in zip(self.spans, child_time):
            out[op][name] += (end - start) - inner
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for op, counts in self.counts.items():
                fh.write(json.dumps({"op": op, "counters": dict(counts)}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# size counters, computed from arguments or results of traced calls


def _count_rref(tracer: Tracer, args) -> None:
    m = args[0]
    tracer.count("exact_linalg.rref_cells", m.rows * m.cols)


def _count_quotient_rows(tracer: Tracer, args) -> None:
    # only the commutator span reduced while building the quotient complex
    if tracer.current() == "derham.complex":
        tracer.count("derham.span_rows", len(args[1]))


def _count_dg(tracer: Tracer, args, result) -> None:
    w = args[0]
    nobj = len(w.base.objects)
    tracer.count("dg.basis_dim_total", sum(
        w.dim(n, x, y) for n in range(w.truncation + 1) for x in range(nobj) for y in range(nobj)
    ))
    entries = nonzero = 0
    for table in w.gr_comp.values():
        for rows in table.values():
            for row in rows:
                for target in row:
                    entries += len(target)
                    nonzero += sum(1 for s in target if s != 0)
    tracer.count("dg.comp_entries", entries)
    tracer.count("dg.comp_nonzero", nonzero)


def _count_complex(tracer: Tracer, args, result) -> None:
    if result in tracer._complexes:
        return  # a memo hit built nothing
    tracer._complexes.add(result)
    for quotient in result.quotients:
        tracer.count("derham.commutator_rank", quotient.subspace_dim)
        tracer.count("derham.quotient_dim", quotient.dim)


def _count_certificate(tracer: Tracer, args, result) -> None:
    tracer.count("chern.certify_span_rows", result.spanning_size)
    tracer.count("chern.certify_terms", len(result.terms))


# (module, attribute, span name or None for a call counter only, hook run
# on the arguments before the call, hook run on the result after it).
# Every entry also counts its calls as "<module>.<function>_calls".
TARGETS = [
    ("lincat.workspace", "load_fixture", "workspace.parse", None, None),
    ("lincat.workspace", "load_workspace", "workspace.parse", None, None),
    ("lincat.workspace", "parse_workspace", "workspace.parse", None, None),
    ("lincat.workspace", "workspace_from_dict", "workspace.parse", None, None),
    ("lincat.workspace", "serialize_workspace", "workspace.serialize", None, None),
    ("lincat.category", "build_category", "category.build", None, None),
    ("lincat.category", "validate_category", "category.validate", None, None),
    ("lincat.dg", "universal_dg", "dg.envelope", None, None),
    ("lincat.dg", "trivial_dg", "dg.envelope", None, None),
    ("lincat.dg", "DGCategory.__init__", None, None, _count_dg),
    ("lincat.dg", "DGCategory.compose", None, None, None),
    ("lincat.dg", "validate_dg", "dg.validate", None, None),
    ("lincat.derham", "get_complex", "derham.complex", None, _count_complex),
    ("lincat.exact_linalg", "build_quotient", None, _count_quotient_rows, None),
    ("lincat.exact_linalg", "rref", "exact_linalg.rref", _count_rref, None),
    ("lincat.module_algebra", "ProjectiveModule.__init__", "module_algebra.module", None, None),
    ("lincat.module_algebra", "direct_sum", "module_algebra.direct_sum", None, None),
    ("lincat.module_algebra", "hs_trace", "module_algebra.hs_trace", None, None),
    ("lincat.connection", "Connection.__init__", "connection.build", None, None),
    ("lincat.connection", "Connection.curvature", "connection.curvature", None, None),
    ("lincat.connection", "Connection.curvature_power", "connection.curvature", None, None),
    ("lincat.connection", "tilde_curvature", "connection.curvature", None, None),
    ("lincat.tforms", "tm_power", "tforms.tm_power", None, None),
    ("lincat.chern", "chern_form", "chern.class", None, None),
    ("lincat.chern", "chern_class", "chern.class", None, None),
    ("lincat.chern", "certify_cocycle", "chern.certify", None, _count_certificate),
    ("lincat.chern", "invariance_certificate", "chern.invariance", None, None),
    ("lincat.chern", "k0_character", "chern.k0", None, None),
    ("lincat.cli", "main", "cli.command", None, None),
]


def _wrap(tracer: Tracer, fn, counter: str, span: str | None, before, after):
    counts = tracer.counts

    if span is None and before is None and after is None:
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[tracer.op][counter] += 1
            return fn(*args, **kwargs)
        return counting

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[tracer.op][counter] += 1
        if before is not None:
            before(tracer, args)
        if span is None:
            result = fn(*args, **kwargs)
        else:
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        if after is not None:
            with tracer.span("trace.counters"):
                after(tracer, args, result)
        return result
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Trace every entry in TARGETS while the block runs."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "lincat" or name.startswith("lincat."))]
    undo: list[tuple] = []
    try:
        for module_name, attr, span, before, after in TARGETS:
            owner = sys.modules[module_name]
            counter = f"{module_name[len('lincat.'):]}.{attr.split('.')[-1].strip('_')}_calls"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, original, counter, span, before, after))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, original, counter, span, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
