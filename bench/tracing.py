"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces the names circperm's modules import from each
other (``circperm.pipeline.min_recurrence`` and so on) with wrappers that
record a span per call and bump counters from the call's arguments and
return value; `Tracer.restore` puts the originals back.  Span names are
layer names, not function names.  A name that no longer exists is listed
in `untraced` instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _bits(v) -> int:
    den = v.denominator
    return abs(v.numerator).bit_length() + (den.bit_length() if den != 1 else 0)


def _alpha(c, args, r):
    c["transfer.a_bar_nnz"] += sum(1 for row in r[0] for v in row if v)


def _beta(c, args, r):
    c["transfer.states"] += len(r)


def _sequence(c, args, r):
    c["transfer.terms"] += len(r)


def _annihilator(c, args, r):
    c["algebra.annihilator.degree"] += r.degree


def _fit(c, args, r):
    c["algebra.fit.calls"] += 1
    c["algebra.fit.terms_in"] += len(args[0])
    c["algebra.fit.terms_useful"] += 2 * r.order + 4


def _eval(c, args, r):
    c["algebra.eval.result_bits"] += _bits(r)


def _pairing(c, args, r):
    c["extensions.pairing.states"] += r.state_count


def _ryser(c, args, r):
    c["oracle.ryser.calls"] += 1
    c["oracle.ryser.max_dim"] = max(c["oracle.ryser.max_dim"], len(args[0]))


def _ryser_transfer(c, args, r):
    _ryser(c, args, r)
    c["oracle.ryser.calls_transfer"] += 1


def _enumerate(c, args, r):
    c["oracle.enumerate.calls"] += 1


def _verify(c, args, r):
    c["verify.sizes_checked"] += sum(1 for e in r if e.recurrence_value is not None)


# (module, imported name, layer, counter).  Each row names the binding the
# caller looks up at call time, so wrapping it catches every call.
WRAPPED = (
    ("circperm.pipeline", "decompose", "lattice.decompose", None),
    ("circperm.extensions", "decompose", "lattice.decompose", None),
    ("circperm.transfer", "build_alpha", "transfer.alpha", _alpha),
    ("circperm.transfer", "build_beta", "transfer.beta", _beta),
    ("circperm.transfer", "build_initial", "transfer.t0", None),
    ("circperm.pipeline", "sequence", "transfer.sequence", _sequence),
    ("circperm.pipeline", "annihilator_from_blocks", "algebra.annihilator",
     _annihilator),
    ("circperm.pipeline", "min_recurrence", "algebra.fit", _fit),
    ("circperm.extensions", "min_recurrence", "algebra.fit", _fit),
    ("circperm.pipeline", "growth", "algebra.growth", None),
    ("circperm.pipeline", "eval_recurrence", "algebra.eval", _eval),
    ("circperm.extensions", "eval_recurrence", "algebra.eval", _eval),
    ("circperm.cli", "moments_derive", "extensions.pairing", _pairing),
    ("circperm.cli", "hamiltonian_derive", "extensions.pairing", _pairing),
    ("circperm.transfer", "ryser_permanent", "oracle.ryser", _ryser_transfer),
    ("circperm.pipeline", "ryser_permanent", "oracle.ryser", _ryser),
    ("circperm.pipeline", "enumerate_stats", "oracle.enumerate", _enumerate),
    ("circperm.cli", "verify", "pipeline.verify", _verify),
    ("circperm.cli", "derive_report", "report.render", None),
    ("circperm.cli", "render_json", "report.render", None),
    ("circperm.cli", "render_table", "report.render", None),
)
JOB_SPAN = "cli"
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in WRAPPED)) + (JOB_SPAN,)
COUNTS = ("transfer.states", "transfer.a_bar_nnz", "transfer.terms",
          "algebra.fit.calls", "algebra.fit.terms_in", "algebra.fit.terms_useful",
          "algebra.annihilator.degree", "algebra.eval.result_bits",
          "extensions.pairing.states", "oracle.ryser.calls",
          "oracle.ryser.calls_transfer", "oracle.ryser.max_dim",
          "oracle.enumerate.calls", "verify.sizes_checked")


class Tracer:
    """Spans are (name, start, end, parent index, job id) tuples kept in
    memory; `take` hands them over with the counters and starts afresh."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.untraced: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._job = None

    def install(self) -> None:
        for module, name, layer, counter in WRAPPED:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, name, None)
            if fn is None:
                self.untraced.append(f"{module}.{name}")
                continue
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(fn, layer, counter, f"{module}.{name}"))

    def restore(self) -> None:
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    @contextmanager
    def span(self, name: str, job=None):
        if job is not None:
            self._job = job
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._job)

    def _wrap(self, fn, layer, counter, where):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    if where not in self.untraced:
                        self.untraced.append(where)
            return result
        return traced

    def take(self) -> tuple[list, dict]:
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span less the time its children cover."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - children[i]
    return out
