"""Tracing from outside the program: wrap covdensity's public functions in spans.

``Tracer.install`` replaces every public function of every covdensity module
with a wrapper that records a span, in every covdensity namespace that binds
it (``entropy`` binds ``density_operator``, ``lab`` binds ``fit_beta``, ``cli``
binds ``eigh``, ...).  It also wraps ``CovarianceMatrix.__post_init__`` (so each
construction is a span) and ``numpy.linalg.eigh`` / ``numpy.linalg.eigvalsh``
(so decompositions are counted where they happen).  ``uninstall`` restores
every original binding.

``numpy.linalg.norm(m, 2)`` reaches its SVD through numpy internals, which no
wrapper on ``numpy.linalg.svd`` sees; SVD-based norms are therefore counted as
``spectral.operator_norm`` calls.

A span records its name, thread id, start, end and parent.  A span opened on a
thread with no open span of its own (a ``lab`` thread-pool worker) takes as
parent the innermost open span of the thread that installed the tracer, which
is blocked in the call that submitted the work.  Spans stay in memory;
``summarize_spans`` turns them into per-name calls, total, self and child time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

Span = namedtuple("Span", "sid parent name tid start end")

DECOMPOSITIONS = ("linalg.eigh", "linalg.eigvalsh", "spectral.operator_norm")


def _count_samples(position, keyword):
    def hook(args, kwargs, result):
        batch = args[position] if len(args) > position else kwargs[keyword]
        return "samples", len(batch)
    return hook


# Quantities read from a traced call's arguments or result, summed per function.
HOOKS = {
    "betafit.fit_beta": lambda args, kwargs, result: ("iterations", result.iterations),
    "network.model_gradients": _count_samples(2, "batch_x"),
    "network.evaluate_loss": _count_samples(2, "xs"),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.extras: dict[tuple[str, str], float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.extras.clear()

    def _enter(self) -> tuple[list, int | None]:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        tail = self._root_stack[-1:]  # a slice, so a concurrent pop cannot raise
        return stack, (tail[0] if tail else None)

    @contextmanager
    def span(self, name: str):
        """Record a span around the enclosed code."""
        stack, parent = self._enter()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end))

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                key, amount = hook(args, kwargs, result)
                with self._lock:
                    self.extras[name, key] = self.extras.get((name, key), 0) + amount
            return result

        return traced

    def install(self) -> None:
        import covdensity
        from covdensity.covariance import CovarianceMatrix

        self._local.stack = self._root_stack
        modules = [covdensity] + [
            importlib.import_module(f"covdensity.{info.name}")
            for info in pkgutil.iter_modules(covdensity.__path__)
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])
        post_init = CovarianceMatrix.__post_init__
        self._patch(CovarianceMatrix, "__post_init__", self.wrap("covariance.CovarianceMatrix", post_init))
        for name in ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self.wrap(f"linalg.{name}", getattr(np.linalg, name)))

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    child_s: float = 0.0


def _union_length(intervals) -> float:
    covered, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def summarize_spans(spans) -> dict[str, NameStats]:
    """Per span name: calls, total (inclusive) time, self time and direct-child time.

    Self time is a span's duration minus the length of the union of its direct
    children's intervals (clipped to the span), so children running at once on
    pool threads are not subtracted twice.  Child time is the plain sum of the
    direct children's durations; divided by total time it gives the average
    number of children running at once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    stats: dict[str, NameStats] = {}
    for span in spans:
        kids = children.get(span.sid, ())
        covered = _union_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids if k.end > span.start and k.start < span.end
        )
        entry = stats.setdefault(span.name, NameStats())
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += span.end - span.start - covered
        entry.child_s += sum(k.end - k.start for k in kids)
    return stats


def decompositions_under(spans, root_names) -> dict[str, int]:
    """Outermost decomposition spans below each named root span.

    A decomposition (``DECOMPOSITIONS``) nested inside another one, such as an
    eigvalsh that a future operator_norm might call, is part of its outer call
    and is not counted again.
    """
    by_id = {span.sid: span for span in spans}
    counts = dict.fromkeys(root_names, 0)
    for span in spans:
        if span.name not in DECOMPOSITIONS:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in DECOMPOSITIONS and parent.name not in counts:
            parent = by_id.get(parent.parent)
        if parent is not None and parent.name in counts:
            counts[parent.name] += 1
    return counts
