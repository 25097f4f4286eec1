"""Spans recorded from outside the library, around its public functions.

A :class:`Tracer` keeps every span in memory as a tuple
``(name, start, end, parent, operation)``; ``parent`` is the id (list index)
of the enclosing span or -1.  :func:`install` swaps each target function for a
recording wrapper in every module of the package that binds it (or on the
class that defines it) and puts every original back on exit, so the
library's source is never touched.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]
# (span name, function or (class, attribute name), hook or None)
Target = Tuple[str, object, Optional[Callable]]


class Tracer:
    """In-memory span recorder plus named counters filled by call hooks."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.operation = 0
        self._stack: List[Tuple[int, str]] = []

    def next_operation(self):
        """Start a new operation; later spans carry its id."""
        self.operation += 1

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Wrapper recording one span per call of ``fn``.

        ``hook(tracer, args, kwargs, result)`` runs after the span is closed,
        and only for calls not nested directly in a span of the same name (a
        function recursing into itself counts once).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent, parent_name = stack[-1] if stack else (-1, None)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.operation)
            if hook is not None and parent_name != name:
                hook(self, args, kwargs, result)
            return result

        return traced


def _bindings(fn, package: str):
    """(module, attribute) pairs under ``package`` that currently hold ``fn``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


@contextlib.contextmanager
def install(tracer: Tracer, targets: Iterable[Target], package: str):
    """Route every target through ``tracer`` for the duration of the block.

    A target is a plain function, rebound wherever a module of ``package``
    holds it, or a ``(class, attribute)`` pair for a method.
    """
    patched = []
    try:
        for name, target, hook in targets:
            if isinstance(target, tuple):
                owner, attr = target
                original = vars(owner)[attr]
                holders = [(owner, attr)]
            else:
                original = target
                holders = list(_bindings(target, package))
            wrapper = tracer.wrap(name, original, hook)
            for holder, attr in holders:
                patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] not covered by the union of the child intervals."""
    covered = 0.0
    run_start = run_end = None
    for c_start, c_end in sorted((max(s, start), min(e, end)) for s, e in children):
        if c_end <= c_start:
            continue
        if run_end is None or c_start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = c_start, c_end
        else:
            run_end = max(run_end, c_end)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``seconds``, ``calls`` and ``self_seconds``.

    Only spans not nested in a span of the same name count, so recursion is
    not timed twice.  Self time subtracts the direct children's spans.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"seconds": 0.0, "calls": 0, "self_seconds": 0.0})
    for sid, (name, start, end, parent, _) in enumerate(spans):
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor >= 0:
            continue
        entry = out[name]
        entry["seconds"] += end - start
        entry["calls"] += 1
        entry["self_seconds"] += self_time(start, end, children.get(sid, ()))
    return out


def write_csv(spans: List[Span], path):
    """Dump the spans, one per line, in id order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent,operation\n")
        for sid, (name, start, end, parent, operation) in enumerate(spans):
            fh.write(f"{sid},{name},{start!r},{end!r},{parent},{operation}\n")
