"""In-memory spans around the repo's public functions.

The traced run wraps named functions *where their callers look them
up* (``repro.search.packed.weight4_exists``, not the defining module),
so a span measures exactly the calls one layer makes into the next.
Spans nest per thread: each records its parent, and a parent's self
time is its duration minus its direct children's.  Spans stay in
memory while the work runs and are folded into metrics after it.

The untraced run installs no wrappers: end-to-end metrics are measured
without them, and the traced run's own throughput gives the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    child_seconds: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Recorder:
    """Wraps functions in place, records their spans, restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner: object, attr: str, original: Callable, replacement: Callable) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        attrs: Callable[..., dict[str, Any]] | None = None,
        after: Callable[..., dict[str, Any]] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``attrs(*args, **kwargs)`` annotates it before
        the call and ``after(*args, **kwargs)`` once it returns."""
        fn = getattr(owner, attr)
        stack_of = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
            if attrs is not None:
                span.attrs = attrs(*args, **kwargs)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(*args, **kwargs))
                return result
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if span.parent is not None:
                    span.parent.child_seconds += span.seconds
                spans.append(span)

        self._patch(owner, attr, fn, traced)

    def count(
        self, owner: object, attr: str, counter: Callable[..., dict[str, float]]
    ) -> None:
        """Add ``counter(*args, **kwargs)`` to :attr:`counters` on every
        call of ``owner.attr`` (no span)."""
        fn = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            for key, value in counter(*args, **kwargs).items():
                counters[key] += value
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, counted)

    @contextlib.contextmanager
    def dropped(self) -> Iterator[None]:
        """Leave out the spans of calls made inside the block.  Only for
        a block during which no other thread makes traced calls."""
        kept = len(self.spans)
        try:
            yield
        finally:
            del self.spans[kept:]

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.named(*names))

    def self_seconds(self, *names: str) -> float:
        return sum(s.self_seconds for s in self.named(*names))

    def calls(self, *names: str) -> int:
        return len(self.named(*names))
