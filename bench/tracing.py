"""In-memory span tracer that instruments a package from outside it.

``Tracer.patch(owner, attr, name)`` replaces ``owner.attr`` with a wrapper
that records one span per call, at the attribute the caller looks up (a
module global or a class attribute). Each span records its name, start and
end, parent, thread and trace id, and both wall time and ``time.thread_time``:
under the interpreter lock a call can wait far longer than it computes, and
only the pair shows which. Spans stay in memory until ``dump``.

A span's parent is the innermost open span on its own thread; the first span
on a worker thread takes the innermost open span of the thread that created
the tracer, so worker spans hang under the call that started the pool. Self
time subtracts only children on the same thread, because spans of other
threads overlap their parent instead of nesting in it.

``self_test`` checks all of this against a toy module; run it before
patching the real package.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    trace_id: str | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    child_wall: float = 0.0
    child_cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and threading.get_ident() != self._root_thread and self._root_stack:
            adopted = self._root_stack[-1]
            parent_id, inherited = adopted.id, adopted.trace_id
        else:
            parent_id, inherited = (parent.id, parent.trace_id) if parent else (None, None)
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent_id,
            thread=threading.get_ident(),
            trace_id=trace_id or inherited,
            start=time.perf_counter(),
            cpu_start=time.thread_time(),
        )
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.cpu_end = time.thread_time()
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_wall += span.wall
                parent.child_cpu += span.cpu
            with self._lock:
                self.spans.append(span)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        trace_id: Callable[..., str] | None = None,
        on_result: Callable[..., None] | None = None,
    ) -> Callable:
        """``name`` and ``trace_id`` may be functions of the call's arguments;
        ``on_result(span, result, *args, **kwargs)`` stores attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            tid = trace_id(*args, **kwargs) if trace_id else None
            with self.span(label, tid) as span:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result, *args, **kwargs)
                return result

        return traced

    def patch(self, owner: object, attr: str, name, **kwargs) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, **kwargs))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Finished spans since the last call, in end order."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(spans: list[Span], path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in spans:
                row = asdict(span)
                row.update(wall=span.wall, cpu=span.cpu, self_wall=span.self_wall, self_cpu=span.self_cpu)
                handle.write(json.dumps(row, default=str) + "\n")


def self_test() -> None:
    """Patch a toy module, call it from two threads, and check parents, trace
    ids, self times, error marking and restoration. Raises on any mismatch."""
    toy = types.ModuleType("toy")

    def inner(x):
        time.sleep(0.01)
        return x * 2

    def outer(x):
        return toy.inner(x) + toy.inner(x)

    def failing():
        raise ValueError("toy failure")

    toy.inner, toy.outer, toy.failing = inner, outer, failing
    tracer = Tracer()
    tracer.patch(toy, "inner", "toy.inner")
    tracer.patch(toy, "outer", "toy.outer", trace_id=lambda x: f"job{x}")
    tracer.patch(toy, "failing", "toy.failing")

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(f"tracer self-test: {message}")

    with tracer.span("root", "root"):
        worker = threading.Thread(target=toy.outer, args=(1,))
        worker.start()
        worker.join(10)
        check(not worker.is_alive(), "worker thread did not finish")
        check(toy.outer(2) == 8, "wrapped function changed its result")
    try:
        toy.failing()
    except ValueError:
        pass
    tracer.restore()
    check(toy.inner is inner and toy.outer is outer and toy.failing is failing, "restore left a wrapper in place")

    finished = tracer.take()
    check(len(finished) == 8 and not tracer.spans, f"expected 8 spans drained by take(), got {len(finished)}")
    spans = {(s.name, s.trace_id): s for s in finished}
    root = spans[("root", "root")]
    main_outer, worker_outer = spans[("toy.outer", "job2")], spans[("toy.outer", "job1")]
    check(main_outer.parent == root.id, "same-thread parent not recorded")
    check(worker_outer.parent == root.id, "worker span was not adopted by the root-thread span")
    check(worker_outer.thread != root.thread, "worker span recorded on the wrong thread")
    worker_inner = [s for s in finished if s.name == "toy.inner" and s.parent == worker_outer.id]
    check(len(worker_inner) == 2 and all(s.trace_id == "job1" for s in worker_inner), "trace id not inherited")
    check(abs(root.child_wall - main_outer.wall) < 1e-9, "cross-thread child subtracted from self time")
    check(
        main_outer.child_wall >= 0.02 and abs(main_outer.self_wall - (main_outer.wall - main_outer.child_wall)) < 1e-12,
        "self time is not wall minus children",
    )
    check(spans[("toy.failing", None)].attrs.get("error") == "ValueError", "exception not marked on its span")
