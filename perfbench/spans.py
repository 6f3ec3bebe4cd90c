"""In-memory span tracing from outside the program, plus a sampling
profiler.

The traced run wraps public functions of the program (module functions
and class methods) so each call records a span: a name, a start, an
end, the span that was open when it started, and the trial id it
belongs to.  Spans stay in memory; the caller reduces them after the
run.  Nothing under ``src/`` changes: :func:`patch_function` rebinds a
function in every loaded module that imported it, and
:meth:`Patches.restore` puts the originals back.

A layer's *self time* is a span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None      # index into the recorder's spans
    trial: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack.  ``open``/``close`` bracket a call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str, trial: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if trial is None:
            trial = self.spans[parent].trial if parent is not None else ""
        self.spans.append(Span(name, self.clock(), parent=parent,
                               trial=trial))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out "
                               f"of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the time its children cover
    (children clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            p = spans[span.parent]
            lo, hi = max(span.start, p.start), min(span.end, p.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    return [span.duration - _covered(children.get(i, []))
            for i, span in enumerate(spans)]


# ----------------------------------------------------------------------
# Wrapping the program's functions
# ----------------------------------------------------------------------
class Patches:
    """Records every rebinding so it can be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def patch_function(patches: Patches, fn: Callable, wrapper: Callable,
                   prefix: str = "repro") -> int:
    """Rebind ``fn`` to ``wrapper`` wherever a loaded module under
    ``prefix`` holds it.  Returns how many bindings changed."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix
                                  or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.set(module, attr, wrapper)
                count += 1
    return count


def patch_method(patches: Patches, cls: type, attr: str,
                 make_wrapper: Callable[[Callable], Callable]) -> None:
    patches.set(cls, attr, make_wrapper(cls.__dict__[attr]))


def spanned(recorder: SpanRecorder, name: str, fn: Callable,
            trial_of: Optional[Callable[..., Optional[str]]] = None,
            after: Optional[Callable[[Any, tuple, dict], None]] = None
            ) -> Callable:
    """``fn`` wrapped in a span.  ``trial_of(*args, **kwargs)`` names
    the trial the call starts (None: inherit the parent's); ``after``
    sees each result, for counting."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        trial = trial_of(*args, **kwargs) if trial_of is not None else None
        idx = recorder.open(name, trial)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Sampling profiler
# ----------------------------------------------------------------------
class Sampler:
    """Samples the main thread's innermost frame every ``interval``
    seconds and charges the elapsed wall time to its module.

    A sampler instead of :mod:`cProfile`: cProfile adds cost to every
    call and would double a serial run; sampling costs the sampler
    thread's own CPU time, reported as :attr:`overhead_s`.
    """

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.by_module: Dict[str, float] = {}
        self.samples = 0
        self.overhead_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = threading.main_thread().ident

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-sampler")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                raise RuntimeError("sampler thread did not stop")

    def _loop(self) -> None:
        last = time.perf_counter()
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            now = time.perf_counter()
            if frame is not None:
                module = frame.f_globals.get("__name__", "?")
                self.by_module[module] = (self.by_module.get(module, 0.0)
                                          + now - last)
                self.samples += 1
            last = now
        self.overhead_s = time.thread_time()
