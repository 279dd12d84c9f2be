"""In-memory span recorder that wraps the program's functions from outside.

The benchmark never edits the program to trace it. Instead
:meth:`Tracer.patch` (driven by :func:`perfbench.layers.install`)
replaces functions on their classes or modules with wrappers that
record

* **spans** — name, start, end, parent and request id, plus any counts
  made while the span was open; and
* **tallies** — call count, time and bytes of per-event functions (the
  codec), which would cost too much as one span per call.

The current span lives in a :mod:`contextvars` variable, so nesting is
tracked per thread and per asyncio task, and ``asyncio.to_thread``
carries the parent into its worker thread. Spans stay in memory until
:meth:`Tracer.dump` writes them, at process exit or on ``SIGUSR1``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from pathlib import Path

_now = time.perf_counter_ns
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_in_tally: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_tally", default=frozenset()
)


class _Span:
    __slots__ = ("name", "start", "end", "sid", "parent", "rid", "attrs", "counts")

    def __init__(self, name, sid, parent, rid):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.rid = rid
        self.attrs = None
        self.counts = None
        self.start = 0
        self.end = 0

    def set_rid(self, rid) -> None:
        # A request id found deep in the stack names every enclosing span
        # that had none (the HTTP span learns it from its protocol child).
        span = self
        while span is not None and span.rid is None:
            span.rid = rid
            span = span.parent

    def to_list(self) -> list:
        return [
            self.name, self.start, self.end, self.sid,
            self.parent.sid if self.parent is not None else None,
            self.rid, self.attrs, self.counts,
        ]


class Tracer:
    """Spans and tallies of one process."""

    def __init__(self, out_dir: str | Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.spans: list[_Span] = []
        self.tallies: dict[str, list[int]] = {}
        self.absent: list[str] = []
        self._sids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self._dumps = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _open(self, name, rid):
        parent = _current.get()
        span = _Span(name, next(self._sids), parent, None)
        if rid is not None:
            span.set_rid(rid)
        self.spans.append(span)
        return span

    def span(self, function, name, rid=None, after=None):
        """Wrap ``function`` so that each call records one span.

        ``rid(args, kwargs)`` names the request; ``after(span, args,
        result)`` adds attributes once the call returns.
        """
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span = tracer._open(name, rid(args, kwargs) if rid else None)
                token = _current.set(span)
                span.start = _now()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    span.end = _now()
                    _current.reset(token)
                if after is not None:
                    after(span, args, result)
                return result
            return wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, rid(args, kwargs) if rid else None)
            token = _current.set(span)
            span.start = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = _now()
                _current.reset(token)
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def tally(self, function, name, size=None):
        """Wrap ``function`` so that calls add to the ``name`` tally.

        Only the outermost call under one tally name counts, so nested
        codec calls (``to_json`` calling ``to_dict``) are timed once.
        ``size`` maps ``(args, result)`` to a byte count. The count and
        bytes are also added to the enclosing span.
        """
        record = self.tallies.setdefault(name, [0, 0, 0])

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            active = _in_tally.get()
            if name in active:
                return function(*args, **kwargs)
            token = _in_tally.set(active | {name})
            started = _now()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = _now() - started
                _in_tally.reset(token)
            nbytes = size(args, result) if size is not None else 0
            record[0] += 1
            record[1] += elapsed
            record[2] += nbytes
            span = _current.get()
            if span is not None:
                if span.counts is None:
                    span.counts = {}
                counts = span.counts.setdefault(name, [0, 0])
                counts[0] += 1
                counts[1] += nbytes
            return result
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def patch(self, target: str, make) -> bool:
        """Replace ``module:Qual.name`` by ``make(original)``.

        Returns False, and records the target as absent, when it no
        longer exists — the metric it feeds is then reported absent.
        """
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            # The raw attribute, found along the class's MRO when it is
            # inherited; the wrapper is set on the named class only.
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        inherited = isinstance(owner, type) and attr not in vars(owner)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, None if inherited else raw))
        return True

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self) -> Path:
        """Write everything recorded so far to this process's trace file."""
        self._dumps += 1
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.role}-{os.getpid()}-{self._dumps}.json"
        document = {
            "role": self.role,
            "pid": os.getpid(),
            "spans": [span.to_list() for span in self.spans if span.end],
            "tallies": self.tallies,
            "absent": self.absent,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(document), encoding="utf-8")
        tmp.replace(path)
        return path


def load(trace_dir: str | Path) -> list[dict]:
    """Every trace file under ``trace_dir`` (last dump per process wins)."""
    latest: dict[int, tuple[int, Path]] = {}
    for path in Path(trace_dir).glob("*.json"):
        _role, pid, number = path.stem.rsplit("-", 2)
        key = int(pid)
        if key not in latest or int(number) > latest[key][0]:
            latest[key] = (int(number), path)
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for _number, path in sorted(latest.values())
    ]
