"""In-memory span tracer that times calls into a package from outside it.

`Tracer.install` rebinds public functions and methods of the package to
timing wrappers.  A function is rebound in its defining module and under
every other module global that refers to the same object, because that is
where the calling code looks the name up at call time (for example
`ergoquench.experiment.evolve_expectation`).  Methods are rebound on their
class.  A name that no longer exists is recorded as absent and skipped.

Spans are kept in memory as (name, start, end, parent, run) plus a dict of
computed counts, and are written out once, when the run ends.  Nothing is
recorded while `run` is None, so the same wrappers cost two attribute
checks outside traced operations.  `boundary`, when set, is called at every
wrapped call's entry and exit, recording or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run = None  # id of the operation being traced; None: not recording
        self.boundary = None  # called on entry to and exit from every wrapped call
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes counts for it."""
        if self.run is None:
            yield {}
            return
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run, "counts": {}}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.boundary:
                self.boundary()
            try:
                if self.run is None:
                    return fn(*args, **kwargs)
                with self.span(name) as counts:
                    out = fn(*args, **kwargs)
                if count:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        counts.update(count(bound.arguments, out))
                    except (TypeError, KeyError, AttributeError, OSError):
                        # the signature or the result changed shape: keep the
                        # span, record the count as absent, never fail the call
                        if f"{name}:counts" not in self.absent:
                            self.absent.append(f"{name}:counts")
                return out
            finally:
                if self.boundary:
                    self.boundary()

        return traced

    def install(self, package: str, targets: dict, counters: dict | None = None):
        """Wrap every `module -> [qualname, ...]` target of `package`.

        Span names are `<module>.<qualname>`.  `counters` maps a span name
        to `f(arguments, result) -> dict` of counts computed from the call.
        """
        counters = counters or {}
        prefix = package + "."
        for module_name, qualnames in targets.items():
            try:
                module = importlib.import_module(prefix + module_name)
            except ImportError:
                self.absent.extend(f"{module_name}.{q}" for q in qualnames)
                continue
            for qualname in qualnames:
                name = f"{module_name}.{qualname}"
                *path, attr = qualname.split(".")
                owner = module
                try:
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                except (AttributeError, KeyError, TypeError):
                    original = None
                if not inspect.isfunction(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, counters.get(name))
                self._rebind(owner, attr, wrapper)
                if owner is module:
                    users = [m for key, m in list(sys.modules.items())
                             if key == package or key.startswith(prefix)]
                    for user in users:
                        for key, value in list(vars(user).items()):
                            if value is original:
                                self._rebind(user, key, wrapper)

    def _rebind(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call_overhead_s(self, calls: int = 20000) -> float:
        """Seconds a recording wrapper adds to one call, timed on a no-op."""
        def noop():
            return None

        wrapped = self._wrap("overhead.noop", noop, None)
        saved = self.spans, self.run, self.boundary
        self.spans, self.run, self.boundary = [], -1, None
        try:
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
        finally:
            self.spans, self.run, self.boundary = saved
        return max(traced - bare, 0.0) / calls

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"absent": self.absent, "spans": self.spans}, f)
            f.write("\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so siblings never overlap and the children's
    total is the part of the parent they cover.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict], n_runs: int) -> dict:
    """Per span name: calls, self time and each count, all per run."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in s["counts"].items():
            entry[key] = entry.get(key, 0) + value
    for entry in out.values():
        for key in entry:
            entry[key] /= n_runs
    return out
