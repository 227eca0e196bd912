"""Spans around bpsurv's public functions, recorded from outside the package.

Each wrapper replaces a function or method at the name its callers look it up
by (a module global or a class attribute), so the package runs unchanged.
Spans nest: a span's self time is its duration less the time of the spans it
caused.  Totals are kept per name as calls arrive, so a long chain holds no
per-call records in memory.  A name missing from the package (removed by a
refactor) is listed as absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.results = {}     # name -> list of values from the result hook
        self.absent = []
        self._stack = []      # [name, start, child time] of the open spans
        self._installed = []

    def wrap(self, target, name, on_result=None):
        """Wrap ``module[.Class].attr`` (given as "module:attr" or
        "module:Class.attr") and record its spans under ``name``."""
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        try:
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            self.absent.append(name)
            return
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if on_result is not None:
                self.results.setdefault(name, []).append(on_result(result))
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def table(self):
        """Per-name calls, total and self seconds, largest self time first."""
        rows = [{"name": k, "calls": self.calls[k], "total_s": self.total[k],
                 "self_s": self.self_time[k]} for k in self.calls]
        return sorted(rows, key=lambda r: -r["self_s"])
