"""In-memory span tracer that times calls into defreg's functions from outside.

Spans are recorded by replacing module attributes with timing wrappers, so the
program under test is unchanged. A span is ``[id, name, start, end, parent,
pair, width]``: spans of one registration share a pair id, and ``width`` is
the image width the call worked on (0 where it does not apply). Parents are
tracked per thread; a span opened in a worker thread with no open span of its
own gets the open root span (``cli.main``) as parent.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._patched = []

    def set_pair(self, pair_id):
        self._local.pair = pair_id

    def patch(self, module, attr, name, width_of=None, pair_of=None, root=False):
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``width_of(args, kwargs)`` gives the span's width, ``pair_of`` sets the
        calling thread's pair id before the call, and ``root`` makes the span
        the parent of spans opened by worker threads while it is open.
        """
        fn = getattr(module, attr)
        local = self._local

        def wrapper(*args, **kwargs):
            if pair_of is not None:
                local.pair = pair_of(args, kwargs)
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if root:
                self._root = sid
            stack.append(sid)
            width = width_of(args, kwargs) if width_of else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if root:
                    self._root = 0
                self.spans.append([sid, name, t0, t1, parent,
                                   getattr(local, "pair", None), width])

        self._patched.append((module, attr, fn, wrapper))
        setattr(module, attr, wrapper)

    def pause(self):
        """Put the original functions back; calls run exactly as untraced."""
        for module, attr, fn, _ in reversed(self._patched):
            setattr(module, attr, fn)

    def resume(self):
        for module, attr, _, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def summary(self, pairs):
        """Per span name: call count, busy and self seconds, durations by width.

        Only spans whose pair id is in ``pairs`` count. Self time is the span's
        duration minus the part of its interval that its children cover, so
        children running in parallel threads are not subtracted twice.
        """
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _, _ in self.spans:
            children[parent].append((t0, t1))
        out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0,
                                   "by_width": defaultdict(list)})
        for sid, name, t0, t1, _, pair, width in self.spans:
            if pair not in pairs:
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["busy"] += t1 - t0
            agg["self"] += t1 - t0 - _covered(children[sid])
            agg["by_width"][width].append(t1 - t0)
        return out


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
