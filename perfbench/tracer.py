"""In-memory span tracer driven from outside the program.

Spans are recorded around calls into the program's public functions:
:meth:`Tracer.patch` swaps a module or class attribute for a timing
wrapper (and :meth:`Tracer.restore` puts the original back), and
:class:`TimedProxy` wraps an object handed to a public constructor.  The
program itself is never edited.

A span's *self time* is its duration minus the durations of its direct
child spans.  The pass runs in one thread, so spans nest strictly and the
self times of all spans add up to the root span's duration; the root's
own self time is the unattributed remainder.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "pass"


class Tracer:
    """Records nested spans and free-form counters for one pass."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        #: counters and per-tag durations recorded by after-hooks
        self.counts = Counter()
        self._patches = []

    # -- spans ---------------------------------------------------------

    def begin(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def end(self, index):
        self.ends[index] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span %s closed out of order"
                               % self.names[index])
        return self.ends[index] - self.starts[index]

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def timed(self, name, function, before=None, after=None):
        """``function`` wrapped in a span.

        ``name`` is a span name or a callable of the call's arguments
        returning one.  ``before(args)`` runs ahead of the span and its
        result is handed to ``after(args, result, token, seconds)``,
        which runs once the span has closed.
        """
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = self.begin(name if isinstance(name, str)
                               else name(args))
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = self.end(index)
            if after is not None:
                after(args, result, token, seconds)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner, attribute, name, before=None, after=None):
        """Replace ``owner.attribute`` by its timed wrapper."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute,
                self.timed(name, original, before=before, after=after))

    def restore(self):
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------

    def span_cost(self, calls=20000):
        """Seconds one timed call adds over a plain call, measured on
        an empty function with a throw-away tracer."""
        def empty():
            return None

        probe = Tracer(self._clock)
        wrapped = probe.timed("probe", empty)
        started = self._clock()
        for _ in range(calls):
            empty()
        plain = self._clock() - started
        started = self._clock()
        for _ in range(calls):
            wrapped()
        return max(self._clock() - started - plain, 0.0) / calls

    def layers(self):
        """``{name: {"calls", "total_s", "self_s"}}`` over closed spans."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0 and self.ends[index] is not None:
                child_time[parent] += self.ends[index] - self.starts[index]
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
        for index, name in enumerate(self.names):
            if self.ends[index] is None:
                continue
            duration = self.ends[index] - self.starts[index]
            row = table[name]
            row["calls"] += 1
            row["total_s"] += duration
            # A recursive call of the same layer is its own child; the
            # self time stays exact because children are subtracted.
            row["self_s"] += duration - child_time[index]
        return dict(table)


class TimedProxy:
    """Delegates every attribute to ``target``; the methods named in
    ``spans`` (method -> span name) are timed."""

    def __init__(self, target, tracer, spans):
        self._target = target
        for method, name in spans.items():
            setattr(self, method, tracer.timed(name, getattr(target, method)))

    def __getattr__(self, name):
        return getattr(self._target, name)
