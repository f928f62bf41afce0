"""Outside-in span tracer for the pnsym layers.

The tracer rebinds functions on their module objects.  Package-internal calls
go through module attributes (``comb.reduce_pair``) or module globals
(``delta_power`` inside :mod:`pnsym.oracle`), and both resolve through the
module's namespace at call time, so nested calls are caught without touching
the library source.

Each call opens a span: its name, its parent span, start, end and the time
its direct children took.  A generator is timed across its whole iteration:
its duration is the time spent inside its ``next`` calls, not the time the
consumer spends between items.  A recursive call of a traced function from
inside its own span (``entrywise_splittings``) is left untraced and counts
toward the outer span.  Self time is a span's duration minus its children's
durations.  Inside :meth:`Tracer.detached` the original functions are bound
again, so code run there opens no spans and pays no wrapper cost.

Spans are kept in flat arrays (a traced ``verify`` pass opens over half a
million) and written out by :meth:`Tracer.write` when the run ends.
"""

import contextlib
import functools
import gzip
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []          # span name table
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_dur = array("d")
        self.span_child = array("d")
        self.stack = []          # open span indices, innermost last
        self.counts = {}         # exact counters recorded at the boundaries
        self.attached = False
        self._wrapped = []       # (module, attr, original, traced)

    # -- recording ---------------------------------------------------------

    def _open(self, name_id, now):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(now)
        self.span_end.append(0.0)
        self.span_dur.append(0.0)
        self.span_child.append(0.0)
        return idx

    def _close(self, idx, end, dur):
        self.span_end[idx] = end
        self.span_dur[idx] = dur
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child[parent] += dur

    def add(self, counter, n=1):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _untraced(self, name_id):
        """A recursive call opens no span of its own."""
        return bool(self.stack) and self.span_name[self.stack[-1]] == name_id

    def _bind(self, traced):
        for module, attr, original, wrapper in self._wrapped:
            setattr(module, attr, wrapper if traced else original)
        self.attached = traced

    @contextlib.contextmanager
    def detached(self):
        """Run the block on the original functions: the benchmark's own
        checks, and the untraced passes the tracing overhead is measured
        against."""
        was = self.attached
        self._bind(False)
        try:
            yield
        finally:
            self._bind(was)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, module, attr, name, observe=None, generator=False):
        """Rebind ``module.attr`` to a traced copy.

        ``observe(args, result, idx)`` runs after span ``idx`` has closed, so
        the bookkeeping it does is not charged to the traced function.  For
        a generator, ``result`` is the number of items it yielded.
        """
        fn = getattr(module, attr)
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack

        if generator:
            def iterate(args, it):
                idx = self._open(name_id, clock())
                busy = 0.0
                items = 0
                try:
                    while True:
                        stack.append(idx)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            break
                        finally:
                            busy += clock() - t0
                            stack.pop()
                        items += 1
                        yield item
                finally:
                    self._close(idx, clock(), busy)
                    if observe is not None:
                        observe(args, items, idx)

            @functools.wraps(fn)
            def traced(*args):
                if self._untraced(name_id):
                    return fn(*args)
                return iterate(args, fn(*args))
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self._untraced(name_id):
                    return fn(*args, **kwargs)
                t0 = clock()
                idx = self._open(name_id, t0)
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    self._close(idx, t1, t1 - t0)
                if observe is not None:
                    observe(args, result, idx)
                return result

        self._wrapped.append((module, attr, fn, traced))
        setattr(module, attr, traced)
        self.attached = True

    def uninstall(self):
        self._bind(False)

    # -- reading -----------------------------------------------------------

    def totals(self):
        """``{name: (calls, self seconds)}`` over every recorded span."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for n, dur, child in zip(self.span_name, self.span_dur, self.span_child):
            calls[n] += 1
            own[n] += dur - child
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart\tend\tduration\tself\n")
            for i in range(len(self.span_name)):
                dur = self.span_dur[i]
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                    f"{dur:.9f}\t{dur - self.span_child[i]:.9f}\n"
                )
