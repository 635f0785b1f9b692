"""Per-layer tracing from outside the program.

The simulator looks its layers up as module globals at call time:
``simulator.run`` picks ``step_crl``/``step_cloud``, the step functions call
``generate_arrivals``, ``_age_state``, ``full_round`` and so on, and
``matching.full_round`` calls the sort, matrix and match functions.  A traced
run swaps those globals for timing wrappers and restores them afterwards, so
the program itself carries no tracing code.

A span's self time is its duration minus the durations of the spans it
called.  Counts are taken from each call's arguments and result after its span
closes; that counting time is charged to no span and kept in ``count_ns``, so
the self times of all spans plus ``count_ns`` equal the root span exactly.  A
counter that no longer fits its layer's arguments or result (after a refactor
changes them) is dropped and its span listed in ``uncounted``; the run goes on.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


def _count_arrivals(counts, args, result):
    tasks, sources = result
    counts["simulator.arrivals.tasks"] += len(tasks)
    counts["simulator.arrivals.sources"] += len(sources)


def _count_aging(counts, args, result):
    # Aging rewrites every pending task and every source that stays pooled;
    # after the call the state holds the survivors and ``result`` the expired.
    state = args[0]
    counts["simulator.aging.items"] += len(state.pending) + len(result) + len(state.pool)
    counts["simulator.aging.expired"] += len(result)


def _count_matrix(counts, args, result):
    sources, ordered = args[0], args[1]
    counts["matching.prefer_matrix.cells"] += len(sources) * len(ordered)
    counts["matching.prefer_matrix.feasible_cells"] += sum(len(row) - row.count(0.0) for row in result.values)
    counts["matching.prefer_matrix.calls"] += 1
    counts["sim.pool_sum"] += len(sources)
    counts["sim.pending_sum"] += len(ordered)


def _count_match(counts, args, result):
    sources, ordered = args[1], args[2]
    counts["matching.greedy_match.cells"] += len(sources) * len(ordered)
    counts["matching.greedy_match.leases"] += len(result.assignments)
    counts["matching.greedy_match.unmatched"] += len(result.unmatched_task_ids)


def _count_classify(counts, args, result):
    deferred, escalated = result
    counts["matching.classify.deferred"] += len(deferred)
    counts["matching.classify.escalated"] += len(escalated)


def _count_settlement(counts, args, result):
    counts["settlement.apply.records"] += len(result)
    counts["settlement.apply.floored"] += sum(1 for r in result if r.floored)


# (module, global name, span, counter).  A span is absent when none of its
# globals exists, for example after a refactor renames or deletes one.
LAYERS = (
    ("simulator", "step_crl", "simulator.step", None),
    ("simulator", "step_cloud", "simulator.step", None),
    ("simulator", "generate_arrivals", "simulator.arrivals", _count_arrivals),
    ("simulator", "_age_state", "simulator.aging", _count_aging),
    ("simulator", "full_round", "matching.full_round", None),
    ("matching", "sort_tasks_by_priority", "matching.sort", None),
    ("matching", "build_prefer_matrix", "matching.prefer_matrix", _count_matrix),
    ("matching", "greedy_match", "matching.greedy_match", _count_match),
    ("simulator", "classify_unmatched", "matching.classify", _count_classify),
    ("simulator", "apply_settlement", "settlement.apply", _count_settlement),
    ("simulator", "idle_capacity", "metrics.idle_capacity", None),
)
ROOT_SPAN = "simulator.run"
SPANS = (ROOT_SPAN,) + tuple(dict.fromkeys(span for _, _, span, _ in LAYERS))


class Tracer:
    """Aggregates self time and layer counts of one traced run."""

    def __init__(self):
        self.self_ns = Counter()
        self.counts = Counter()
        self.count_ns = 0
        self.total_ns = 0  # duration of the root span
        self.uncounted = set()
        self._open = []  # one [child_ns] cell per open span

    def wrap(self, span, fn, counter=None):
        clock = time.perf_counter_ns
        open_spans = self._open

        def traced(*args, **kwargs):
            cell = [0]
            open_spans.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                self.self_ns[span] += end - start - cell[0]
                if open_spans:
                    open_spans[-1][0] += end - start
                else:
                    self.total_ns += end - start
            if counter is not None and span not in self.uncounted:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.uncounted.add(span)
                spent = clock() - end
                self.count_ns += spent
                if open_spans:
                    open_spans[-1][0] += spent
            return result

        return traced


@contextmanager
def traced_layers(tracer, modules):
    """Swap each layer global in ``modules`` (name -> module) for a wrapper.

    Yields the set of absent spans.  The original globals are restored on exit.
    """
    saved = []
    present = set()
    try:
        for module_name, attr, span, counter in LAYERS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(span, fn, counter))
            present.add(span)
        yield set(SPANS[1:]) - present
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
