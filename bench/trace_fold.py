"""Fold ``hyve-trace-v1`` span records into per-name self time.

A span's *self time* is its duration minus the part of its interval that
its child spans (records whose ``parent`` is its ``id``) cover.  Children
are clipped to the parent's interval and their union is subtracted, so a
child that exits after its parent (the tracer tolerates out-of-order
exits) or two overlapping children never drive self time below zero.
Records arrive in exit order, children before parents, but the fold
does not rely on it: it reads every span first, then folds.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def fold(records: Iterable[dict]) -> tuple[dict[str, list], float]:
    """Fold span records.

    Returns ``(by_name, wall_s)``: ``by_name[name] = [self_s, dur_s,
    count]`` summed over every span of that name, and ``wall_s`` the
    length of the union of the root spans (spans whose parent is not in
    the trace).  Meta and event records are ignored.
    """
    spans: dict[int, tuple[str, object, float, float]] = {}
    for record in records:
        if record.get("kind") == "span":
            spans[record["id"]] = (record["name"], record["parent"],
                                   record["t_start"], record["t_end"])
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    roots: list[tuple[float, float]] = []
    for _, parent, start, end in spans.values():
        if parent in spans:
            children[parent].append((start, end))
        else:
            roots.append((start, end))
    by_name: dict[str, list] = {}
    for span_id, (name, _, start, end) in spans.items():
        clipped = [(max(lo, start), min(hi, end))
                   for lo, hi in children.get(span_id, ())
                   if hi > start and lo < end]
        entry = by_name.setdefault(name, [0.0, 0.0, 0])
        entry[0] += (end - start) - _union_length(clipped)
        entry[1] += end - start
        entry[2] += 1
    return by_name, _union_length(roots)
