"""Trace assembly: from piles of span files to explained latency.

Each process writes its own JSONL span file (``repro serve --trace``,
``repro cluster up --trace``), so one traced operation is scattered
across client, coordinator, and worker files.  This module joins them
back together:

* :func:`read_spans` parses any number of JSONL files (strictly — a
  truncated line is an error, not a silent gap);
* :func:`assemble_traces` groups spans by ``trace_id`` into
  :class:`Trace` trees, chaining across process boundaries through the
  ``parent_id`` each hop forwarded in its ``X-Repro-Trace`` header;
* :func:`stage_stats` aggregates p50/p99 per stage name across traces;
* :meth:`Trace.critical_path` walks the longest-duration child chain
  from the root — the spans that actually bound the latency;
* :meth:`Trace.accounted_fraction` measures how much of the root
  span's wall time its descendants explain (merged intervals, so
  parallel worker hops are not double-counted).  This is the honesty
  metric: a breakdown that accounts for 40% of the latency is mostly
  guessing.

Quantiles use the same upper-bound rule as
:func:`repro.service.metrics._quantile_s`: the reported pN is the
smallest observed value ≥ N% of samples, never an interpolation below
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.recorder import Span, parse_span_line


def read_spans(paths: Iterable[str]) -> List[Span]:
    """Every span in the given JSONL files, in file-then-line order.

    Blank lines are skipped (a flush boundary is not data); any other
    unparsable line raises ``ValueError`` naming the file and line
    number, because a trace silently missing stages would *mis*explain
    latency rather than fail to.
    """
    spans: List[Span] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as stream:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    spans.append(parse_span_line(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    return spans


@dataclass
class Trace:
    """All spans sharing one trace id, arranged as a tree."""

    trace_id: str
    spans: List[Span]
    #: child span ids per parent span id (tree edges that resolved)
    children: Dict[str, List[str]] = field(default_factory=dict)
    #: spans whose parent is None or absent from the collected files
    roots: List[Span] = field(default_factory=list)
    #: spans parented to a span id we never saw (partial collection)
    orphans: List[Span] = field(default_factory=list)

    def __post_init__(self) -> None:
        by_id = {span.span_id: span for span in self.spans}
        self._by_id = by_id
        for span in self.spans:
            if span.parent_id is None:
                self.roots.append(span)
            elif span.parent_id in by_id:
                self.children.setdefault(span.parent_id, []).append(
                    span.span_id
                )
            else:
                self.orphans.append(span)
                self.roots.append(span)
        # deterministic order: earliest start first at every level
        self.roots.sort(key=lambda s: s.start_s)
        for ids in self.children.values():
            ids.sort(key=lambda sid: by_id[sid].start_s)

    @property
    def complete(self) -> bool:
        """True when every parent link resolved: one tree, no orphans."""
        return not self.orphans and len(self.roots) == 1

    @property
    def root(self) -> Optional[Span]:
        """The outermost span (client-side when the client recorded one)."""
        return self.roots[0] if self.roots else None

    @property
    def duration_s(self) -> float:
        root = self.root
        return root.duration_s if root is not None else 0.0

    def span_children(self, span: Span) -> List[Span]:
        return [
            self._by_id[sid] for sid in self.children.get(span.span_id, [])
        ]

    def walk(self) -> List[Tuple[int, Span]]:
        """(depth, span) pairs in depth-first, start-time order."""
        out: List[Tuple[int, Span]] = []

        def visit(span: Span, depth: int) -> None:
            out.append((depth, span))
            for child in self.span_children(span):
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return out

    def critical_path(self) -> List[Span]:
        """Root-to-leaf chain following the longest child at each step.

        Sibling hops run in parallel (the coordinator's worker
        dispatches), so the *longest* child — not the sum — is what
        bounds the parent; following it to a leaf names the spans a
        latency fix must shrink.
        """
        path: List[Span] = []
        span = self.root
        while span is not None:
            path.append(span)
            children = self.span_children(span)
            span = (
                max(children, key=lambda s: s.duration_s)
                if children
                else None
            )
        return path

    def accounted_fraction(self) -> float:
        """Fraction of the root's wall time its descendants cover.

        Child intervals are merged on the shared wall clock before
        measuring, so two workers busy in parallel count their overlap
        once.  1.0 means the breakdown fully explains the latency;
        low values mean un-instrumented gaps.
        """
        root = self.root
        if root is None or root.duration_s <= 0.0:
            return 0.0
        lo, hi = root.start_s, root.end_s
        intervals = sorted(
            (max(span.start_s, lo), min(span.end_s, hi))
            for _, span in self.walk()
            if span is not root and span.end_s > lo and span.start_s < hi
        )
        covered = 0.0
        cur_lo: Optional[float] = None
        cur_hi = 0.0
        for start, end in intervals:
            if cur_lo is None:
                cur_lo, cur_hi = start, end
            elif start <= cur_hi:
                cur_hi = max(cur_hi, end)
            else:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = start, end
        if cur_lo is not None:
            covered += cur_hi - cur_lo
        return min(1.0, covered / root.duration_s)


def assemble_traces(spans: Iterable[Span]) -> List[Trace]:
    """Group spans by trace id into :class:`Trace` trees.

    Ordered slowest-first (by root span duration), which is the order
    a latency investigation reads them in.
    """
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    traces = [Trace(trace_id=tid, spans=ss) for tid, ss in by_trace.items()]
    traces.sort(key=lambda t: t.duration_s, reverse=True)
    return traces


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Upper-bound quantile: smallest observed value ≥ q of the mass."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values))
    index = max(0, min(len(sorted_values) - 1, rank - 1))
    return sorted_values[index]


@dataclass(frozen=True)
class StageStats:
    """Latency distribution of one stage name across assembled traces."""

    name: str
    count: int
    total_s: float
    p50_s: float
    p99_s: float
    max_s: float


def stage_stats(traces: Iterable[Trace]) -> List[StageStats]:
    """Per-stage-name p50/p99 over every span in the given traces.

    Ordered by total time descending — the stage eating the most
    aggregate wall time leads, whether it is slow once or cheap but
    ubiquitous.
    """
    by_name: Dict[str, List[float]] = {}
    for trace in traces:
        for span in trace.spans:
            by_name.setdefault(span.name, []).append(span.duration_s)
    stats = []
    for name, durations in by_name.items():
        durations.sort()
        stats.append(
            StageStats(
                name=name,
                count=len(durations),
                total_s=sum(durations),
                p50_s=quantile(durations, 0.50),
                p99_s=quantile(durations, 0.99),
                max_s=durations[-1],
            )
        )
    stats.sort(key=lambda s: s.total_s, reverse=True)
    return stats


def render_trace(trace: Trace) -> str:
    """A human-readable tree of one trace (the ``repro trace`` detail)."""
    lines = [
        f"trace {trace.trace_id}"
        f"  spans={len(trace.spans)}"
        f"  duration={trace.duration_s * 1000.0:.2f}ms"
        + ("" if trace.complete else "  [INCOMPLETE]")
    ]
    root = trace.root
    base = root.start_s if root is not None else 0.0
    for depth, span in trace.walk():
        offset_ms = (span.start_s - base) * 1000.0
        meta = ""
        if span.meta:
            meta = "  " + " ".join(
                f"{key}={span.meta[key]}" for key in sorted(span.meta)
            )
        lines.append(
            f"  {'  ' * depth}{span.name} [{span.service}]"
            f"  +{offset_ms:.2f}ms"
            f"  {span.duration_s * 1000.0:.2f}ms{meta}"
        )
    return "\n".join(lines)
