"""Trace assembly: trees, critical paths, accounted fraction, files."""

import pytest

from repro.obs import (
    Span,
    assemble_traces,
    read_spans,
    render_trace,
    stage_stats,
)
from repro.obs.assemble import Trace, quantile

TID = "f" * 16


def make_span(span_id, parent_id, name, start_s, duration_s, **meta):
    return Span(
        trace_id=TID,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        service="test",
        start_s=start_s,
        duration_s=duration_s,
        meta=dict(meta),
    )


def synthetic_trace():
    """client(0..10) > server(1..9) > {kernel(2..6), encode(7..8)}."""
    return [
        make_span("a" * 8, None, "client /plan", 0.0, 10.0),
        make_span("b" * 8, "a" * 8, "server /plan", 1.0, 8.0),
        make_span("c" * 8, "b" * 8, "plan_kernel", 2.0, 4.0),
        make_span("d" * 8, "b" * 8, "wire_encode", 7.0, 1.0),
    ]


class TestTraceTree:
    def test_complete_tree(self):
        (trace,) = assemble_traces(synthetic_trace())
        assert trace.complete
        assert trace.root.name == "client /plan"
        assert trace.duration_s == 10.0
        assert [
            (depth, span.name) for depth, span in trace.walk()
        ] == [
            (0, "client /plan"),
            (1, "server /plan"),
            (2, "plan_kernel"),
            (2, "wire_encode"),
        ]

    def test_children_sorted_by_start(self):
        spans = synthetic_trace()
        spans[2], spans[3] = spans[3], spans[2]  # shuffle input order
        (trace,) = assemble_traces(spans)
        server = trace.span_children(trace.root)[0]
        assert [s.name for s in trace.span_children(server)] == [
            "plan_kernel",
            "wire_encode",
        ]

    def test_orphan_marks_incomplete(self):
        spans = synthetic_trace()
        spans.append(make_span("e" * 8, "9" * 8, "lost", 3.0, 1.0))
        (trace,) = assemble_traces(spans)
        assert not trace.complete
        assert [s.name for s in trace.orphans] == ["lost"]
        assert "[INCOMPLETE]" in render_trace(trace)

    def test_critical_path_follows_longest_child(self):
        (trace,) = assemble_traces(synthetic_trace())
        assert [s.name for s in trace.critical_path()] == [
            "client /plan",
            "server /plan",
            "plan_kernel",  # 4.0s beats wire_encode's 1.0s
        ]

    def test_traces_ordered_slowest_first(self):
        fast = [
            Span(
                trace_id="0" * 16,
                span_id="a" * 8,
                parent_id=None,
                name="client /plan",
                service="test",
                start_s=0.0,
                duration_s=1.0,
            )
        ]
        traces = assemble_traces(fast + synthetic_trace())
        assert [t.trace_id for t in traces] == [TID, "0" * 16]


class TestAccountedFraction:
    def test_single_child_coverage(self):
        # root 10s, server child covers 8s of it
        (trace,) = assemble_traces(synthetic_trace())
        assert trace.accounted_fraction() == pytest.approx(0.8)

    def test_parallel_children_not_double_counted(self):
        spans = [
            make_span("a" * 8, None, "root", 0.0, 10.0),
            # two "workers" busy over the same 4s window
            make_span("b" * 8, "a" * 8, "dispatch", 2.0, 4.0),
            make_span("c" * 8, "a" * 8, "dispatch", 2.0, 4.0),
        ]
        (trace,) = assemble_traces(spans)
        assert trace.accounted_fraction() == pytest.approx(0.4)

    def test_disjoint_children_sum(self):
        spans = [
            make_span("a" * 8, None, "root", 0.0, 10.0),
            make_span("b" * 8, "a" * 8, "x", 1.0, 2.0),
            make_span("c" * 8, "a" * 8, "y", 6.0, 3.0),
        ]
        (trace,) = assemble_traces(spans)
        assert trace.accounted_fraction() == pytest.approx(0.5)

    def test_child_clipped_to_root_window(self):
        spans = [
            make_span("a" * 8, None, "root", 0.0, 4.0),
            # drifted wall clock: child claims to outlive the root
            make_span("b" * 8, "a" * 8, "x", 2.0, 10.0),
        ]
        (trace,) = assemble_traces(spans)
        assert trace.accounted_fraction() == pytest.approx(0.5)

    def test_rootless_trace_is_zero(self):
        trace = Trace(trace_id=TID, spans=[])
        assert trace.accounted_fraction() == 0.0


class TestStageStats:
    def test_aggregates_by_name_ordered_by_total(self):
        stats = stage_stats(assemble_traces(synthetic_trace()))
        assert [s.name for s in stats] == [
            "client /plan",
            "server /plan",
            "plan_kernel",
            "wire_encode",
        ]
        kernel = stats[2]
        assert kernel.count == 1
        assert kernel.p50_s == kernel.p99_s == kernel.max_s == 4.0

    def test_quantile_upper_bound_rule(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.50) == 2.0
        assert quantile(values, 0.99) == 4.0
        assert quantile([], 0.5) == 0.0


class TestReadSpans:
    def test_round_trip_with_blank_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        lines = [span.to_json_line() for span in synthetic_trace()]
        path.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")
        spans = read_spans([str(path)])
        assert spans == synthetic_trace()

    def test_multiple_files_concatenate_in_order(self, tmp_path):
        spans = synthetic_trace()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(spans[0].to_json_line() + "\n")
        b.write_text(
            "\n".join(s.to_json_line() for s in spans[1:]) + "\n"
        )
        assert read_spans([str(a), str(b)]) == spans

    def test_garbage_line_names_file_and_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            synthetic_trace()[0].to_json_line() + "\ntruncated{\n"
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_spans([str(path)])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_spans([str(tmp_path / "absent.jsonl")])
