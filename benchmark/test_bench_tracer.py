"""Tracer arithmetic and wrapper lifetime.

Run with the tier-1 command from the repository root:
    PYTHONPATH=src python -m pytest -q benchmark
"""

import io
import sys

import pytest

import tracer
from tracer import Span, Tracer, layer_figures, self_times


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3];
    # b holds b1 [5, 7] and b2 [6, 8], which overlap: together they cover [5, 8].
    spans = [
        Span("root", "bench", 0.0, 10.0),
        Span("a", "graphs", 1.0, 4.0, parent=0),
        Span("a1", "graphs", 2.0, 3.0, parent=1),
        Span("b", "dynamics", 5.0, 9.0, parent=0),
        Span("b1", "interventions", 5.0, 7.0, parent=3),
        Span("b2", "dynamics", 6.0, 8.0, parent=3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("p", "cli", 0.0, 4.0), Span("c", "cli", 3.0, 6.0, parent=0)]
    assert self_times(spans) == [3.0, 3.0]


def test_tracer_links_parents_and_layer_figures_sum_self_time():
    tr = Tracer(clock=FakeClock(0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0, 10.0))
    root = tr.open("workload", "bench")
    build = tr.open("graphs.build", "graphs")
    edges = tr.open("graphs.from_edges", "graphs")
    tr.close(edges)
    edges.counts = {"edges": 40}
    tr.close(build)
    loop = tr.open("dynamics.loop", "dynamics")
    tr.close(loop)
    tr.close(root)
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    figures = layer_figures(tr.spans)
    assert figures["graphs.build_s"] == 5.0
    assert figures["graphs.builds"] == 1
    assert figures["graphs.from_edges_s"] == 3.0
    assert figures["graphs.edges_built"] == 40
    assert figures["graphs.self_s"] == 5.0  # build 2 s self + from_edges 3 s
    assert figures["dynamics.loop_self_s"] == 1.0
    assert figures["dynamics.self_s"] == 1.0


def _bindings():
    """Every attribute of every netepi module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "netepi" or name.startswith("netepi."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("netepi"):
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_wrappers_record_spans_and_are_removed_after_the_traced_run(tmp_path):
    from netepi import cli, graphs

    before = _bindings()
    tr = Tracer()
    patches = tracer.install(tr)
    try:
        assert graphs.generate_ba is not before[("netepi.graphs", "generate_ba")]
        out = tmp_path / "g.txt"
        assert cli.dispatch(["generate", "--model", "ba", "--n", "50", "--m", "2",
                             "--out", str(out)]) == 0
    finally:
        patches.restore()
    names = [s.name for s in tr.spans]
    assert names[:3] == ["cli.dispatch", "graphs.build", "graphs.from_edges"]
    assert "graphs.io" in names

    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    spans = len(tr.spans)
    graphs.save_edge_list(graphs.generate_ba(20, 2, seed=0), io.StringIO())
    assert len(tr.spans) == spans  # untraced from here on


def test_restore_undoes_nested_installs_in_reverse_order():
    from audit import TrajectoryAudit
    from netepi import dynamics, experiments

    original = experiments.gillespie_run
    trace_patches = tracer.install(Tracer())
    audit_patches = TrajectoryAudit().install()
    assert experiments.gillespie_run is dynamics.gillespie_run is not original
    audit_patches.restore()
    trace_patches.restore()
    assert experiments.gillespie_run is dynamics.gillespie_run is original


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
