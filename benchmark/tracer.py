"""Span tracer for the benchmark's traced run.

The benchmark records spans from its own files: `install` replaces netepi
functions with timing wrappers at every name a calling module looks them
up under (module globals and class attributes), and `Patches.restore`
puts the originals back. Spans live in memory; the child process writes
them out when it ends.

A span's self time is its duration minus the part of its interval that
its child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

LAYERS = ("graphs", "interventions", "dynamics", "ode", "experiments", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of execution."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, self._clock(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


class Patches:
    """Replaced attributes and their originals, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, func, make_wrapper) -> None:
        """Wrap `func` at every netepi module global bound to it."""
        wrapper = make_wrapper(func)
        for module in _netepi_modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.replace(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            self.replace(cls, attr, make_wrapper(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _netepi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "netepi" or name.startswith("netepi."))]


def _tell(stream) -> int:
    try:
        return stream.tell()
    except (OSError, ValueError, AttributeError):
        return 0


def _edges(args, result, _pre):
    return {"edges": result.edge_count}


def _removed(args, result, _pre):
    return {"removed": args[0].edge_count - result.edge_count}


def _steps(args, result, _pre):
    return {"steps": len(result.times) - 1}


def _tasks(args, result, _pre):
    return {"tasks": len(args[0])}


def _bytes(args, result, pre):
    return {"bytes": _tell(args[1]) - pre}


def _stream_position(args):
    return _tell(args[1])


def spanning(tracer: Tracer, name: str, layer: str, count=None, pre=None):
    """Wrapper factory: time each call as a span, optionally count its work."""

    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre else None
            span = tracer.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if count:
                span.counts = count(args, result, before)
            return result

        return wrapper

    return make


def install(tracer: Tracer) -> Patches:
    """Wrap netepi's layer entry points with spans; return the patches."""
    from netepi import cli, dynamics, experiments, graphs, interventions, ode

    patches = Patches()

    def fn(func, name, layer, count=None):
        patches.wrap_function(func, spanning(tracer, name, layer, count))

    for gen in (graphs.generate_er, graphs.generate_ws, graphs.generate_ba):
        fn(gen, "graphs.build", "graphs")
    fn(graphs.load_edge_list, "graphs.io", "graphs")
    fn(graphs.save_edge_list, "graphs.io", "graphs")
    fn(graphs.metrics_report, "graphs.metrics", "graphs")
    patches.wrap_method(graphs.Graph, "from_edges",
                        spanning(tracer, "graphs.from_edges", "graphs", _edges))
    fn(interventions.apply_degree_cap, "interventions.apply", "interventions", _removed)
    fn(interventions.thin_to_density, "interventions.apply", "interventions", _removed)
    fn(dynamics.init_state, "dynamics.init", "dynamics")
    fn(dynamics.gillespie_run, "dynamics.loop", "dynamics")
    fn(dynamics.gillespie_well_mixed, "dynamics.wm", "dynamics")
    patches.wrap_method(dynamics.CompartmentState, "rebind_graph",
                        spanning(tracer, "dynamics.rebuild", "dynamics"))
    fn(ode.ode_sir, "ode.integrate", "ode", _steps)
    fn(ode.ode_sirs, "ode.integrate", "ode", _steps)
    for sweep in (experiments.experiment_scope_sweep, experiments.experiment_density_comparison,
                  experiments.experiment_intervention_timing, experiments.experiment_sirs):
        fn(sweep, "experiments.sweep", "experiments")
    fn(experiments._run_batch, "experiments.point", "experiments", _tasks)
    fn(experiments._one_replicate, "experiments.task", "experiments")
    fn(cli.dispatch, "cli.dispatch", "cli")
    for cls, attr in ((dynamics.Trajectory, "to_csv"), (experiments.ExperimentTable, "write_csv")):
        patches.wrap_method(cls, attr, spanning(tracer, "cli.write", "cli", _bytes,
                                                pre=_stream_position))
    return patches


def layer_figures(spans: list[Span]) -> dict:
    """Per-layer totals of one traced run (times in s, counts as ints)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
        if s.layer in layer_self:
            layer_self[s.layer] += own
    loop_self = sum(own for s, own in zip(spans, selfs) if s.name == "dynamics.loop")
    return {
        "graphs.build_s": total.get("graphs.build", 0.0),
        "graphs.builds": calls.get("graphs.build", 0),
        "graphs.from_edges_s": total.get("graphs.from_edges", 0.0),
        "graphs.edges_built": counts.get("graphs.from_edges.edges", 0),
        "graphs.io_s": total.get("graphs.io", 0.0),
        "graphs.metrics_s": total.get("graphs.metrics", 0.0),
        "interventions.apply_s": total.get("interventions.apply", 0.0),
        "interventions.applied": calls.get("interventions.apply", 0),
        "interventions.edges_removed": counts.get("interventions.apply.removed", 0),
        "dynamics.rebuild_s": total.get("dynamics.rebuild", 0.0),
        "dynamics.rebuilds": calls.get("dynamics.rebuild", 0),
        "dynamics.init_s": total.get("dynamics.init", 0.0),
        "dynamics.loop_self_s": loop_self,
        "dynamics.wm_s": total.get("dynamics.wm", 0.0),
        "ode.integrate_s": total.get("ode.integrate", 0.0),
        "ode.steps": counts.get("ode.integrate.steps", 0),
        "experiments.sweep_s": total.get("experiments.sweep", 0.0),
        "experiments.points": calls.get("experiments.point", 0),
        "experiments.tasks": counts.get("experiments.point.tasks", 0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.bytes_written": counts.get("cli.write.bytes", 0),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
    }
