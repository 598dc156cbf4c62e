"""In-memory span tracer installed from outside the library.

The tracer replaces module attributes of ``csimplex`` with thin wrappers
that open a span around each call, so nothing under ``src/`` knows it is
being traced.  Map evaluations are not spans (there are millions of them in
an orbit tail); they are counted and timed by a wrapper around the map's
``growth`` callable, and their time is charged to the enclosing span as
child time, so that a span's self time excludes the map.
"""
from __future__ import annotations

import dataclasses
import importlib
import time
from contextlib import contextmanager, nullcontext

import numpy as np

LAYERS = ("cli", "models", "analysis", "existence", "classify", "simplex", "manifolds", "portrait")

# (module binding, attribute, span name).  Span names are "<layer>.<function>".
# Every public name one csimplex module imports from another is wrapped where
# it is bound, plus the defining-module bindings the benchmark itself calls.
WRAPPED = (
    ("csimplex.cli", "map_from_config", "models.map_from_config"),
    ("csimplex.cli", "find_all_fixed_points", "analysis.find_all_fixed_points"),
    ("csimplex.cli", "verify_C1", "analysis.verify_C1"),
    ("csimplex.cli", "classify_table1", "classify.classify_table1"),
    ("csimplex.cli", "verify_existence", "existence.verify_existence"),
    ("csimplex.cli", "ricker_condition", "existence.ricker_condition"),
    ("csimplex.cli", "compute_carrying_simplex", "simplex.compute_carrying_simplex"),
    ("csimplex.cli", "unordered_check", "simplex.unordered_check"),
    ("csimplex.cli", "invariance_residual", "simplex.invariance_residual"),
    ("csimplex.cli", "surface_distance", "simplex.surface_distance"),
    ("csimplex.cli", "estimate_tangent_cone", "simplex.estimate_tangent_cone"),
    ("csimplex.cli", "estimate_theta", "simplex.estimate_theta"),
    ("csimplex.cli", "pseudo_splitting", "manifolds.pseudo_splitting"),
    ("csimplex.cli", "trace_unstable", "manifolds.trace_unstable"),
    ("csimplex.cli", "trace_stable_on_S", "manifolds.trace_stable_on_S"),
    ("csimplex.cli", "leaf_contraction_report", "manifolds.leaf_contraction_report"),
    ("csimplex.cli", "conjugacy_decay_report", "manifolds.conjugacy_decay_report"),
    ("csimplex.cli", "m2_expansion_report", "manifolds.m2_expansion_report"),
    ("csimplex.cli", "basin_raster", "portrait.basin_raster"),
    ("csimplex.cli", "render_portrait", "portrait.render_portrait"),
    ("csimplex.cli", "_load_mesh", "cli.load_mesh"),
    ("csimplex.existence", "find_axial_fixed_points", "analysis.find_axial_fixed_points"),
    ("csimplex.simplex", "axial_caps", "existence.axial_caps"),
    ("csimplex.manifolds", "eigen3", "analysis.eigen3"),
    ("csimplex.manifolds", "eigvec_for", "analysis.eigvec_for"),
    ("csimplex.manifolds", "verify_C1", "analysis.verify_C1"),
    ("csimplex.manifolds", "radial_project", "simplex.radial_project"),
    ("csimplex.manifolds", "basin_of_batch", "manifolds.basin_of_batch"),
    ("csimplex.portrait", "basin_of_batch", "manifolds.basin_of_batch"),
    ("csimplex.portrait", "radial_project", "simplex.radial_project"),
    # defining-module bindings called directly by the basin_battery workload
    ("csimplex.analysis", "find_all_fixed_points", "analysis.find_all_fixed_points"),
    ("csimplex.classify", "classify_table1", "classify.classify_table1"),
    ("csimplex.existence", "verify_existence", "existence.verify_existence"),
    ("csimplex.existence", "ricker_condition", "existence.ricker_condition"),
    ("csimplex.simplex", "compute_carrying_simplex", "simplex.compute_carrying_simplex"),
    ("csimplex.manifolds", "trace_unstable", "manifolds.trace_unstable"),
    ("csimplex.manifolds", "trace_stable_on_S", "manifolds.trace_stable_on_S"),
    ("csimplex.portrait", "basin_raster", "portrait.basin_raster"),
    ("csimplex.portrait", "count_basin_components", "portrait.count_basin_components"),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    child_s: float = 0.0  # covered by child spans and by map time charged directly
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_doc(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "self_s": self.self_s, **self.info}


def _span_info(name: str, result) -> dict:
    """Counts read off a call's result at the layer boundary."""
    if name == "simplex.compute_carrying_simplex":
        mesh = result
        hist = np.asarray(mesh.residual_history[-11:], dtype=float)
        ratios = hist[1:] / hist[:-1]
        rate = float(np.exp(np.mean(np.log(ratios)))) if ratios.size else float("nan")
        rays = int(np.count_nonzero(np.min(mesh.directions, axis=1) > 0.0))
        return {"sweeps": int(mesh.sweeps), "flagged": int(len(mesh.flagged)),
                "rays": rays, "contraction_rate": rate}
    if name == "manifolds.basin_of_batch":
        labels = np.asarray(result)
        return {"points": int(labels.size), "resolved": int(np.count_nonzero(labels >= 0))}
    if name == "classify.classify_table1":
        return {"out_of_range": not result.tabulated}
    if name == "portrait.render_portrait":
        return {"svg_bytes": len(result.encode())}
    return {}


class NullTracer:
    """Stand-in for timed runs: records nothing and wraps nothing."""

    @contextmanager
    def span(self, name: str, op: int | None = None):
        yield None

    def paused(self):
        return nullcontext()

    def counting_map(self, m):
        return m


class Tracer:
    """Spans and map counters for one traced workload unit at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._paused = 0
        self.op: int | None = None
        self.map_calls = 0
        self.map_rows = 0
        self.map_s = 0.0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.map_calls = self.map_rows = 0
        self.map_s = 0.0

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if self._paused:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if op is not None:
            self.op = op
        sp = Span(len(self.spans), name, 0.0, parent.id if parent else None, self.op)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            with tracer.span(name) as sp:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    sp.info["raised"] = type(exc).__name__
                    mesh = getattr(exc, "mesh", None)
                    if mesh is not None:
                        sp.info.update(_span_info(name, mesh))
                    raise
                if name == "models.map_from_config":
                    result = tracer.counting_map(result)
                sp.info.update(_span_info(name, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counting_map(self, m):
        """The same map, with every growth evaluation counted and timed."""
        growth = m.growth
        tracer = self

        def counting(x):
            t0 = time.perf_counter()
            out = growth(x)
            dt = time.perf_counter() - t0
            if not tracer._paused:
                tracer.map_calls += 1
                tracer.map_rows += int(np.prod(np.shape(x)[:-1], dtype=np.int64))
                tracer.map_s += dt
                if tracer._stack:
                    tracer._stack[-1].child_s += dt
            return out

        return dataclasses.replace(m, growth=counting)

    # -- installation ------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved = []

    # -- derived numbers ---------------------------------------------------
    def nesting_ok(self) -> bool:
        """Children's time never exceeds the parent's, and children lie inside it."""
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            if s.child_s > s.duration + 1e-9:
                return False
            if s.parent is not None:
                p = by_id[s.parent]
                if s.start < p.start or s.end > p.end:
                    return False
        return True

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers for the unit just traced (see bench/README.md)."""
        def total(name: str, key: str | None = None) -> float:
            if key is None:
                return float(sum(s.duration for s in self.spans if s.name == name))
            return float(sum(s.info.get(key, 0) for s in self.spans if s.name == name))

        def calls(name: str) -> int:
            return sum(1 for s in self.spans if s.name == name)

        self_by_layer = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s.layer in self_by_layer:
                self_by_layer[s.layer] += s.self_s
        self_by_layer["models"] += self.map_s

        def cli_self(cmd: str) -> float:
            return float(sum(s.self_s for s in self.spans if s.name == f"cli.{cmd}"))

        meshes = [s for s in self.spans if s.name == "simplex.compute_carrying_simplex"]
        sweeps = int(sum(s.info.get("sweeps", 0) for s in meshes))
        rates = [s.info["contraction_rate"] for s in meshes
                 if np.isfinite(s.info.get("contraction_rate", np.nan))]
        mesh_s = total("simplex.compute_carrying_simplex")
        basin_points = int(total("manifolds.basin_of_batch", "points"))
        resolved = int(total("manifolds.basin_of_batch", "resolved"))
        classify_spans = [s for s in self.spans if s.name == "classify.classify_table1"]
        out = {
            "cli.self_s": self_by_layer["cli"],
            "cli.analyze_self_s": cli_self("analyze"),
            "cli.simplex_self_s": cli_self("simplex"),
            "cli.portrait_self_s": cli_self("portrait"),
            "cli.verify_self_s": cli_self("verify"),
            "cli.mesh_load_s": total("cli.load_mesh"),
            "cli.classify_io_s": cli_self("classify"),
            "classify.self_s": self_by_layer["classify"],
            "classify.table1_s": total("classify.classify_table1"),
            "classify.rows": len(classify_spans),
            "classify.refused": sum(1 for s in classify_spans if "raised" in s.info),
            "classify.out_of_range": sum(1 for s in classify_spans if s.info.get("out_of_range")),
            "analysis.self_s": self_by_layer["analysis"],
            "analysis.fixed_points_s": total("analysis.find_all_fixed_points"),
            "analysis.fixed_points_calls": calls("analysis.find_all_fixed_points"),
            "existence.self_s": self_by_layer["existence"],
            "existence.verify_s": total("existence.verify_existence"),
            "existence.calls": calls("existence.verify_existence"),
            "simplex.self_s": self_by_layer["simplex"],
            "simplex.mesh_s": mesh_s,
            "simplex.mesh_calls": len(meshes),
            "simplex.sweeps": sweeps,
            "simplex.s_per_sweep": mesh_s / sweeps if sweeps else 0.0,
            "simplex.contraction_rate": float(np.median(rates)) if rates else 0.0,
            "simplex.flagged": int(sum(s.info.get("flagged", 0) for s in meshes)),
            "simplex.rays": int(sum(s.info.get("rays", 0) for s in meshes)),
            "simplex.unordered_s": total("simplex.unordered_check"),
            "simplex.invariance_s": total("simplex.invariance_residual"),
            "manifolds.self_s": self_by_layer["manifolds"],
            "manifolds.unstable_s": total("manifolds.trace_unstable"),
            "manifolds.stable_s": total("manifolds.trace_stable_on_S"),
            "manifolds.basin_s": total("manifolds.basin_of_batch"),
            "manifolds.basin_calls": calls("manifolds.basin_of_batch"),
            "manifolds.basin_points": basin_points,
            "manifolds.resolved_frac": resolved / basin_points if basin_points else 0.0,
            "manifolds.diagnostics_s": sum(total(f"manifolds.{f}") for f in (
                "leaf_contraction_report", "conjugacy_decay_report", "m2_expansion_report")),
            "portrait.self_s": self_by_layer["portrait"],
            "portrait.raster_s": total("portrait.basin_raster"),
            "portrait.components_s": total("portrait.count_basin_components"),
            "portrait.render_s": total("portrait.render_portrait"),
            "portrait.svg_bytes": int(total("portrait.render_portrait", "svg_bytes")),
            "models.self_s": self_by_layer["models"],
            "models.map_s": self.map_s,
            "models.map_calls": self.map_calls,
            "models.map_rows": self.map_rows,
            "models.rows_per_call": self.map_rows / self.map_calls if self.map_calls else 0.0,
            "trace.spans": len(self.spans),
        }
        return out
