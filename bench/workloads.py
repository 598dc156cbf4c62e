"""The three benchmark workloads: input generation, one timed unit, checks.

A workload writes its inputs from the seed during set-up, then runs units
one after another (closed loop, one process, nothing concurrent).  Each
unit returns its wall time, one record per operation, and the list of
correctness checks that failed; checks run outside the timed regions.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import csimplex.analysis as analysis
import csimplex.classify as classify
import csimplex.cli as cli
import csimplex.existence as existence
import csimplex.manifolds as manifolds
import csimplex.portrait as portrait
import csimplex.simplex as simplex
from csimplex.models import ParameterSet, make_atkinson_allen, make_leslie_gower, make_ricker

import oracle

DATA = Path(__file__).resolve().parent / "data"

# Interaction matrices screened end to end for all three builtin models; the
# same anchors the acceptance sampler jitters around.
ANCHORS = [
    [[1.17243901, 0.82260263, 0.80436391], [0.67538217, 0.74407087, 0.93154149],
     [0.74116787, 1.19831241, 0.75078958]],
    [[0.86370721, 1.13528795, 1.27055974], [1.07066307, 0.93745135, 0.73754700],
     [1.13611673, 0.64940549, 1.03199057]],
    [[0.90457067, 1.47446300, 1.19542564], [1.23939209, 1.38720629, 0.96156474],
     [1.29469198, 1.07391184, 1.11055804]],
    [[1.15981792, 0.60845863, 1.04627469], [0.81222953, 0.75277386, 1.13844970],
     [0.70693734, 0.97160526, 0.80222826]],
    [[0.94176403, 0.61728668, 0.79993242], [0.61966788, 0.78746565, 0.94763361],
     [0.82754301, 0.89618556, 0.72942109]],
    [[0.82153437, 1.18501444, 0.48267810], [1.18546387, 0.84830635, 0.57264672],
     [0.91561038, 0.96440468, 0.87065938]],
    [[0.99019612, 0.69225828, 0.67387120], [0.71030475, 0.62398269, 0.81516973],
     [0.81202599, 0.97931894, 0.61478437]],
    [[0.81503177, 1.07739960, 0.64163159], [1.14233731, 0.75578183, 0.86835773],
     [0.55897141, 1.06685638, 0.80370988]],
    [[1.50442645, 1.04495397, 1.30984472], [0.97810458, 1.23191014, 1.32064325],
     [1.61167377, 1.44857821, 0.97407222]],
    [[1.58668275, 2.65528547, 1.58789251], [1.32943372, 2.29710182, 2.26911397],
     [1.03816225, 2.88930945, 1.89834537]],
    [[1.08483316, 1.34813123, 1.06554172], [1.35624979, 1.12326115, 0.99942717],
     [1.27278792, 1.00730496, 1.22369512]],
    [[1.97911924, 1.58236721, 1.84586426], [1.61955360, 2.09659009, 1.31560426],
     [2.83415102, 1.39899837, 1.40833154]],
]
KINDS = ("leslie_gower", "atkinson_allen", "ricker")

A_CLASS19 = [[1.0, 1.2, 1.2], [0.5, 1.0, 2.0], [0.5, 2.0, 1.0]]


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool


@dataclass
class Unit:
    wall_s: float
    ops: list[Op]
    problems: list[str] = field(default_factory=list)  # failed correctness checks


def _quiet_main(argv: list[str]) -> int | None:
    """csimplex.cli.main with its stdout swallowed; None when it raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # an operation that raises is a failed op, not a crash
        traceback.print_exc(file=sys.stderr)
        return None


def build_model(kind: str, A: np.ndarray):
    """Builtin map with the rate choices the acceptance battery uses."""
    A = np.asarray(A, dtype=float)
    if kind == "leslie_gower":
        return make_leslie_gower(ParameterSet(r=np.ones(3), A=A))
    if kind == "atkinson_allen":
        return make_atkinson_allen(ParameterSet(r=np.ones(3), A=A, c=np.full(3, 0.4)))
    r = 0.8 * np.diag(A) / A.sum(axis=1)  # passes the Ricker closed-form condition
    return make_ricker(ParameterSet(r=r, A=A))


def boundary_sets(records) -> tuple[dict, dict]:
    att = {r.name: r.location for r in records
           if r.support_type in ("axial", "planar") and r.s_type == analysis.SType.ATTRACTOR}
    rep = {r.name: r.location for r in records
           if r.support_type in ("axial", "planar") and r.s_type == analysis.SType.REPELLER}
    return att, rep


# ---------------------------------------------------------------------------
# readme_n128: the README Ricker example through the four CLI commands
# ---------------------------------------------------------------------------

class ReadmeN128:
    name = "readme_n128"
    MESH_TOL = 1e-8
    RESOLUTION = 128
    # Two converged meshes each lie within about rho/(1-rho) * tol of the
    # invariant surface (rho ~ 0.8 here), so they may differ by ~8 tol.
    RADII_TOL_FACTOR = 10.0
    VERIFY_CHECKS = (
        "existence", "mesh_converged", "h1_unordered", "h4_invariance", "h5_localized",
        "fixed_points_on_surface", "leaf_contraction", "conjugacy_decay", "m2_expansion",
        "theta_estimate", "tangent_cone_trend",
    )
    COMMANDS = ("analyze", "simplex", "portrait", "verify")
    MIN_UNITS = 1
    PROBES_PER_OP = 8  # probe samples before each op: about 40 per run

    def write_inputs(self, work: Path, seed: int) -> None:
        # The README example is fixed, its own seed included; the workload
        # seed does not change it.
        doc = {
            "model": {"kind": "ricker", "r": [0.2, 0.2, 0.2], "A": A_CLASS19},
            "numeric": {"mesh_resolution": self.RESOLUTION, "mesh_tol": self.MESH_TOL},
            "seed": 7,
        }
        (work / "run.json").write_text(json.dumps(doc, indent=2))

    def prepare(self, work: Path) -> None:
        self.work = work
        ref = json.loads((DATA / "readme_n128_radii.json").read_text())
        self.ref_radii = np.asarray(ref["radii"], dtype=float)

    def _argv(self, cmd: str) -> list[str]:
        w = self.work
        cfg = ["--config", str(w / "run.json")]
        return {
            "analyze": ["analyze", *cfg, "--out", str(w / "report.json")],
            "simplex": ["simplex", *cfg, "--out", str(w / "mesh.json")],
            "portrait": ["portrait", *cfg, "--mesh", str(w / "mesh.json"),
                         "--out", str(w / "portrait.svg")],
            "verify": ["verify", *cfg, "--out", str(w / "verify.json")],
        }[cmd]

    def run_unit(self, tracer, index: int, probe) -> Unit:
        ops = []
        codes = {}
        for k, cmd in enumerate(self.COMMANDS):
            probe()
            t0 = time.perf_counter()
            with tracer.span(f"cli.{cmd}", op=index * len(self.COMMANDS) + k):
                codes[cmd] = _quiet_main(self._argv(cmd))
            ops.append(Op(cmd, time.perf_counter() - t0, codes[cmd] == 0))
        unit = Unit(sum(op.seconds for op in ops), ops)
        with tracer.paused():
            unit.problems = self.check(codes)
        return unit

    def check(self, codes: dict) -> list[str]:
        w = self.work
        problems = []
        try:
            report = json.loads((w / "report.json").read_text())
            interior = [r for r in report["fixed_points"] if r["support_type"] == "interior"]
            if not (interior and interior[0]["s_type"] == "saddle" and interior[0]["index"] == -1):
                problems.append("analyze: interior point is not a saddle of index -1")
            if report.get("classification", {}).get("class_id") != 19:
                problems.append("analyze: class is not 19")
            mesh = json.loads((w / "mesh.json").read_text())
            if not mesh["residual"] < self.MESH_TOL:
                problems.append(f"simplex: residual {mesh['residual']:.3e} not below mesh_tol")
            radii = np.asarray(mesh["radii"], dtype=float)
            unorm = np.linalg.norm(np.asarray(mesh["directions"], dtype=float), axis=1)
            wnorm = float(np.linalg.norm(1.0 / np.diag(np.asarray(A_CLASS19))))
            bound = self.RADII_TOL_FACTOR * self.MESH_TOL * wnorm
            if radii.shape != self.ref_radii.shape:
                problems.append("simplex: mesh size differs from the reference")
            else:
                dev = float(np.max(np.abs(radii - self.ref_radii) * unorm))
                if not dev <= bound:
                    problems.append(f"simplex: radii off the reference by {dev:.3e} > {bound:.3e}")
            ET.fromstring((w / "portrait.svg").read_text())
            verify = json.loads((w / "verify.json").read_text())
            if tuple(sorted(verify["checks"])) != tuple(sorted(self.VERIFY_CHECKS)):
                problems.append(f"verify: checks reported {sorted(verify['checks'])}")
            if verify["passed"] != (codes["verify"] == 0):
                problems.append("verify: exit code disagrees with the report")
        except (OSError, ValueError, KeyError, ET.ParseError) as exc:
            problems.append(f"artifact unreadable: {type(exc).__name__}: {exc}")
        return problems

    def extra_metrics(self, units: list[Unit]) -> dict:
        out = {}
        for cmd in self.COMMANDS:
            out[f"{cmd}_s"] = (float(np.median([o.seconds for u in units for o in u.ops
                                                if o.name == cmd])), "s")
        return out


# ---------------------------------------------------------------------------
# basin_battery: nine sampled systems through the library
# ---------------------------------------------------------------------------

class BasinBattery:
    name = "basin_battery"
    N_SYSTEMS = 9
    # The work of a battery depends strongly on its jitter (the stable
    # tracer's orbit tails), so units cycle through independently drawn
    # batteries and a run always averages at least two of them.
    BATTERIES = 8
    MIN_UNITS = 2
    PROBES_PER_OP = 3
    CANDIDATES = 16
    JITTER = 0.002
    MESH_RESOLUTION = 32
    MESH_TOL = 1e-8
    RASTER = 81

    def write_inputs(self, work: Path, seed: int) -> None:
        batteries = []
        for b in range(self.BATTERIES):
            rng = np.random.default_rng([seed, b])
            systems = []
            for k in range(self.N_SYSTEMS):
                A = np.asarray(ANCHORS[k % len(ANCHORS)])
                cands = [A * np.exp(rng.normal(0.0, self.JITTER, (3, 3)))
                         for _ in range(self.CANDIDATES)]
                systems.append({"kind": KINDS[k % len(KINDS)],
                                "candidates": [c.tolist() for c in cands]})
            batteries.append(systems)
        (work / "systems.json").write_text(json.dumps(batteries))

    def prepare(self, work: Path) -> None:
        self.batteries = json.loads((work / "systems.json").read_text())

    def _screen(self, system: dict, tracer):
        """First candidate that classifies into a tabulated class and passes
        the existence checks, as a (counting) map."""
        for A in system["candidates"]:
            try:
                res = classify.classify_table1(np.asarray(A))
            except classify.ClassifyError:
                continue
            if not res.tabulated:
                continue
            m = tracer.counting_map(build_model(system["kind"], A))
            if m.kind == "ricker" and not existence.ricker_condition(m.params).passed:
                continue
            if not existence.verify_existence(m, grid=12).passed:
                continue
            return m
        raise RuntimeError("rejection screening found no admissible candidate")

    def _system(self, system: dict, tracer) -> dict:
        m = self._screen(system, tracer)
        recs = analysis.find_all_fixed_points(m)
        q = next(r for r in recs if r.support_type == "interior")
        att, rep = boundary_sets(recs)
        mesh = simplex.compute_carrying_simplex(m, resolution=self.MESH_RESOLUTION,
                                                tol=self.MESH_TOL)
        wn = float(np.linalg.norm(existence.axial_caps(m)))
        unstable = manifolds.trace_unstable(m, q.location, att, endpoint_tol=1e-5 * wn)
        stable = manifolds.trace_stable_on_S(m, mesh, q.location, rep, att)
        raster = portrait.basin_raster(m, mesh, att, resolution=self.RASTER)
        components = portrait.count_basin_components(raster, [stable, unstable])
        return {"m": m, "q": q.location, "att": att, "rep": rep, "mesh": mesh, "wn": wn,
                "unstable": unstable, "stable": stable, "raster": raster,
                "components": components}

    def run_unit(self, tracer, index: int, probe) -> Unit:
        ops, problems = [], []
        for k, system in enumerate(self.batteries[index % self.BATTERIES]):
            probe()
            t0 = time.perf_counter()
            out = None
            with tracer.span("bench.system", op=index * self.N_SYSTEMS + k):
                try:
                    out = self._system(system, tracer)
                except Exception:  # tracing that raises is a failed op
                    traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            ok = out is not None
            if ok:
                with tracer.paused():
                    labels = out["raster"].labels
                    ok = bool(np.all(labels[labels > -2] >= 0)) and out["components"] == 4
                    problems += [f"system {k}: {p}" for p in self.check(out)]
            ops.append(Op(f"system{k}", dt, ok))
        return Unit(sum(op.seconds for op in ops), ops, problems)

    @staticmethod
    def check(out: dict) -> list[str]:
        """The acceptance criterion-5 checks on one system."""
        problems = []
        wn, unstable, stable = out["wn"], out["unstable"], out["stable"]
        if set(unstable.endpoints) != set(out["att"]):
            problems.append("unstable curve does not end at the two attractors")
        if not all(d <= 1e-5 * wn for d in unstable.endpoints.values()):
            problems.append("unstable endpoints outside 1e-5 ||w||")
        edge = out["mesh"].max_edge_length()
        if not simplex.surface_distance(out["mesh"], unstable.points).max() <= 2 * edge:
            problems.append("unstable curve leaves the mesh by more than two edges")
        if set(stable.endpoints) != set(out["rep"]):
            problems.append("stable curve does not end at the two repellers")
        if not stable.distance_to(out["q"]) <= stable.tol:
            problems.append("stable curve misses the saddle q")
        labels = out["raster"].labels
        if not np.all(labels[labels > -2] >= 0):
            problems.append("raster has unresolved cells")
        if out["components"] != 4:
            problems.append(f"{out['components']} basin components, not 4")
        return problems

    def extra_metrics(self, units: list[Unit]) -> dict:
        times = [o.seconds for u in units for o in u.ops]
        return {"system_p50_s": (float(np.median(times)), "s"),
                "system_count": (len(times), "count")}


# ---------------------------------------------------------------------------
# classify_csv: the classify CLI on a seeded 5000-row CSV
# ---------------------------------------------------------------------------

class ClassifyCsv:
    name = "classify_csv"
    ROWS = 5000
    DEGENERATE = 8
    UNIFORM = (ROWS - DEGENERATE) // 2
    ANCHOR_JITTER = 0.05
    MIN_UNITS = 1
    PROBES_PER_OP = 6

    def write_inputs(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        rows = [rng.uniform(0.2, 3.0, 9) for _ in range(self.UNIFORM)]
        for _ in range(self.ROWS - self.UNIFORM - self.DEGENERATE):
            A = np.asarray(ANCHORS[rng.integers(len(ANCHORS))])
            rows.append((A * np.exp(rng.normal(0.0, self.ANCHOR_JITTER, (3, 3)))).ravel())
        for k in range(self.DEGENERATE):
            if k % 2 == 0:  # all entries equal
                rows.append(np.full(9, rng.uniform(0.2, 3.0)))
            else:  # a_ii a_jj == a_ij a_ji exactly, with powers of two
                A = rng.uniform(0.2, 3.0, (3, 3))
                i, j = sorted(rng.choice(3, 2, replace=False))
                p, q, s = rng.integers(-1, 2, 3)
                A[i, i], A[j, j], A[i, j], A[j, i] = 2.0**p, 2.0**q, 2.0**s, 2.0**(p + q - s)
                rows.append(A.ravel())
        order = rng.permutation(len(rows))
        lines = ["a11,a12,a13,a21,a22,a23,a31,a32,a33"]
        lines += [",".join(repr(float(v)) for v in rows[k]) for k in order]
        (work / "matrices.csv").write_text("\n".join(lines) + "\n")

    def prepare(self, work: Path) -> None:
        self.work = work
        self.rows = [[float(c) for c in line.split(",")]
                     for line in (work / "matrices.csv").read_text().splitlines()[1:]]
        self.expected = [oracle.expected(a) for a in self.rows]

    def run_unit(self, tracer, index: int, probe) -> Unit:
        out = self.work / "classes.json"
        out.unlink(missing_ok=True)
        argv = ["classify", "--input", str(self.work / "matrices.csv"),
                "--out", str(out), "--json"]
        probe()
        t0 = time.perf_counter()
        with tracer.span("cli.classify", op=index):
            code = _quiet_main(argv)
        dt = time.perf_counter() - t0
        with tracer.paused():
            verdicts, problems = self.check(code, out)
        ops = [Op("row", dt / len(self.rows), ok) for ok in verdicts]
        return Unit(dt, ops, problems)

    def check(self, code, out: Path) -> tuple[list[bool], list[str]]:
        if code != 0:
            return [False] * len(self.rows), [f"classify exited {code}"]
        rows = json.loads(out.read_text())["rows"]
        if len(rows) != len(self.rows):
            return [False] * len(self.rows), [f"{len(rows)} rows out, {len(self.rows)} in"]
        verdicts = [oracle.judge(r, want) for r, want in zip(rows, self.expected)]
        bad = verdicts.count(False)
        return verdicts, [f"{bad} rows disagree with the oracle"] if bad else []

    def extra_metrics(self, units: list[Unit]) -> dict:
        rows = sum(len(u.ops) for u in units)
        return {"rows_per_s": (rows / sum(u.wall_s for u in units), "rows/s")}


WORKLOADS = {w.name: w for w in (ReadmeN128(), BasinBattery(), ClassifyCsv())}
