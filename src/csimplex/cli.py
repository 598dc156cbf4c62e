"""Command line interface: analyze, classify, simplex, portrait, verify.

Exit codes: 0 success, 1 analysis/diagnostic failure, 2 configuration error,
3 missing or unreadable input artifact.  Every JSON artifact embeds the
config hash and the seed, and identical config + seed produce byte-identical
output.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from functools import cached_property
from itertools import permutations
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .analysis import SingularJacobianError, SType, boundary_sets, find_all_fixed_points, verify_C1
from .classify import _MARGIN_KEYS, _OUTCOMES, ClassifyError, _decide_block, classify_table1
from .existence import DEFAULT_GRID, axial_caps, ricker_condition, verify_existence
from .manifolds import (
    DEFAULT_BASIN_TOL,
    ManifoldError,
    conjugacy_decay_report,
    curve_from_json,
    curve_to_json,
    leaf_contraction_report,
    m2_expansion_report,
    pseudo_splitting,
    trace_stable_on_S,
    trace_unstable,
)
from .models import ConfigError, map_from_config
from .portrait import DEFAULT_RASTER, basin_raster, render_portrait
from .simplex import (
    DEFAULT_RESOLUTION,
    DEFAULT_TOL,
    NonConvergenceError,
    SimplexError,
    SimplexMesh,
    compute_carrying_simplex,
    estimate_tangent_cone,
    estimate_theta,
    invariance_residual,
    surface_distance,
    unordered_check,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3

# Numeric config keys: (default, type, lower bound).  Integers must be at
# least the bound; reals must be finite and strictly above it.  A None default
# is derived at run time (rho and sigma: midpoints of their admissible
# intervals, which pseudo_splitting checks).
_NUMERIC_SCHEMA: dict[str, tuple[int | float | None, type, float]] = {
    "mesh_resolution": (DEFAULT_RESOLUTION, int, 8),
    "mesh_tol": (DEFAULT_TOL, float, 0.0),
    "existence_grid": (DEFAULT_GRID, int, 1),
    "basin_raster": (DEFAULT_RASTER, int, 2),
    "basin_tol": (DEFAULT_BASIN_TOL, float, 0.0),
    "rho": (None, float, 0.0),
    "sigma": (None, float, 0.0),
}

# verify samples the leaf contraction and the conjugacy decay in balls of
# these radii relative to ||q||; portrait draws this many sampled orbits.
_LEAF_RADIUS_REL = 1e-3
_CONJUGACY_RADIUS_REL = 1e-2
_ORBIT_STREAKS = 8


_OUTPUT_KEYS = ("mesh", "svg", "stable", "unstable")


def _check_numeric(key: str, val):
    default, kind, low = _NUMERIC_SCHEMA[key]
    if val is None and default is None:
        return val
    field = f"numeric.{key}"
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int) or val < low:
            raise ConfigError(field, f"must be an integer >= {low}")
    elif (
        isinstance(val, bool)
        or not isinstance(val, (int, float))
        or not math.isfinite(val)
        or val <= low
    ):
        raise ConfigError(field, f"must be a finite number > {low:g}")
    return val


class RunConfig:
    """Validated run configuration: model document, numeric settings, output
    paths and the sampling seed, all from the one document."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ConfigError("<root>", "run config must be a JSON object")
        for key in doc:
            if key not in {"model", "numeric", "outputs", "seed"}:
                raise ConfigError(key, "unknown field")
        if "model" not in doc:
            raise ConfigError("model", "missing required field")
        self.model_doc = doc["model"]
        self.map = map_from_config(self.model_doc)
        given = doc.get("numeric", {})
        if not isinstance(given, dict):
            raise ConfigError("numeric", "must be an object")
        for key in given:
            if key not in _NUMERIC_SCHEMA:
                raise ConfigError(f"numeric.{key}", "unknown field")
        self.numeric = {
            key: _check_numeric(key, given[key]) if key in given else default
            for key, (default, _, _) in _NUMERIC_SCHEMA.items()
        }
        self.outputs = doc.get("outputs", {})
        if not isinstance(self.outputs, dict):
            raise ConfigError("outputs", "must be an object of path strings")
        for key, path in self.outputs.items():
            if key not in _OUTPUT_KEYS:
                raise ConfigError(f"outputs.{key}", "unknown field")
            if not isinstance(path, str) or not path:
                raise ConfigError(f"outputs.{key}", "must be a non-empty path string")
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed", "must be a nonnegative integer")
        self.seed = seed
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self.config_hash = hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        """The run config in the JSON file at ``path``."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}", str(exc)) from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}, col {exc.colno}", exc.msg) from exc
        return cls(doc)


def _json_default(obj):
    """The JSON form of the values json cannot encode itself: arrays as
    lists, complex numbers as [re, im], numpy scalars as Python ones."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _record_doc(rec) -> dict:
    return {
        "name": rec.name,
        "location": rec.location,
        "support": list(rec.support),
        "support_type": rec.support_type,
        "eigenvalues": [[z.real, z.imag] for z in rec.eigenvalues],
        "mu": [rec.mu.real, rec.mu.imag],
        "nu": rec.nu,
        "c1_holds": rec.c1_holds,
        "hyperbolic": rec.hyperbolic,
        "s_type": rec.s_type,
        "index": rec.index,
        "residual": rec.residual,
    }


def _write_text(path, *chunks: str) -> None:
    """Write an output artifact, the text chunks in order; a path that
    cannot be written is a configuration error naming the path."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot write: {exc.strerror or exc}") from exc


class _Run:
    """One command's picture of the system, each part computed on first use:
    w and its norm, the fixed points with the interior record and the
    boundary attractors and repellers, the invariant curves through q that
    exist, and the mesh from ``numeric``."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.map = cfg.map
        self.stamp = {"config_hash": cfg.config_hash, "seed": cfg.seed}
        self.mesh_error: NonConvergenceError | None = None

    @cached_property
    def w(self) -> np.ndarray:
        return axial_caps(self.map)

    @cached_property
    def w_norm(self) -> float:
        return float(np.linalg.norm(self.w))

    @cached_property
    def records(self) -> list:
        return find_all_fixed_points(self.map)

    @cached_property
    def interior(self):
        """The interior fixed-point record, or None."""
        return next((r for r in self.records if r.support_type == "interior"), None)

    @cached_property
    def boundary(self) -> tuple[dict, dict]:
        """(attractors, repellers) on S, name -> location."""
        return boundary_sets(self.records)

    @cached_property
    def curve_kinds(self) -> tuple[str, ...]:
        """The invariant curves through q on S: the unstable curve when q is a
        saddle between two attractors, and the stable curve when two repellers
        are there as well."""
        att, rep = self.boundary
        if self.interior is None or self.interior.s_type != SType.SADDLE or len(att) != 2:
            return ()
        return ("unstable", "stable") if len(rep) == 2 else ("unstable",)

    @cached_property
    def attractors_share_edge(self) -> bool | None:
        """Whether the two boundary attractors lie on one edge of S; None
        unless there are exactly two."""
        att, _ = self.boundary
        if len(att) != 2:
            return None
        miss = [set(range(3)) - set(r.support) for r in self.records if r.name in att]
        return bool(set.intersection(*miss))

    @cached_property
    def mesh(self) -> SimplexMesh:
        """The mesh from ``numeric``.  When the graph transform does not
        converge this is its last iterate and ``mesh_error`` holds the error."""
        numeric = self.cfg.numeric
        try:
            return compute_carrying_simplex(
                self.map,
                resolution=numeric["mesh_resolution"],
                tol=numeric["mesh_tol"],
            )
        except NonConvergenceError as exc:
            self.mesh_error = exc
            return exc.mesh

    def write_json(self, path: str | None, doc: dict) -> str:
        """The indent-2 JSON text of ``doc``, keys sorted, stamped with the
        config hash and the seed, written to ``path`` when one is given."""
        text = json.dumps({**doc, **self.stamp}, sort_keys=True, indent=2, default=_json_default) + "\n"
        if path:
            _write_text(path, text)
        return text


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(run: _Run, out: str | None, strict: bool) -> int:
    m = run.map
    report: dict = {
        "tool": f"csimplex analyze {__version__}",
        "model": run.cfg.model_doc,
        "warnings": [],
    }
    report["fixed_points"] = [_record_doc(r) for r in run.records]
    if run.interior is not None:
        try:
            rep_c1 = verify_C1(m, run.interior.location)
            report["c1"] = {
                "det": rep_c1.det,
                "inverse_min_entry": rep_c1.inverse_min_entry,
                "mu": [rep_c1.mu.real, rep_c1.mu.imag],
                "perron_vector": rep_c1.perron_vector,
                "passed": rep_c1.passed,
                "reason": rep_c1.reason,
            }
        except SingularJacobianError as exc:
            report["c1"] = {"passed": False, "reason": str(exc)}
        report["index"] = run.interior.index
    existence = verify_existence(m, grid=run.cfg.numeric["existence_grid"])
    report["existence"] = {
        "a1": {"passed": existence.a1.passed, "margin": existence.a1.margin},
        "a2": {"passed": existence.a2.passed, "margin": existence.a2.margin},
        "a3": {"passed": existence.a3.passed, "margin": existence.a3.margin},
        "passed": existence.passed,
        "grid_resolution": existence.grid_resolution,
    }
    if m.kind == "ricker":
        rc = ricker_condition(m.params)
        report["ricker_condition"] = {"passed": rc.passed, "margin": rc.margin}
        if not rc.passed:
            report["warnings"].append("Ricker closed-form condition fails")
    if m.n == 3 and m.params is not None:
        try:
            cls = classify_table1(m.params.A)
            report["classification"] = {
                "class_id": cls.class_id,
                "permutation": list(cls.permutation),
                "margins": cls.margins,
            }
        except (ClassifyError, ValueError) as exc:
            report["warnings"].append(f"classification refused: {exc}")
    text = run.write_json(out, report)
    if out is None:
        print(text, end="")
    if strict and not existence.passed:
        return EXIT_ANALYSIS
    return EXIT_OK


def _parse_row(row: list[str]) -> list[float]:
    """The nine entries a11..a33 of a CSV row; ValueError when it has fewer
    or more non-empty cells or a cell is not a number."""
    extra = sum(1 for c in row[9:] if c.strip())
    if extra:
        raise ValueError(f"expected 9 columns a11..a33, got {9 + extra} non-empty cells")
    vals = list(map(float, row[:9]))
    if len(vals) != 9:
        raise ValueError("expected 9 columns a11..a33")
    return vals


def _is_header(row: list[str]) -> bool:
    """A first line is a header when a non-empty cell among a11..a33 is not
    a number; a data row written as 1e-3, +1 or nan is not one."""
    for cell in row[:9]:
        if cell.strip():
            try:
                float(cell)
            except ValueError:
                return True
    return False


# The permutation column's text of each relabeling, "123" for the identity.
_PERMUTATION_TEXT = {perm: "".join(str(p + 1) for p in perm) for perm in permutations(range(3))}

# Rows per _decide_block call.  Blocks keep the kernel's arrays, the output
# rows and the raw cells bounded by the block, not by the CSV length.
_CLASSIFY_BLOCK = 1024


def _classified_rows(path: Path) -> Iterator[list[tuple]]:
    """The output rows of the CSV's data rows, in order, in blocks of
    ``_CLASSIFY_BLOCK`` rows, each classified as it is read."""
    block = []
    with path.open(newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not "".join(row).strip():
                continue
            if lineno == 1 and _is_header(row):
                continue
            try:
                block.append((lineno, row[:9], _parse_row(row)))
            except ValueError as exc:
                block.append((lineno, row[:9], exc))
            if len(block) == _CLASSIFY_BLOCK:
                yield _classify_block(block)
                block = []
    if block:
        yield _classify_block(block)


def _classify_block(block: list[tuple[int, list[str], list[float] | ValueError]]) -> list[tuple]:
    """Output rows for parsed CSV rows; the valid ones are decided in one
    batch.  A row is (row number, entries, class_id, permutation text,
    margins keys, margin values, error text), and its margins are the first
    len(keys) values.  Refused rows echo their raw cells, with no class,
    permutation or margins."""
    valid = [vals for _, _, vals in block if isinstance(vals, list)]
    decided = _decide_block(np.array(valid, dtype=float).reshape(-1, 3, 3))
    outcomes = iter(zip(decided.errors, decided.outcomes, decided.values))
    rows = []
    for lineno, cells, vals in block:
        if isinstance(vals, list):
            error, t, values = next(outcomes)
        else:
            error = vals
        if error is not None:
            rows.append((lineno, cells, "", "", (), (), f"{type(error).__name__}: {error}"))
        else:
            class_id, perm = _OUTCOMES[t]
            rows.append((lineno, vals, class_id, _PERMUTATION_TEXT[perm], _MARGIN_KEYS[t], values, ""))
    return rows


# json.dumps of a classify output row, a dict with keys a, class_id, error,
# margins, permutation and row, at sort_keys=True, indent=2, nested in the
# "rows" list of the document.
_ROW_JSON = ('{\n      "a": [\n        %s\n      ],\n      "class_id": %s,\n      "error": %s,\n'
             '      "margins": %s,\n      "permutation": %s,\n      "row": %d\n    }')


def _row_json(row: tuple) -> str:
    """The JSON text of a classify output row (see _ROW_JSON).  A classified
    row's entries and margins are finite floats (a non-finite or overflowing
    entry is refused), written by float.__repr__ as json writes them; a
    refused row's entries are its raw cells and its margins {}."""
    lineno, a, class_id, permutation, keys, values, error = row
    entries = ",\n        ".join(map(encode_basestring_ascii if error else float.__repr__, a))
    margins = ",\n        ".join(f'"{key}": {value!r}' for key, value in zip(keys, values))
    return _ROW_JSON % (
        entries, class_id if type(class_id) is int else encode_basestring_ascii(class_id),
        encode_basestring_ascii(error), f"{{\n        {margins}\n      }}" if margins else "{}",
        encode_basestring_ascii(permutation), lineno)


def _csv_field(text: str) -> str:
    """A CSV field as csv.writer's default dialect writes it (QUOTE_MINIMAL):
    quoted, its quotes doubled, when it holds a comma, a double quote, a
    carriage return or a line feed."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _row_csv(row: tuple) -> str:
    """The CSV line of a classify output row, 13 fields: its nine entries (a
    short refused row padded with empty cells), class, permutation, smallest
    margin and error.  Only the raw cells and the error can need quoting."""
    lineno, a, class_id, permutation, keys, values, error = row
    if error:
        fields = [*a, *[""] * (9 - len(a)), "", "", "", error]
        return ",".join(map(_csv_field, fields)) + "\n"
    entries = ",".join(map(float.__repr__, a))
    return f"{entries},{class_id},{permutation},{min(values[:len(keys)])!r},\n"


def cmd_classify(input_path: str, out: str | None, as_json: bool, strict: bool) -> int:
    path = Path(input_path)
    if not path.exists():
        print(f"input CSV not found: {input_path}", file=sys.stderr)
        return EXIT_MISSING
    # one text chunk per row, written once the whole input has been read
    if as_json:
        chunks = ['{\n  "rows": [']
    else:
        chunks = ["a11,a12,a13,a21,a22,a23,a31,a32,a33,class_id,permutation,min_margin,error\n"]
    refused = False
    try:
        for rows in _classified_rows(path):
            refused = refused or any(r[-1] for r in rows)
            for r in rows:
                if as_json:
                    sep = ",\n    " if len(chunks) > 1 else "\n    "
                    chunks.append(sep + _row_json(r))
                else:
                    chunks.append(_row_csv(r))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"cannot read {input_path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISSING
    if as_json:
        chunks.append("\n  ]\n}\n" if len(chunks) > 1 else "]\n}\n")
    if out:
        _write_text(out, *chunks)
    else:
        sys.stdout.writelines(chunks)
    if strict and refused:
        return EXIT_ANALYSIS
    return EXIT_OK


def cmd_simplex(run: _Run, out: str | None) -> int:
    mesh = run.mesh
    if run.mesh_error is not None:
        print(f"graph transform did not converge: {run.mesh_error}", file=sys.stderr)
        return EXIT_ANALYSIS
    out = out or run.cfg.outputs.get("mesh") or "mesh.json"
    run.write_json(out, mesh.to_json())
    log_path = Path(out).with_suffix(Path(out).suffix + ".log")
    log_lines = [f"{i + 1} {r:.12e}" for i, r in enumerate(mesh.residual_history)]
    _write_text(log_path, "\n".join(log_lines) + "\n")
    print(f"wrote {out} ({mesh.sweeps} sweeps, residual {mesh.residual:.3e}) and {log_path}")
    return EXIT_OK


# What reading a missing, corrupt or malformed JSON artifact can raise.
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, SimplexError)


def _load_mesh(path: str) -> SimplexMesh:
    doc = json.loads(Path(path).read_text())
    return SimplexMesh.from_json(doc)


def _load_curve(path: str, kind: str):
    curve = curve_from_json(json.loads(Path(path).read_text()))
    if curve.kind != kind:
        raise ValueError(f"the curve is {curve.kind}, not {kind}")
    return curve


def cmd_portrait(
    run: _Run,
    mesh_path: str | None,
    out: str | None,
    stable_path: str | None,
    unstable_path: str | None,
    no_basins: bool,
) -> int:
    m, cfg = run.map, run.cfg
    mesh_path = mesh_path or cfg.outputs.get("mesh")
    if not mesh_path or not Path(mesh_path).exists():
        print(f"mesh file not found: {mesh_path}", file=sys.stderr)
        return EXIT_MISSING
    loaded = []
    # loaded curves in the order of run.curve_kinds, as traced ones
    sources = ((mesh_path, _load_mesh), (unstable_path, lambda path: _load_curve(path, "unstable")),
               (stable_path, lambda path: _load_curve(path, "stable")))
    for path, load in sources:
        if path:
            try:
                loaded.append(load(path))
            except _UNREADABLE as exc:
                print(f"cannot load {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
                return EXIT_MISSING
    mesh, *curves = loaded
    att, rep = run.boundary
    try:
        if not curves:
            for kind in run.curve_kinds:
                q = run.interior.location
                if kind == "unstable":
                    curve = trace_unstable(m, q, att)
                else:
                    curve = trace_stable_on_S(m, mesh, q, rep, att)
                curves.append(curve)
                if cfg.outputs.get(kind):
                    run.write_json(cfg.outputs[kind], curve_to_json(curve))
    except ManifoldError as exc:
        print(f"curve tracing failed: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    raster = None
    if not no_basins and len(att) >= 2:
        stable = next((c for c in curves if c.kind == "stable"), None)
        raster = basin_raster(
            m, mesh, att, resolution=cfg.numeric["basin_raster"], tol=cfg.numeric["basin_tol"],
            stable=stable if "stable" in run.curve_kinds else None,
        )
    rng = np.random.default_rng(cfg.seed)
    orbits = []
    w_scale = mesh.vertices.max(axis=0)
    for _ in range(_ORBIT_STREAKS):
        x0 = rng.uniform(0.05, 1.0, 3) * w_scale
        orbits.append(m.orbit(x0, 40))
    meta = dict(run.stamp)
    if run.attractors_share_edge is not None:
        meta["attractors_share_edge"] = run.attractors_share_edge
    svg = render_portrait(run.records, curves, raster=raster, orbits=orbits, metadata=meta)
    out = out or cfg.outputs.get("svg") or "portrait.svg"
    _write_text(out, svg)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(run: _Run, out: str | None) -> int:
    m, cfg = run.map, run.cfg
    rng = np.random.default_rng(cfg.seed)
    checks: dict[str, dict] = {}
    report = {"tool": f"csimplex verify {__version__}", "checks": checks}

    # rho and sigma are config values: check them before any mesh is built
    split = None
    if run.interior is not None and run.interior.c1_holds:
        try:
            split = pseudo_splitting(
                m, run.interior.location, rho=cfg.numeric["rho"], sigma=cfg.numeric["sigma"]
            )
        except ValueError as exc:
            raise ConfigError("numeric", str(exc)) from exc

    existence = verify_existence(m, grid=cfg.numeric["existence_grid"])
    checks["existence"] = {
        "passed": existence.passed,
        "margins": {
            "a1": existence.a1.margin,
            "a2": existence.a2.margin,
            "a3": existence.a3.margin,
        },
    }

    mesh = run.mesh
    if run.mesh_error is None:
        checks["mesh_converged"] = {"passed": True, "sweeps": mesh.sweeps, "residual": mesh.residual}
    else:
        checks["mesh_converged"] = {"passed": False, "residual": mesh.residual}

    wn = run.w_norm
    # a graph transform stopped by a map that is not finite on the surface
    # leaves NaN radii, on which the checks of the surface are not defined
    surface = bool(np.all(np.isfinite(mesh.radii)))
    no_surface = {"passed": False, "reason": "the mesh has NaN radii"}
    if surface:
        violations = unordered_check(mesh, 1e-6 * wn)
        checks["h1_unordered"] = {"passed": not violations, "violations": len(violations)}
        inv_res = invariance_residual(m, mesh)
        checks["h4_invariance"] = {
            "passed": inv_res < 1e-4 * wn,
            "residual": inv_res,
            "bound": 1e-4 * wn,
        }
        inside = bool(np.all(mesh.vertices <= run.w[None, :] * (1.0 + 1e-6)))
        checks["h5_localized"] = {"passed": inside}
        nonzero = [r for r in run.records if r.support]
        fp_dist = max(
            float(surface_distance(mesh, r.location[None])[0]) for r in nonzero
        )
        edge = mesh.max_edge_length()
        checks["fixed_points_on_surface"] = {
            "passed": fp_dist <= edge,
            "max_distance": fp_dist,
            "mesh_edge": edge,
        }
    else:
        for name in ("h1_unordered", "h4_invariance", "h5_localized", "fixed_points_on_surface"):
            checks[name] = no_surface

    if split is not None:
        q = run.interior.location
        qn = float(np.linalg.norm(q))
        leaf = leaf_contraction_report(
            m, q, split.v, split.rho, radius=_LEAF_RADIUS_REL * qn, rng=rng
        )
        checks["leaf_contraction"] = {
            "passed": leaf.passed,
            "max_ratio": leaf.max_ratio,
            "rho": split.rho,
            "ratios_at_q": leaf.ratios_at_q,
            "mu": split.mu,
        }
        m2 = m2_expansion_report(m, q, split.w_basis, split.sigma)
        checks["m2_expansion"] = {"passed": m2.found, "l": m2.l, "sigma": split.sigma}
        if surface:
            conj = conjugacy_decay_report(
                m, mesh, q, split.v, split.w_basis, split.rho,
                radius=_CONJUGACY_RADIUS_REL * qn, rng=rng,
            )
            checks["conjugacy_decay"] = {
                "passed": conj.pass_fraction >= 0.9,
                "pass_fraction": conj.pass_fraction,
                "n_samples": conj.n_samples,
                "rho_plus_slack": conj.rho + conj.slack,
            }
            theta = estimate_theta(mesh, q, split.v, split.w_basis, 6 * edge)
            checks["theta_estimate"] = {"passed": bool(np.isfinite(theta)), "theta": theta}
            angles = []
            for radius in (8 * edge, 4 * edge, 2 * edge):
                angles.append(
                    estimate_tangent_cone(mesh, q, radius, split.w_basis).angle_to_w
                )
            noise = 2.0 * edge / wn
            trend = angles[0] + noise >= angles[1] and angles[1] + noise >= angles[2]
            checks["tangent_cone_trend"] = {
                "passed": bool(trend),
                "angles": angles,
                "radii": [8 * edge, 4 * edge, 2 * edge],
                "noise_floor": noise,
            }
        else:
            for name in ("conjugacy_decay", "theta_estimate", "tangent_cone_trend"):
                checks[name] = no_surface

    all_passed = all(c.get("passed", False) for c in checks.values())
    report["passed"] = all_passed
    text = run.write_json(out, report)
    if out is None:
        print(text, end="")
    else:
        print(f"wrote {out} (passed={all_passed})")
    return EXIT_OK if all_passed else EXIT_ANALYSIS


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csimplex",
        description="carrying simplex analysis for competitive Kolmogorov maps",
    )
    parser.add_argument("--version", action="version", version=f"csimplex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run config JSON path")
        p.add_argument("--out", default=None, help="output path")

    p = sub.add_parser("analyze", help="fixed points, spectra, (C1), index, existence")
    add_common(p)
    p.add_argument("--strict", action="store_true", help="nonzero exit when existence fails")

    p = sub.add_parser("classify", help="classify interaction matrices from CSV")
    p.add_argument("--input", required=True, help="CSV with columns a11..a33")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--strict", action="store_true", help="nonzero exit when any row errors")

    p = sub.add_parser("simplex", help="compute the carrying simplex mesh")
    add_common(p)

    p = sub.add_parser("portrait", help="render the SVG phase portrait")
    add_common(p)
    p.add_argument("--mesh", default=None, help="mesh JSON (from the simplex command)")
    p.add_argument("--stable", default=None, help="stable curve JSON")
    p.add_argument("--unstable", default=None, help="unstable curve JSON")
    p.add_argument("--no-basins", action="store_true")

    p = sub.add_parser("verify", help="run the invariant/diagnostic battery")
    add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args.input, args.out, args.as_json, args.strict)
        run = _Run(RunConfig.load(args.config))
        if args.command == "analyze":
            return cmd_analyze(run, args.out, args.strict)
        # the mesh, the curves on it and the portrait are of three species
        if run.map.n != 3:
            raise ConfigError("model", f"{args.command} is implemented for n = 3 species, "
                                       f"got n = {run.map.n}")
        if args.command == "simplex":
            return cmd_simplex(run, args.out)
        if args.command == "portrait":
            return cmd_portrait(run, args.mesh, args.out, args.stable, args.unstable, args.no_basins)
        return cmd_verify(run, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
