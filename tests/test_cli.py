"""End-to-end CLI behavior: subcommands, exit codes, artifact formats."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import csimplex
from csimplex import classify, cli, simplex
from csimplex.cli import _NUMERIC_SCHEMA, RunConfig, main
from conftest import A_CLASS19, ANCHOR_MATRICES

WEAK_SYMMETRIC = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]


@pytest.fixture()
def config_path(tmp_path):
    def write(doc, name="config.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write


README = Path(__file__).resolve().parents[1] / "README.md"
RETIRED_NUMERIC = (
    "mesh_max_iters", "basin_max_iter", "leaf_radius_rel", "conjugacy_radius_rel", "orbit_streaks",
)


def readme_command_line() -> str:
    """The "Command line" section of README.md."""
    return README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def readme_config() -> dict:
    """The example run config of README's "Command line" section."""
    return json.loads(readme_command_line().split("```json\n", 1)[1].split("```", 1)[0])


def anchor_config(outputs=None, numeric=None, seed=3):
    cid, A = ANCHOR_MATRICES[0]
    doc = {
        "model": {"kind": "leslie_gower", "r": [1.0, 1.0, 1.0], "A": A},
        "seed": seed,
    }
    if outputs:
        doc["outputs"] = outputs
    if numeric:
        doc["numeric"] = numeric
    return doc


class TestConfigValidation:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["analyze", "--config", str(p)]) == 2

    def test_runconfig_load(self, config_path):
        from csimplex.cli import RunConfig

        cfg = RunConfig.load(config_path(anchor_config(seed=9)))
        assert cfg.seed == 9
        assert cfg.map.kind == "leslie_gower"
        assert len(cfg.config_hash) == 16

    def test_unknown_field_exits_2(self, config_path):
        doc = anchor_config()
        doc["extra"] = 1
        assert main(["analyze", "--config", config_path(doc)]) == 2

    def test_bad_tolerance_exits_2(self, config_path):
        doc = anchor_config(numeric={"mesh_tol": -1.0})
        assert main(["analyze", "--config", config_path(doc)]) == 2

    @pytest.mark.parametrize("numeric", [
        {"existence_grid": "abc"},
        {"basin_raster": -5},
        {"orbit_streaks": "x"},
        {"mesh_tol": True},
        {"mesh_resolution": 16.0},
        {"basin_tol": float("inf")},
        {"unit_tol": 0.5},
        {"fan_resolution": 33},
    ], ids=lambda numeric: next(iter(numeric)))
    def test_bad_numeric_exits_2(self, config_path, capsys, numeric):
        doc = anchor_config(numeric=numeric)
        assert main(["analyze", "--config", config_path(doc)]) == 2
        assert f"numeric.{next(iter(numeric))}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, outputs, out, field", [
        ("simplex", {"mesh": 5}, None, "outputs.mesh"),
        ("simplex", {"mesh": "absent/m.json"}, None, "absent/m.json"),
        ("analyze", None, "absent/r.json", "absent/r.json"),
        ("analyze", {"bogus": "b.json"}, None, "outputs.bogus"),
    ], ids=["mesh_not_a_string", "mesh_dir_missing", "out_dir_missing", "unknown_output"])
    def test_bad_output_exits_2(
        self, config_path, tmp_path, monkeypatch, capsys, command, outputs, out, field
    ):
        monkeypatch.chdir(tmp_path)  # "absent/" is a missing directory under tmp_path
        doc = anchor_config(outputs=outputs, numeric={"mesh_resolution": 8})
        argv = [command, "--config", config_path(doc)] + (["--out", out] if out else [])
        assert main(argv) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("key", RETIRED_NUMERIC)
    def test_retired_numeric_key_exits_2(self, config_path, capsys, key):
        """Settings no run varies are constants; naming one is a config error."""
        doc = anchor_config(numeric={key: 1})
        assert main(["analyze", "--config", config_path(doc)]) == 2
        assert f"numeric.{key}: unknown field" in capsys.readouterr().err

    def test_seed_and_resolution_flags_refused(self, config_path, capsys):
        """The config file is the only source of a run's settings."""
        cfg = config_path(anchor_config())
        for flag, value in (("--seed", "3"), ("--resolution", "16")):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--config", cfg, flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["numeric", "outputs"])
    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "empty"])
    def test_falsy_non_object_exits_2(self, config_path, capsys, field, value):
        doc = {**anchor_config(), field: value}
        assert main(["analyze", "--config", config_path(doc)]) == 2
        assert field in capsys.readouterr().err

    def test_bool_seed_exits_2(self, config_path):
        assert main(["analyze", "--config", config_path(anchor_config(seed=True))]) == 2

    def test_rho_out_of_range_exits_2(self, config_path, capsys):
        doc = anchor_config(numeric={"mesh_resolution": 8, "rho": 2.0})
        assert main(["verify", "--config", config_path(doc)]) == 2
        assert "rho must lie in" in capsys.readouterr().err

    def test_rho_is_checked_before_the_mesh(self, config_path, capsys, monkeypatch):
        """verify refuses a bad rho without building a mesh."""
        def no_mesh(*args, **kwargs):
            raise AssertionError("the mesh was built")

        monkeypatch.setattr(cli, "compute_carrying_simplex", no_mesh)
        doc = readme_config()
        doc["numeric"]["rho"] = 0.5
        assert main(["verify", "--config", config_path(doc)]) == 2
        assert "rho must lie in" in capsys.readouterr().err

    def test_small_resolution_exits_2(self, config_path):
        doc = anchor_config(numeric={"mesh_resolution": 4})
        assert main(["analyze", "--config", config_path(doc)]) == 2

    @pytest.mark.parametrize("command", ["analyze", "simplex", "verify"])
    def test_overflowing_growth_exits_2(self, config_path, capsys, command):
        """exp(1500) overflows: the model is refused when it is built, not
        left to fail inside the analysis with a linear-algebra error."""
        doc = {"model": {"kind": "ricker", "r": [1500.0] * 3, "A": A_CLASS19.tolist()}}
        assert main([command, "--config", config_path(doc)]) == 2
        assert "config error: <params>: F or dF/dx is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 4])
    def test_species_count_other_than_three(self, tmp_path, n):
        """simplex, portrait and verify are implemented for n = 3 species:
        for a Ricker model of n = 2 or 4 they exit 2 with a config error on
        the model, before reading any artifact (portrait's mesh path does
        not exist, which would exit 3), while analyze exits 0.  No command
        prints a traceback."""
        A = np.full((n, n), 0.5) + 0.5 * np.eye(n)
        (tmp_path / "run.json").write_text(json.dumps({"model": {"kind": "ricker", "r": [0.2] * n,
                                                                 "A": A.tolist()}}))
        for command, code in (("analyze", 0), ("simplex", 2), ("portrait", 2), ("verify", 2)):
            argv = [sys.executable, "-m", "csimplex.cli", command, "--config", "run.json",
                    "--out", f"{command}.out"]
            if command == "portrait":
                argv += ["--mesh", "missing.json"]
            run = subprocess.run(argv, env=_fresh_env(), cwd=tmp_path, capture_output=True, text=True)
            assert "Traceback" not in run.stderr
            assert run.returncode == code, run.stderr
            if code == 2:
                assert run.stderr == (f"config error: model: {command} is implemented for n = 3 species, "
                                      f"got n = {n}\n")

    def test_missing_model_field_reported(self, config_path, capsys):
        doc = {"model": {"kind": "ricker", "r": [1, 1, 1]}, "seed": 0}
        assert main(["analyze", "--config", config_path(doc)]) == 2
        assert "A" in capsys.readouterr().err


def test_readme_config_and_numeric_table():
    """README's example config is valid, and its table of numeric keys names
    exactly the schema's keys with the schema's defaults."""
    cfg = RunConfig(readme_config())
    assert cfg.numeric["mesh_resolution"] == 64 and cfg.seed == 7
    rows = [line.split("|")[1:3] for line in readme_command_line().splitlines()
            if line.startswith("| `")]
    table = {re.fullmatch(r" `(\w+)` ", key).group(1): default.strip() for key, default in rows}
    assert len(table) == len(rows) and sorted(table) == sorted(_NUMERIC_SCHEMA)
    for key, (default, _, _) in _NUMERIC_SCHEMA.items():
        if default is not None:
            assert float(table[key]) == default, key


# Fields of the README config that the fuzz replaces, as key paths.
_FUZZ_PATHS = (
    [(key,) for key in ("model", "numeric", "outputs", "seed", "extra")]
    + [("numeric", key) for key in (*_NUMERIC_SCHEMA, *RETIRED_NUMERIC, "bogus")]
    + [("outputs", key) for key in ("mesh", "svg", "stable", "unstable", "bogus")]
    + [("model", key) for key in ("kind", "r", "A", "c", "extra")]
    + [("model", "r", i) for i in range(3)]
    + [("model", "A", i) for i in range(3)]
    + [("model", "A", i, j) for i in range(3) for j in range(3)]
)
# Sizes stay small: the schema takes any integer >= 1 for existence_grid and
# check_A1 samples (grid + 1)^3 points.  Reals are multiples of 1e-3 in
# [-1000, 1000]: entries of A near 1e-300 or 1e300 overflow inside the
# fixed-point analysis, which is not the config contract under test.
_FUZZ_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 40),
    st.integers(-10**6, 10**6).map(lambda k: k / 1000),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.sampled_from(["", "x", "ricker", "leslie_gower", "atkinson_allen"]),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "r", "A", "c", "mesh", "x"]), inner, max_size=3),
    max_leaves=12,
)


def _replace(doc: dict, path: tuple, value) -> None:
    """Set the field of doc at the key path to value."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@settings(derandomize=True, max_examples=300, deadline=None)
@given(path=st.sampled_from(_FUZZ_PATHS), value=_FUZZ_VALUES)
def test_analyze_exit_code_contract_is_total(path, value):
    """Whatever one field of the README config holds, analyze returns 0, 1,
    2 or 3 and raises nothing."""
    doc = readme_config()
    _replace(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(cfg), "--out", str(Path(tmp) / "r.json")]) in {
            0, 1, 2, 3}


# A resolution of 8 to 16 keeps a verify run near 0.2 s.  verify is the
# command that reads rho, whose admissible interval for the README system is
# (0.8, 0.967); None leaves rho out.  Four of the five rho branches and
# about half of the field draws are admissible, so that many runs get past
# the config checks.
_RHO_INSIDE = st.integers(801, 966).map(lambda k: k / 1000)
_FUZZ_RHO = st.one_of(st.none(), _RHO_INSIDE, st.none(), _RHO_INSIDE, _FUZZ_SCALARS)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(resolution=st.integers(8, 16), rho=_FUZZ_RHO, replace=st.booleans(),
       path=st.sampled_from(_FUZZ_PATHS), value=_FUZZ_VALUES)
def test_verify_exit_code_contract_is_total(resolution, rho, replace, path, value):
    """Whatever rho and one field of the README config hold, at a small mesh
    resolution, verify returns 0, 1, 2 or 3 and raises nothing."""
    doc = readme_config()
    doc["numeric"]["mesh_resolution"] = resolution
    if rho is not None:
        doc["numeric"]["rho"] = rho
    if replace:
        _replace(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--out", str(Path(tmp) / "v.json")]) in {
            0, 1, 2, 3}


@settings(derandomize=True, max_examples=50, deadline=None)
@given(resolution=st.integers(8, 16), raster=st.integers(2, 24), replace=st.booleans(),
       path=st.sampled_from(_FUZZ_PATHS), value=_FUZZ_VALUES)
def test_simplex_and_portrait_exit_code_contract_is_total(resolution, raster, replace, path, value):
    """Whatever one field of the README config holds, at a small mesh
    resolution and a basin raster of 2 to 24 cells, simplex and then
    portrait on the mesh that simplex wrote return 0, 1, 2 or 3 and raise
    nothing.  About half the draws keep the config as it is, so that many
    runs get past the config checks."""
    doc = readme_config()
    doc["numeric"].update(mesh_resolution=resolution, basin_raster=raster)
    if replace:
        _replace(doc, path, value)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # output paths in the config are relative
        try:
            Path("run.json").write_text(json.dumps(doc))
            assert main(["simplex", "--config", "run.json", "--out", "m.json"]) in {0, 1, 2, 3}
            assert main(["portrait", "--config", "run.json", "--mesh", "m.json",
                         "--out", "p.svg"]) in {0, 1, 2, 3}
        finally:
            os.chdir(cwd)


@pytest.fixture(scope="module")
def portrait_inputs(tmp_path_factory):
    """A README config at N=8 with the mesh and both curve documents that
    simplex and portrait write for it."""
    tmp = tmp_path_factory.mktemp("portrait_inputs")
    doc = readme_config()
    doc["numeric"]["mesh_resolution"] = 8
    doc["outputs"] = {name: str(tmp / f"{name}.json") for name in ("mesh", "stable", "unstable")}
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simplex", "--config", str(cfg)]) == 0
    assert main(["portrait", "--config", str(cfg), "--out", str(tmp / "p.svg"), "--no-basins"]) == 0
    docs = {name: json.loads(Path(path).read_text()) for name, path in doc["outputs"].items()}
    return str(cfg), docs


_FUZZ_FINITE = st.integers(-10**6, 10**6).map(lambda k: k / 1000)
_FUZZ_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# values that are no number, no list of numbers and no JSON object of fields
_FUZZ_JUNK = st.sampled_from([None, "x", [], {}, [1.0], [[1.0]]])
# an entry of a list of numbers or of rows
_FUZZ_ENTRY = st.sampled_from([math.nan, math.inf, -math.inf, "x", None, [], [1.0]])


def _is_curve_points(rows) -> bool:
    try:
        P = np.asarray(rows, dtype=float)
    except ValueError:
        return False
    return P.ndim == 2 and P.shape[0] >= 1 and P.shape[1] == 3 and bool(np.isfinite(P).all())


# A malformed field of an artifact: (key, how, value).  "set" replaces the
# field, "poke" one entry of it, "delete" removes it; "drop_row",
# "extra_row", "nest" and "columns" change its shape.
_MESH_DEFECTS = st.one_of(
    st.tuples(st.just("resolution"), st.just("set"), st.one_of(
        st.sampled_from([json.loads("1e400"), -math.inf, math.nan, 1.5, 8.0, True, False,
                         0, -8, 7, 9, 10**6, "8"]), _FUZZ_JUNK)),
    st.tuples(st.sampled_from(["directions", "radii"]),
              st.sampled_from(["drop_row", "extra_row", "nest", "columns"]), st.none()),
    st.tuples(st.sampled_from(["directions", "radii"]), st.just("poke"), _FUZZ_ENTRY),
    st.tuples(st.sampled_from(["directions", "radii", "residual"]), st.just("set"), _FUZZ_JUNK),
    # values that float() takes but that are no finite, non-negative JSON number
    st.tuples(st.just("residual"), st.just("set"), st.one_of(_FUZZ_NON_FINITE, st.sampled_from(
        ["8", "1e-9", "nan", True, False, -1e-12, -1, json.loads("1e400"), 10**400]))),
    st.tuples(st.sampled_from(["resolution", "directions", "radii", "residual"]),
              st.just("delete"), st.none()),
    st.tuples(st.none(), st.just("set"), st.sampled_from([None, 5, "x", [], {}])),
)
_CURVE_DEFECTS = st.one_of(
    st.tuples(st.just("points"), st.just("set"), st.one_of(
        st.sampled_from([[[1, 2]], [], 5, [1, 2, 3], [[[1, 2, 3]]]]), _FUZZ_JUNK,
        st.lists(st.lists(st.one_of(_FUZZ_FINITE, _FUZZ_NON_FINITE), max_size=4), max_size=3)
        .filter(lambda rows: not _is_curve_points(rows)))),
    st.tuples(st.just("points"), st.just("poke"), _FUZZ_ENTRY),
    st.tuples(st.just("tol"), st.just("set"), st.one_of(_FUZZ_NON_FINITE, _FUZZ_JUNK)),
    # values that float() takes but that are no finite, non-negative JSON number
    st.tuples(st.just("tol"), st.just("set"), st.sampled_from(
        ["0.01", "nan", True, False, -0.5, -1, json.loads("1e400"), 10**400])),
    st.tuples(st.just("endpoints"), st.just("set"), st.sampled_from(
        [None, 5, 1.5, True, "axial_1", ["axial_1", 5], [["axial_1"]], {"axial_1": 0.0}])),
    st.tuples(st.just("kind"), st.just("set"), st.one_of(
        st.sampled_from(["x", "", "Stable", "unstable ", 5, True]), _FUZZ_JUNK)),
    st.tuples(st.sampled_from(["kind", "points", "endpoints", "tol"]), st.just("delete"),
              st.none()),
    st.tuples(st.none(), st.just("set"), st.sampled_from([None, 5, "x", [], {}])),
)


def _malformed(doc: dict, key, how: str, value):
    """A copy of the artifact doc with the defect (key, how, value)."""
    doc = json.loads(json.dumps(doc))
    if key is None:
        return value
    field = doc[key]
    if how == "set":
        doc[key] = value
    elif how == "delete":
        del doc[key]
    elif how == "poke":
        row = len(field) // 2
        if isinstance(field[row], list):
            field[row][1] = value
        else:
            field[row] = value
    elif how == "drop_row":
        doc[key] = field[:-1]
    elif how == "extra_row":
        doc[key] = field + field[-1:]
    elif how == "nest":
        doc[key] = [field]
    else:  # "columns": rows of 2 numbers, or of 2 where there was 1
        doc[key] = [row[:2] if isinstance(row, list) else [row, row] for row in field]
    return doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(defect=st.one_of(st.tuples(st.just("mesh"), _MESH_DEFECTS),
                        st.tuples(st.sampled_from(["stable", "unstable"]), _CURVE_DEFECTS)))
@example(defect=("stable", ("tol", "set", "0.01")))
@example(defect=("unstable", ("tol", "set", True)))
@example(defect=("stable", ("tol", "set", -0.5)))
@example(defect=("unstable", ("endpoints", "set", "axial_1")))
def test_portrait_refuses_malformed_artifacts(portrait_inputs, defect):
    """Whatever is wrong with the shape, numbers or resolution of the mesh or
    of a curve document, portrait reports that it cannot load it and exits
    3, and raises nothing."""
    cfg, docs = portrait_inputs
    name, (key, how, value) = defect
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for artifact, doc in docs.items():
            paths[artifact] = str(Path(tmp) / f"{artifact}.json")
            if artifact == name:
                doc = _malformed(doc, key, how, value)
            Path(paths[artifact]).write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["portrait", "--config", cfg, "--mesh", paths["mesh"],
                         "--stable", paths["stable"], "--unstable", paths["unstable"],
                         "--out", str(Path(tmp) / "p.svg"), "--no-basins"])
        assert code == 3
        assert err.getvalue().startswith(f"cannot load {paths[name]}: ")


@pytest.mark.parametrize("swap", [("stable", "unstable"), ("unstable", "stable")])
def test_portrait_refuses_a_curve_of_the_other_kind(portrait_inputs, tmp_path, capsys, swap):
    """A well-formed curve file of one kind given as the other kind's curve
    exits 3, so that it is never drawn in the wrong colour."""
    cfg, docs = portrait_inputs
    given_as, kind = swap
    paths = {}
    for artifact, doc in docs.items():
        paths[artifact] = tmp_path / f"{artifact}.json"
        paths[artifact].write_text(json.dumps(doc))
    argv = ["portrait", "--config", cfg, "--mesh", str(paths["mesh"]),
            f"--{given_as}", str(paths[kind]), "--out", str(tmp_path / "p.svg"), "--no-basins"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        f"cannot load {paths[kind]}: ValueError: the curve is {kind}, not {given_as}")
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("kind", ["x", "Stable", None])
def test_portrait_refuses_an_unknown_curve_kind(portrait_inputs, tmp_path, capsys, kind):
    cfg, docs = portrait_inputs
    mesh, stable = tmp_path / "mesh.json", tmp_path / "stable.json"
    mesh.write_text(json.dumps(docs["mesh"]))
    stable.write_text(json.dumps(dict(docs["stable"], kind=kind)))
    argv = ["portrait", "--config", cfg, "--mesh", str(mesh), "--stable", str(stable),
            "--out", str(tmp_path / "p.svg"), "--no-basins"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"cannot load {stable}: ValueError: curve kind")


class TestAnalyze:
    def test_symmetric_system_has_eight_fixed_points(self, config_path, tmp_path):
        doc = {
            "model": {"kind": "leslie_gower", "r": [1, 1, 1], "A": WEAK_SYMMETRIC},
            "seed": 0,
        }
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config_path(doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        names = [f["name"] for f in report["fixed_points"]]
        assert len(names) == 8  # origin + 3 axial + 3 planar + interior
        assert sum(1 for f in report["fixed_points"] if f["support_type"] == "planar") == 3
        assert report["existence"]["passed"]

    def test_class19_reports_index_and_class(self, config_path, tmp_path):
        doc = {
            "model": {"kind": "leslie_gower", "r": [1, 1, 1], "A": A_CLASS19.tolist()},
            "seed": 0,
        }
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config_path(doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["index"] == -1
        assert report["classification"]["class_id"] == 19
        assert report["c1"]["passed"]

    def test_huge_entry_refuses_classification_only(self, config_path, tmp_path):
        """An entry whose square overflows is refused by the classifier, and
        the fixed-point analysis still runs."""
        A = A_CLASS19.copy()
        A[0, 2] = 1.5e199
        doc = {"model": {"kind": "ricker", "r": [0.2] * 3, "A": A.tolist()}, "seed": 0}
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", config_path(doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["warnings"][-1] == (
            "classification refused: entries too large: the squared maximum overflows")
        assert report["fixed_points"]

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen"])
    @pytest.mark.parametrize("i, j", [(i, j) for i in range(3) for j in range(3) if i != j])
    def test_huge_off_diagonal_entry_has_finite_jacobian(self, config_path, tmp_path, kind, i, j):
        """An off-diagonal entry of 1e300 squares the growth denominator past
        the float range; the Jacobian divides by it twice instead, so the
        analysis runs without an overflow warning."""
        A = A_CLASS19.copy()
        A[i, j] = 1e300
        model = {"kind": kind, "r": [1.0] * 3, "A": A.tolist()}
        if kind == "atkinson_allen":
            model["c"] = [0.4] * 3
        out = tmp_path / "report.json"
        doc = {"model": model, "seed": 0}
        assert main(["analyze", "--config", config_path(doc), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["fixed_points"]

    def test_tiny_scale_has_finite_residuals(self, config_path, tmp_path):
        """README Ricker with A scaled by 1e-200 has its fixed points near
        1e200; their residual norms are taken without overflow, and the
        locations scale as A does."""
        docs = [{"model": {"kind": "ricker", "r": [0.2] * 3, "A": (A_CLASS19 * s).tolist()},
                 "seed": 0} for s in (1.0, 1e-200)]
        reports = []
        for k, doc in enumerate(docs):
            out = tmp_path / f"report{k}.json"
            assert main(["analyze", "--config", config_path(doc, f"run{k}.json"),
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["fixed_points"])
        assert len(reports[0]) == len(reports[1])
        for a, b in zip(*reports):
            assert np.allclose(np.multiply(a["location"], 1e200), b["location"],
                               rtol=1e-12, atol=0.0)

    def test_strict_existence_failure_exits_1(self, config_path):
        doc = {
            "model": {"kind": "ricker", "r": [10.0, 10.0, 10.0], "A": [[1, 1, 1]] * 3},
            "seed": 0,
        }
        assert main(["analyze", "--config", config_path(doc), "--strict"]) == 1


class TestClassify:
    def test_single_row(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(",".join(str(v) for v in A_CLASS19.ravel()) + "\n")
        out = tmp_path / "out.csv"
        assert main(["classify", "--input", str(src), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("a11,")
        cells = lines[1].split(",")
        assert cells[9] == "19" and cells[10] == "123"

    def test_empty_csv(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        out = tmp_path / "out.csv"
        assert main(["classify", "--input", str(src), "--out", str(out)]) == 0
        assert out.read_text().strip().splitlines()[0].startswith("a11,")

    def test_bad_row_strict_exits_1(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("1,1,1,0,1,1,1,1,1\n")
        assert main(["classify", "--input", str(src)]) == 0
        assert main(["classify", "--input", str(src), "--strict"]) == 1

    def test_json_output(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(",".join(str(v) for v in A_CLASS19.ravel()) + "\n")
        out = tmp_path / "out.json"
        assert main(["classify", "--input", str(src), "--out", str(out), "--json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["class_id"] == 19

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["classify", "--input", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("cells, message", [
        (["nan"] + ["1"] * 8, "entries must be finite"),
        (["1"] * 8 + ["inf"], "entries must be finite"),
        (["1e308"] + ["1"] * 8, "the squared maximum overflows"),
        ([str(v) for v in A_CLASS19.ravel()] + ["2.0"], "got 10 non-empty cells"),
    ], ids=["nan", "inf", "1e308", "ten_cells"])
    def test_bad_row_refused(self, tmp_path, cells, message):
        src = tmp_path / "in.csv"
        src.write_text(",".join(str(v) for v in A_CLASS19.ravel()) + "\n" + ",".join(cells) + "\n")
        out = tmp_path / "out.json"
        assert main(["classify", "--input", str(src), "--out", str(out), "--json"]) == 0
        good, bad = json.loads(out.read_text())["rows"]
        assert bad["error"].startswith("ValueError: ") and message in bad["error"]
        assert bad["class_id"] == "" and good["class_id"] == 19
        assert main(["classify", "--input", str(src), "--strict"]) == 1

    def test_rows_across_blocks(self, tmp_path, monkeypatch):
        """Rows keep their order and verdicts when the batch is split into
        blocks, with refused rows at and across the block edges."""
        import csimplex.cli as cli
        from csimplex.classify import classify_table1

        monkeypatch.setattr(cli, "_CLASSIFY_BLOCK", 4)
        rng = np.random.default_rng(3)
        lines = [",".join(str(v) for v in rng.uniform(0.2, 3.0, 9)) for _ in range(13)]
        lines[3] = "1,1,1,0,1,1,1,1,1"
        lines[4] = "2,2,2,2,2,2,2,2,2"
        lines[8] = "1,2,3"
        src = tmp_path / "in.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        assert main(["classify", "--input", str(src), "--out", str(out), "--json"]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["row"] for r in rows] == list(range(1, 14))
        for line, r in zip(lines, rows):
            cells = line.split(",")
            if len(cells) != 9:
                assert r["error"] == "ValueError: expected 9 columns a11..a33"
                continue
            try:
                res = classify_table1(np.array([float(c) for c in cells]).reshape(3, 3))
            except (ValueError, RuntimeError) as exc:
                assert r["error"] == f"{type(exc).__name__}: {exc}"
                assert r["a"] == cells
                continue
            assert (r["class_id"], r["permutation"], r["error"]) == (
                res.class_id, "".join(str(p + 1) for p in res.permutation), "")
            assert list(r["margins"].items()) == list(res.margins.items())

    def test_unreadable_input_exits_3(self, tmp_path, capsys):
        assert main(["classify", "--input", str(tmp_path)]) == 3
        assert f"cannot read {tmp_path}" in capsys.readouterr().err
        src = tmp_path / "utf16.csv"
        src.write_bytes(b"\xff\xfe1\x00,\x002\x00\n\x00")
        assert main(["classify", "--input", str(src)]) == 3
        assert f"cannot read {src}" in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "csv"])
    def test_output_bytes_across_blocks(self, tmp_path, monkeypatch, capsys, as_json):
        """The output, to a file and to stdout, is byte for byte the stdlib's
        json.dumps of the rows (or csv.writer's lines of the rows, a short
        row padded to nine cells), with classified, refused and out-of-range
        rows on both sides of the block edges."""
        monkeypatch.setattr(cli, "_CLASSIFY_BLOCK", 4)
        src = tmp_path / "in.csv"
        src.write_text(_CRAFTED_CSV, encoding="utf-8")
        rows = [_row_doc(r) for block in cli._classified_rows(src) for r in block]
        assert len(rows) == 12
        if as_json:
            want = json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow("a11 a12 a13 a21 a22 a23 a31 a32 a33 class_id permutation min_margin error".split())
            writer.writerows(map(_csv_fields, rows))
            want = buf.getvalue()
        flags = ["--json"] if as_json else []
        out = tmp_path / "out"
        assert main(["classify", "--input", str(src), "--out", str(out), *flags]) == 0
        assert out.read_bytes() == want.encode()
        capsys.readouterr()
        assert main(["classify", "--input", str(src), *flags]) == 0
        assert capsys.readouterr().out == want

    def test_csv_output_reads_back(self, tmp_path):
        """Every line of the CSV output reads back with csv.reader as 13
        fields; raw cells and refusal messages holding commas, quotes or line
        breaks round-trip, and lines without them keep the bytes of the plain
        comma join."""
        tie = A_CLASS19.copy()
        tie[1, 0] = tie[0, 0]
        src = tmp_path / "in.csv"
        src.write_text("\n".join([
            "a11,a12,a13,a21,a22,a23,a31,a32,a33",
            ",".join(str(v) for v in A_CLASS19.ravel()),
            ",".join(str(v) for v in A_CLASS19.ravel()) + ",2.0",
            '"1,5",2,3,4,5,6,7,8,9',
            '"x\ny",1,1,1,1,1,1,1,1',
            '"x\ry",a ""q"",1,1,1,1,1,1,1',
            "1,2,3",
            ",".join(str(v) for v in tie.ravel()),
            "1,0.5,0.5,0.5,1,0.5,0.5,0.5,1",
        ]) + "\n", encoding="utf-8")
        rows = [_row_doc(r) for block in cli._classified_rows(src) for r in block]
        assert rows[6]["error"].startswith("TieOnBoundaryError: ") and "candidates [(19, (" in rows[6]["error"]
        assert "got 10 non-empty cells" in rows[1]["error"]
        out = tmp_path / "out.csv"
        assert main(["classify", "--input", str(src), "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            header, *fields = list(csv.reader(fh))
        assert len(header) == 13 and len(fields) == len(rows) == 8
        for r, f in zip(rows, fields):
            assert len(f) == 13
            if r["error"]:
                assert f[:9] == [*r["a"], *[""] * (9 - len(r["a"]))]
                assert f[12] == r["error"]
        assert ["1,5", "x\ny", "x\ry", "1"] == [f[0] for f in fields[2:6]]
        assert fields[4][1] == rows[4]["a"][1] == 'a ""q""'
        text = out.read_text()
        classified = [r for r in rows if not r["error"]]
        assert {r["class_id"] for r in classified} == {19, "out_of_tabulated_range"}
        for r in classified:
            line = ",".join([*map(str, r["a"]), str(r["class_id"]), r["permutation"],
                             str(min(r["margins"].values())), ""])
            assert f"\n{line}\n" in text

    def test_extreme_scales_write_finite_floats(self, tmp_path):
        """Rows at scales 1e150, 1e-150 and 2^+-500, with random entries or
        with a 2x2 determinant 2^-39 just above the 1e-12 max|A|^2 threshold
        (2^-40, just below, is refused): every float classify writes is
        finite, the JSON is the stdlib's text of its document, and each CSV
        line's min_margin is the smallest of the row's JSON margins."""
        rng = np.random.default_rng(150)
        lines = []
        for scale in (1e150, 1e-150, 2.0**500, 2.0**-500):
            lines += [rng.uniform(0.2, 3.0, 9) * scale for _ in range(40)]
            for k in (2, 1):
                for _ in range(20):
                    A = rng.uniform(0.2, 1.0, (3, 3))
                    A[0, 0] = A[1, 1] = A[0, 1] = 1.0
                    A[1, 0] = 1.0 - k * 2.0**-40
                    lines.append(A.ravel() * scale)
        src = tmp_path / "in.csv"
        src.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in lines))
        out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
        assert main(["classify", "--input", str(src), "--out", str(out_json), "--json"]) == 0
        assert main(["classify", "--input", str(src), "--out", str(out_csv)]) == 0
        text = out_json.read_text()
        rows = json.loads(text)["rows"]
        assert text == json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"
        with out_csv.open(newline="") as fh:
            fields = list(csv.reader(fh))[1:]
        assert len(rows) == len(fields) == len(lines)
        classified = [(r, f) for r, f in zip(rows, fields) if not r["error"]]
        degenerate = [r for r in rows if r["error"].startswith("DegenerateDenominatorError")]
        assert len(degenerate) == 4 * 20 and len(classified) > len(rows) // 2
        # the rows just above the threshold have sum margins near 2^39
        assert max(abs(v) for r, _ in classified for v in r["margins"].values()) > 1e11
        for r, f in classified:
            floats = [*r["a"], *r["margins"].values()]
            assert all(type(v) is float and math.isfinite(v) for v in floats)
            assert f[:9] == [repr(v) for v in r["a"]]
            assert f[9:] == [str(r["class_id"]), r["permutation"], repr(min(r["margins"].values())), ""]

    def test_input_unreadable_after_2000_rows_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """A CSV that stops decoding after 2,000 rows, once blocks have been
        classified, exits 3 with no output file and nothing on stdout."""
        blocks = []
        decide = cli._decide_block
        monkeypatch.setattr(cli, "_decide_block", lambda As: blocks.append(len(As)) or decide(As))
        src = tmp_path / "in.csv"
        row = ",".join(str(v) for v in A_CLASS19.ravel()) + "\n"
        src.write_bytes(row.encode() * 2000 + b"\xff\xfe1,2\n")
        out = tmp_path / "out"
        for flags in ([], ["--json"]):
            capsys.readouterr()
            assert main(["classify", "--input", str(src), "--out", str(out), *flags]) == 3
            assert not out.exists()
            assert main(["classify", "--input", str(src), *flags]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and f"cannot read {src}" in captured.err
        assert blocks and blocks[0] == cli._CLASSIFY_BLOCK

    def test_json_output_peak_memory(self, tmp_path):
        """classify --json holds one text chunk per row and the output rows
        of one block at a time: on these 5,000 rows its traced peak is 2.5
        times the size of its output, against 4.5 times when every row dict
        was kept and json.dump encoded them into one buffer."""
        rng = np.random.default_rng(1)
        src = tmp_path / "in.csv"
        src.write_text("".join(",".join(map(repr, rng.uniform(0.2, 3.0, 9).tolist())) + "\n"
                               for _ in range(5000)))
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            assert cli.cmd_classify(str(src), str(out), True, False) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * out.stat().st_size

    def test_header_row_skipped(self, tmp_path):
        src = tmp_path / "in.csv"
        header = "a11,a12,a13,a21,a22,a23,a31,a32,a33"
        src.write_text(header + "\n" + ",".join(str(v) for v in A_CLASS19.ravel()) + "\n")
        out = tmp_path / "out.csv"
        assert main(["classify", "--input", str(src), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one data row
        assert lines[1].split(",")[9] == "19"

    @pytest.mark.parametrize("first", ["1e-3", "+1", "nan"])
    def test_numeric_first_row_is_data(self, tmp_path, first):
        """A first line whose cells are all numbers is a data row: it gets the
        verdict it gets below a header, and a nan row is refused."""
        row = ",".join([first] + [str(v) for v in A_CLASS19.ravel()[1:]])
        header = "a11,a12,a13,a21,a22,a23,a31,a32,a33"
        docs = []
        for name, text in (("first", row + "\n" + row + "\n"), ("below", header + "\n" + row + "\n")):
            src = tmp_path / f"{name}.csv"
            src.write_text(text)
            out = tmp_path / f"{name}.json"
            assert main(["classify", "--input", str(src), "--out", str(out), "--json"]) == 0
            docs.append(json.loads(out.read_text())["rows"])
        first_rows, below_rows = docs
        assert [r["row"] for r in first_rows] == [1, 2] and [r["row"] for r in below_rows] == [2]
        for r in first_rows:
            assert {k: v for k, v in r.items() if k != "row"} == \
                {k: v for k, v in below_rows[0].items() if k != "row"}
        if first == "nan":
            assert first_rows[0]["error"].startswith("ValueError: ")
            assert first_rows[0]["class_id"] == ""

    @pytest.mark.parametrize("margin_keys", sorted(set(classify._MARGIN_KEYS)),
                             ids=lambda keys: "+".join(k for k in keys if k.startswith("inv")) or "alpha")
    def test_classify_row_template(self, margin_keys):
        """_row_json (the _ROW_JSON layout) and _row_csv of a row of every
        outcome with these margins keys (its int or out-of-range class_id and
        its permutation) against the stdlib's json.dumps at indent 4 and
        csv.writer's line, with margins of random values and of signs 1.0,
        -1.0, 0.0 and -0.0.  The values past the keys are smaller than every
        margin and must not reach the smallest margin.  Refused rows hold raw
        cells that need escaping in JSON and quoting in CSV: non-ASCII, a
        quote, a comma, a carriage return and a line feed."""
        rng = np.random.default_rng(len(margin_keys))
        tail = [-1e300] * (9 - len(margin_keys))
        signs = [1.0, -1.0, 0.0, -0.0, -0.0, 0.0, 1.0, -1.0, 1.0][:len(margin_keys)]
        rows = [(12, rng.uniform(0.2, 3.0, 9).tolist(), class_id, cli._PERMUTATION_TEXT[perm], keys,
                 [*values, *tail], "")
                for (class_id, perm), keys in zip(classify._OUTCOMES, classify._MARGIN_KEYS)
                if keys == margin_keys
                for values in (rng.normal(size=len(keys)).tolist(), signs)]
        assert rows
        rows += [(3, ["\u00e9", 'a "q"', "1,5", "x\ry", "x\ny", "\u65e5\u672c", "", " ", "\U0001f600"],
                  "", "", (), (), "ValueError: could not convert string to float: '\u00e9'"),
                 (4, ["1", "2,", '"3'], "", "", (), (), "ValueError: expected 9 columns a11..a33")]
        for row in rows:
            doc = _row_doc(row)
            assert cli._row_json(row) == json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n    ")
            # the default dialect quotes a lone \r as well as \n; lines end in \n
            buf = io.StringIO()
            csv.writer(buf).writerow(_csv_fields(doc))
            assert cli._row_csv(row) == buf.getvalue()[:-2] + "\n"

    def test_classified_csv(self, tmp_path):
        """The rows classify makes of CSV lines classified, refused (odd raw
        cells, empty margins) and out of the tabulated range (sign margins)."""
        src = tmp_path / "in.csv"
        src.write_text(_CRAFTED_CSV, encoding="utf-8")
        rows = [_row_doc(r) for block in cli._classified_rows(src) for r in block]
        assert {r["class_id"] for r in rows} >= {19, "", "out_of_tabulated_range"}


# Data rows classified (class 19), refused with raw cells that JSON escapes,
# and out of the tabulated range, below a header.
_CRAFTED_CSV = "\n".join([
    "a11,a12,a13,a21,a22,a23,a31,a32,a33",
    ",".join(str(v) for v in A_CLASS19.ravel()),
    "\u00e9,\u00fc,\u65e5\u672c,1,1,1,1,1,1",
    '"a ""quoted"" cell",b\\c,"x\ty",1,1,1,1,1,1',
    "nan,inf,-inf,1,1,1,1,1,1",
    "\x01\x1f, ,x,1,1,1,1,1,1",
    "1,2,3",
    "1,1,1,0,1,1,1,1,1",
    "2,2,2,2,2,2,2,2,2",
    "1,0.5,0.5,0.5,1,0.5,0.5,0.5,1",
    "1,2,2,2,1,2,2,2,1",
    ",".join(str(v) for v in A_CLASS19.ravel()),
    "0.5,1.5,0.3,0.9,0.7,1.6,1.1,0.2,0.8",
]) + "\n"


def _row_doc(row: tuple) -> dict:
    """A classify output row as the document its JSON text encodes: the
    margins are the first len(keys) values under those keys."""
    lineno, a, class_id, permutation, keys, values, error = row
    return {"row": lineno, "a": a, "class_id": class_id, "permutation": permutation,
            "margins": dict(zip(keys, values)), "error": error}


def _csv_fields(doc: dict) -> list:
    """The 13 CSV fields of a classify row document, for csv.writer: the
    cells padded to nine, class, permutation, smallest margin and error."""
    margin = min(doc["margins"].values()) if doc["margins"] else ""
    return [*doc["a"], *[""] * (9 - len(doc["a"])), doc["class_id"], doc["permutation"], margin,
            doc["error"]]


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this csimplex."""
    src = str(Path(csimplex.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_fresh(code: str, cwd=None) -> str:
    """stdout of the Python code run in a fresh interpreter on this csimplex."""
    run = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), cwd=cwd, capture_output=True,
                         text=True, check=True)
    return run.stdout.strip()


def test_cli_import_builds_no_lattice():
    """Importing the CLI builds no lattice tables; the first mesh does."""
    code = "import csimplex.cli; print(csimplex.simplex._lattice.cache_info().currsize)"
    assert _run_fresh(code) == "0"


def test_commands_build_each_lattice_once(tmp_path, monkeypatch):
    """analyze, simplex, portrait --mesh and verify on the README config
    build the lattice tables of the mesh resolution once between them: the
    two graph transforms, the loaded mesh's pull-back and verify's distances
    share one _Lattice.  Every JSON artifact they write, the traced curves
    included, is the stdlib's indent-2 text of its own document."""
    calls = []
    build = simplex.lattice_triangulation
    monkeypatch.setattr(simplex, "lattice_triangulation", lambda N: (calls.append(N), build(N))[1])
    simplex._lattice.cache_clear()
    doc = readme_config()
    doc["numeric"].update(mesh_resolution=16, basin_raster=24)
    doc["outputs"].update(stable="stable.json", unstable="unstable.json")
    (tmp_path / "run.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)  # output paths in the config are relative
    assert main(["analyze", "--config", "run.json", "--out", "report.json"]) == 0
    assert main(["simplex", "--config", "run.json", "--out", "mesh.json"]) == 0
    assert main(["portrait", "--config", "run.json", "--mesh", "mesh.json", "--out", "p.svg"]) == 0
    assert main(["verify", "--config", "run.json", "--out", "verify.json"]) in {0, 1}
    assert calls == [16]
    for name in ("report.json", "mesh.json", "stable.json", "unstable.json", "verify.json"):
        text = (tmp_path / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


def test_cli_import_leaves_scipy_unloaded():
    """scipy.spatial and scipy.ndimage are imported only where they are used."""
    code = ("import sys, csimplex.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.ndimage') if m in sys.modules))")
    assert _run_fresh(code) == "[]"


def test_verify_leaves_scipy_unloaded(tmp_path):
    """On the README example every distance of verify passes the ring
    certificate, and the diagnostics near q use no kd-tree, so no scipy
    module is loaded (h4 fails on this example, so verify exits 1)."""
    doc = readme_config()
    doc["numeric"]["mesh_resolution"] = 32
    (tmp_path / "run.json").write_text(json.dumps(doc))
    code = ("import sys; from csimplex.cli import main; "
            "code = main(['verify', '--config', 'run.json', '--out', 'v.json']); "
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert _run_fresh(code, cwd=tmp_path).splitlines()[-1] == "1 []"


def test_verify_at_n128_leaves_scipy_unloaded(tmp_path):
    """The same at N=128, on the config of the readme_n128 benchmark
    workload."""
    doc = {"model": readme_config()["model"], "numeric": {"mesh_resolution": 128, "mesh_tol": 1e-8},
           "seed": 7}
    (tmp_path / "run.json").write_text(json.dumps(doc))
    code = ("import sys; from csimplex.cli import main; "
            "code = main(['verify', '--config', 'run.json', '--out', 'v.json']); "
            "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert _run_fresh(code, cwd=tmp_path).splitlines()[-1] == "1 []"


def test_portrait_leaves_scipy_unloaded(tmp_path):
    """portrait on the README example labels its raster by the side of the
    stable curve, which needs no kd-tree, so no scipy module is loaded."""
    (tmp_path / "run.json").write_text(json.dumps(readme_config()))
    code = ("import sys; from csimplex.cli import main; "
            "codes = [main([cmd, '--config', 'run.json']) for cmd in ('simplex', 'portrait')]; "
            "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert _run_fresh(code, cwd=tmp_path).splitlines()[-1] == "[0, 0] []"


class TestSimplexAndPortrait:
    def test_pipeline(self, config_path, tmp_path):
        mesh_path = tmp_path / "mesh.json"
        svg_path = tmp_path / "portrait.svg"
        doc = anchor_config(
            outputs={"mesh": str(mesh_path), "svg": str(svg_path)},
            numeric={"mesh_resolution": 24, "basin_raster": 60},
        )
        cfg = config_path(doc)
        assert main(["simplex", "--config", cfg]) == 0
        mesh_doc = json.loads(mesh_path.read_text())
        assert set(mesh_doc) >= {"resolution", "directions", "radii", "residual"}
        assert "config_hash" in mesh_doc and "seed" in mesh_doc
        assert (tmp_path / "mesh.json.log").exists()
        assert main(["portrait", "--config", cfg]) == 0
        svg = svg_path.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") >= 4  # two closed + two open bullets
        assert svg.count("<polyline") >= 3  # triangle + both curves

    def test_missing_mesh_exits_3(self, config_path, tmp_path):
        doc = anchor_config(outputs={"mesh": str(tmp_path / "absent.json")})
        assert main(["portrait", "--config", config_path(doc)]) == 3

    @pytest.mark.parametrize("text", ["{not json", "{}", "[1, 2]"])
    def test_corrupt_mesh_exits_3(self, config_path, tmp_path, capsys, text):
        mesh_path = tmp_path / "mesh.json"
        mesh_path.write_text(text)
        doc = anchor_config(outputs={"mesh": str(mesh_path)})
        assert main(["portrait", "--config", config_path(doc)]) == 3
        assert f"cannot load {mesh_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_mesh_with_bad_radius_exits_3(self, config_path, tmp_path, capsys, bad):
        mesh_path = tmp_path / "mesh.json"
        doc = anchor_config(outputs={"mesh": str(mesh_path)}, numeric={"mesh_resolution": 8})
        cfg = config_path(doc)
        assert main(["simplex", "--config", cfg]) == 0
        mesh_doc = json.loads(mesh_path.read_text())
        mesh_doc["radii"][4] = bad
        mesh_path.write_text(json.dumps(mesh_doc))
        assert main(["portrait", "--config", cfg]) == 3
        assert "radii must be finite and positive" in capsys.readouterr().err

    def test_missing_curve_exits_3(self, config_path, tmp_path):
        mesh_path = tmp_path / "mesh.json"
        doc = anchor_config(outputs={"mesh": str(mesh_path)}, numeric={"mesh_resolution": 8})
        cfg = config_path(doc)
        assert main(["simplex", "--config", cfg]) == 0
        absent = str(tmp_path / "absent.json")
        assert main(["portrait", "--config", cfg, "--stable", absent]) == 3

    def test_no_basins_flag(self, config_path, tmp_path):
        mesh_path = tmp_path / "mesh.json"
        svg_path = tmp_path / "p.svg"
        doc = anchor_config(
            outputs={"mesh": str(mesh_path), "svg": str(svg_path)},
            numeric={"mesh_resolution": 24},
        )
        cfg = config_path(doc)
        assert main(["simplex", "--config", cfg]) == 0
        assert main(["portrait", "--config", cfg, "--no-basins"]) == 0
        assert "<line" not in svg_path.read_text()

    def test_portrait_from_saved_curves(self, config_path, tmp_path):
        mesh_path = tmp_path / "mesh.json"
        doc = anchor_config(
            outputs={
                "mesh": str(mesh_path),
                "stable": str(tmp_path / "stable.json"),
                "unstable": str(tmp_path / "unstable.json"),
            },
            numeric={"mesh_resolution": 24, "basin_raster": 40},
        )
        cfg = config_path(doc)
        assert main(["simplex", "--config", cfg]) == 0
        assert main(["portrait", "--config", cfg, "--out", str(tmp_path / "p1.svg")]) == 0
        stable_doc = json.loads((tmp_path / "stable.json").read_text())
        assert stable_doc["kind"] == "stable"
        assert stable_doc["seed"] == 3
        # re-render from the persisted curve files instead of re-tracing
        assert main([
            "portrait", "--config", cfg,
            "--stable", str(tmp_path / "stable.json"),
            "--unstable", str(tmp_path / "unstable.json"),
            "--out", str(tmp_path / "p2.svg"), "--no-basins",
        ]) == 0
        assert (tmp_path / "p2.svg").read_text().count("<polyline") >= 3
        # loaded curves are drawn in the traced order, and the loaded stable
        # curve labels the raster as the traced one does
        assert main([
            "portrait", "--config", cfg,
            "--stable", str(tmp_path / "stable.json"),
            "--unstable", str(tmp_path / "unstable.json"),
            "--out", str(tmp_path / "p3.svg"),
        ]) == 0
        assert (tmp_path / "p3.svg").read_bytes() == (tmp_path / "p1.svg").read_bytes()


class TestVerify:
    def test_anchor_system_passes(self, config_path, tmp_path):
        out = tmp_path / "verify.json"
        doc = anchor_config(seed=5)
        assert main(["verify", "--config", config_path(doc), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["checks"]["h1_unordered"]["passed"]
        assert report["checks"]["tangent_cone_trend"]["passed"]

    def test_determinism_byte_identical(self, config_path, tmp_path):
        doc = anchor_config(seed=12, numeric={"mesh_resolution": 16})
        cfg = config_path(doc)
        a, b = tmp_path / "v1.json", tmp_path / "v2.json"
        main(["verify", "--config", cfg, "--out", str(a)])
        main(["verify", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded(self, config_path, tmp_path):
        doc = anchor_config(seed=12, numeric={"mesh_resolution": 16})
        out = tmp_path / "v.json"
        main(["verify", "--config", config_path(doc), "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 12

    def test_overflowing_ricker_reports_without_warnings(self, config_path, tmp_path):
        """Ricker with r = 700 is accepted (F is finite at the origin), but
        det(I - DT(0)) overflows and the graph transform's images underflow
        to the origin.  analyze and verify report on it without a numpy
        warning (the RuntimeWarning filter turns one into a failure), and
        verify fails the surface checks on the mesh's NaN radii."""
        doc = {"model": {"kind": "ricker", "r": [700.0] * 3, "A": A_CLASS19.tolist()}, "seed": 0}
        cfg = config_path(doc)
        report = tmp_path / "report.json"
        assert main(["analyze", "--config", cfg, "--out", str(report)]) == 0
        origin = json.loads(report.read_text())["fixed_points"][0]
        assert origin["support"] == [] and origin["index"] == -1
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert not checks["mesh_converged"]["passed"]
        for name in ("h1_unordered", "h4_invariance", "h5_localized", "fixed_points_on_surface"):
            assert checks[name] == {"passed": False, "reason": "the mesh has NaN radii"}


class TestPortraitDeterminism:
    def test_identical_up_to_banner(self, config_path, tmp_path):
        mesh_path = tmp_path / "mesh.json"
        doc = anchor_config(
            outputs={"mesh": str(mesh_path)},
            numeric={"mesh_resolution": 24, "basin_raster": 50},
        )
        cfg = config_path(doc)
        main(["simplex", "--config", cfg])
        s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        assert main(["portrait", "--config", cfg, "--out", str(s1)]) == 0
        assert main(["portrait", "--config", cfg, "--out", str(s2)]) == 0
        strip = lambda p: [l for l in p.read_text().splitlines() if "csimplex" not in l]
        assert strip(s1) == strip(s2)
