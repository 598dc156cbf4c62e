"""End-to-end CLI behavior: subcommands, exit codes, artifact formats."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csimplex
from csimplex.cli import main
from conftest import A_CLASS19, ANCHOR_MATRICES

WEAK_SYMMETRIC = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]


@pytest.fixture()
def config_path(tmp_path):
    def write(doc, name="config.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return write


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

    @pytest.mark.parametrize("doc, override", [
        ([1, 2], ["--seed", "3"]),
        ({**anchor_config(), "numeric": [1]}, ["--resolution", "16"]),
    ], ids=["list_config_with_seed", "list_numeric_with_resolution"])
    def test_override_on_malformed_config_exits_2(self, config_path, capsys, doc, override):
        assert main(["analyze", "--config", config_path(doc), *override]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_missing_model_field_reported(self, config_path, capsys):
        doc = {"model": {"kind": "ricker", "r": [1, 1, 1]}, "seed": 0}
        assert main(["analyze", "--config", config_path(doc)]) == 2
        assert "A" in capsys.readouterr().err


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

    def test_unreadable_input_exits_3(self, tmp_path, capsys):
        assert main(["classify", "--input", str(tmp_path)]) == 3
        assert f"cannot read {tmp_path}" in capsys.readouterr().err
        src = tmp_path / "utf16.csv"
        src.write_bytes(b"\xff\xfe1\x00,\x002\x00\n\x00")
        assert main(["classify", "--input", str(src)]) == 3
        assert f"cannot read {src}" in capsys.readouterr().err

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


def test_cli_import_leaves_scipy_unloaded():
    """scipy.spatial and scipy.ndimage are imported only where they are used."""
    src = str(Path(csimplex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, csimplex.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.ndimage') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"


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

    def test_seed_recorded_and_overridable(self, config_path, tmp_path):
        doc = anchor_config(seed=12, numeric={"mesh_resolution": 16})
        cfg = config_path(doc)
        out = tmp_path / "v.json"
        main(["verify", "--config", cfg, "--out", str(out), "--seed", "99"])
        assert json.loads(out.read_text())["seed"] == 99


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
