"""Portrait geometry: projection, raster labeling, SVG structure."""
from __future__ import annotations

import re

import numpy as np
import pytest

from csimplex.analysis import boundary_sets, find_all_fixed_points
from csimplex.manifolds import trace_stable_on_S, trace_unstable
from csimplex.portrait import (
    TRIANGLE_CORNERS,
    basin_raster,
    count_basin_components,
    render_portrait,
    to_plane,
)
from csimplex.portrait import _densify, _near_curves
from conftest import build_model, ANCHOR_MATRICES


@pytest.fixture(scope="module")
def scene(class19_lg, class19_mesh):
    m, mesh = class19_lg, class19_mesh
    recs = find_all_fixed_points(m)
    q = next(r for r in recs if r.support_type == "interior")
    att, rep = boundary_sets(recs)
    unstable = trace_unstable(m, q.location, att)
    stable = trace_stable_on_S(m, mesh, q.location, rep, att)
    raster = basin_raster(m, mesh, att, resolution=61)
    return {"m": m, "mesh": mesh, "recs": recs, "q": q, "att": att,
            "unstable": unstable, "stable": stable, "raster": raster}


class TestProjection:
    def test_corners_map_to_triangle_corners(self):
        assert np.allclose(to_plane(np.array([1.0, 0.0, 0.0])), TRIANGLE_CORNERS[0])
        assert np.allclose(to_plane(np.array([0.0, 2.0, 0.0])), TRIANGLE_CORNERS[1])
        assert np.allclose(to_plane(np.array([0.0, 0.0, 0.5])), TRIANGLE_CORNERS[2])

    def test_scale_invariant(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(to_plane(x), to_plane(7.0 * x))


class TestRaster:
    def test_labels_cover_triangle(self, scene):
        raster = scene["raster"]
        inside = raster.labels > -2
        assert inside.sum() > 0.4 * raster.labels.size
        assert np.all(raster.labels[inside] >= 0)

    def test_components_separated_by_curves(self, scene):
        n = count_basin_components(scene["raster"], [scene["stable"], scene["unstable"]])
        assert n == 4

    def test_curve_exclusion_matches_brute_force(self, scene):
        R = 41
        cell = 1.0 / (R - 1)
        curves = [scene["stable"], scene["unstable"]]
        u1, u2 = np.meshgrid(np.linspace(0.0, 1.0, R), np.linspace(0.0, 1.0, R), indexing="ij")
        grid2 = np.stack([u1, u2], axis=-1)
        want = np.zeros((R, R), dtype=bool)
        for curve in curves:
            p = curve.points / curve.points.sum(axis=1, keepdims=True)
            dense = [p[:1, :2]]
            for a, b in zip(p[:-1, :2], p[1:, :2]):
                steps = max(2, int(np.ceil(np.linalg.norm(b - a) / (0.5 * cell))))
                dense.append(np.linspace(a, b, steps)[1:])
            p2 = np.vstack(dense)
            d = np.min(np.linalg.norm(grid2[:, :, None, :] - p2[None, None], axis=3), axis=2)
            want |= d < 2.0 * cell
        got = _near_curves(R, curves, 2.0 * cell)
        assert 0 < want.sum() < want.size
        assert np.array_equal(got, want)

    def test_densify_matches_linspace_loop(self):
        """The array densification gives the points of one np.linspace per
        segment bit for bit, on random polylines with repeated coordinates,
        zero-length segments and tiny steps."""
        rng = np.random.default_rng(17)
        for trial in range(200):
            k = int(rng.integers(1, 40))
            P = rng.uniform(0.0, 1.0, (k, 2))
            if trial % 2:
                P = np.round(P, 1)  # repeated coordinates and points
            P[rng.uniform(size=k) < 0.2] *= 1e-300  # steps that underflow
            spacing = float(rng.choice([0.5 / 40, 0.5 / 200, 0.3]))
            want = [P[:1]]
            for a, b in zip(P[:-1], P[1:]):
                steps = max(2, int(np.ceil(np.linalg.norm(b - a) / spacing)))
                want.append(np.linspace(a, b, steps)[1:])
            got = _densify(P, spacing)
            assert got.tobytes() == np.vstack(want).tobytes()

    def test_attractor_direction_has_own_label(self, scene):
        raster = scene["raster"]
        names = raster.attractor_names
        for idx, name in enumerate(names):
            u = scene["att"][name] / scene["att"][name].sum()
            i = int(round(u[0] * (raster.resolution - 1)))
            j = int(round(u[1] * (raster.resolution - 1)))
            assert raster.labels[i, j] == idx


class TestSvg:
    def test_saddle_glyph_at_curve_crossing(self, scene):
        svg = render_portrait(scene["recs"], [scene["stable"], scene["unstable"]])
        xy = to_plane(scene["q"].location)
        ymax = float(TRIANGLE_CORNERS[:, 1].max())
        # the saddle is drawn as an X: its path starts at (x-d, y-d)
        paths = re.findall(r'<path d="M ([0-9.+-]+) ([0-9.+-]+) L', svg)
        assert paths, "no saddle glyph rendered"
        d = 0.016 * 1.3
        px, py = float(paths[0][0]), float(paths[0][1])
        assert px == pytest.approx(xy[0] - d, abs=1e-4)
        assert py == pytest.approx(ymax - xy[1] - d, abs=1e-4)
        # both curves pass through the saddle location
        for curve in (scene["stable"], scene["unstable"]):
            pts2 = to_plane(curve.points)
            assert np.min(np.linalg.norm(pts2 - xy, axis=1)) < 5e-4

    def test_glyph_counts_match_records(self, scene):
        svg = render_portrait(scene["recs"], [])
        closed = len(re.findall(r'<circle[^/]*fill="#111"', svg))
        open_ = len(re.findall(r'<circle[^/]*fill="#fff"', svg))
        assert closed == 2  # two attractors on S
        assert open_ == 2  # two repellers on S
        assert "origin" not in svg

    def test_raster_layer_rendered(self, scene):
        svg = render_portrait(scene["recs"], [], raster=scene["raster"])
        assert svg.count("<line") > 50

    def test_metadata_embedded(self, scene):
        svg = render_portrait(scene["recs"], [], metadata={"seed": 5, "config_hash": "ab"})
        assert "config_hash=ab" in svg and "seed=5" in svg

    def test_viewbox_margin(self, scene):
        svg = render_portrait(scene["recs"], [])
        assert 'viewBox="-0.05 -0.05 1.1' in svg
