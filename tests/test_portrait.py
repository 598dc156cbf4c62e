"""Portrait geometry: projection, raster labeling, SVG structure."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from csimplex.analysis import boundary_sets, find_all_fixed_points
from csimplex.existence import axial_caps
from csimplex.manifolds import trace_stable_on_S, trace_unstable
from csimplex.models import map_from_config
from csimplex.portrait import (
    TRIANGLE_CORNERS,
    basin_raster,
    count_basin_components,
    render_portrait,
    to_plane,
)
from csimplex.portrait import _curve_width, _densify, _near_curve, _near_curves, _stable_side
from csimplex.simplex import compute_carrying_simplex
from conftest import A_CLASS19, build_model, ANCHOR_MATRICES, battery_maps


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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_curve_exclusion_matches_kd_tree(self, seed, monkeypatch, tmp_path):
        """On the basin_battery systems (raster R=81, both curves, exclusion
        two cells) the band is the kd-tree query's: the cells with distance
        below the exclusion to the densified polylines."""
        from scipy.spatial import cKDTree

        R = 81
        cell = 1.0 / (R - 1)
        u1, u2 = np.meshgrid(np.linspace(0.0, 1.0, R), np.linspace(0.0, 1.0, R), indexing="ij")
        grid2 = np.stack([u1.ravel(), u2.ravel()], axis=1)
        for m in battery_maps(seed, monkeypatch, tmp_path):
            recs = find_all_fixed_points(m)
            q = next(r for r in recs if r.support_type == "interior").location
            att, rep = boundary_sets(recs)
            mesh = compute_carrying_simplex(m, resolution=32, tol=1e-8)
            wn = float(np.linalg.norm(axial_caps(m)))
            curves = [trace_stable_on_S(m, mesh, q, rep, att),
                      trace_unstable(m, q, att, endpoint_tol=1e-5 * wn)]
            want = np.zeros(R * R, dtype=bool)
            for curve in curves:
                uv = curve.points[:, :2] / curve.points.sum(axis=1, keepdims=True)
                d, _ = cKDTree(_densify(uv, 0.5 * cell)).query(grid2, distance_upper_bound=2.0 * cell)
                want |= d < 2.0 * cell
            assert np.array_equal(_near_curves(R, curves, 2.0 * cell), want.reshape(R, R))

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


# ---------------------------------------------------------------------------
# Basin raster labelled by the side of the stable curve
# ---------------------------------------------------------------------------

def stable_system(m, resolution):
    """(records, mesh, attractors, stable curve) of a 2+2 system."""
    recs = find_all_fixed_points(m)
    q = next(r for r in recs if r.support_type == "interior")
    att, rep = boundary_sets(recs)
    mesh = compute_carrying_simplex(m, resolution=resolution, tol=1e-8)
    return recs, mesh, att, trace_stable_on_S(m, mesh, q.location, rep, att)


@pytest.fixture(scope="module")
def readme_systems():
    """The README example (Ricker, r = 0.2, class-19 A) at N = 64 and 128,
    with its orbit raster at R = 200."""
    m = map_from_config({"kind": "ricker", "r": [0.2, 0.2, 0.2], "A": A_CLASS19.tolist()})
    out = {}
    for N in (64, 128):
        recs, mesh, att, stable = stable_system(m, N)
        raster = basin_raster(m, mesh, att, resolution=200)
        out[N] = {"m": m, "recs": recs, "mesh": mesh, "att": att, "stable": stable,
                  "raster": raster}
    return out


def reference_raster_lines(raster) -> list[str]:
    """The raster layer's <line> elements by the loop over the cells that
    render_portrait ran before it found the runs with numpy."""
    fills = ("#c7d9f2", "#f2d8c2", "#d6ecd2", "#e8d5ec")
    ymax = float(TRIANGLE_CORNERS[:, 1].max())
    cell = raster.cell_size()
    labels, corners, out = raster.labels, TRIANGLE_CORNERS, []
    for i in range(labels.shape[0]):
        j = 0
        while j < labels.shape[1]:
            lab = labels[i, j]
            if lab < 0:
                j += 1
                continue
            j0 = j
            while j < labels.shape[1] and labels[i, j] == lab:
                j += 1
            u_lo = np.array([i * cell, j0 * cell])
            u_hi = np.array([i * cell, (j - 1) * cell])
            a = u_lo[0] * corners[0] + u_lo[1] * corners[1] + (1 - u_lo.sum()) * corners[2]
            b = u_hi[0] * corners[0] + u_hi[1] * corners[1] + (1 - u_hi.sum()) * corners[2]
            out.append(
                f'<line x1="{a[0]:.5f}" y1="{ymax - a[1]:.5f}" '
                f'x2="{b[0]:.5f}" y2="{ymax - b[1]:.5f}" '
                f'stroke="{fills[int(lab) % 4]}" stroke-width="{cell * 1.2:.5f}"/>'
            )
    return out


def assert_side_labels_equal_orbit_labels(m, recs, mesh, att, stable, resolution, by_orbit=None):
    """The raster labelled by the side of the stable curve has the orbit
    raster's labels, labels most cells by side, and renders the orbit
    raster's layer of runs."""
    by_orbit = by_orbit or basin_raster(m, mesh, att, resolution=resolution)
    by_side = basin_raster(m, mesh, att, resolution=resolution, stable=stable)
    inside = int(np.count_nonzero(by_orbit.labels > -2))
    assert by_orbit.orbit_cells == inside
    assert np.array_equal(by_side.labels, by_orbit.labels)
    assert by_side.orbit_cells < 0.3 * inside
    svg = render_portrait(recs, [], raster=by_side)
    assert re.findall(r"<line [^>]*/>", svg) == reference_raster_lines(by_orbit)


class TestSideRaster:
    @pytest.mark.parametrize("N", [64, 128])
    def test_readme_labels_equal_orbit_labels(self, readme_systems, N):
        s = readme_systems[N]
        assert_side_labels_equal_orbit_labels(
            s["m"], s["recs"], s["mesh"], s["att"], s["stable"], 200, by_orbit=s["raster"]
        )

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", range(len(ANCHOR_MATRICES)))
    def test_anchor_labels_equal_orbit_labels(self, kind, k):
        m = build_model(kind, ANCHOR_MATRICES[k][1])
        recs, mesh, att, stable = stable_system(m, 64)
        assert_side_labels_equal_orbit_labels(m, recs, mesh, att, stable, 200)

    def test_reversed_curve_gives_the_same_labels(self, readme_systems):
        s = readme_systems[64]
        reverse = dataclasses.replace(s["stable"], points=s["stable"].points[::-1])
        by_side = basin_raster(s["m"], s["mesh"], s["att"], resolution=200, stable=reverse)
        assert np.array_equal(by_side.labels, s["raster"].labels)
        assert by_side.orbit_cells < s["raster"].orbit_cells

    @pytest.mark.parametrize("wrong", ["swapped", "off_rim", "zero_point", "other_anchor"])
    def test_wrong_curve_falls_back_to_orbits(self, readme_systems, wrong):
        """A curve that does not separate the basins, whose end is off the
        rim or that has a point with no direction makes the raster label
        every cell by orbit."""
        if wrong == "other_anchor":
            m = build_model("leslie_gower", ANCHOR_MATRICES[0][1])
            _, mesh, att, _ = stable_system(m, 32)
            _, _, _, stable = stable_system(build_model("leslie_gower", ANCHOR_MATRICES[1][1]), 32)
            by_orbit = basin_raster(m, mesh, att, resolution=120)
        else:
            s = readme_systems[64]
            m, mesh, att, by_orbit = s["m"], s["mesh"], s["att"], s["raster"]
            P = s["stable"].points
            if wrong == "swapped":
                P = P[:, [1, 0, 2]]  # both ends stay on the rim
            elif wrong == "off_rim":
                P = P[1:-1]
            else:
                P = P.copy()
                P[len(P) // 2] = 0.0
            stable = dataclasses.replace(s["stable"], points=P)
        by_side = basin_raster(m, mesh, att, resolution=by_orbit.resolution, stable=stable)
        assert by_side.orbit_cells == np.count_nonzero(by_orbit.labels > -2)
        assert np.array_equal(by_side.labels, by_orbit.labels)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_side_equals_winding_number(self, readme_systems, reverse):
        """Away from the curve, the scanline parity is the winding number of
        the curve closed by the rim walked forward from its last point to its
        first, the rim cells moved 1e-9 of the way toward the centroid."""
        curve = readme_systems[64]["stable"]
        if reverse:
            curve = dataclasses.replace(curve, points=curve.points[::-1])
        R = 41
        uv = curve.points[:, :2] / curve.points.sum(axis=1, keepdims=True)

        def rim_t(p):
            u = (p[0], p[1], 1.0 - p[0] - p[1])
            return p[0] if abs(u[1]) < 1e-15 else 1.0 + p[1] if abs(u[2]) < 1e-15 else 3.0 - p[1]

        def rim_point(t):
            t %= 3.0
            return (t, 0.0) if t <= 1.0 else (2.0 - t, t - 1.0) if t <= 2.0 else (0.0, 3.0 - t)

        t_last, t_first = rim_t(uv[-1]), rim_t(uv[0])
        walk = [rim_point(t_last + d) for d in np.linspace(0.0, (t_first - t_last) % 3.0, 301)]
        poly = np.vstack([uv, walk])
        centroid = np.array([1.0, 1.0]) / 3.0
        side = _stable_side(R, curve)
        for i in range(R):
            for j in range(R - i):
                p = np.array([i, j]) / (R - 1)
                if i == 0 or j == 0 or i + j == R - 1:
                    p = p + 1e-9 * (centroid - p)
                if np.min(np.linalg.norm(uv - p, axis=1)) < 1.5 / (R - 1):
                    continue
                a, b = poly - p, np.roll(poly, -1, axis=0) - p
                turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], (a * b).sum(axis=1)).sum()
                assert side[i, j] == (round(turn / (2.0 * np.pi)) != 0)

    def test_band_covers_its_width(self, readme_systems):
        """Every cell within the band's width of the polyline is in the band,
        and no band cell is farther than width plus a quarter cell."""
        curve = readme_systems[128]["stable"]
        R = 61
        cell = 1.0 / (R - 1)
        width = _curve_width(R, curve)
        assert width > cell  # the curve's tol is the wider bound here
        uv = curve.points[:, :2] / curve.points.sum(axis=1, keepdims=True)
        a, ab = uv[:-1], uv[1:] - uv[:-1]
        u1, u2 = np.meshgrid(np.linspace(0.0, 1.0, R), np.linspace(0.0, 1.0, R), indexing="ij")
        grid = np.stack([u1.ravel(), u2.ravel()], axis=1)
        t = np.clip(((grid[:, None] - a) * ab).sum(axis=2) / np.maximum((ab * ab).sum(axis=1), 1e-300), 0, 1)
        d = np.linalg.norm(a + t[..., None] * ab - grid[:, None], axis=2).min(axis=1).reshape(R, R)
        band = _near_curve(R, curve, width)
        assert np.all(band[d <= width])
        assert np.all(d[band] <= width + 0.25 * cell)
