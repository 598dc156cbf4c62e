"""Invariant manifold tracing and the foliation/conjugacy diagnostics."""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

from csimplex import manifolds
from csimplex.analysis import boundary_sets, find_all_fixed_points
from csimplex.manifolds import (
    BranchDidNotTerminateError,
    C1ViolatedError,
    ManifoldError,
    basin_of_batch,
    conjugacy_decay_report,
    curve_from_json,
    curve_to_json,
    leaf_contraction_report,
    m2_expansion_report,
    pseudo_splitting,
    trace_stable_on_S,
    trace_unstable,
)
from csimplex.existence import axial_caps
from csimplex.manifolds import (
    _capture_ellipsoid,
    _grow_curve,
    _resample_polyline,
    _saddle_eigendirection,
    _second_derivative_bound,
)
from csimplex.models import ParameterSet, make_custom, make_leslie_gower, make_ricker
from csimplex.portrait import basin_raster
from csimplex.simplex import (
    SimplexMesh,
    _WARM_EPS,
    _lattice,
    barycentric_lattice,
    compute_carrying_simplex,
    directions_from_uv,
    invariance_residual,
    radial_project,
    surface_distance,
)
from conftest import A_CLASS19, ANCHOR_MATRICES, battery_maps, build_model


@pytest.fixture(scope="module")
def ref(class19_lg, class19_mesh):
    """Reference class-19 system with its records, splitting and mesh."""
    recs = find_all_fixed_points(class19_lg)
    q = next(r for r in recs if r.support_type == "interior")
    att, rep = boundary_sets(recs)
    split = pseudo_splitting(class19_lg, q.location)
    return {
        "m": class19_lg,
        "mesh": class19_mesh,
        "q": q.location,
        "att": att,
        "rep": rep,
        "split": split,
    }


def halving_map():
    """T(x) = x/2: DT = I/2, whose inverse is diagonal, so (C1) fails."""
    return make_custom(
        3, lambda x: np.full(np.shape(x), 0.5), lambda x: np.zeros((3, 3))
    )


def system_of(m, resolution=None):
    """The map m with its saddle, attractors, repellers and, when a
    resolution is given, its mesh."""
    recs = find_all_fixed_points(m)
    q = next(r for r in recs if r.support_type == "interior").location
    att, rep = boundary_sets(recs)
    mesh = compute_carrying_simplex(m, resolution=resolution, tol=1e-8) if resolution else None
    return m, q, att, rep, mesh


def anchor_system(kind, k, resolution=None):
    """Builtin map on anchor k, as system_of returns it."""
    return system_of(build_model(kind, ANCHOR_MATRICES[k][1]), resolution)


def stateless(f):
    """The _grow_curve step of a map f of point rows, which carries no
    per-row state and misses no search."""
    return lambda Y, faces: (f(Y), faces, 0)


def grow_branch_alone(step, q, seed, steps, targets, endpoint_tol, h_max):
    """One branch grown on its own: the orbit of q + seed, one point at a
    time, until it enters a target's ball, re-sampled by arclength."""
    names = list(targets)
    ends = np.array([targets[k] for k in names], dtype=float)
    orbit = [q, q + seed]
    y = q + seed
    for _ in range(20000):
        for _ in range(steps):
            y = step(y[None, :])[0]
        orbit.append(y)
        d = np.linalg.norm(ends - y, axis=1)
        j = int(np.argmin(d))
        if d[j] < endpoint_tol:
            return _resample_polyline(np.array(orbit), h_max), (names[j], float(d[j]))
    raise AssertionError("reference branch did not terminate")


def grow_per_step(kind, step, q, seed, steps, targets, endpoint_tol, h_max):
    """_grow_curve as it was when it tested arrival after every orbit point,
    mapping the open tips in one batch per step: the reference that the
    block test must equal bit for bit."""
    names = list(targets)
    ends = np.array([targets[k] for k in names], dtype=float)
    orbits = [[q, q + seed], [q, q - seed]]
    arrivals = [None, None]
    ids = [0, 1]
    Y = np.array([orbit[-1] for orbit in orbits])
    faces, misses = None, 0
    for _ in range(manifolds._MAX_ITERATIONS):
        for _ in range(steps):
            Y, faces, missed = step(Y, faces)
            misses += missed
        diff = Y[:, None, :] - ends
        d = np.sqrt(np.add.reduce(diff * diff, axis=2))
        for row, b in enumerate(ids):
            orbits[b].append(Y[row])
        if d.min() >= endpoint_tol:
            continue
        j = d.argmin(axis=1)
        near = d[np.arange(len(ids)), j]
        arrived = near < endpoint_tol
        for row in np.flatnonzero(arrived):
            arrivals[ids[row]] = (names[j[row]], float(near[row]))
        still = np.flatnonzero(~arrived)
        if not still.size:
            break
        ids, Y = [ids[row] for row in still], Y[still]
        if faces is not None:
            faces = faces[still]
    else:
        closest = float(np.min(np.linalg.norm(Y[:, None, :] - ends[None, :, :], axis=2)))
        raise BranchDidNotTerminateError(
            f"branch did not reach {' or '.join(names)} within {manifolds._MAX_ITERATIONS} "
            f"iterations (closest {closest:.3e})"
        )
    plus, minus = (_resample_polyline(np.array(orbit), h_max) for orbit in orbits)
    (name_p, d_p), (name_m, d_m) = arrivals
    return manifolds.ManifoldCurve(
        points=np.vstack([minus[::-1], plus[1:]]),
        kind=kind,
        endpoints={name_m: d_m, name_p: d_p},
        tol=float(endpoint_tol),
        misses=misses,
    )


def assert_equal_curves(curve, ref):
    """Bit for bit: points, endpoint names, order and distances, tol and
    misses."""
    assert curve.kind == ref.kind
    assert np.array_equal(curve.points, ref.points)
    assert list(curve.endpoints.items()) == list(ref.endpoints.items())
    assert curve.tol == ref.tol and curve.misses == ref.misses


def grown_per_step_too(kind, step, q, seed, steps, *args):
    """_grow_curve's curve, after checking it against grow_per_step's and
    that it made at most 2 (_CAPTURE_PERIOD - 1) steps more calls of
    `step`: the points discarded after the two arrivals."""
    def counting(calls):
        def counted(Y, faces):
            calls.append(Y.shape[0])
            return step(Y, faces)
        return counted

    calls, ref_calls = [], []
    curve = _grow_curve(kind, counting(calls), q, seed, steps, *args)
    assert_equal_curves(curve, grow_per_step(kind, counting(ref_calls), q, seed, steps, *args))
    assert 0 <= len(calls) - len(ref_calls) <= 2 * (manifolds._CAPTURE_PERIOD - 1) * steps
    return curve


def tol_ball_labels(m, X, attractors, max_iter=50000, tol=1e-6, radii=None):
    """Basin labels by the tol balls alone: the loop that the capture
    ellipsoids shortcut.  Given radii (one per sorted attractor), the balls
    have those radii instead, and every captured orbit is dropped at once."""
    att = np.array([attractors[k] for k in sorted(attractors)], dtype=float)
    radii = np.full(att.shape[0], tol) if radii is None else np.asarray(radii)
    labels = np.full(X.shape[0], -1, dtype=np.intp)
    active = np.arange(X.shape[0])
    pts = np.array(X, dtype=float)
    for _ in range(max_iter + 1):
        if active.size == 0:
            break
        d = np.linalg.norm(pts[:, None, :] - att[None, :, :], axis=2)
        j = np.argmin(d, axis=1)
        hit = d[np.arange(pts.shape[0]), j] < radii[j]
        labels[active[hit]] = j[hit]
        active, pts = active[~hit], pts[~hit]
        pts = m(pts)
    return labels


def captures(m, attractors, tol=1e-6):
    """The capture ellipsoid of each sorted attractor, which must be
    certified."""
    pts = np.array([attractors[k] for k in sorted(attractors)], dtype=float)
    caps = [_capture_ellipsoid(m, p, np.delete(pts, i, axis=0), tol) for i, p in enumerate(pts)]
    assert all(cap is not None for cap in caps)
    return caps


def capture_radii(m, attractors, tol=1e-6):
    """The inner radius of each sorted attractor's capture ellipsoid: the
    largest ball inside it, the capture region of basin_of_batch before it
    tested the ellipsoids themselves."""
    return np.array([cap.inner for cap in captures(m, attractors, tol)])


def ellipsoid_labels(m, X, attractors, max_iter=50000, tol=1e-6):
    """Basin labels by the certified capture ellipsoids tested at every
    step, each captured orbit dropped at once: the eager loop over the
    regions of basin_of_batch."""
    att = np.array([attractors[k] for k in sorted(attractors)], dtype=float)
    caps = captures(m, attractors, tol)
    labels = np.full(X.shape[0], -1, dtype=np.intp)
    active = np.arange(X.shape[0])
    pts = np.array(X, dtype=float)
    for _ in range(max_iter + 1):
        if active.size == 0:
            break
        hit = np.full(pts.shape[0], -1)
        for k in reversed(range(len(caps))):  # the lowest index written last
            y = pts - att[k]
            hit[np.einsum("ni,ij,nj->n", y, caps[k].P, y) < caps[k].radius ** 2] = k
        caught = hit >= 0
        labels[active[caught]] = hit[caught]
        active, pts = active[~caught], pts[~caught]
        pts = m(pts)
    return labels


def raster_points(mesh, resolution):
    """The lifted directions of a basin raster."""
    g = np.linspace(0.0, 1.0, resolution)
    u1, u2 = np.meshgrid(g, g, indexing="ij")
    inside = u1 + u2 <= 1.0 + 1e-12
    U = np.clip(np.column_stack([u1[inside], u2[inside], 1.0 - u1[inside] - u2[inside]]), 1e-12, None)
    return radial_project(mesh, U / U.sum(axis=1, keepdims=True))


class TestSplitting:
    def test_c1_violated_for_diagonal_jacobian(self):
        with pytest.raises(C1ViolatedError):
            pseudo_splitting(halving_map(), np.zeros(3))

    def test_perron_direction_residual(self, ref):
        split = ref["split"]
        DT = ref["m"].jacobian(ref["q"])
        assert np.all(split.v > 0)
        assert np.linalg.norm(DT @ split.v - split.mu * split.v) < 1e-9

    def test_w_plane_invariant(self, ref):
        split = ref["split"]
        DT = ref["m"].jacobian(ref["q"])
        B = split.w_basis
        A_W = B.T @ DT @ B
        assert np.linalg.norm(DT @ B - B @ A_W) < 1e-9

    def test_rate_defaults_inside_admissible_intervals(self, ref):
        s = ref["split"]
        assert s.mu < s.rho < min(1.0, s.nu)
        assert s.rho < s.sigma < s.nu

    def test_rejects_out_of_range_rates(self, ref):
        with pytest.raises(ValueError):
            pseudo_splitting(ref["m"], ref["q"], rho=0.99)
        with pytest.raises(ValueError):
            pseudo_splitting(ref["m"], ref["q"], sigma=ref["split"].nu * 1.1)


class TestUnstable:
    def test_joins_the_two_attractors(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        assert set(curve.endpoints) == set(ref["att"])
        assert all(d <= curve.tol for d in curve.endpoints.values())
        assert curve.kind == "unstable"

    def test_contained_in_surface(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        d = surface_distance(ref["mesh"], curve.points)
        assert d.max() <= 2 * ref["mesh"].max_edge_length()

    def test_passes_through_q(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        assert curve.distance_to(ref["q"]) < 1e-12

    def test_seed_self_convergence(self, ref):
        # halving the seed leaves the curve unchanged up to the re-sampling
        # error (which is amplified along the expanding flight and dominates
        # any seed-scale bound); measured deviation is ~0.17 * h_max
        h0 = 1e-6 * np.linalg.norm(ref["q"])
        h_max = 1e-3 * 1.1
        c1 = trace_unstable(ref["m"], ref["q"], ref["att"], h0=h0, endpoint_tol=h0)
        c2 = trace_unstable(ref["m"], ref["q"], ref["att"], h0=h0 / 10.0, endpoint_tol=h0)
        d12 = max(c2.distance_to(p) for p in c1.points[::7])
        d21 = max(c1.distance_to(p) for p in c2.points[::7])
        assert max(d12, d21) < 0.5 * h_max

    def test_arc_params_monotone(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        s = curve.arc_params
        assert s[0] == 0.0 and np.all(np.diff(s) > 0)

    def test_halved_step_self_convergence(self, ref):
        h_max = 1e-3
        c1 = trace_unstable(ref["m"], ref["q"], ref["att"], h_max=h_max)
        c2 = trace_unstable(ref["m"], ref["q"], ref["att"], h_max=h_max / 2.0)
        d12 = max(c2.distance_to(p) for p in c1.points[::9])
        assert d12 < h_max  # O(step) agreement


class TestBasins:
    def test_attractor_resolves_immediately(self, ref):
        name = sorted(ref["att"])[0]
        labels = basin_of_batch(ref["m"], ref["att"][name][None, :], ref["att"])
        assert sorted(ref["att"])[labels[0]] == name

    def test_axis_point_converges_to_axial_attractor(self, ref):
        # axis 2 carries the attracting axial point
        x = np.array([[0.0, 0.4, 0.0]])
        labels = basin_of_batch(ref["m"], x, ref["att"])
        assert sorted(ref["att"])[labels[0]] == "axial_2"

    def test_q_is_unresolved(self, ref):
        labels = basin_of_batch(ref["m"], ref["q"][None, :], ref["att"], max_iter=2000)
        assert labels[0] == -1

    def test_batch_labels_match_scalar(self, ref):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.05, 1.0, (20, 3))
        labels = basin_of_batch(ref["m"], X, ref["att"], max_iter=20000)
        for x, lab in zip(X, labels):
            assert basin_of_batch(ref["m"], x[None, :], ref["att"], max_iter=20000)[0] == lab


    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", [0, 3, 8])
    def test_capture_ellipsoid_contracts(self, kind, k):
        """Sampled points of the capture ellipsoid in R^3_+ move closer to
        the attractor by the certified factor (1 + theta) / 2 in the P norm."""
        m, _, att, _, _ = anchor_system(kind, k)
        rng = np.random.default_rng(k)
        pts = np.array([att[name] for name in sorted(att)])
        for i, p in enumerate(pts):
            cap = _capture_ellipsoid(m, p, np.delete(pts, i, axis=0), 1e-6)
            assert cap is not None and cap.theta < 1.0
            z = rng.normal(size=(80000, 3))
            z *= cap.radius * rng.uniform(size=(80000, 1)) ** (1 / 3) / np.linalg.norm(z, axis=1, keepdims=True)
            x = p + np.linalg.solve(np.linalg.cholesky(cap.P).T, z.T).T
            x = x[np.all(x >= 0.0, axis=1)][:10000]
            assert x.shape[0] == 10000

            def norm_p(y):
                return np.sqrt(np.einsum("ni,ij,nj->n", y, cap.P, y))

            assert np.all(norm_p(m(x) - p) <= 0.5 * (1.0 + cap.theta) * norm_p(x - p))

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    def test_profile_slopes_match_growth(self, kind):
        """F_i(x + t e_j) = g_i(s_i + t a_ij), so the slopes of the growth
        profile are second-order central differences of F along e_j."""
        m, _, _, _, _ = anchor_system(kind, 0)
        A = m.params.A
        x = np.random.default_rng(2).uniform(0.0, 1.5, (50, 3))
        g1, g2 = m.slopes(x)
        t = 1e-4
        for j in range(3):
            e = np.zeros(3)
            e[j] = t
            up, mid, down = m.growth(x + e), m.growth(x), m.growth(x - e)
            assert np.allclose((down - up) / (2.0 * t) / A[:, j], g1, rtol=1e-6)
            assert np.allclose((up - 2.0 * mid + down) / t**2 / A[:, j] ** 2, g2, rtol=1e-4)
        assert make_custom(3, m.growth, m.growth_jacobian).slopes is None

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    def test_second_derivative_bound_holds(self, kind):
        """Second differences of T along unit directions, sampled in boxes
        around an attractor, stay below the closed-form bound."""
        m, _, att, _, _ = anchor_system(kind, 0)
        rng = np.random.default_rng(1)
        p = att[sorted(att)[0]]
        for delta in (0.5, 0.05):
            lo, hi = np.clip(p - delta, 0.0, None), p + delta
            bound = _second_derivative_bound(m, lo[None, :], hi[None, :])[0]
            x = rng.uniform(lo, hi, (2000, 3))
            h = rng.normal(size=(2000, 3))
            h /= np.linalg.norm(h, axis=1, keepdims=True)
            eps = 1e-3 * delta
            x = np.clip(x, eps, hi - eps)
            d2 = (m(x + eps * h) - 2.0 * m(x) + m(x - eps * h)) / eps**2
            sampled = np.linalg.norm(d2, axis=1).max()
            assert sampled <= bound * (1.0 + 1e-4)
            assert sampled >= 0.05 * bound  # the bound is not vacuous

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_labels_equal_tol_ball_loop(self, kind, k):
        """On a jittered anchor raster the capture ellipsoids change no
        label, and they do capture (every attractor is certified)."""
        rng = np.random.default_rng(k)
        A = np.asarray(ANCHOR_MATRICES[k][1]) * np.exp(rng.normal(0.0, 0.002, (3, 3)))
        m = build_model(kind, A)
        att, _ = boundary_sets(find_all_fixed_points(m))
        pts = np.array([att[name] for name in sorted(att)])
        for i, p in enumerate(pts):
            assert _capture_ellipsoid(m, p, np.delete(pts, i, axis=0), 1e-6) is not None
        X = raster_points(compute_carrying_simplex(m, resolution=24, tol=1e-8), 41)
        rows = []

        def growth(x):
            rows.append(len(x))
            return m.growth(x)

        counted = dataclasses.replace(m, growth=growth)
        labels = basin_of_batch(counted, X, att)
        captured_rows = sum(rows)
        rows.clear()
        assert np.all(labels >= 0)
        assert np.array_equal(labels, tol_ball_labels(counted, X, att))
        assert captured_rows < 0.75 * sum(rows)  # orbits stop early

    def test_custom_ricker_labels_equal_builtin(self):
        """A builtin Ricker map and the same law wrapped by make_custom (no
        capture ellipsoid) give the same labels."""
        m, _, att, _, mesh = anchor_system("ricker", 2, resolution=24)
        custom = make_custom(3, m.growth, m.growth_jacobian)
        p = att[sorted(att)[0]]
        assert _capture_ellipsoid(custom, p, np.array([att[sorted(att)[1]]]), 1e-6) is None
        X = raster_points(mesh, 31)
        assert np.array_equal(basin_of_batch(m, X, att), basin_of_batch(custom, X, att))

    def test_waiting_orbits_keep_their_labels(self):
        """While fewer than an eighth of the orbits held are captured, the
        captured ones wait, masked, and are mapped on: many map calls carry
        orbits already inside a ball, and the labels are still those of the
        tol balls, and of the eager loop over the same balls."""
        m, _, att, _, mesh = anchor_system("ricker", 4, resolution=24)
        X = raster_points(mesh, 41)
        pts = np.array([att[name] for name in sorted(att)])
        r2 = capture_radii(m, att) ** 2
        waiting = []

        def growth(x):
            if x.ndim == 2:  # an orbit batch, not a capture ellipsoid's own call
                d2 = ((x[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
                waiting.append((int(np.count_nonzero((d2 < r2).any(axis=1))), x.shape[0]))
            return m.growth(x)

        counted = dataclasses.replace(m, growth=growth)
        labels = basin_of_batch(counted, X, att)
        assert np.all(labels >= 0)
        assert sum(w > 0 for w, _ in waiting) >= 20
        assert all(w <= held / 8 for w, held in waiting)
        # each orbit counts once towards the eighth, so the share gets near it
        assert sum(w > held / 16 for w, held in waiting) >= 50
        assert np.array_equal(labels, tol_ball_labels(m, X, att))
        assert np.array_equal(labels, tol_ball_labels(m, X, att, radii=capture_radii(m, att)))

    def test_bare_ball_capture_overflowing_later_warns_nothing(self):
        """A custom map (no capture ellipsoid) whose orbit passes through a
        bare tol ball and overflows three steps later: the captured orbit is
        dropped at once, so no RuntimeWarning (an error under the test
        filter) is raised while twenty unresolved orbits go on."""

        def growth(x):
            return np.where(x[..., :1] > 0.0, 1e100, 1.0) * np.ones(np.shape(x))

        m = make_custom(3, growth, lambda x: np.zeros(np.shape(x) + (3,)))
        att = {"a": np.ones(3), "b": np.array([0.0, 2.0, 0.0])}
        stay = np.column_stack([np.zeros(20), np.linspace(0.2, 0.8, 20), np.full(20, 0.5)])
        X = np.vstack([np.full((1, 3), 1e-100), stay])
        with pytest.warns(RuntimeWarning, match="overflow"):
            m(np.full((1, 3), 1e300))  # where the captured orbit is three steps on
        labels = basin_of_batch(m, X, att, max_iter=20)
        assert labels[0] == 0 and np.all(labels[1:] == -1)
        assert np.array_equal(labels, tol_ball_labels(m, X, att, max_iter=20))

    @pytest.mark.parametrize("max_iter", [0, 5, 7, 9, 40, 150])
    def test_max_iter_cutoff(self, max_iter):
        """Cut off at max_iter, whether or not it is a multiple of the test
        period, the loop leaves unresolved (-1) exactly the orbits that the
        eager loop over the same regions (the capture ellipsoids) leaves,
        and labels the others alike.  Every orbit that the eager loop over
        the balls inside the ellipsoids resolves keeps that label."""
        m, _, att, _, mesh = anchor_system("leslie_gower", 7, resolution=24)
        X = raster_points(mesh, 31)
        labels = basin_of_batch(m, X, att, max_iter=max_iter)
        assert np.array_equal(labels, ellipsoid_labels(m, X, att, max_iter=max_iter))
        inner = tol_ball_labels(m, X, att, max_iter=max_iter, radii=capture_radii(m, att))
        assert np.array_equal(labels[inner >= 0], inner[inner >= 0])
        assert np.any(labels == -1)
        assert max_iter < 40 or np.any(labels >= 0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_battery_labels(self, seed, monkeypatch, tmp_path):
        """On the rasters of the basin_battery systems every orbit resolves,
        with the labels of the eager loop over the balls inside the capture
        ellipsoids."""
        maps = battery_maps(seed, monkeypatch, tmp_path)
        assert len(maps) == 72
        for m in maps:
            _, _, att, _, mesh = system_of(m, 32)
            X = raster_points(mesh, 81)
            labels = basin_of_batch(m, X, att)
            assert np.all(labels >= 0)
            assert np.array_equal(labels, tol_ball_labels(m, X, att, radii=capture_radii(m, att)))

    @pytest.mark.parametrize("max_iter", [9, 40, 50000])
    def test_capture_test_schedule(self, max_iter, monkeypatch):
        """With every attractor certified, the loop tests the capture regions
        at iterations 0, 8, 16, ... and at max_iter, and only maps in
        between; with a custom map (no certificate) it tests at every
        iteration.  It maps nothing after the test that resolves the last
        orbit."""
        m, _, att, _, mesh = anchor_system("leslie_gower", 7, resolution=24)
        X = raster_points(mesh, 31)
        capture_labels = manifolds._capture_labels
        for law, period in ((m, 8), (make_custom(3, m.growth, m.growth_jacobian), 1)):
            steps, tested = [0], []

            def growth(x, law=law):
                steps[0] += x.ndim == 2  # an orbit batch, not a certificate's call
                return law.growth(x)

            def counted(pts, regions):
                tested.append(steps[0])
                return capture_labels(pts, regions)

            monkeypatch.setattr(manifolds, "_capture_labels", counted)
            labels = basin_of_batch(dataclasses.replace(law, growth=growth), X, att, max_iter=max_iter)
            schedule = [it for it in range(max_iter + 1) if it % period == 0 or it == max_iter]
            assert tested == schedule[:len(tested)]
            assert steps[0] == tested[-1]
            if max_iter < 50000:  # cut off with orbits left
                assert len(tested) == len(schedule) and np.any(labels == -1)
            else:  # stopped at the test that resolved the last orbit
                assert np.all(labels >= 0)

    def test_two_species_leslie_gower(self):
        """The ball test sums over the n columns: on a bistable 2-species
        Leslie-Gower map, with both capture ellipsoids certified, the labels
        are those of the tol balls and of the eager loop over the same
        balls."""
        A = np.array([[1.0, 1.5], [2.0, 1.0]])
        m = make_leslie_gower(ParameterSet(r=np.array([1.0, 0.8]), A=A))
        att = {"axial_1": np.array([1.0, 0.0]), "axial_2": np.array([0.0, 1.0])}
        g = np.linspace(0.05, 1.5, 40)
        X = np.column_stack([np.repeat(g, 40), np.tile(g, 40)])
        labels = basin_of_batch(m, X, att)
        assert set(np.unique(labels)) == {0, 1}
        assert np.array_equal(labels, tol_ball_labels(m, X, att))
        assert np.array_equal(labels, tol_ball_labels(m, X, att, radii=capture_radii(m, att)))


class TestStable:
    def test_joins_the_two_repellers_through_q(self, ref):
        curve = trace_stable_on_S(ref["m"], ref["mesh"], ref["q"], ref["rep"], ref["att"])
        assert curve.kind == "stable"
        assert set(curve.endpoints) == set(ref["rep"])
        assert curve.distance_to(ref["q"]) <= curve.tol
        # the branch ends sit close to the pinned repellers
        assert max(curve.endpoints.values()) <= curve.tol

    def test_grows_from_the_pl_fixed_point(self):
        """A jittered anchor-0 Leslie-Gower system with contracting
        eigenvalue 0.965: the PL map's fixed point p lies 1.8e-3 from q
        along e_s, twice the 8.9e-4 seed of a tracer centred on q, whose
        branches both ran to axial_1.  Grown from p, the curve joins the two
        repellers and passes within tol of q."""
        A = [[1.1728824009388483, 0.8217430509363328, 0.8036996775942863],
             [0.6720923614191893, 0.7467539154760181, 0.9336756068148474],
             [0.7406856410436363, 1.2001683698551564, 0.7512119588476425]]
        m = build_model("leslie_gower", A)
        recs = find_all_fixed_points(m)
        q = next(r for r in recs if r.support_type == "interior").location
        att, rep = boundary_sets(recs)
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-8)
        e_s, _ = _saddle_eigendirection(m, q, expanding=False)
        offset = mesh.pull_back(m).fixed_point(q) - q
        assert abs(offset @ e_s) > 1.5e-3
        curve = trace_stable_on_S(m, mesh, q, rep, att)
        assert set(curve.endpoints) == set(rep)
        assert curve.distance_to(q) <= curve.tol

    def test_invariant_under_projected_map(self, ref):
        mesh = ref["mesh"]
        curve = trace_stable_on_S(ref["m"], mesh, ref["q"], ref["rep"], ref["att"])
        images = radial_project(mesh, ref["m"](curve.points))
        assert max(curve.distance_to(y) for y in images) <= curve.tol

    def test_halved_step_self_convergence(self):
        # an asymmetric system: on the reference the stable curve lies on the
        # symmetry line x2 = x3 at every step, which hides the step error
        m = build_model("leslie_gower", ANCHOR_MATRICES[0][1])
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-8)
        recs = find_all_fixed_points(m)
        q = next(r for r in recs if r.support_type == "interior").location
        att, rep = boundary_sets(recs)
        h_max = 1e-3 * float(np.linalg.norm(axial_caps(m)))
        c1 = trace_stable_on_S(m, mesh, q, rep, att, h_max=h_max)
        c2 = trace_stable_on_S(m, mesh, q, rep, att, h_max=h_max / 2.0)
        d12 = max(c2.distance_to(p) for p in c1.points)
        d21 = max(c1.distance_to(p) for p in c2.points)
        assert max(d12, d21) < 0.1 * h_max  # measured 0.036 * h_max

    def test_curves_meet_only_at_q(self, ref):
        stable = trace_stable_on_S(ref["m"], ref["mesh"], ref["q"], ref["rep"], ref["att"])
        unstable = trace_unstable(ref["m"], ref["q"], ref["att"])
        d_to_unst = cKDTree(unstable.points).query(stable.points)[0]
        far = np.linalg.norm(stable.points - ref["q"], axis=1) > 10 * stable.tol
        assert d_to_unst[far].min() > stable.tol

    def test_opposite_sides_resolve_to_opposite_attractors(self, ref):
        curve = trace_stable_on_S(ref["m"], ref["mesh"], ref["q"], ref["rep"], ref["att"])
        s = curve.arc_params
        labels = []
        for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
            k = int(np.searchsorted(s, frac * s[-1]))
            u = curve.points[k] / curve.points[k].sum()
            tangent = curve.points[k + 1] - curve.points[k - 1]
            t2 = (tangent / np.linalg.norm(tangent))[:2]
            n2 = np.array([-t2[1], t2[0]])
            offsets = np.array([0.02, 0.05])[:, None]
            sides = np.vstack([u[:2] + offsets * n2, u[:2] - offsets * n2])
            lifted = radial_project(ref["mesh"], directions_from_uv(sides))
            labels.append(basin_of_batch(ref["m"], lifted, ref["att"]))
        labels = np.array(labels)
        plus, minus = labels[:, :2], labels[:, 2:]
        assert np.all(plus == plus[0, 0]) and np.all(minus == minus[0, 0])
        assert plus[0, 0] != minus[0, 0] and min(plus[0, 0], minus[0, 0]) >= 0


    @pytest.mark.parametrize("kind", ["unstable", "stable"])
    @pytest.mark.parametrize("system", [("leslie_gower", 0), ("ricker", 4)])
    def test_lockstep_matches_separate_branches(self, kind, system):
        """Growing both branches in one batch per step gives each branch as
        grown on its own, to rounding, with the same number of points."""
        m, q, att, rep, mesh = anchor_system(*system, resolution=32)
        wn = float(np.linalg.norm(axial_caps(m)))
        h_max = 1e-3 * wn
        if kind == "unstable":
            e, steps = _saddle_eigendirection(m, q, expanding=True)
            step, seed, targets, tol = m, 1e-6 * np.linalg.norm(q) * e, att, 1e-5 * wn
            carried = stateless(m)
        else:
            e, steps = _saddle_eigendirection(m, q, expanding=False)
            step, targets, tol = mesh.pull_back(m), rep, 0.1 * mesh.max_edge_length()
            seed = 1e-3 * wn * e
            carried = step.pull
        curve = _grow_curve(kind, carried, q, seed, steps, targets, tol, h_max)
        plus, (name_p, d_p) = grow_branch_alone(step, q, seed, steps, targets, tol, h_max)
        minus, (name_m, d_m) = grow_branch_alone(step, q, -seed, steps, targets, tol, h_max)
        alone = np.vstack([minus[::-1], plus[1:]])
        assert curve.points.shape == alone.shape
        assert np.abs(curve.points - alone).max() <= 1e-11 * wn
        assert list(curve.endpoints) == [name_m, name_p]
        assert curve.endpoints[name_m] == pytest.approx(d_m, abs=1e-11 * wn)
        assert curve.endpoints[name_p] == pytest.approx(d_p, abs=1e-11 * wn)

    def test_branches_arriving_together_on_the_same_step(self):
        """Both branches of a linear expansion by 2 arrive on the same (25th)
        step, the first of a block of 8; the curve closes with no branch
        left open."""
        q, e = np.full(3, 0.5), np.array([1.0, 0.0, 0.0])
        reach = 1e-8 * 2.0**25
        targets = {"a": q + reach * e, "b": q - reach * e}
        curve = grown_per_step_too("unstable", stateless(lambda X: q + 2.0 * (X - q)), q,
                                   1e-8 * e, 1, targets, 1e-3 * reach, 0.1 * reach)
        assert list(curve.endpoints) == ["b", "a"]
        assert np.allclose(curve.points[[0, -1]], [targets["b"], targets["a"]], atol=1e-3 * reach)

    def test_flip_saddle_grows_monotone(self):
        """A saddle with a negative expanding multiplier: t -> -(t + 0.05 t
        (1 - t^2)) along e, contraction by 0.5 across it.  Grown with two
        steps per orbit point, each branch stays on its side of q, so the
        curve from q - e to q + e is monotone along e and has about
        length / h_max points."""
        q, e = np.full(3, 0.5), np.array([0.6, 0.8, 0.0])

        def step(X):
            t = (X - q) @ e
            return q - np.outer(t + 0.05 * t * (1.0 - t * t), e) + 0.5 * (X - q - np.outer(t, e))

        h_max = 0.01
        curve = grown_per_step_too("unstable", stateless(step), q, 1e-6 * e, 2,
                                   {"a": q + e, "b": q - e}, 1e-4, h_max)
        assert list(curve.endpoints) == ["b", "a"]
        t = (curve.points - q) @ e
        assert np.all(np.diff(t) > 0.0)
        assert t[0] == pytest.approx(-1.0, abs=1e-4) and t[-1] == pytest.approx(1.0, abs=1e-4)
        assert abs(curve.points.shape[0] - 2.0 / h_max) <= 3

    def test_branch_without_arrival_raises(self):
        """The minus branch settles at q - e, which is no target."""
        q, e = np.full(3, 0.5), np.array([1.0, 0.0, 0.0])

        def step(X):
            t = (X - q) @ e
            return X + np.outer(0.05 * t * (1.0 - t * t), e)

        args = ("unstable", stateless(step), q, 1e-6 * e, 1, {"a": q + e}, 1e-4, 0.01)
        with pytest.raises(BranchDidNotTerminateError, match="did not reach a within") as raised:
            _grow_curve(*args)
        with pytest.raises(BranchDidNotTerminateError) as ref:
            grow_per_step(*args)
        assert str(raised.value) == str(ref.value)

    @pytest.mark.parametrize("system, floored", [
        (("leslie_gower", 0), False), (("atkinson_allen", 6), False), (("ricker", 10), False),
        (("leslie_gower", 4), False),
    ])
    def test_seed_stays_straight(self, system, floored, monkeypatch):
        """trace_stable_on_S grows from the longest dyadic fraction of a
        tenth of the distance to the nearer repeller, above the floor
        1e-6 ||q||, whose steps on both sides of the PL map's fixed point p
        stay within 0.01 curve.tol of the line through p along e_s; from the
        floor when there is none."""
        m, q, att, rep, mesh = anchor_system(*system, resolution=32)
        seeds = []

        def spy(kind, step, q, seed, *args):
            seeds.append(seed)
            return grow(kind, step, q, seed, *args)

        grow = manifolds._grow_curve
        monkeypatch.setattr(manifolds, "_grow_curve", spy)
        tol = trace_stable_on_S(m, mesh, q, rep, att).tol
        e_s, _ = _saddle_eigendirection(m, q, expanding=False)
        step = mesh.pull_back(m)
        p = step.fixed_point(q)

        def straight(h):
            Y = step(np.array([p + h * e_s, p - h * e_s])) - p
            return np.linalg.norm(Y - np.outer(Y @ e_s, e_s), axis=1).max() <= 0.01 * tol

        start = 0.1 * min(np.linalg.norm(q - r) for r in rep.values())
        h_min = 1e-6 * np.linalg.norm(q)
        dyadic = start * 0.5 ** np.arange(60)
        passing = [h for h in dyadic[dyadic > h_min] if straight(h)]
        assert (not passing) == floored
        expected = passing[0] if passing else h_min
        assert np.allclose(seeds[0], expected * e_s, rtol=1e-12, atol=0.0)


def readme_map():
    """The README example: Ricker with r = 0.2 and the class-19 matrix."""
    return make_ricker(ParameterSet(r=np.full(3, 0.2), A=A_CLASS19))


def trace_relocating(m, mesh, q, rep, att, monkeypatch):
    """trace_stable_on_S with every step located from the lattice face of
    each tip's direction (find's default guess), as the tracer did before
    it carried the faces; also returns the rows it pulled back."""
    grow, rows = manifolds._grow_curve, []

    def every_step(kind, step, *args):
        def relocate(X):
            rows.append(X.shape[0])
            return step(X)[0]  # no faces given: the lattice faces

        return grow(kind, stateless(relocate), *args)

    with monkeypatch.context() as patch:
        patch.setattr(manifolds, "_grow_curve", every_step)
        curve = trace_stable_on_S(m, mesh, q, rep, att)
    return curve, sum(rows)


class TestCarriedFaces:
    """The stable tracer starts each pull-back step from the image face of
    the tip's previous step.  Every certified face is the all-face argmax
    whatever the guess, so the curves equal, bit for bit, those of the
    tracer that relocates every step."""

    @staticmethod
    def assert_same_curve(m, q, att, rep, mesh, monkeypatch):
        curve = trace_stable_on_S(m, mesh, q, rep, att)
        ref, rows = trace_relocating(m, mesh, q, rep, att, monkeypatch)
        assert np.array_equal(curve.points, ref.points)
        assert list(curve.endpoints.items()) == list(ref.endpoints.items())
        assert curve.tol == ref.tol
        # some tips leave their face, most stay; a relocated step carries none
        assert 0 < curve.misses < rows / 2
        assert ref.misses == 0

    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_readme(self, N, monkeypatch):
        self.assert_same_curve(*system_of(readme_map(), N), monkeypatch)

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", range(len(ANCHOR_MATRICES)))
    def test_anchors(self, kind, k, monkeypatch):
        self.assert_same_curve(*anchor_system(kind, k, resolution=64), monkeypatch)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_battery(self, seed, monkeypatch, tmp_path):
        maps = battery_maps(seed, monkeypatch, tmp_path)
        assert len(maps) == 72
        for m in maps:
            self.assert_same_curve(*system_of(m, 32), monkeypatch)

    @pytest.mark.parametrize("system", ["readme-32", "readme-128", ("leslie_gower", 0), ("ricker", 4)])
    def test_carried_step_matches_the_array_path(self, system, monkeypatch):
        """Every pull the stable tracer sends with carried faces returns the
        points, faces and misses that find and the harmonic combination of
        the array path give, bit for bit, whether the step ran in Python
        floats (certified in its faces) or fell back to the arrays."""
        if isinstance(system, str):
            m, q, att, rep, mesh = system_of(readme_map(), int(system.split("-")[1]))
        else:
            m, q, att, rep, mesh = anchor_system(*system, resolution=32)
        calls, grow = [], manifolds._grow_curve

        def recording(kind, step, *args):
            def recorded(X, faces):
                got = step(X, faces)
                calls.append((step.__self__, X.copy(), None if faces is None else faces.copy(), got))
                return got

            return grow(kind, recorded, *args)

        monkeypatch.setattr(manifolds, "_grow_curve", recording)
        trace_stable_on_S(m, mesh, q, rep, att)
        carried = [call for call in calls if call[2] is not None]
        assert len(carried) == len(calls) - 1  # the first step carries no faces
        uncertified = lone = 0
        for image, X, faces, (points, face, misses) in carried:
            U = X / X.sum(axis=1, keepdims=True)
            want_face, b, found, _ = image.find(U[:, :2].T, faces)
            assert found.all()
            want_misses = int(np.count_nonzero((want_face != faces) | (b.min(axis=1) <= _WARM_EPS)))
            b = np.maximum(b, 0.0)
            b /= b.sum(axis=1, keepdims=True)
            corners = image.lattice.faces[want_face]
            num = np.einsum("ik,ikj->ij", b, image.lattice.directions[corners])
            want = num / (b / image.radii[corners]).sum(axis=1, keepdims=True)
            assert np.array_equal(points, want) and points.shape == want.shape
            assert np.array_equal(face, want_face) and misses == want_misses
            uncertified += want_misses > 0
            lone += X.shape[0] == 1
        assert uncertified > 0 and lone > 0

    def test_misses_not_serialized(self):
        m, q, att, rep, mesh = anchor_system("ricker", 4, resolution=32)
        curve = trace_stable_on_S(m, mesh, q, rep, att)
        assert curve.misses > 0
        loaded = curve_from_json(curve_to_json(curve))
        assert "misses" not in curve_to_json(curve) and loaded.misses == 0
        assert trace_unstable(m, q, att).misses == 0


def doubling(q, e, lone_shift=0.0, nan_below=None):
    """A _grow_curve step that doubles the offset from q along e.  It
    carries each row's side of q as its face, checked at the next call,
    and counts one missed search per row.  A row mapped on its own moves on
    by lone_shift along e, as a lone row's rounding may differ from a
    batched one's; a row that lands below nan_below along e becomes NaN."""
    def step(Y, faces):
        assert faces is None or np.array_equal(faces, np.sign((Y - q) @ e), equal_nan=True)
        X = q + 2.0 * (Y - q)
        if Y.shape[0] == 1:
            X += lone_shift * e
        if nan_below is not None:
            X[(X - q) @ e < nan_below] = np.nan
        return X, np.sign((X - q) @ e), Y.shape[0]

    return step


class TestBlockArrival:
    """_grow_curve tests arrival once per block of _CAPTURE_PERIOD orbit
    points and restarts from the first point at which a tip arrives, with
    the tips still open.  Its curves equal, bit for bit, those of the loop
    that tested after every point (grow_per_step)."""

    @staticmethod
    def assert_tracers_match(m, q, att, rep, mesh, monkeypatch):
        grown = []

        def both(kind, *args):
            grown.append(kind)
            return grown_per_step_too(kind, *args)

        with monkeypatch.context() as patch:
            patch.setattr(manifolds, "_grow_curve", both)
            trace_unstable(m, q, att)
            trace_stable_on_S(m, mesh, q, rep, att)
        assert grown == ["unstable", "stable"]

    @pytest.mark.parametrize("N", [32, 64, 128])
    def test_readme(self, N, monkeypatch):
        self.assert_tracers_match(*system_of(readme_map(), N), monkeypatch)

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", range(len(ANCHOR_MATRICES)))
    def test_anchors(self, kind, k, monkeypatch):
        self.assert_tracers_match(*anchor_system(kind, k, resolution=32), monkeypatch)

    def test_benchmark_battery(self, monkeypatch, tmp_path):
        maps = battery_maps(1, monkeypatch, tmp_path)[:9]  # the first battery
        for m in maps:
            self.assert_tracers_match(*system_of(m, 32), monkeypatch)

    @pytest.mark.parametrize("offset", range(8))
    @pytest.mark.parametrize("lone_shift", [0.0, 1e-9])
    def test_arrival_at_each_offset_of_a_block(self, offset, lone_shift):
        """Orbit point i of the plus tip lies 2^i 1e-8 from q, so it arrives
        at point 9 + offset, in the second block.  From there the minus tip
        is mapped on its own, and moves on by lone_shift at each step, until
        it arrives at point 30."""
        q, e = np.full(3, 0.5), np.array([1.0, 0.0, 0.0])
        reach = 1e-8 * 2.0 ** (9 + offset)
        t = -1e-8  # the minus tip along e
        for i in range(1, 31):
            t = 2.0 * t + (lone_shift if i > 9 + offset else 0.0)
        targets = {"a": q + reach * e, "b": q + t * e}
        curve = grown_per_step_too("unstable", doubling(q, e, lone_shift), q, 1e-8 * e, 1,
                                   targets, 0.25 * reach, 0.1)
        assert list(curve.endpoints) == ["b", "a"]
        assert curve.misses == (9 + offset) + 30

    @pytest.mark.parametrize("plus, minus", [(19, 22), (24, 25)])
    def test_two_arrivals(self, plus, minus):
        """The plus tip arrives at point `plus` and the minus tip at point
        `minus`: on two steps of one block (17 to 24), and on the last point
        of a block and the first of the next (both on one step is
        TestStable's linear expansion).  A lone row is shifted by 1e-9, so a
        loop that kept stepping the survivor in the old batch would give
        another curve."""
        q, e = np.full(3, 0.5), np.array([1.0, 0.0, 0.0])
        targets = {"a": q + 1e-8 * 2.0**plus * e, "b": q - 1e-8 * 2.0**minus * e}
        curve = grown_per_step_too("unstable", doubling(q, e, 1e-9), q, 1e-8 * e, 1, targets,
                                   0.25e-8 * 2.0**min(plus, minus), 0.01)
        assert list(curve.endpoints) == ["b", "a"]
        assert curve.misses == plus + minus

    def test_nan_tip_never_arrives(self, monkeypatch):
        """The minus tip turns NaN at point 10 and is never near a target;
        the plus tip arrives at point 20.  Both loops give up on the minus
        branch with the same message."""
        monkeypatch.setattr(manifolds, "_MAX_ITERATIONS", 40)
        q, e = np.full(3, 0.5), np.array([1.0, 0.0, 0.0])
        targets = {"a": q + 1e-8 * 2.0**20 * e, "b": q - e}
        args = ("unstable", doubling(q, e, nan_below=-1e-5), q, 1e-8 * e, 1, targets, 1e-3, 0.01)
        with pytest.raises(BranchDidNotTerminateError, match=r"\(closest nan\)") as raised:
            _grow_curve(*args)
        with pytest.raises(BranchDidNotTerminateError) as ref:
            grow_per_step(*args)
        assert str(raised.value) == str(ref.value)

    @pytest.mark.parametrize("limit", [16, 21])
    def test_gives_up_after_max_iterations_points(self, limit, monkeypatch):
        """Both tips move by 1e-3 along e per point toward a target 1 away:
        after `limit` points the plus tip is 0.999999 - limit 1e-3 from it,
        which the message gives.  21 points end inside a block."""
        monkeypatch.setattr(manifolds, "_MAX_ITERATIONS", limit)
        q, e = np.full(3, 0.5), np.array([1.0, 0.0, 0.0])
        args = ("unstable", stateless(lambda X: X + 1e-3 * e), q, 1e-6 * e, 1, {"a": q + e},
                1e-4, 0.01)
        closest = 1.0 - 1e-6 - limit * 1e-3
        with pytest.raises(BranchDidNotTerminateError) as raised:
            _grow_curve(*args)
        assert str(raised.value) == (
            f"branch did not reach a within {limit} iterations (closest {closest:.3e})")
        with pytest.raises(BranchDidNotTerminateError) as ref:
            grow_per_step(*args)
        assert str(raised.value) == str(ref.value)


class TestCustomMap:
    """A builtin map and the same law wrapped by make_custom give the same
    curves.  The custom map's fixed points come from Newton, equal to the
    builtin's to rtol 1e-9, so the curves agree to rounding, not bit for
    bit: measured at most 1e-9 tol (stable) and 3.1e-5 tol (unstable) over
    the 36 anchors at N=32."""

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", [0, 5, 10])
    def test_stable_and_unstable_curves(self, kind, k):
        m = build_model(kind, ANCHOR_MATRICES[k][1])
        curves = []
        for law in (m, make_custom(3, m.growth, m.growth_jacobian)):
            law, q, att, rep, mesh = system_of(law, 32)
            curves.append((trace_stable_on_S(law, mesh, q, rep, att), trace_unstable(law, q, att)))
        for (builtin, custom), bound in zip(zip(*curves), (1e-6, 1e-3)):
            assert custom.kind == builtin.kind
            assert list(custom.endpoints) == list(builtin.endpoints)
            assert custom.tol == pytest.approx(builtin.tol, rel=1e-9)
            assert custom.points.shape == builtin.points.shape
            assert np.linalg.norm(custom.points - builtin.points, axis=1).max() <= bound * builtin.tol

    @pytest.mark.parametrize("system", ["readme", ("leslie_gower", 0), ("atkinson_allen", 5),
                                        ("ricker", 10)],
                             ids=["readme", "anchor0-lg", "anchor5-aa", "anchor10-ricker"])
    def test_basin_raster(self, system):
        """Given the builtin's attractors and mesh, the custom map labels
        the raster as the builtin does, every cell resolved, though it
        tests bare tol balls at every step where the builtin tests its
        certified capture ellipsoids every _CAPTURE_PERIOD steps."""
        m, _, att, _, mesh = system_of(readme_map(), 32) if system == "readme" else anchor_system(
            *system, resolution=32)
        custom = make_custom(3, m.growth, m.growth_jacobian)
        builtin = basin_raster(m, mesh, att, resolution=21).labels
        assert np.count_nonzero(builtin == -1) == 0
        assert np.array_equal(basin_raster(custom, mesh, att, resolution=21).labels, builtin)


class TestPullBack:
    """SimplexMesh.pull_back, the PL inverse of T that steps the stable curve."""

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    def test_vertex_images_pull_back_to_their_vertices(self, kind):
        m = build_model(kind, A_CLASS19)
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-8)
        inner = np.min(mesh.directions, axis=1) > 0.0
        V = mesh.vertices[inner]
        err = np.linalg.norm(mesh.pull_back(m)(m(V)) - V, axis=1)
        assert err.max() <= 1e-12 * np.linalg.norm(axial_caps(m))

    def test_folded_image_raises(self, class19_mesh):
        """x1 exp(-8 x1) falls for x1 > 1/8, so the image folds back along
        every line of growing x1, the edges of the simplex included."""
        fold = make_custom(
            3,
            lambda x: np.stack([np.exp(-8.0 * x[..., 0]), np.ones(np.shape(x)[:-1]),
                                np.ones(np.shape(x)[:-1])], axis=-1),
            lambda x: np.zeros((3, 3)),
        )
        with pytest.raises(ManifoldError, match="not embedded"):
            class19_mesh.pull_back(fold)

    def test_non_finite_image_raises(self, class19_lg, class19_mesh):
        def growth(x):
            return np.where(np.asarray(x)[..., :1] > 0.5, np.nan, class19_lg.growth(x))

        hole = make_custom(3, growth, class19_lg.growth_jacobian)
        with pytest.raises(ManifoldError, match="not embedded"):
            class19_mesh.pull_back(hole)

    @pytest.mark.parametrize("system", [("leslie_gower", 0), ("ricker", 4), ("atkinson_allen", 9)])
    def test_warm_search_matches_exhaustive_scan(self, system):
        """On the stable curve's points, random directions, directions next
        to the simplex's edge u1 = 0 and the vertices' image directions
        (corners of image faces), the face and weights found from the
        lattice face are those of the argmax over every image face, bit for
        bit, and every row is found.  Each of the three searches (the
        lattice face, its one-ring, the scan) is taken by some of the rows,
        and only the rows that locate leaves uncertified are scanned."""
        m, q, att, rep, mesh = anchor_system(*system, resolution=32)
        pull = mesh.pull_back(m)
        curve = trace_stable_on_S(m, mesh, q, rep, att)
        rng = np.random.default_rng(5)
        near_edge = rng.dirichlet(np.ones(3), 100) * [1e-5, 1.0, 1.0]
        X = np.vstack([curve.points, rng.dirichlet(np.ones(3), 400), near_edge,
                       m(mesh.vertices[::7])])
        U = X / X.sum(axis=1, keepdims=True)
        guess = _lattice(mesh.resolution).locate(U)[0]
        face, c, found, scanned = pull.find(U[:, :2].T, guess)
        assert found.all()

        Y = m(mesh.vertices)
        P = (Y[:, :2] / Y.sum(axis=1, keepdims=True)).T
        t0, t1, t2 = (P[:, mesh.triangulation[:, k]] for k in range(3))
        e1, e2 = t1 - t0, t2 - t0
        d = e1[0] * e2[1] - e2[0] * e1[1]
        r0 = U[:, :1] - t0[0]
        r1 = U[:, 1:2] - t0[1]
        c1 = (r0 * e2[1] - e2[0] * r1) / d
        c2 = (e1[0] * r1 - r0 * e1[1]) / d
        c_all = np.stack([1.0 - c1 - c2, c1, c2], axis=-1)  # (row, face, corner)
        want = np.argmax(c_all.min(axis=-1), axis=1)
        assert np.array_equal(face, want)
        assert np.array_equal(c, c_all[np.arange(U.shape[0]), want])

        certified = pull.locate(U[:, :2].T, guess)[2]
        assert np.any(certified & (face == guess))
        assert np.any(certified & (face != guess))
        assert scanned == np.count_nonzero(~certified) > 0

    def test_pull_refuses_a_point_in_no_image_face(self, class19_lg, class19_mesh):
        """A row whose direction lies outside the orthant is in no image
        face: pull raises ManifoldError for the batch, and fixed_point
        raises when its iterate leaves every face."""
        pull = class19_mesh.pull_back(class19_lg)
        X = np.array([[0.3, 0.3, 0.3], [-0.2, 0.5, 0.5]])
        with pytest.raises(ManifoldError, match="1 of 2 points lie in no image face"):
            pull(X)
        assert np.all(np.isfinite(pull(X[:1])))
        with pytest.raises(ManifoldError, match="no fixed point near"):
            pull.fixed_point(X[1])

    @pytest.mark.parametrize("row", [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [np.nan, 1.0, 1.0],
                                     [np.inf, 1.0, 1.0], [1e308] * 3])
    def test_pull_refuses_a_row_without_a_finite_positive_sum(self, class19_lg, class19_mesh, row):
        """A row that is not finite, or whose coordinate sum is not a finite
        number > 0, is refused before it is divided by that sum.  With
        carried faces, the Python-float step refuses it too, after a first
        row that is certified in its face, and neither path warns (the suite
        turns a RuntimeWarning into an error)."""
        pull = class19_mesh.pull_back(class19_lg)
        X = np.array([[0.3, 0.3, 0.3], row])
        with pytest.raises(ManifoldError, match="coordinate sum > 0"):
            pull(X)
        with pytest.raises(ManifoldError, match="coordinate sum > 0"):
            pull.pull(X[1:], np.zeros(1, dtype=np.intp))
        face = pull.pull(X[:1])[1]
        _, got, misses = pull.pull(X[:1], face)
        assert got is face and misses == 0  # certified in its face
        with pytest.raises(ManifoldError, match="coordinate sum > 0"):
            pull.pull(X, np.repeat(face, 2))

    def test_pull_back_of_many_points_allocates_little(self, class19_lg, class19_mesh):
        """Pulling back 2,000 on-mesh points of the class-19 Leslie-Gower
        map at N=64 holds no (rows x faces) array: the rows that the
        one-ring search leaves uncertified are scanned among the faces of
        their lattice cells only (a 4.7 MB peak).  A scan of every face
        for those rows would peak at 172 MB."""
        import tracemalloc

        pull = class19_mesh.pull_back(class19_lg)
        X = radial_project(class19_mesh, np.random.default_rng(0).dirichlet(np.ones(3), 2000))
        tracemalloc.start()
        try:
            P = pull(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(P))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("system", [("leslie_gower", 0), ("ricker", 4)])
    def test_fixed_point_converges_to_q(self, system):
        """The PL map fixes the point that fixed_point returns, to rounding;
        its distance to q falls at about second order in the mesh width
        (measured 16x and 26x from N=32 to 128)."""
        m, q, *_ = anchor_system(*system)
        wn = np.linalg.norm(axial_caps(m))
        gaps = []
        for N in (32, 128):
            pull = compute_carrying_simplex(m, resolution=N, tol=1e-8).pull_back(m)
            p = pull.fixed_point(q)
            assert np.linalg.norm(pull(p[None, :])[0] - p) <= 1e-14 * wn
            gaps.append(np.linalg.norm(p - q))
        assert gaps[0] <= 2e-3 * wn
        assert gaps[1] <= gaps[0] / 8.0

    def test_loaded_mesh_pulls_back_the_same(self, class19_lg, class19_mesh):
        loaded = SimplexMesh.from_json(class19_mesh.to_json())
        X = np.random.default_rng(2).uniform(0.1, 1.0, (50, 3))
        assert np.array_equal(loaded.pull_back(class19_lg)(X), class19_mesh.pull_back(class19_lg)(X))


class TestRelabeling:
    """Relabeling the species permutes the mesh and the stable curve, and
    keeps the invariance residual."""

    @pytest.mark.parametrize("kind", ["leslie_gower", "ricker"])
    @pytest.mark.parametrize("k", [0, 3, 11])
    def test_permuted_mesh_and_stable_curve(self, kind, k):
        N = 32
        A = np.asarray(ANCHOR_MATRICES[k][1])
        ij = np.rint(barycentric_lattice(N) * N).astype(int)
        index = {tuple(c): v for v, c in enumerate(ij)}

        def system(A):
            m = build_model(kind, A)
            recs = find_all_fixed_points(m)
            q = next(r for r in recs if r.support_type == "interior").location
            att, rep = boundary_sets(recs)
            mesh = compute_carrying_simplex(m, resolution=N, tol=1e-8)
            return m, mesh, trace_stable_on_S(m, mesh, q, rep, att), rep

        m, mesh, curve, rep = system(A)
        wn = np.linalg.norm(axial_caps(m))
        h4 = invariance_residual(m, mesh)
        ends = np.array(sorted(tuple(rep[name]) for name in curve.endpoints))
        for perm in itertools.permutations(range(3)):
            perm = list(perm)
            m_p, mesh_p, curve_p, rep_p = system(A[np.ix_(perm, perm)])
            # species a of the relabeled system is species perm[a]
            moved = [index[tuple(c[perm])] for c in ij]
            assert np.abs(mesh_p.radii[moved] - mesh.radii).max() <= 1e-14 * wn
            assert mesh_p.sweeps == mesh.sweeps
            assert abs(invariance_residual(m_p, mesh_p) - h4) <= 1e-14 * wn
            ends_p = np.array(sorted(tuple(np.asarray(rep_p[name])[np.argsort(perm)])
                                     for name in curve_p.endpoints))
            assert np.allclose(ends_p, ends, rtol=0.0, atol=1e-12 * wn)


class TestPowerOfTwoScale:
    """Scaling A by 2^k scales every location by 2^-k exactly, so with the
    mesh and basin tolerances scaled by 2^-k too, the mesh, both curves
    and the basin raster are those of A, scaled."""

    @staticmethod
    def system(kind, A, k):
        A = np.ldexp(np.asarray(A, dtype=float), k)
        if kind == "readme":
            m = make_ricker(ParameterSet(r=np.full(3, 0.2), A=A))
        else:
            m = build_model(kind, A)
        recs = find_all_fixed_points(m)
        q = next(r for r in recs if r.support_type == "interior").location
        att, rep = boundary_sets(recs)
        mesh = compute_carrying_simplex(m, resolution=24, tol=np.ldexp(1e-8, -k))
        return (
            mesh,
            trace_stable_on_S(m, mesh, q, rep, att),
            trace_unstable(m, q, att),
            basin_raster(m, mesh, att, resolution=41, tol=np.ldexp(manifolds.DEFAULT_BASIN_TOL, -k)),
        )

    @pytest.mark.parametrize("kind, A", [("readme", A_CLASS19), ("leslie_gower", ANCHOR_MATRICES[0][1])])
    def test_mesh_curves_and_raster_scale_exactly(self, kind, A):
        mesh, stable, unstable, raster = self.system(kind, A, 0)
        for k in (-40, -3, 3, 40):
            mesh_k, stable_k, unstable_k, raster_k = self.system(kind, A, k)
            assert np.array_equal(mesh_k.radii, np.ldexp(mesh.radii, -k))
            assert (mesh_k.sweeps, mesh_k.full_scans) == (mesh.sweeps, mesh.full_scans)
            assert np.array_equal(stable_k.points, np.ldexp(stable.points, -k))
            assert np.array_equal(unstable_k.points, np.ldexp(unstable.points, -k))
            assert np.array_equal(raster_k.labels, raster.labels)


class TestLeafContraction:
    def test_contracts_at_rho_near_q(self, ref):
        split = ref["split"]
        rep = leaf_contraction_report(
            ref["m"], ref["q"], split.v, split.rho,
            radius=1e-3 * np.linalg.norm(ref["q"]),
        )
        assert rep.passed and rep.max_ratio <= split.rho

    def test_directional_ratio_converges_to_mu(self, ref):
        split = ref["split"]
        rep = leaf_contraction_report(
            ref["m"], ref["q"], split.v, split.rho,
            radius=1e-3 * np.linalg.norm(ref["q"]), n_dyadic=3,
        )
        errs = np.abs(rep.ratios_at_q - split.mu)
        assert np.all(np.diff(errs) < 0)
        assert errs[-1] < 1e-3

    def test_huge_radius_flags_violations(self, ref):
        split = ref["split"]
        rep = leaf_contraction_report(
            ref["m"], ref["q"], split.v, split.rho, radius=2.0, secant=0.2
        )
        assert rep.n_violations > 0 and not rep.passed


class TestConjugacyDecay:
    def test_on_mesh_samples_decay(self, ref):
        split = ref["split"]
        rep = conjugacy_decay_report(
            ref["m"], ref["mesh"], ref["q"], split.v, split.w_basis, split.rho,
            radius=1e-2 * np.linalg.norm(ref["q"]),
        )
        assert rep.n_samples > 50
        assert rep.pass_fraction >= 0.9

    def test_lockstep_orbits_match_per_sample_loop(self, ref):
        """An affine map about q that halves along v and multiplies by 5 along a
        direction of W: every d_k halves exactly, and the orbits leave 10
        radii of q after different numbers of steps.  The report keeps the
        samples followed for at least 3 points, each with ratio 0.5, as a
        loop over single samples does."""
        split = ref["split"]
        q, v, B = ref["q"], split.v / np.linalg.norm(split.v), split.w_basis
        C = np.column_stack([v, B])
        L = C @ np.diag([0.5, 5.0, 0.8]) @ np.linalg.inv(C)
        inputs = []

        def affine(x):
            inputs.append(x)
            return q + (x - q) @ L.T

        radius = 1e-2 * np.linalg.norm(q)
        rep = conjugacy_decay_report(affine, ref["mesh"], q, v, B, split.rho, radius=radius)
        samples, images = inputs[0], inputs[1]  # the first step maps xi, then R xi
        lengths, want = [], []
        for a, b in zip(samples, images):
            d = [np.linalg.norm(a - b)]
            for _ in range(10):
                a, b = affine(a), affine(b)
                if max(np.linalg.norm(a - q), np.linalg.norm(b - q)) > 10 * radius:
                    break
                d.append(np.linalg.norm(a - b))
            lengths.append(len(d))
            if len(d) >= 3:
                want.append(np.exp(np.polyfit(np.arange(len(d)), np.log(d), 1)[0]))
        assert min(lengths) < 3 and 3 <= np.median(lengths) < 11  # the mask matters
        assert rep.n_samples == len(want)
        np.testing.assert_allclose(rep.fitted_ratios, want, rtol=1e-9)
        np.testing.assert_allclose(rep.fitted_ratios, 0.5, rtol=1e-6)

    def test_samples_on_the_pseudo_unstable_plane_get_ratio_zero(self):
        """On a flat mesh that is the plane q + W every sample starts on the
        pseudo-unstable plane: its ratio is 0 and no orbit is mapped."""
        N = 16
        q = np.full(3, 0.5)
        mesh = SimplexMesh(resolution=N, radii=np.full((N + 1) * (N + 2) // 2, 1.5), residual=0.0)
        B = np.linalg.svd(np.ones((1, 3)))[2][1:].T  # the plane x1 + x2 + x3 = 0

        def unused(x):
            raise AssertionError("no sample needs an orbit")

        rep = conjugacy_decay_report(unused, mesh, q, np.array([1.0, 0.5, 0.2]), B, 0.5,
                                     radius=0.05)
        assert rep.n_samples == 200 and rep.pass_fraction == 1.0
        assert np.array_equal(rep.fitted_ratios, np.zeros(200))


class TestM2Expansion:
    def test_diagonal_restriction_oracle(self):
        # DT(0) = diag(0.5, 0.7, 1.4); W = span{e2, e3}; A_W = diag(0.7, 1.4)
        m = make_custom(
            3,
            lambda x: np.broadcast_to(np.array([0.5, 0.7, 1.4]), np.shape(x)).copy(),
            lambda x: np.zeros((3, 3)),
        )
        B = np.eye(3)[:, 1:]
        rep = m2_expansion_report(m, np.zeros(3), B, sigma=0.65)
        assert rep.found and rep.l == 1
        # oracle: direct powering of the 2x2 restriction
        assert rep.norms[0] == pytest.approx(1.0 / 0.7)
        rep_bad = m2_expansion_report(m, np.zeros(3), B, sigma=0.9)
        assert not rep_bad.found and rep_bad.l is None

    def test_reference_system_finds_l(self, ref):
        split = ref["split"]
        rep = m2_expansion_report(ref["m"], ref["q"], split.w_basis, split.sigma)
        assert rep.found
        lam1 = abs(split.w_eigenvalues[0])
        assert split.sigma < lam1

    def test_sigma_above_nu_reports_no_such_l(self, ref):
        split = ref["split"]
        rep = m2_expansion_report(
            ref["m"], ref["q"], split.w_basis, sigma=split.nu * 1.05, l_search_max=40
        )
        assert not rep.found


class TestCurveJson:
    def test_round_trip(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        doc = curve_to_json(curve)
        assert doc["kind"] == "unstable"
        assert set(doc) == {"kind", "points", "endpoints", "tol"}
        back = curve_from_json(doc)
        assert np.allclose(back.points, curve.points)
        assert set(back.endpoints) == set(curve.endpoints)
