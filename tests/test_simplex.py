"""Graph-transform mesh: lattice geometry, convergence, invariants, cones."""
from __future__ import annotations

import numpy as np
import pytest

from csimplex.existence import axial_caps
from csimplex.manifolds import pseudo_splitting
from csimplex.models import ParameterSet, make_leslie_gower
from csimplex.simplex import (
    EmptyNeighborhoodError,
    NonConvergenceError,
    SimplexMesh,
    TooFewNeighborsError,
    ZeroVectorError,
    barycentric_lattice,
    compute_carrying_simplex,
    estimate_tangent_cone,
    estimate_theta,
    invariance_residual,
    lattice_triangulation,
    radial_project,
    surface_distance,
    unordered_check,
    _DISTANCE_BLOCK,
    _FOUND_TOL,
    _Transform,
    _barycentric_2d,
    _locate_interior,
    _orthant_occupied,
)
from conftest import A_CLASS19, build_model


def brute_force_surface_distance(mesh: SimplexMesh, p: np.ndarray) -> float:
    """Oracle: exact point-triangle distance over every face, via the seven
    closed-form candidates (interior critical point, edge projections,
    vertices), vectorized across faces."""
    V = mesh.vertices
    a = V[mesh.triangulation[:, 0]]
    b = V[mesh.triangulation[:, 1]]
    c = V[mesh.triangulation[:, 2]]
    best = np.full(a.shape[0], np.inf)
    for v in (a, b, c):
        best = np.minimum(best, np.linalg.norm(v - p, axis=1))
    for u, v in ((a, b), (b, c), (c, a)):
        e = v - u
        t = np.clip(((p - u) * e).sum(1) / (e * e).sum(1), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(u + t[:, None] * e - p, axis=1))
    e1 = b - a
    e2 = c - a
    g11 = (e1 * e1).sum(1)
    g12 = (e1 * e2).sum(1)
    g22 = (e2 * e2).sum(1)
    r1 = ((p - a) * e1).sum(1)
    r2 = ((p - a) * e2).sum(1)
    det = g11 * g22 - g12 * g12
    det = np.where(det == 0.0, 1.0, det)
    s = (g22 * r1 - g12 * r2) / det
    t = (g11 * r2 - g12 * r1) / det
    inside = (s >= 0) & (t >= 0) & (s + t <= 1)
    proj = a + s[:, None] * e1 + t[:, None] * e2
    d_in = np.where(inside, np.linalg.norm(proj - p, axis=1), np.inf)
    return float(np.minimum(best, d_in).min())


class TestLattice:
    @pytest.mark.parametrize("N", [4, 9, 16])
    def test_counts(self, N):
        U = barycentric_lattice(N)
        F = lattice_triangulation(N)
        assert U.shape == ((N + 1) * (N + 2) // 2, 3)
        assert F.shape == (N * N, 3)
        assert np.allclose(U.sum(axis=1), 1.0)

    def test_faces_cover_every_vertex(self):
        N = 8
        F = lattice_triangulation(N)
        assert set(F.ravel()) == set(range((N + 1) * (N + 2) // 2))

    def test_boundary_directions_have_exact_zeros(self):
        U = barycentric_lattice(12)
        boundary = U[np.min(U, axis=1) == 0.0]
        assert boundary.shape[0] == 36  # 3 * N vertices on the rim


def _loop_lattice(N):
    """Reference lattice geometry built with explicit loops: directions,
    faces, incident faces (padded by repetition) and sorted neighbours
    (padded with -1)."""
    offset = [i * (N + 1) - i * (i - 1) // 2 for i in range(N + 2)]
    U = np.asarray(
        [(i, j, N - i - j) for i in range(N + 1) for j in range(N + 1 - i)], dtype=float
    ) / N
    faces = []
    for i in range(N):
        for j in range(N - i):
            v00, v10 = offset[i] + j, offset[i + 1] + j
            faces.append((v00, v10, v00 + 1))
            if j < N - i - 1:
                faces.append((v10, v10 + 1, v00 + 1))
    faces = np.asarray(faces, dtype=np.intp)
    M = U.shape[0]
    incident = [[] for _ in range(M)]
    nbrs = [set() for _ in range(M)]
    for f, tri in enumerate(faces):
        for v in tri:
            incident[v].append(f)
            nbrs[v].update(int(x) for x in tri if x != v)
    incidence = np.asarray([(fs * 6)[:6] for fs in incident], dtype=np.intp)
    neighbors = np.asarray([sorted(ns) + [-1] * (6 - len(ns)) for ns in nbrs], dtype=np.intp)
    return U, faces, incidence, neighbors


@pytest.mark.parametrize("N", range(1, 13))
def test_lattice_builders_match_loop_reference(class19_lg, N):
    U, faces, incidence, neighbors = _loop_lattice(N)
    for got, want in (
        (barycentric_lattice(N), U),
        (lattice_triangulation(N), faces),
        (SimplexMesh(N, U, np.ones(U.shape[0]), faces, 0.0)._incident_faces(), incidence),
        (_Transform(class19_lg, N).neighbors, neighbors),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestLocateInterior:
    """The rasterized locator against an argmax over every face."""

    @staticmethod
    def brute_force(P, faces, N):
        U = barycentric_lattice(N)
        queries = U[np.min(U, axis=1) > 0, :2]
        t0, t1, t2 = (P[:, faces[:, v]] for v in range(3))
        face = np.empty(queries.shape[0], dtype=np.intp)
        best = np.empty(queries.shape[0])
        for r, q in enumerate(queries):
            score = np.min(_barycentric_2d(q[:, None], t0, t1, t2), axis=0)
            face[r] = np.argmax(score)
            best[r] = score[face[r]]
        return face, best >= -_FOUND_TOL

    @pytest.mark.parametrize("N", [6, 9, 12, 16])
    @pytest.mark.parametrize("case", ["jittered", "folded", "shrunk", "grazing"])
    def test_matches_exhaustive_scan(self, N, case):
        rng = np.random.default_rng(N)
        U = barycentric_lattice(N)
        faces = lattice_triangulation(N)
        D = U[:, :2].copy()
        if case == "jittered":
            D += rng.uniform(-0.3, 0.3, D.shape) / N
        elif case == "folded":
            # vertices pushed past their neighbours turn some faces over
            D += rng.uniform(-0.9, 0.9, D.shape) / N
        elif case == "shrunk":
            # the image misses the queries next to the rim
            D = 1.0 / 3.0 + 0.4 * (D - 1.0 / 3.0) + rng.uniform(-0.1, 0.1, D.shape) / N
        else:
            # the image rim passes 1e-9 inside the outermost queries, which
            # lie outside every face but within the found tolerance
            D = 1.0 / 3.0 + (1.0 - 3.0 * (1.0 / N + 1e-9)) * (D - 1.0 / 3.0)
        P = D.T.copy()
        face, bary, found = _locate_interior(P, faces, N)
        want_face, want_found = self.brute_force(P, faces, N)
        assert np.array_equal(found, want_found)
        assert np.array_equal(face[found], want_face[found])
        queries = U[np.min(U, axis=1) > 0, :2].T
        tri = [P[:, faces[face, v]] for v in range(3)]
        assert np.array_equal(bary[found], np.stack(_barycentric_2d(queries, *tri), axis=1)[found])
        if case == "shrunk":
            assert 0 < np.count_nonzero(~found) < found.size
        if case == "grazing":
            assert found.all()
        if case == "folded":
            # overlapping faces: some query lies inside more than one face
            t0, t1, t2 = (P[:, faces[:, v]] for v in range(3))
            covered = [
                np.count_nonzero(np.min(_barycentric_2d(q[:, None], t0, t1, t2), axis=0) >= 0)
                for q in queries.T
            ]
            assert max(covered) > 1


class TestConvergence:
    def test_symmetric_control_is_the_plane(self, symmetric_lg, symmetric_mesh):
        # oracle: T maps the plane sum(x) = 1 into itself
        rng = np.random.default_rng(2)
        pts = rng.dirichlet(np.ones(3), 50)
        assert np.max(np.abs(symmetric_lg(pts).sum(axis=1) - 1.0)) < 1e-14
        sums = symmetric_mesh.vertices.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_boundary_direction_reaches_axial_point(self, class19_mesh):
        U = class19_mesh.directions
        for axis in range(3):
            corner = np.zeros(3)
            corner[axis] = 1.0
            idx = np.nonzero((U == corner).all(axis=1))[0][0]
            assert class19_mesh.radii[idx] == pytest.approx(1.0, abs=1e-7)

    def test_interior_fixed_point_on_surface(self, class19_lg, class19_mesh):
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        d = surface_distance(class19_mesh, q[None])[0]
        assert d < class19_mesh.max_edge_length()
        # oracle: brute-force point-to-triangle distance
        assert brute_force_surface_distance(class19_mesh, q) < class19_mesh.max_edge_length()

    def test_h5_vertices_in_order_interval(self, class19_lg, class19_mesh):
        w = axial_caps(class19_lg)
        assert np.all(class19_mesh.vertices <= w[None, :] * (1.0 + 1e-6))

    def test_nonconvergence_carries_mesh(self, class19_lg):
        with pytest.raises(NonConvergenceError) as err:
            compute_carrying_simplex(class19_lg, resolution=16, tol=1e-12, max_iters=2)
        assert err.value.mesh.sweeps == 2

    def test_self_convergence_under_refinement(self, class19_lg):
        # radii at shared directions change by O(h) when N doubles
        coarse = compute_carrying_simplex(class19_lg, resolution=16, tol=1e-9)
        fine = compute_carrying_simplex(class19_lg, resolution=32, tol=1e-9)
        shared = coarse.directions
        fine_at_shared = np.linalg.norm(radial_project(fine, shared), axis=1)
        coarse_r = coarse.radii * np.linalg.norm(shared, axis=1)
        h = coarse.max_edge_length()
        assert np.max(np.abs(fine_at_shared - coarse_r)) < h


class TestRadialProject:
    def test_ray_scaling_recovers_vertex(self, class19_mesh):
        v = class19_mesh.vertices[777]
        for scale in (0.3, 1.0, 4.2):
            assert np.allclose(radial_project(class19_mesh, scale * v), v, atol=1e-12)

    def test_axial_direction_hits_axial_vertex(self, class19_mesh):
        out = radial_project(class19_mesh, np.array([7.0, 0.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-7)

    def test_zero_vector_rejected(self, class19_mesh):
        with pytest.raises(ZeroVectorError):
            radial_project(class19_mesh, np.zeros(3))

    def test_interpolates_interior_points(self, class19_lg, class19_mesh):
        rng = np.random.default_rng(9)
        U = rng.dirichlet(np.ones(3), 30)
        pts = radial_project(class19_mesh, U)
        # same ray as the query direction
        units = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        queries = U / np.linalg.norm(U, axis=1, keepdims=True)
        assert np.allclose(units, queries, atol=1e-13)
        # the radial interpolant deviates from the facets by at most O(h^2)
        h = class19_mesh.max_edge_length()
        assert np.max(surface_distance(class19_mesh, pts)) < h ** 2


class TestUnordered:
    def test_converged_mesh_unordered(self, class19_lg, class19_mesh):
        w = axial_caps(class19_lg)
        assert unordered_check(class19_mesh, 1e-6 * np.linalg.norm(w)) == []

    def test_perturbed_radius_creates_violation(self, class19_mesh):
        mesh = SimplexMesh(
            resolution=class19_mesh.resolution,
            directions=class19_mesh.directions,
            radii=class19_mesh.radii.copy(),
            triangulation=class19_mesh.triangulation,
            residual=0.0,
        )
        interior = np.nonzero(np.min(mesh.directions, axis=1) > 0.2)[0]
        mesh.radii[interior[0]] *= 1.10
        assert len(unordered_check(mesh, 1e-8)) > 0

    def test_matches_brute_force_on_small_mesh(self, class19_lg):
        mesh = compute_carrying_simplex(class19_lg, resolution=8, tol=1e-9)
        tol = 1e-8
        fast = set(unordered_check(mesh, tol))
        V = mesh.vertices
        slow = set()
        for i in range(V.shape[0]):
            for j in range(V.shape[0]):
                if np.all(V[i] <= V[j] + tol) and np.any(V[i] < V[j] - tol):
                    slow.add((i, j))
        assert fast == slow

    @pytest.mark.parametrize("N", [16, 20, 24])
    def test_matches_definition_on_perturbed_meshes(self, class19_lg, N):
        base = compute_carrying_simplex(class19_lg, resolution=N, tol=1e-9)
        wn = float(np.linalg.norm(axial_caps(class19_lg)))
        rng = np.random.default_rng(N)
        radii = [base.radii]
        radii += [base.radii * (1.0 + rng.normal(0.0, scale, base.radii.size))
                  for scale in (1e-9, 1e-6, 1e-3, 3e-2)]
        radii.append(np.round(radii[-1], 2))  # many equal coordinates
        for r in radii:
            mesh = SimplexMesh(N, base.directions, r, base.triangulation, 0.0)
            V = mesh.vertices
            for tol in (0.0, 1e-8, 1e-6 * wn):
                want = []
                for i in range(V.shape[0]):
                    viol = np.all(V[i] <= V + tol, axis=1) & np.any(V[i] < V - tol, axis=1)
                    want.extend((i, int(j)) for j in np.nonzero(viol)[0])
                assert unordered_check(mesh, tol) == want

    @pytest.mark.parametrize("M", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("values", ["ties", "floats"])
    def test_orthant_query_matches_definition(self, M, values):
        rng = np.random.default_rng(M)
        draw = (lambda n: rng.integers(0, 4, n).astype(float)) if values == "ties" else rng.random
        pts = [draw(M) for _ in range(3)]
        queries = [np.concatenate([c, draw(50)]) for c in pts]
        got = _orthant_occupied(*pts, *queries)
        s, a, b = pts
        qs, qa, qb = (q[:, None] for q in queries)
        want = np.any((s > qs) & (a >= qa) & (b >= qb), axis=1)
        assert np.array_equal(got, want)

    def test_negative_tol_rejected(self, class19_mesh):
        with pytest.raises(ValueError):
            unordered_check(class19_mesh, -1e-9)


class TestInvariance:
    def test_converged_residual_small(self, class19_lg, class19_mesh):
        h = class19_mesh.max_edge_length()
        res = invariance_residual(class19_lg, class19_mesh)
        assert res < max(10 * 1e-8, 5 * h ** 2)

    def test_initial_plane_not_invariant(self, class19_lg, class19_mesh):
        w = axial_caps(class19_lg)
        U = class19_mesh.directions
        plane = SimplexMesh(
            resolution=class19_mesh.resolution,
            directions=U,
            radii=1.0 / (U / w[None, :]).sum(axis=1),
            triangulation=class19_mesh.triangulation,
            residual=np.inf,
        )
        assert invariance_residual(class19_lg, plane) > 1e-3

    def test_surface_distance_matches_oracle(self, class19_mesh):
        rng = np.random.default_rng(12)
        pts = radial_project(class19_mesh, rng.dirichlet(np.ones(3), 5)) * 1.02
        fast = surface_distance(class19_mesh, pts)
        for p, d in zip(pts, fast):
            assert d == pytest.approx(brute_force_surface_distance(class19_mesh, p), abs=2e-4)


    def test_surface_distance_blocks_match_single_rows(self, class19_lg, class19_mesh):
        """Over more than one query block the distances equal the per-row
        calls exactly."""
        rng = np.random.default_rng(5)
        off = radial_project(class19_mesh, rng.dirichlet(np.ones(3), 300)) * 1.05
        pts = np.vstack([class19_lg(class19_mesh.vertices), off])
        assert pts.shape[0] > 2 * _DISTANCE_BLOCK
        single = np.array([surface_distance(class19_mesh, p)[0] for p in pts])
        assert np.array_equal(surface_distance(class19_mesh, pts), single)


class TestTangentCone:
    def test_symmetric_plane_angle_tiny(self, symmetric_lg, symmetric_mesh):
        q = np.full(3, 1.0 / 3.0)
        split = pseudo_splitting(symmetric_lg, q)
        h = symmetric_mesh.max_edge_length()
        for radius in (8 * h, 4 * h, 2 * h):
            est = estimate_tangent_cone(symmetric_mesh, q, radius, split.w_basis)
            assert est.angle_to_w < 1e-3

    def test_angle_decreases_toward_q(self, class19_lg, class19_mesh):
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        split = pseudo_splitting(class19_lg, q)
        h = class19_mesh.max_edge_length()
        angles = [
            estimate_tangent_cone(class19_mesh, q, r, split.w_basis).angle_to_w
            for r in (8 * h, 4 * h, 2 * h)
        ]
        noise = 2 * h / np.linalg.norm(axial_caps(class19_lg))
        assert angles[0] + noise >= angles[1]
        assert angles[1] + noise >= angles[2]

    def test_too_few_neighbors(self, class19_mesh):
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        with pytest.raises(TooFewNeighborsError):
            estimate_tangent_cone(class19_mesh, q, 1e-9, np.eye(3)[:, :2])

    def test_far_base_point_still_returns(self, class19_lg, class19_mesh):
        split = pseudo_splitting(class19_lg, np.linalg.solve(A_CLASS19, np.ones(3)))
        xi = radial_project(class19_mesh, np.array([0.7, 0.2, 0.1]))
        est = estimate_tangent_cone(
            class19_mesh, xi, 3 * class19_mesh.max_edge_length(), split.w_basis
        )
        assert 0.0 <= est.angle_to_w <= np.pi / 2


class TestTheta:
    def test_symmetric_case_near_zero(self, symmetric_lg, symmetric_mesh):
        q = np.full(3, 1.0 / 3.0)
        split = pseudo_splitting(symmetric_lg, q)
        theta = estimate_theta(symmetric_mesh, q, split.v, split.w_basis,
                               radius=4 * symmetric_mesh.max_edge_length())
        assert theta < 1e-6

    def test_stable_under_radius_refinement(self, class19_lg, class19_mesh):
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        split = pseudo_splitting(class19_lg, q)
        h = class19_mesh.max_edge_length()
        thetas = [
            estimate_theta(class19_mesh, q, split.v, split.w_basis, radius=r)
            for r in (8 * h, 4 * h, 2 * h)
        ]
        assert all(np.isfinite(t) for t in thetas)
        assert max(thetas) < 10.0  # bounded ratio, no blow-up as radius shrinks

    def test_empty_neighborhood(self, class19_lg, class19_mesh):
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        split = pseudo_splitting(class19_lg, q)
        with pytest.raises(EmptyNeighborhoodError):
            estimate_theta(class19_mesh, q, split.v, split.w_basis, radius=1e-12)


class TestMeshJson:
    def test_round_trip(self, class19_mesh):
        doc = class19_mesh.to_json()
        assert set(doc) == {"resolution", "directions", "radii", "residual"}
        back = SimplexMesh.from_json(doc)
        assert back.resolution == class19_mesh.resolution
        assert np.allclose(back.radii, class19_mesh.radii)
        assert np.array_equal(back.triangulation, class19_mesh.triangulation)

    def test_rejects_foreign_directions(self, class19_mesh):
        doc = class19_mesh.to_json()
        doc["directions"] = list(reversed(doc["directions"]))
        with pytest.raises(Exception):
            SimplexMesh.from_json(doc)
