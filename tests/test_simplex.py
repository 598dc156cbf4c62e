"""Graph-transform mesh: lattice geometry, convergence, invariants, cones."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from csimplex.existence import axial_caps
from csimplex.manifolds import pseudo_splitting
from csimplex.models import ParameterSet, make_custom, make_leslie_gower, make_ricker
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
    _locate_regular,
    _orthant_occupied,
)
from conftest import A_CLASS19, ANCHOR_MATRICES, build_model


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
    faces and incident faces (padded by repetition)."""
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
    for f, tri in enumerate(faces):
        for v in tri:
            incident[v].append(f)
    incidence = np.asarray([(fs * 6)[:6] for fs in incident], dtype=np.intp)
    return U, faces, incidence


@pytest.mark.parametrize("N", range(1, 13))
def test_lattice_builders_match_loop_reference(N):
    U, faces, incidence = _loop_lattice(N)
    for got, want in (
        (barycentric_lattice(N), U),
        (lattice_triangulation(N), faces),
        (SimplexMesh(N, U, np.ones(U.shape[0]), faces, 0.0)._incident_faces(), incidence),
    ):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _masked_locate_regular(u, N):
    """Reference for _locate_regular: the up and down triangles filled by
    masked assignment."""
    a1, a2 = u[:, 0] * N, u[:, 1] * N
    i = np.clip(np.floor(a1).astype(np.intp), 0, N - 1)
    j = np.clip(np.floor(a2).astype(np.intp), 0, np.maximum(N - 1 - i, 0))
    fi, fj = a1 - i, a2 - j
    up = (fi + fj <= 1.0 + 1e-12) | (i + j == N - 1)
    dn = ~up
    v00 = i * (N + 1) - (i * (i - 1)) // 2 + j
    v10 = (i + 1) * (N + 1) - ((i + 1) * i) // 2 + j
    verts = np.empty((u.shape[0], 3), dtype=np.intp)
    wts = np.empty((u.shape[0], 3))
    verts[up] = np.stack([v00[up], v10[up], v00[up] + 1], axis=1)
    wts[up] = np.stack([1.0 - fi[up] - fj[up], fi[up], fj[up]], axis=1)
    verts[dn] = np.stack([v10[dn], v10[dn] + 1, v00[dn] + 1], axis=1)
    wts[dn] = np.stack([1.0 - fj[dn], fi[dn] + fj[dn] - 1.0, 1.0 - fi[dn]], axis=1)
    wts = np.clip(wts, 0.0, None)
    wts /= wts.sum(axis=1, keepdims=True)
    return verts, wts


@pytest.mark.parametrize("N", [1, 2, 3, 8, 33, 128])
def test_locate_regular_matches_masked_reference(N):
    rng = np.random.default_rng(N)
    # directions on the diagonal fi + fj = 1 of random cells
    i = rng.integers(0, N, 300)
    j = np.floor(rng.uniform(0, 1, 300) * (N - i)).astype(int)
    f = rng.uniform(0, 1, 300)
    diagonal = np.column_stack([(i + f) / N, (j + 1 - f) / N])
    diagonal = np.column_stack([diagonal, 1.0 - diagonal.sum(axis=1)])
    U = np.concatenate([
        rng.dirichlet(np.ones(3), 500),
        rng.dirichlet(np.full(3, 0.05), 500),  # near the corners and edges
        barycentric_lattice(N),
        np.eye(3),
        np.clip(diagonal, 0.0, None),
        # on and just past the hypotenuse u3 = 0 (radial_project admits
        # x3 >= -1e-15, so u3 = -1e-11 for a point of sum 1e-4)
        np.column_stack([edge := rng.uniform(0, 1, 300), 1.0 - edge, np.zeros(300)]),
        np.column_stack([edge, 1.0 - edge + 1e-11, np.full(300, -1e-11)]),
    ])
    verts, wts = _locate_regular(U, N)
    want_verts, want_wts = _masked_locate_regular(U, N)
    assert np.array_equal(verts, want_verts)
    assert np.array_equal(wts, want_wts)


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


def readme_ricker():
    """The README example: Ricker with r = 0.2 and the class-19 matrix.  Its
    species 2 and 3 are interchangeable, which puts some queries exactly on
    shared edges of the image faces."""
    return make_ricker(ParameterSet(r=np.full(3, 0.2), A=A_CLASS19))


def image_directions(m, mesh):
    """First two coordinates (2, M) of the image direction of every vertex."""
    Y = m(mesh.vertices)
    return (Y[:, :2] / Y.sum(axis=1)[:, None]).T.copy()


class TestWarmLocator:
    """Rays located from the previous sweep's faces against the exhaustive
    scan."""

    @pytest.mark.parametrize(
        "kind, A",
        [
            ("readme", A_CLASS19),
            ("leslie_gower", ANCHOR_MATRICES[0][1]),
            ("atkinson_allen", ANCHOR_MATRICES[3][1]),
            ("ricker", ANCHOR_MATRICES[9][1]),
        ],
    )
    def test_every_sweep_matches_exhaustive_scan(self, monkeypatch, kind, A):
        warm = _Transform._locate_warm
        certified = []

        def checked(transform, P):
            got = warm(transform, P)
            if got is not None:
                want = _locate_interior(P, transform.faces, transform.N)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    assert np.array_equal(g, w)
            certified.append(got is not None)
            return got

        monkeypatch.setattr(_Transform, "_locate_warm", checked)
        m = readme_ricker() if kind == "readme" else build_model(kind, A)
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-10)
        assert len(certified) == mesh.sweeps - 1  # the first sweep has no guess
        assert all(certified)
        assert mesh.full_scans == 1

    @pytest.fixture(scope="class")
    def readme_image(self):
        m = readme_ricker()
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-10)
        return m, image_directions(m, mesh)

    @pytest.mark.parametrize("guess", ["exact", "moved", "shuffled", "stale", "zeros"])
    def test_any_guess_gives_exhaustive_result(self, readme_image, guess):
        m, P = readme_image
        transform = _Transform(m, 32)
        want = _locate_interior(P, transform.faces, 32)
        face = want[0].copy()
        rng = np.random.default_rng(3)
        if guess == "moved":
            # a tenth of the queries guess a face across an edge of theirs
            moved = rng.choice(face.size, face.size // 10, replace=False)
            ring = transform.incidence[transform.faces[face[moved], 0]]
            across = (transform.faces[ring] == transform.faces[face[moved], 1][:, None, None]).any(-1)
            across &= ring != face[moved][:, None]
            face[moved] = ring[np.arange(moved.size), np.argmax(across, axis=1)]
            assert np.all(face[moved] != want[0][moved])
        elif guess == "shuffled":
            face = rng.permutation(face)
        elif guess == "stale":
            plane = compute_carrying_simplex(m, resolution=32, max_iters=1, tol=np.inf)
            face = _locate_interior(image_directions(m, plane), transform.faces, 32)[0]
        elif guess == "zeros":
            face[:] = 0
        transform.face = face
        got = transform.locate(P, True)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        if guess in ("exact", "moved"):
            assert transform.full_scans == 0  # one face off is still certified
        if guess in ("shuffled", "zeros"):
            assert transform.full_scans == 1

    def test_queries_on_image_vertices(self):
        """A jittered lattice image whose vertices at a few lattice points stay
        put: the queries there tie at weight 0 in all six faces around the
        vertex.  Exact guesses are certified and keep the lowest face index;
        guesses whose one-ring misses that face fall back to the scan."""
        N = 32
        U = barycentric_lattice(N)
        transform = _Transform(make_leslie_gower(ParameterSet(r=np.ones(3), A=A_CLASS19)), N)
        P = U[:, :2].T.copy()
        jitter = np.random.default_rng(7).uniform(-0.15, 0.15, P.shape) / N
        jitter[:, np.min(U, axis=1) == 0.0] = 0.0  # the rim stays on its edges
        pinned = [(5, 5), (10, 3), (3, 12), (8, 8), (12, 6)]
        vertex = [np.flatnonzero((U[:, 0] == i / N) & (U[:, 1] == j / N))[0] for i, j in pinned]
        jitter[:, vertex] = 0.0
        P += jitter
        t0, t1, t2 = (P[:, transform.faces[:, k]] for k in range(3))
        assert np.all((t1[0] - t0[0]) * (t2[1] - t0[1]) - (t2[0] - t0[0]) * (t1[1] - t0[1]) > 0)
        want = _locate_interior(P, transform.faces, N)
        query = [np.flatnonzero((transform.ij[0] == i) & (transform.ij[1] == j))[0] for i, j in pinned]
        assert np.all(np.min(want[1][query], axis=1) == 0.0)

        transform.face = want[0].copy()
        for g, w in zip(transform.locate(P, True), want):
            assert np.array_equal(g, w)
        assert transform.full_scans == 0

        # guess the up face of cell (i + 1, j): its one-ring holds only the
        # faces around (i, j) that touch (i + 1, j), not the lowest one
        guess = want[0].copy()
        cells = [{tuple(np.rint(U[v, :2] * N).astype(int)) for v in f} for f in transform.faces]
        for q, (i, j) in zip(query, pinned):
            guess[q] = cells.index({(i + 1, j), (i + 2, j), (i + 1, j + 1)})
        transform.face = guess
        for g, w in zip(transform.locate(P, True), want):
            assert np.array_equal(g, w)
        assert transform.full_scans == 1

    def test_flipped_face_falls_back_to_scan(self, readme_image):
        m, P = readme_image
        transform = _Transform(m, 32)
        transform.face = _locate_interior(P, transform.faces, 32)[0]
        # reflect one interior vertex across the opposite edge of a face
        v = transform.interior_idx[200]
        f = transform.incidence[v, 0]
        a, b = (P[:, u] for u in transform.faces[f] if u != v)
        n = np.array([a[1] - b[1], b[0] - a[0]]) / np.hypot(*(a - b))
        P = P.copy()
        P[:, v] -= 2.0 * ((P[:, v] - a) @ n) * n
        t0, t1, t2 = (P[:, transform.faces[:, k]] for k in range(3))
        area = (t1[0] - t0[0]) * (t2[1] - t0[1]) - (t2[0] - t0[0]) * (t1[1] - t0[1])
        assert area[f] < 0
        assert transform._locate_warm(P) is None
        got = transform.locate(P, True)
        for g, w in zip(got, _locate_interior(P, transform.faces, 32)):
            assert np.array_equal(g, w)
        assert transform.full_scans == 1

    def test_rim_off_its_edge_falls_back_to_scan(self, readme_image):
        m, P = readme_image
        transform = _Transform(m, 32)
        transform.face = _locate_interior(P, transform.faces, 32)[0]
        transform.locate(P, False)
        assert transform.full_scans == 1

    def test_full_scans_counted_and_not_serialized(self):
        mesh = compute_carrying_simplex(readme_ricker(), resolution=64, tol=1e-8)
        assert 1 <= mesh.full_scans <= mesh.sweeps // 10
        assert "full_scans" not in mesh.to_json()


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

    def test_non_finite_image_stops_after_one_sweep(self, class19_lg):
        """A Leslie-Gower map that is NaN where x1 > 0.3 and x2 > 0.2: the
        first sweep leaves the rays under the hole uncovered, and the
        transform stops there instead of iterating to max_iters."""

        def growth(x):
            x = np.asarray(x, dtype=float)
            hole = (x[..., 0] > 0.3) & (x[..., 1] > 0.2)
            return np.where(hole[..., None], np.nan, class19_lg.growth(x))

        m = make_custom(3, growth, class19_lg.growth_jacobian)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError) as err:
                compute_carrying_simplex(m, resolution=32, tol=1e-8)
        mesh = err.value.mesh
        assert mesh.sweeps == 1
        assert mesh.flagged.size > 0
        assert np.all(np.isnan(mesh.radii[mesh.flagged]))

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
