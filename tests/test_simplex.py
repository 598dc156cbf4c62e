"""Graph-transform mesh: lattice geometry, convergence, invariants, cones."""
from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from csimplex import simplex
from csimplex.existence import axial_caps
from csimplex.manifolds import pseudo_splitting
from csimplex.models import ParameterSet, make_custom, make_leslie_gower, make_ricker
from csimplex.simplex import (
    EmptyNeighborhoodError,
    NonConvergenceError,
    SimplexError,
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
    _ImageMesh,
    _lattice,
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


def initial_plane(m, mesh: SimplexMesh) -> SimplexMesh:
    """The graph transform's starting surface on mesh's lattice: the plane
    through the axial fixed points of m."""
    w = axial_caps(m)
    U = mesh.directions
    return SimplexMesh(
        resolution=mesh.resolution,
        radii=1.0 / (U / w[None, :]).sum(axis=1),
        residual=np.inf,
    )


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
    faces, incident faces (padded by repetition), the edge opposite each
    vertex in each of those faces (its corners after the vertex, in order),
    the one-ring of each face (the faces that share a vertex with it,
    ascending, padded by the first), the interior directions as queries
    (2, Q), the corner, edge (per axis:
    the vertices on that edge, and those of them that are no corner) and
    interior index sets, and the directions' norms."""
    offset = [i * (N + 1) - i * (i - 1) // 2 for i in range(N + 2)]
    ijk = [(i, j, N - i - j) for i in range(N + 1) for j in range(N + 1 - i)]
    U = np.asarray(ijk, dtype=float) / N
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
    link = []
    for v, fs in enumerate(incidence):
        ends = []
        for f in fs:
            tri = list(faces[f])
            k = tri.index(v)
            ends.append((tri[(k + 1) % 3], tri[(k + 2) % 3]))
        link.append(ends)
    rings = []
    for tri in faces:
        ring = sorted({f for v in tri for f in incident[v]})
        rings.append(ring + ring[:1] * (13 - len(ring)))
    queries = np.asarray([(i / N, j / N) for i, j, k in ijk if min(i, j, k) > 0]).reshape(-1, 2).T

    def index(keep):
        return np.asarray([v for v, c in enumerate(ijk) if keep(c)], dtype=np.intp)

    edges = [(index(lambda c: c[a] == 0), index(lambda c: c[a] == 0 and N not in c))
             for a in range(3)]
    return {
        "directions": U,
        "faces": faces,
        "incidence": incidence,
        "link": np.asarray(link, dtype=np.intp).reshape(M, 6, 2),
        "rings": np.asarray(rings, dtype=np.intp),
        "queries": queries,
        "corner_idx": index(lambda c: N in c),
        "edge_idx": edges,
        "interior_idx": index(lambda c: min(c) > 0),
        "unorm": np.asarray([math.sqrt(a * a + b * b + c * c) for a, b, c in U]),
    }


@pytest.mark.parametrize("N", range(1, 13))
def test_lattice_builders_match_loop_reference(N):
    want = _loop_lattice(N)
    lattice = _lattice(N)
    assert lattice is _lattice(N)
    assert lattice.N == N
    assert set(vars(lattice)) == {"N", *want}
    pairs = [(getattr(lattice, name), table) for name, table in want.items() if name != "edge_idx"]
    pairs += [(barycentric_lattice(N), want["directions"]),
              (lattice_triangulation(N), want["faces"])]
    assert len(lattice.edge_idx) == 3
    for got, table in zip(lattice.edge_idx, want["edge_idx"]):
        pairs += list(zip(got, table))
    for got, table in pairs:
        assert got.dtype == table.dtype
        assert got.shape == table.shape
        assert np.array_equal(got, table)
    # every caller shares these tables, so none of them can be written
    tables = [t for t in vars(lattice).values() if isinstance(t, np.ndarray)]
    for table in tables + [idx for edge in lattice.edge_idx for idx in edge]:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = table.copy()


def test_meshes_transforms_and_images_share_the_lattice(monkeypatch):
    """A computed mesh, the mesh loaded from its JSON form, the loaded mesh's
    pull-back image and every sweep of the graph transform at the same
    resolution all read the one _Lattice of that resolution."""
    m = readme_ricker()
    swept = []
    sweep = simplex._sweep
    monkeypatch.setattr(simplex, "_sweep", lambda m, lattice, *rest: (swept.append(lattice),
                                                                      sweep(m, lattice, *rest))[1])
    mesh = compute_carrying_simplex(m, resolution=12, tol=1e-8)
    loaded = SimplexMesh.from_json(mesh.to_json())
    lattice = _lattice(12)
    assert mesh.lattice is lattice and loaded.lattice is lattice
    assert loaded.pull_back(m).lattice is lattice
    assert len(swept) == mesh.sweeps and all(sweep is lattice for sweep in swept)
    assert mesh.directions is lattice.directions and mesh.triangulation is lattice.faces


def test_lattice_is_keyed_by_the_resolution_value():
    """A numpy integer resolution shares the lattice of the Python int: one
    build, and a mesh computed at np.int64(16) reads the lattice of 16."""
    _lattice.cache_clear()
    assert _lattice(16) is _lattice(np.int64(16))
    assert _lattice.cache_info().misses == 1
    mesh = compute_carrying_simplex(readme_ricker(), resolution=np.int64(16), tol=1e-8)
    assert mesh.lattice is _lattice(16)
    assert _lattice.cache_info().misses == 1


@pytest.mark.parametrize("N", [0, -1, True, False, np.bool_(True), 16.0, 2.5, "16", None],
                         ids=["0", "-1", "True", "False", "np_True", "16.0", "2.5", "str", "None"])
def test_bad_resolution_refused_before_building(N):
    """A resolution that is not an integer >= 1 raises ValueError before a
    lattice is built or cached, with no warning: the four cached lattices
    stay, and so does a mesh computed at it."""
    _lattice.cache_clear()
    kept = [_lattice(n) for n in (3, 4, 5, 6)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
            _lattice(N)
        with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
            compute_carrying_simplex(readme_ricker(), resolution=N, tol=1e-8)
    assert _lattice.cache_info().currsize == 4
    assert [_lattice(n) for n in (3, 4, 5, 6)] == kept
    assert _lattice.cache_info().misses == 4


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8, None, "1e-8"])
def test_bad_tol_refused_before_the_first_sweep(tol, monkeypatch):
    """A tol that is not finite and > 0 raises ValueError before any sweep,
    where it ran every sweep and then raised NonConvergenceError."""
    sweeps = []
    monkeypatch.setattr(simplex, "_sweep", lambda *args: sweeps.append(1))
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        compute_carrying_simplex(readme_ricker(), resolution=16, tol=tol)
    assert sweeps == []


def test_array_holders_compare_by_identity():
    """Meshes, curves and basin rasters hold arrays, so == is identity: it
    neither raises nor compares the arrays, and `in` works on lists of them."""
    from csimplex.manifolds import ManifoldCurve
    from csimplex.portrait import BasinRaster

    pairs = [
        [SimplexMesh(4, np.ones(15), 0.0) for _ in range(2)],
        [ManifoldCurve(np.zeros((2, 3)), "stable", {}, 1e-6) for _ in range(2)],
        [BasinRaster(3, np.zeros((3, 3), dtype=int), ["a"], 0) for _ in range(2)],
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert a in [b, a] and a not in [b]


def _masked_locate_regular(u, N):
    """Reference for _Lattice.locate: the up and down triangles filled by
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
    face, wts = _lattice(N).locate(U)
    verts = lattice_triangulation(N)[face]
    want_verts, want_wts = _masked_locate_regular(U, N)
    assert np.array_equal(verts, want_verts)
    assert np.array_equal(wts, want_wts)


def brute_force_scan(P, faces, q):
    """Oracle for _ImageMesh._scan: the barycentric weights of every
    direction (column of q) in every face (corners P[:, faces]), computed
    as _ImageMesh._weights computes them (a flat face's zero area read
    as 1e-300), and per direction the first face of the largest minimum
    weight, found where that weight is >= -_FOUND_TOL."""
    t0, t1, t2 = (P[:, faces[:, k]] for k in range(3))
    e1, e2 = t1 - t0, t2 - t0
    d = e1[0] * e2[1] - e2[0] * e1[1]
    d = np.where(d == 0.0, 1e-300, d)
    r0 = q[0][:, None] - t0[0]
    r1 = q[1][:, None] - t0[1]
    c1 = (r0 * e2[1] - e2[0] * r1) / d
    c2 = (e1[0] * r1 - r0 * e1[1]) / d
    c = np.stack([1.0 - c1 - c2, c1, c2], axis=-1)  # (direction, face, corner)
    score = c.min(axis=-1)
    face = np.argmax(score, axis=1)
    rows = np.arange(face.size)
    return face, c[rows, face], score[rows, face] >= -_FOUND_TOL, score


class TestLocateInterior:
    """Locating directions among image faces: _ImageMesh._scan against the
    argmax over every face, on perturbed lattice images, at the interior
    lattice directions, Dirichlet points, points one ulp either side of the
    bucket edges k/N, the image vertices, points on the simplex's edges and
    directions outside every face."""

    @staticmethod
    def queries(P, N, rng):
        """(2, m) directions of every kind, and the mask of those outside
        every face."""
        lattice = _lattice(N)
        k = rng.integers(0, N + 1, (2, 200))
        ulp = np.nextafter(k / N, np.where(rng.random((2, 200)) < 0.5, -np.inf, np.inf))
        t = np.concatenate([rng.uniform(0, 1, 30), np.arange(N + 1) / N])
        zero = np.zeros_like(t)
        rim = np.hstack([[t, zero], [zero, t], [t, 1.0 - t]])
        outside = np.array([[-0.5, 0.3], [0.3, -0.5], [0.9, 0.9], [0.6, 0.7], [2.0, 2.0],
                            [-3.0, -3.0], [0.5, 1.5], [np.nan, 0.2]]).T
        q = np.hstack([lattice.queries, rng.dirichlet(np.ones(3), 300)[:, :2].T,
                       k / N, ulp, P, rim, outside])
        out = np.zeros(q.shape[1], dtype=bool)
        out[-outside.shape[1]:] = True
        return q, out

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
        image = _ImageMesh(np.column_stack([D, 1.0 - D.sum(axis=1)]), _lattice(N), np.ones(U.shape[0]))
        P = image.P
        q, out = self.queries(P, N, rng)
        face, bary, found = image._scan(q)
        want_face, want_bary, want_found, score = brute_force_scan(P, faces, q)
        assert np.array_equal(found, want_found)
        assert np.array_equal(face[found], want_face[found])
        assert np.array_equal(bary[found], want_bary[found])
        assert not found[out].any() and np.all(face[~found] == 0)
        interior = found[:_lattice(N).queries.shape[1]]
        if case == "shrunk":
            assert 0 < np.count_nonzero(~interior) < interior.size
        if case == "grazing":
            assert interior.all()
        if case == "folded":
            # overlapping faces: some direction lies inside more than one face
            assert np.count_nonzero(score >= 0, axis=1).max() > 1


def readme_ricker():
    """The README example: Ricker with r = 0.2 and the class-19 matrix.  Its
    species 2 and 3 are interchangeable, which puts some queries exactly on
    shared edges of the image faces."""
    return make_ricker(ParameterSet(r=np.full(3, 0.2), A=A_CLASS19))


def image_of(lattice, Y):
    """The _ImageMesh of vertex images Y on a _Lattice."""
    return _ImageMesh(Y, lattice, np.ones(lattice.directions.shape[0]))


class TestWarmLocator:
    """Rays found from the previous sweep's faces (_ImageMesh.find, which
    scans only the rays that locate leaves uncertified) against the
    exhaustive scan."""

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
        find = _ImageMesh.find
        scanned = []

        def checked(image, q, guess=None):
            got = find(image, q, guess)
            # face, weights and found mask, every row
            for g, w in zip(got, image._scan(q)):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
            scanned.append(got[3])
            return got

        monkeypatch.setattr(_ImageMesh, "find", checked)
        m = readme_ricker() if kind == "readme" else build_model(kind, A)
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-10)
        # the first sweep has no guess and scans every ray; every later
        # image is embedded and certifies every ray in its guess
        assert scanned == [_lattice(32).queries.shape[1]] + [0] * (mesh.sweeps - 1)
        assert mesh.full_scans == 1

    @pytest.fixture(scope="class")
    def readme_image(self):
        """The README map and the images of its N=32 mesh's vertices."""
        m = readme_ricker()
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-10)
        return m, m(mesh.vertices)

    @pytest.mark.parametrize("guess", ["exact", "moved", "shuffled", "stale", "zeros"])
    def test_any_guess_gives_exhaustive_result(self, readme_image, guess):
        m, Y = readme_image
        lattice = _lattice(32)
        image = image_of(lattice, Y)
        q = lattice.queries
        want = image._scan(q)
        face = want[0].copy()
        rng = np.random.default_rng(3)
        if guess == "moved":
            # half the queries guess a face across an edge of theirs; no
            # share of moved queries forces a scan
            moved = rng.choice(face.size, face.size // 2, replace=False)
            faces = lattice.faces
            ring = lattice.incidence[faces[face[moved], 0]]
            across = (faces[ring] == faces[face[moved], 1][:, None, None]).any(-1)
            across &= ring != face[moved][:, None]
            face[moved] = ring[np.arange(moved.size), np.argmax(across, axis=1)]
            assert np.all(face[moved] != want[0][moved])
        elif guess == "shuffled":
            face = rng.permutation(face)
        elif guess == "stale":
            plane = compute_carrying_simplex(m, resolution=32, max_iters=1, tol=1e300)
            face = image_of(lattice, m(plane.vertices))._scan(q)[0]
        elif guess == "zeros":
            face[:] = 0
        got = image.find(q, face)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # only the rows that locate leaves uncertified are scanned
        assert got[3] == np.count_nonzero(~image.locate(q, face)[2])
        if guess in ("exact", "moved"):
            assert got[3] == 0  # one face off is still certified
        if guess in ("shuffled", "zeros"):
            assert got[3] > 0

    def test_queries_on_image_vertices(self):
        """A jittered lattice image whose vertices at a few lattice points stay
        put: the queries there tie at weight 0 in all six faces around the
        vertex.  Exact guesses are certified and keep the lowest face index;
        guesses whose one-ring misses that face send those queries, and
        only those, to the scan."""
        N = 32
        U = barycentric_lattice(N)
        lattice = _lattice(N)
        jitter = np.random.default_rng(7).uniform(-0.15, 0.15, (U.shape[0], 2)) / N
        jitter[np.min(U, axis=1) == 0.0] = 0.0  # the rim stays on its edges
        pinned = [(5, 5), (10, 3), (3, 12), (8, 8), (12, 6)]
        vertex = [np.flatnonzero((U[:, 0] == i / N) & (U[:, 1] == j / N))[0] for i, j in pinned]
        jitter[vertex] = 0.0
        Y = U.copy()
        Y[:, :2] += jitter
        Y[:, 2] -= jitter.sum(axis=1)
        image = image_of(lattice, Y)
        assert image.embedded
        q = lattice.queries
        want = image._scan(q)
        ij = np.rint(q * N)
        query = [np.flatnonzero((ij[0] == i) & (ij[1] == j))[0] for i, j in pinned]
        assert np.all(np.min(want[1][query], axis=1) == 0.0)

        got = image.find(q, want[0].copy())
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[3] == 0

        # guess the up face of cell (i + 1, j): its one-ring holds only the
        # faces around (i, j) that touch (i + 1, j), not the lowest one
        guess = want[0].copy()
        faces = lattice.faces
        cells = [{tuple(np.rint(U[v, :2] * N).astype(int)) for v in f} for f in faces]
        for r, (i, j) in zip(query, pinned):
            guess[r] = cells.index({(i + 1, j), (i + 2, j), (i + 1, j + 1)})
        got = image.find(q, guess)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[3] == len(pinned)

    def test_flipped_face_falls_back_to_scan(self, readme_image):
        m, Y = readme_image
        lattice = _lattice(32)
        P = image_of(lattice, Y).P
        guess = image_of(lattice, Y)._scan(lattice.queries)[0]
        # reflect one interior vertex's image direction across the opposite
        # edge of a face
        v = lattice.interior_idx[200]
        f = lattice.incidence[v, 0]
        a, b = (P[:, u] for u in lattice.faces[f] if u != v)
        n = np.array([a[1] - b[1], b[0] - a[0]]) / np.hypot(*(a - b))
        d = P[:, v] - 2.0 * ((P[:, v] - a) @ n) * n
        Y = Y.copy()
        Y[v] = [d[0], d[1], 1.0 - d[0] - d[1]]
        image = image_of(lattice, Y)
        t0, t1, t2 = (image.P[:, lattice.faces[:, k]] for k in range(3))
        area = (t1[0] - t0[0]) * (t2[1] - t0[1]) - (t2[0] - t0[0]) * (t1[1] - t0[1])
        assert area[f] < 0
        assert not image.embedded
        got = image.find(lattice.queries, guess)
        for g, w in zip(got, image._scan(lattice.queries)):
            assert np.array_equal(g, w)
        assert got[3] == lattice.queries.shape[1]

    def test_rim_off_its_edge_falls_back_to_scan(self, readme_image):
        m, Y = readme_image
        lattice = _lattice(32)
        guess = image_of(lattice, Y)._scan(lattice.queries)[0]
        # one rim vertex's image leaves its edge by far less than rounding
        v = lattice.edge_idx[0][1][5]
        Y = Y.copy()
        Y[v, 0] = 1e-20 * Y[v].sum()
        image = image_of(lattice, Y)
        assert not image.embedded
        got = image.find(lattice.queries, guess)
        for g, w in zip(got, image._scan(lattice.queries)):
            assert np.array_equal(g, w)
        assert got[3] == lattice.queries.shape[1]

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
        first sweep leaves the rays under the hole uncovered, the rim rays
        on the edge x3 = 0 among them, and the transform stops there instead
        of iterating to max_iters."""

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
        # On the edge x3 = 0 the sweep starts from radius 1, so the images of
        # the 16 vertices with u1 > 0.3 and u2 > 0.2 are NaN.  Their valid
        # neighbours, u1 = 9/32 and 26/32, map to u1 = 0.253 and 0.772; the
        # 16 rays between those would interpolate across the hole.
        U = mesh.directions
        edge = U[:, 2] == 0.0
        assert np.count_nonzero(edge & (U[:, 0] > 0.3) & (U[:, 1] > 0.2)) == 16
        lo, hi = (y[0] / y.sum() for y in class19_lg(np.array([[9, 23, 0], [26, 6, 0]]) / 32))
        rim = np.nonzero(edge & (U[:, 0] >= lo) & (U[:, 0] <= hi))[0]
        assert rim.size == 16
        assert np.all(np.isnan(mesh.radii[rim]))
        assert np.all(np.isin(rim, mesh.flagged))
        assert not np.any(np.isnan(mesh.radii[edge & ~np.isin(np.arange(U.shape[0]), rim)]))

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
            radii=class19_mesh.radii.copy(),
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
            mesh = SimplexMesh(N, r, 0.0)
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


class TestCustomMapMesh:
    """A builtin map and the same law wrapped by make_custom give the same
    mesh to rounding: their axial fixed points differ by a few ulps, so the
    graph transform takes the same sweeps and full scans (measured: radii
    within 3e-16 ||w||, invariance residuals within 1.1e-17 ||w||)."""

    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("kind", ["readme", "class19_lg"])
    def test_mesh_matches_builtin(self, kind, N):
        m = readme_ricker() if kind == "readme" else build_model("leslie_gower", A_CLASS19)
        custom = make_custom(3, m.growth, m.growth_jacobian)
        wn = np.linalg.norm(axial_caps(m))
        builtin, wrapped = (compute_carrying_simplex(law, resolution=N, tol=1e-8)
                            for law in (m, custom))
        assert wrapped.sweeps == builtin.sweeps
        assert wrapped.full_scans == builtin.full_scans
        assert np.abs(wrapped.radii - builtin.radii).max() <= 1e-12 * wn
        h4 = invariance_residual(custom, wrapped) - invariance_residual(m, builtin)
        assert abs(h4) <= 1e-12 * wn


class TestInvariance:
    def test_converged_residual_small(self, class19_lg, class19_mesh):
        h = class19_mesh.max_edge_length()
        res = invariance_residual(class19_lg, class19_mesh)
        assert res < max(10 * 1e-8, 5 * h ** 2)

    def test_initial_plane_not_invariant(self, class19_lg, class19_mesh):
        plane = initial_plane(class19_lg, class19_mesh)
        assert invariance_residual(class19_lg, plane) > 1e-3

    def test_surface_distance_matches_oracle(self, class19_lg, class19_mesh):
        """Exact on both sides of the ring certificate: points on the surface,
        radially off it by up to a factor 2, and vertex images, both on the
        converged mesh and on the initial plane (whose images mostly fail the
        certificate and take the vertex-ball search)."""
        wn = np.linalg.norm(axial_caps(class19_lg))
        rng = np.random.default_rng(12)
        dirs = rng.dirichlet(np.ones(3), 8)
        for mesh in (class19_mesh, initial_plane(class19_lg, class19_mesh)):
            on = radial_project(mesh, dirs)
            images = class19_lg(mesh.vertices)[rng.choice(mesh.radii.size, 40, replace=False)]
            pts = np.vstack([on * f for f in (1.0, 1.001, 1.02, 1.05, 1.2, 2.0)] + [images])
            fast = surface_distance(mesh, pts)
            for p, d in zip(pts, fast):
                assert abs(d - brute_force_surface_distance(mesh, p)) <= 1e-15 * wn

    @pytest.mark.parametrize("k", [-40, -3, 3, 40])
    def test_surface_distance_scales_exactly(self, class19_lg, class19_mesh, k):
        """Scaling the radii and the points by 2^k scales every distance by
        exactly 2^k, on rows inside and outside the ring certificate."""
        rng = np.random.default_rng(4)
        on = radial_project(class19_mesh, rng.dirichlet(np.ones(3), 50))
        pts = np.vstack([class19_lg(class19_mesh.vertices), on * 1.001, on * 1.05, on * 2.0])
        scaled = SimplexMesh(
            resolution=class19_mesh.resolution,
            radii=np.ldexp(class19_mesh.radii, k),
            residual=class19_mesh.residual,
        )
        want = np.ldexp(surface_distance(class19_mesh, pts), k)
        assert np.array_equal(surface_distance(scaled, np.ldexp(pts, k)), want)


    def test_surface_distance_follows_radii_changed_in_place(self):
        """A mesh keeps nothing that depends on its radii: after a vertex-ball
        search, doubling the radii in place gives the distances of a fresh
        mesh with the doubled radii."""
        mesh = compute_carrying_simplex(readme_ricker(), resolution=32, tol=1e-8)
        v = mesh.vertices[np.flatnonzero(np.all(mesh.directions == [0.0, 0.5, 0.5], axis=1))[0]]
        p = 2.0 * v + np.array([-1e-3, 0.0, 0.0])  # outside the orthant: a ball search
        surface_distance(mesh, p)
        mesh.radii *= 2.0
        fresh = SimplexMesh(resolution=32, radii=mesh.radii.copy(), residual=mesh.residual)
        want = surface_distance(fresh, p)
        assert want == pytest.approx(1e-3, rel=1e-9)
        assert np.array_equal(surface_distance(mesh, p), want)

    def test_surface_distance_blocks_match_single_rows(self, class19_lg, class19_mesh):
        """Over more than one query block the distances equal the per-row
        calls exactly."""
        rng = np.random.default_rng(5)
        off = radial_project(class19_mesh, rng.dirichlet(np.ones(3), 300)) * 1.05
        pts = np.vstack([class19_lg(class19_mesh.vertices), off])
        assert pts.shape[0] > 2 * _DISTANCE_BLOCK
        single = np.array([surface_distance(class19_mesh, p)[0] for p in pts])
        assert np.array_equal(surface_distance(class19_mesh, pts), single)


class TestPrunedResidual:
    """invariance_residual measures only the rows whose bound can reach the
    maximum, and returns the maximum over every row, bit for bit."""

    @staticmethod
    def assert_full_max(m, mesh, monkeypatch):
        """The residual equals the all-row maximum; returns the number of
        rows it measured and of those that took the vertex-ball search."""
        rows, balls = [], []
        measure, ball = simplex.surface_distance, simplex._ball_distance
        monkeypatch.setattr(simplex, "surface_distance",
                            lambda mesh, pts: rows.append(len(pts)) or measure(mesh, pts))
        monkeypatch.setattr(simplex, "_ball_distance",
                            lambda *args: balls.append(len(args[1])) or ball(*args))
        got = invariance_residual(m, mesh)
        monkeypatch.undo()
        assert got == float(surface_distance(mesh, m(mesh.vertices)).max())
        return sum(rows), sum(balls)

    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    def test_readme(self, N, monkeypatch):
        m = readme_ricker()
        mesh = compute_carrying_simplex(m, resolution=N, tol=1e-8)
        rows, balls = self.assert_full_max(m, mesh, monkeypatch)
        assert balls == 0
        if N >= 64:
            assert rows <= mesh.radii.size // 100

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("k", range(len(ANCHOR_MATRICES)))
    def test_anchors(self, kind, k, monkeypatch):
        m = build_model(kind, ANCHOR_MATRICES[k][1])
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-8)
        rows, _ = self.assert_full_max(m, mesh, monkeypatch)
        assert rows < mesh.radii.size

    @pytest.mark.parametrize("N", [32, 64])
    def test_unconverged_mesh_takes_ball_search(self, N, monkeypatch):
        """On the initial plane and on the surface after one sweep
        (max_iters=1) many images fail the ring certificate and take the
        vertex-ball search; they are measured outright."""
        m = readme_ricker()
        with pytest.raises(NonConvergenceError) as stopped:
            compute_carrying_simplex(m, resolution=N, max_iters=1, tol=1e-8)
        swept = stopped.value.mesh
        assert swept.sweeps == 1
        for mesh in (initial_plane(m, swept), swept):
            _, balls = self.assert_full_max(m, mesh, monkeypatch)
            assert balls > 0

    def test_map_not_finite_on_the_surface_raises(self, class19_lg, class19_mesh):
        def growth(x):
            return np.where(np.asarray(x)[..., :1] > 0.5, np.nan, class19_lg.growth(x))

        hole = make_custom(3, growth, class19_lg.growth_jacobian)
        with pytest.raises(ValueError, match="finite"):
            invariance_residual(hole, class19_mesh)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_radius(self, class19_mesh, bad):
        doc = class19_mesh.to_json()
        doc["radii"][7] = bad
        with pytest.raises(SimplexError, match="finite and positive"):
            SimplexMesh.from_json(doc)

    def test_rejects_scalar_radii(self, class19_mesh):
        doc = {**class19_mesh.to_json(), "radii": 5.0}
        with pytest.raises(SimplexError, match="radii length"):
            SimplexMesh.from_json(doc)

    @pytest.mark.parametrize("resolution", [json.loads("1e400"), 64.7, 64.0, "64", None, [64],
                                            0, -64, 63, 65, 10**6])
    def test_rejects_bad_resolution(self, class19_mesh, monkeypatch, resolution):
        """The resolution must be a JSON integer N >= 1 with (N+1)(N+2)/2
        directions, and it is checked before any lattice is built."""
        def unbuilt(N):
            raise AssertionError(f"lattice of resolution {N} built")

        monkeypatch.setattr(simplex, "barycentric_lattice", unbuilt)
        doc = {**class19_mesh.to_json(), "resolution": resolution}
        with pytest.raises(SimplexError, match="resolution"):
            SimplexMesh.from_json(doc)

    def test_rejects_bool_resolution(self):
        """true is not the integer 1, although Python's bool is an int."""
        doc = SimplexMesh(resolution=1, radii=np.ones(3), residual=0.0).to_json()
        assert SimplexMesh.from_json(doc).resolution == 1
        with pytest.raises(SimplexError, match="resolution"):
            SimplexMesh.from_json({**doc, "resolution": True})

    def test_rejects_foreign_directions(self, class19_mesh):
        doc = class19_mesh.to_json()
        doc["directions"] = list(reversed(doc["directions"]))
        with pytest.raises(Exception):
            SimplexMesh.from_json(doc)
