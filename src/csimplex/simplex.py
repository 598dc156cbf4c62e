"""Numerical carrying simplex as a radial graph over the probability simplex.

The surface is represented by one radius rho(u) per direction u on a regular
barycentric lattice of the standard 2-simplex.  A graph-transform sweep maps
all vertices forward by T and re-samples the image surface along each lattice
ray; because every ray meets the carrying simplex exactly once (radial
homeomorphism), the iteration converges toward the attracting invariant
surface from the plane through the axial fixed points.

Ray/image intersection note: a ray t*u hits the triangle with image points
y_0, y_1, y_2 exactly where u lies in the triangle of normalized directions
d_i = y_i / sum(y_i); writing c for the barycentric weights of u among the
d_i, the intersection parameter is t = 1 / sum_i(c_i / s_i) with
s_i = sum(y_i).  Re-sampling therefore reduces to 2-D point location plus a
harmonic interpolation of the s_i.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .existence import axial_caps
from .models import CompetitiveMap

__all__ = [
    "SimplexMesh",
    "TangentConeEstimate",
    "SimplexError",
    "NonConvergenceError",
    "ZeroVectorError",
    "TooFewNeighborsError",
    "EmptyNeighborhoodError",
    "barycentric_lattice",
    "lattice_triangulation",
    "compute_carrying_simplex",
    "radial_project",
    "directions_from_uv",
    "unordered_check",
    "invariance_residual",
    "surface_distance",
    "estimate_tangent_cone",
    "estimate_theta",
]

DEFAULT_RESOLUTION = 64
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000


class SimplexError(RuntimeError):
    pass


class NonConvergenceError(SimplexError):
    """Graph transform residual stayed above tolerance; carries the last mesh."""

    def __init__(self, message: str, mesh: "SimplexMesh"):
        super().__init__(message)
        self.mesh = mesh


class ZeroVectorError(SimplexError):
    pass


class TooFewNeighborsError(SimplexError):
    pass


class EmptyNeighborhoodError(SimplexError):
    pass


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

def _lattice_index(i: np.ndarray, j: np.ndarray, N: int) -> np.ndarray:
    return i * (N + 1) - (i * (i - 1)) // 2 + j


def _lattice_ij(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice coordinates (i, j) of every vertex, in index order."""
    i, c = np.triu_indices(N + 1)
    return i, c - i


def barycentric_lattice(N: int) -> np.ndarray:
    """All directions (i, j, N-i-j)/N, ordered by i then j."""
    i, j = _lattice_ij(N)
    return np.stack([i, j, N - i - j], axis=1) / N


def lattice_triangulation(N: int) -> np.ndarray:
    """Faces of the regular lattice: N^2 triangles, counterclockwise in (i, j).

    Cell (i, j) with i + j < N contributes its up triangle, followed by its
    down triangle unless the cell lies on the hypotenuse row."""
    i, j = _lattice_ij(N - 1)
    v00 = _lattice_index(i, j, N)
    v10 = _lattice_index(i + 1, j, N)
    v01 = v00 + 1
    faces = np.empty((2 * i.size, 3), dtype=np.intp)
    faces[0::2] = np.stack([v00, v10, v01], axis=1)
    faces[1::2] = np.stack([v10, v10 + 1, v01], axis=1)
    keep = np.ones(2 * i.size, dtype=bool)
    keep[1::2] = i + j < N - 1
    return faces[keep]


def _vertex_faces(triangulation: np.ndarray, M: int) -> np.ndarray:
    """(M, 6) incident face indices per vertex, ascending, padded by
    repeating the list from its start (every vertex lies on a face)."""
    vert = triangulation.ravel()
    order = np.argsort(vert, kind="stable")  # face order kept per vertex
    faces_by_vertex = np.repeat(np.arange(triangulation.shape[0]), triangulation.shape[1])[order]
    counts = np.bincount(vert, minlength=M)
    starts = np.cumsum(counts) - counts
    slot = np.arange(6)[None, :] % counts[:, None]
    return faces_by_vertex[starts[:, None] + slot]


@dataclass
class SimplexMesh:
    """Radial graph r(u) over the barycentric lattice with its triangulation.

    ``residual`` is the size of the final graph-transform update,
    max over directions of |delta rho| * ||u||.  ``flagged`` lists the
    interior directions whose ray no face of the last sweep's image covered;
    their radii are NaN.  ``full_scans`` counts the sweeps that located
    their rays by the exhaustive scan rather than from the previous sweep's
    faces; it is not part of the JSON form.
    """

    resolution: int
    directions: np.ndarray
    radii: np.ndarray
    triangulation: np.ndarray
    residual: float
    converged: bool = True
    sweeps: int = 0
    flagged: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    residual_history: list = field(default_factory=list)
    full_scans: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def vertices(self) -> np.ndarray:
        return self.radii[:, None] * self.directions

    def max_edge_length(self) -> float:
        V = self.vertices
        tri = V[self.triangulation]
        e = np.concatenate(
            [tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2]]
        )
        return float(np.sqrt((e * e).sum(axis=1).max()))

    def _vertex_tree(self):
        """kd-tree of the vertices (scipy.spatial is imported on first use)."""
        if "vtree" not in self._cache:
            from scipy.spatial import cKDTree

            self._cache["vtree"] = cKDTree(self.vertices)
        return self._cache["vtree"]

    def _incident_faces(self) -> np.ndarray:
        """(M, 6) incident face indices per vertex (see _vertex_faces)."""
        if "incidence" not in self._cache:
            self._cache["incidence"] = _vertex_faces(self.triangulation, self.directions.shape[0])
        return self._cache["incidence"]

    def to_json(self) -> dict:
        return {
            "resolution": int(self.resolution),
            "directions": self.directions.tolist(),
            "radii": self.radii.tolist(),
            "residual": float(self.residual),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SimplexMesh":
        N = int(doc["resolution"])
        directions = np.asarray(doc["directions"], dtype=float)
        lattice = barycentric_lattice(N)
        if directions.shape != lattice.shape or not np.allclose(directions, lattice, atol=1e-12):
            raise SimplexError("directions do not match the regular lattice for this resolution")
        radii = np.asarray(doc["radii"], dtype=float)
        if radii.shape[0] != directions.shape[0]:
            raise SimplexError("radii length does not match directions")
        return cls(
            resolution=N,
            directions=lattice,
            radii=radii,
            triangulation=lattice_triangulation(N),
            residual=float(doc["residual"]),
        )


@dataclass(frozen=True)
class TangentConeEstimate:
    base_point: np.ndarray
    radius: float
    secants: np.ndarray  # unit secant directions, one per sampled neighbor
    angle_to_w: float


# ---------------------------------------------------------------------------
# Regular-lattice point location (closed form)
# ---------------------------------------------------------------------------

def _locate_regular(u: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Containing face and barycentric weights for directions u on the regular
    lattice.  Returns (verts (m, 3) int, weights (m, 3))."""
    u = np.atleast_2d(u)
    a1 = u[:, 0] * N
    a2 = u[:, 1] * N
    i = np.clip(np.floor(a1).astype(np.intp), 0, N - 1)
    j = np.clip(np.floor(a2).astype(np.intp), 0, np.maximum(N - 1 - i, 0))
    fi = a1 - i
    fj = a2 - j
    # cells on the hypotenuse row have no down triangle; spill there is noise
    dn = (fi + fj > 1.0 + 1e-12) & (i + j < N - 1)
    v00 = _lattice_index(i, j, N)
    v10 = _lattice_index(i + 1, j, N)
    # up triangle (i, j), (i+1, j), (i, j+1); down (i+1, j), (i+1, j+1), (i, j+1)
    verts = np.stack([np.where(dn, v10, v00), v10 + dn, v00 + 1], axis=1)
    wts = np.stack([
        np.where(dn, 1.0 - fj, 1.0 - fi - fj),
        np.where(dn, fi + fj - 1.0, fi),
        np.where(dn, 1.0 - fi, fj),
    ], axis=1)
    wts = np.clip(wts, 0.0, None)
    wts /= wts.sum(axis=1, keepdims=True)
    return verts, wts


def radial_project(mesh: SimplexMesh, x: np.ndarray) -> np.ndarray:
    """Point where the ray through x meets the mesh surface.

    The direction u = x / sum(x) is located on the lattice and rho is
    interpolated barycentrically on the containing face.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    sums = X.sum(axis=1)
    if np.any(sums <= 0) or np.any(X < -1e-15):
        raise ZeroVectorError("radial projection needs a nonzero nonnegative point")
    U = X / sums[:, None]
    verts, wts = _locate_regular(U, mesh.resolution)
    rho = (mesh.radii[verts] * wts).sum(axis=1)
    out = rho[:, None] * U
    return out[0] if single else out


def directions_from_uv(uv: np.ndarray) -> np.ndarray:
    """Rows (u1, u2) of the direction plane as directions (u1, u2, 1 - u1 - u2),
    clipped to 1e-12 and renormalised to unit sum, ready for radial_project."""
    uv = np.atleast_2d(uv)
    U = np.column_stack([uv, 1.0 - uv[:, 0] - uv[:, 1]])
    U = np.clip(U, 1e-12, None)
    U /= U.sum(axis=1, keepdims=True)
    return U


# ---------------------------------------------------------------------------
# Graph transform
# ---------------------------------------------------------------------------

def _barycentric_2d(q: np.ndarray, t0: np.ndarray, t1: np.ndarray, t2: np.ndarray):
    """Barycentric coordinates (c0, c1, c2) of 2-D points q in triangles
    (t0, t1, t2).  Axis 0 of every argument holds the two coordinates; the
    remaining axes broadcast together."""
    d = (t1[0] - t0[0]) * (t2[1] - t0[1]) - (t2[0] - t0[0]) * (t1[1] - t0[1])
    d = np.where(d == 0.0, 1e-300, d)
    c1 = ((q[0] - t0[0]) * (t2[1] - t0[1]) - (t2[0] - t0[0]) * (q[1] - t0[1])) / d
    c2 = ((t1[0] - t0[0]) * (q[1] - t0[1]) - (q[0] - t0[0]) * (t1[1] - t0[1])) / d
    return 1.0 - c1 - c2, c1, c2


# A direction counts as inside a face when its smallest barycentric weight is
# at least -_FOUND_TOL.
_FOUND_TOL = 1e-6


def _interior_queries(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The interior lattice directions (i/N, j/N), 1 <= i, j and
    i + j <= N - 1, in index order: as lattice coordinates (2, Q) and as
    direction coordinates (2, Q)."""
    # the interior points are the lattice of N - 3 shifted by (1, 1)
    qi, qj = _lattice_ij(N - 3)
    ij = np.stack([qi + 1, qj + 1])
    return ij, ij / N


def _scan_box(t_min: np.ndarray, t_max: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last lattice coordinates (2, F) of the queries that the scan
    pairs with each face, from the faces' coordinate ranges t_min, t_max
    (2, F).  The bounding box is padded so that no point with every
    barycentric weight >= -_FOUND_TOL is left out; NaN for a face with a NaN
    coordinate."""
    # lattice-index units: the queries sit on the integer points (i, j)
    lo = t_min * N
    hi = t_max * N
    # a point whose barycentric weights are all >= -eps lies at most 2 eps
    # times the extent of the box outside it
    pad = 1e-5 * (hi - lo) + 1e-9
    first = np.maximum(np.ceil(lo - pad), 1.0)
    last = np.minimum(np.floor(hi + pad), N - 2.0)
    return first, last


def _locate_interior(P: np.ndarray, faces: np.ndarray, N: int):
    """Locate the interior lattice directions among the image triangles.

    ``P`` (2, M) holds the first two coordinates of the image direction of
    every lattice vertex.  The queries are the interior lattice directions
    (see _interior_queries).  Each face is scattered onto the lattice points
    of its padded bounding box (_scan_box); every query keeps the face with
    the largest minimum barycentric weight, the lowest face index on ties.
    This is the argmax over all faces that an exhaustive scan computes,
    restricted to the faces that can pass.

    Returns (face (Q,), barycentric weights (Q, 3), found (Q,)); a query that
    no face covers within -_FOUND_TOL has found = False.
    """
    queries = _interior_queries(N)[1]
    Q = queries.shape[1]
    # (coordinate, corner, face); np.take is much faster here than indexing
    T = np.take(P, faces.T, axis=1)
    first, last = _scan_box(T.min(axis=1), T.max(axis=1), N)
    span = last - first + 1.0
    hit = np.nonzero((span[0] > 0) & (span[1] > 0))[0]  # NaN spans fail too
    nj = span[1, hit].astype(np.intp)
    count = span[0, hit].astype(np.intp) * nj
    pair_face = np.repeat(hit, count)
    k = np.arange(pair_face.size) - np.repeat(np.cumsum(count) - count, count)
    nj = np.repeat(nj, count)
    pi = np.repeat(first[0, hit].astype(np.intp), count) + k // nj
    pj = np.repeat(first[1, hit].astype(np.intp), count) + k % nj
    inside = pi + pj <= N - 1
    pair_face = pair_face[inside]
    pair_query = _lattice_index(pi[inside] - 1, pj[inside] - 1, N - 3)

    T_pair = np.take(T, pair_face, axis=2)
    c0, c1, c2 = _barycentric_2d(
        np.take(queries, pair_query, axis=1), T_pair[:, 0], T_pair[:, 1], T_pair[:, 2]
    )
    pair_min = np.minimum(np.minimum(c0, c1), c2)
    best = np.full(Q, -np.inf)
    np.maximum.at(best, pair_query, pair_min)
    win = pair_min == best[pair_query]
    face = np.full(Q, faces.shape[0], dtype=np.intp)
    np.minimum.at(face, pair_query[win], pair_face[win])
    found = best >= -_FOUND_TOL
    face[~found] = 0
    T_face = np.take(T, face, axis=2)
    bary = np.stack(_barycentric_2d(queries, T_face[:, 0], T_face[:, 1], T_face[:, 2]), axis=1)
    return face, bary, found


# The warm-started locator keeps a query's face when its barycentric weights
# there all exceed _WARM_EPS, and it accepts an image only if rounding moves
# no face's weights by _WARM_EPS or more (see _Transform._locate_warm).
_WARM_EPS = 1e-9
# units of roundoff in that bound; 45 suffice for the arithmetic of
# _barycentric_2d
_ROUNDING = 64 * np.finfo(float).eps / 2


class _Transform:
    """One prepared graph-transform pass: lattice bookkeeping reused across sweeps."""

    def __init__(self, m: CompetitiveMap, N: int):
        if m.n != 3:
            raise SimplexError("simplex meshing is implemented for n = 3")
        self.m = m
        self.N = N
        self.U = barycentric_lattice(N)
        self.faces = lattice_triangulation(N)
        self.corners = np.ascontiguousarray(self.faces.T)  # (corner, face)
        self.unorm = np.linalg.norm(self.U, axis=1)
        corner_mask = np.max(self.U, axis=1) == 1.0
        self.corner_idx = np.nonzero(corner_mask)[0]
        self.edges = []
        for axis in range(3):
            on = (self.U[:, axis] == 0.0) & ~corner_mask
            full = np.nonzero(self.U[:, axis] == 0.0)[0]
            self.edges.append((axis, full, np.nonzero(on)[0]))
        self.interior_idx = np.nonzero(np.min(self.U, axis=1) > 0.0)[0]
        self.incidence = _vertex_faces(self.faces, self.U.shape[0])
        self.ij, self.queries = _interior_queries(N)
        self.face = None  # the previous sweep's face per interior query
        self.full_scans = 0  # sweeps located by the exhaustive scan

    def locate(self, P: np.ndarray, rim_on_edges: bool):
        """_locate_interior(P, faces, N), from the previous sweep's faces
        where that can be certified and by the exhaustive scan otherwise."""
        located = None
        if self.face is not None and rim_on_edges:
            located = self._locate_warm(P)
        if located is None:
            located = _locate_interior(P, self.faces, self.N)
            self.full_scans += 1
        self.face = located[0]
        return located

    def _locate_warm(self, P: np.ndarray):
        """_locate_interior's result, found from the previous sweep's face of
        each query, or None unless it is certified for every query.

        The caller checks that each rim vertex of the lattice maps onto its
        edge of the simplex (its zero coordinates stay exactly zero).

        Embedding.  With (sx, sy) the sums of the absolute coordinate
        differences along a face's two edges from its first corner (bounds on
        its coordinate ranges) and d twice its signed area, the minimum
        weight that _barycentric_2d computes for the face at a query of its
        scan box (_scan_box) is within _ROUNDING * (6 sx sy + 1e-9 (sx + sy))
        / d of the exact one, or below -1/4 where that is negative.  Every
        face must be positively oriented and have this bound under _WARM_EPS.
        The image of the rim then winds once around every query, so the
        faces cover a neighbourhood of each query exactly once: a query
        inside one face is outside every other.

        1. A query whose computed weights in its guess all exceed _WARM_EPS
           lies strictly inside it (the same bound holds there, since those
           weights are below 2 in size).  Every other face that the scan
           pairs with it has a negative exact minimum weight, so a computed
           one below _WARM_EPS: the guess is the argmax.
        2. The other queries take the argmax over the faces of the guess's
           one-ring R (the faces that share a vertex with it) that the scan
           pairs with them, lowest face index on ties.  It is accepted if its
           minimum weight m > -_WARM_EPS and the query lies D >=
           16 _WARM_EPS diam from the rim of the star (the union of the
           faces) of a vertex that the winner shares with the guess, where
           diam bounds every face's diameter.  The query is then inside that
           star, which R contains, and a face outside R has exact minimum
           weight <= -D / (2 diam), so a computed one below -_WARM_EPS < m:
           the argmax over R is the argmax over all faces.
        """
        faces, guess, queries = self.faces, self.face, self.queries
        # (coordinate, corner, face), as in _locate_interior
        T = np.take(P, self.corners, axis=1)
        e1 = T[:, 1] - T[:, 0]
        e2 = T[:, 2] - T[:, 0]
        d = e1[0] * e2[1] - e2[0] * e1[1]
        sx, sy = np.abs(e1) + np.abs(e2)
        if not np.all(_WARM_EPS * d > _ROUNDING * (6.0 * sx * sy + 1e-9 * (sx + sy))):
            return None  # a face that is flat, flipped, NaN or too thin to trust
        T_guess = np.take(T, guess, axis=2)
        c = _barycentric_2d(queries, T_guess[:, 0], T_guess[:, 1], T_guess[:, 2])
        face = guess.copy()
        bary = np.stack(c, axis=1)
        rest = np.nonzero(~(np.minimum(np.minimum(c[0], c[1]), c[2]) > _WARM_EPS))[0]
        if rest.size == 0:
            return face, bary, np.ones(face.size, dtype=bool)
        if rest.size > face.size // 8:
            return None  # a moved query costs about as much as eight in the scan

        own = faces[guess[rest]]  # (query, vertex of the guess)
        star = self.incidence[own]  # (query, vertex, face): the stars of those vertices
        ring = star.reshape(rest.size, -1)
        T_ring = np.take(T, ring, axis=2)  # (coordinate, corner, query, face)
        c = _barycentric_2d(queries[:, rest, None], T_ring[:, 0], T_ring[:, 1], T_ring[:, 2])
        first, last = _scan_box(T_ring.min(axis=1), T_ring.max(axis=1), self.N)
        ij = self.ij[:, rest, None]
        paired = np.all((first <= ij) & (ij <= last), axis=0)
        score = np.where(paired, np.minimum(np.minimum(c[0], c[1]), c[2]), -np.inf)
        best = score.max(axis=1)
        rows = np.arange(rest.size)
        col = np.argmin(np.where(score == best[:, None], ring, faces.shape[0]), axis=1)
        win = ring[rows, col]

        # the rim of a guess vertex's star: the edges opposite the vertex in
        # its faces, and the edges of the simplex
        corners = faces[star]  # (query, vertex, face, corner)
        at = np.argmax(corners == own[..., None, None], axis=-1)[..., None]
        a = np.take(P, np.take_along_axis(corners, (at + 1) % 3, axis=-1)[..., 0], axis=1)
        e = np.take(P, np.take_along_axis(corners, (at + 2) % 3, axis=-1)[..., 0], axis=1) - a
        r = queries[:, rest, None, None] - a
        t = np.clip((r * e).sum(axis=0) / (e * e).sum(axis=0), 0.0, 1.0)
        # the queries lie at least 1 / (N sqrt 2) from the simplex's edges
        dist = np.minimum(np.hypot(*(r - t * e)).min(axis=-1), 0.5 / self.N)
        # take the star of a guess vertex that the winner shares
        shared = (own[:, :, None] == faces[win][:, None, :]).any(axis=-1)
        dist = np.where(shared, dist, 0.0).max(axis=1)
        diam = np.max(sx + sy)
        if not np.all((best > -_WARM_EPS) & (dist >= 16.0 * _WARM_EPS * diam)):
            return None
        face[rest] = win
        bary[rest] = np.stack([ci[rows, col] for ci in c], axis=1)
        return face, bary, np.ones(face.size, dtype=bool)

    def sweep(self, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map the surface forward and re-sample it radially.

        Returns (new radii, interior indices whose ray no image face covers).
        A finite image maps the lattice's rim onto the simplex's edges, so
        its faces cover every interior direction; a ray that misses means a
        non-finite image, and its radius is NaN.
        """
        V = radii[:, None] * self.U
        Y = self.m(V)
        s = Y.sum(axis=1)
        new = np.full_like(radii, np.nan)

        # corners: the axis dynamics is 1-D, the image stays on the axis
        new[self.corner_idx] = s[self.corner_idx]

        # boundary edges: 1-D re-sampling in the surviving coordinate pair
        for axis, full_idx, query_idx in self.edges:
            if query_idx.size == 0:
                continue
            param_axis = 0 if axis != 0 else 1
            alpha_img = Y[full_idx, param_axis] / s[full_idx]
            order = np.argsort(alpha_img)
            xs = alpha_img[order]
            gs = (1.0 / s[full_idx])[order]
            alpha_q = self.U[query_idx, param_axis]
            g = np.interp(alpha_q, xs, gs)
            new[query_idx] = 1.0 / g

        # interior: 2-D point location among image-direction triangles
        rim_on_edges = all(np.all(Y[full_idx, axis] == 0.0) for axis, full_idx, _ in self.edges)
        face_pick, best_bary, ok = self.locate((Y[:, :2] / s[:, None]).T.copy(), rim_on_edges)
        if not ok.all():
            face_pick, best_bary = face_pick[ok], best_bary[ok]
        c = np.clip(best_bary, 0.0, None)
        # rows are summed left to right, as sum(axis=1) does, but faster
        c /= (c[:, 0] + c[:, 1] + c[:, 2])[:, None]
        c /= np.take(s, np.take(self.faces, face_pick, axis=0))
        new[self.interior_idx[ok]] = 1.0 / (c[:, 0] + c[:, 1] + c[:, 2])
        return new, self.interior_idx[~ok]


def compute_carrying_simplex(
    m: CompetitiveMap,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SimplexMesh:
    """Iterate the graph transform from the plane through the axial fixed
    points until the maximal radial displacement drops below tol.

    Raises NonConvergenceError (mesh attached) when max_iters sweeps do not
    reach tolerance, and after the first sweep whose residual is not finite
    (a map that is NaN or overflows somewhere on the surface); the mesh's
    ``flagged`` then lists the interior rays that no image face covered.
    """
    transform = _Transform(m, resolution)
    w = axial_caps(m)
    radii = 1.0 / (transform.U / w[None, :]).sum(axis=1)
    history: list[float] = []
    flagged = np.empty(0, dtype=np.intp)
    residual = float("inf")
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        new, flagged = transform.sweep(radii)
        residual = float(np.max(np.abs(new - radii) * transform.unorm))
        radii = new
        history.append(residual)
        if residual < tol or not np.isfinite(residual):
            break
    mesh = SimplexMesh(
        resolution=resolution,
        directions=transform.U,
        radii=radii,
        triangulation=transform.faces,
        residual=residual,
        converged=residual < tol,
        sweeps=sweeps,
        flagged=flagged,
        residual_history=history,
        full_scans=transform.full_scans,
    )
    if not mesh.converged:
        raise NonConvergenceError(
            f"residual {residual:.3e} above tol {tol:g} after {sweeps} sweeps", mesh
        )
    return mesh


# ---------------------------------------------------------------------------
# Mesh diagnostics
# ---------------------------------------------------------------------------

def _orthant_occupied(s, a, b, qs, qa, qb) -> np.ndarray:
    """For each query q: is there a point p with s[p] > qs[q], a[p] >= qa[q]
    and b[p] >= qb[q]?

    Offline 3-D dominance in O(M log^2 M).  Points ordered by s descending
    make {s > qs} a prefix of length cnt[q]; split into aligned blocks of
    2^L points at each set bit L of cnt, as a Fenwick tree would.  Within a
    block, points ordered by a descending make {a >= qa} a prefix, whose
    smallest rank in b descending decides {b >= qb}.  Comparisons happen only
    through searchsorted on the sorted values, so the answer is exact in
    floating point.
    """
    M = s.size
    cnt = M - np.searchsorted(np.sort(s), qs, side="right")
    r_a = M - np.searchsorted(np.sort(a), qa, side="left")
    r_b = M - np.searchsorted(np.sort(b), qb, side="left")
    pos = np.empty(M, dtype=np.intp)
    pos[np.argsort(-s, kind="stable")] = np.arange(M)
    rank_a = np.empty(M, dtype=np.intp)
    rank_a[np.argsort(-a, kind="stable")] = np.arange(M)
    rank_b = np.empty(M, dtype=np.intp)
    rank_b[np.argsort(-b, kind="stable")] = np.arange(M)
    best_b = np.full(qs.size, M, dtype=np.intp)
    for L in range(M.bit_length()):
        sel = np.nonzero((cnt >> L) & 1)[0]
        if sel.size == 0:
            continue
        block = pos >> L
        key = block * M + rank_a
        order = np.argsort(key)
        key = key[order]
        offset = block[order] * M
        # running minimum of rank_b that restarts at every block
        run = np.minimum.accumulate(rank_b[order] - offset) + offset
        q_block = (cnt[sel] >> L) - 1
        at = np.searchsorted(key, q_block * M + r_a[sel] - 1, side="right") - 1
        ok = (at >= 0) & (key[np.maximum(at, 0)] >= q_block * M)
        hit = sel[ok]
        best_b[hit] = np.minimum(best_b[hit], run[at[ok]])
    return best_b < r_b


def unordered_check(mesh: SimplexMesh, tol: float) -> list[tuple[int, int]]:
    """Vertex pairs violating unorderedness: x <= y + tol in every coordinate
    and x_j < y_j - tol in some coordinate.  Empty list = pass.

    Pairs come ordered by x then y.  For each coordinate j, an orthant query
    over y + tol and y - tol finds the vertices x that take part in some
    pair; only their rows are compared against every vertex.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    V = mesh.vertices
    up = V + tol
    down = V - tol
    rows = np.zeros(V.shape[0], dtype=bool)
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # y_j - tol > x_j already implies y_j + tol >= x_j
        rows |= _orthant_occupied(down[:, j], up[:, k], up[:, l], V[:, j], V[:, k], V[:, l])
    rows = np.nonzero(rows)[0]
    out: list[tuple[int, int]] = []
    block = 256
    for start in range(0, rows.size, block):
        r = rows[start : start + block]
        va = V[r][:, None, :]
        below = np.all(va <= up[None, :, :], axis=2)
        strict = np.any(va < down[None, :, :], axis=2)
        pr, pc = np.nonzero(below & strict)
        out.extend((int(x), int(y)) for x, y in zip(r[pr], pc))
    return out


def _closest_point_on_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Closest points to p on triangles (a, b, c); everything broadcasts on
    the leading axes.  Standard region decomposition."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = (ab * ap).sum(-1)
    d2 = (ac * ap).sum(-1)
    bp = p - b
    d3 = (ab * bp).sum(-1)
    d4 = (ac * bp).sum(-1)
    cp = p - c
    d5 = (ab * cp).sum(-1)
    d6 = (ac * cp).sum(-1)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    denom_ab = np.where(d1 - d3 != 0.0, d1 - d3, 1.0)
    v_ab = d1 / denom_ab
    denom_ac = np.where(d2 - d6 != 0.0, d2 - d6, 1.0)
    w_ac = d2 / denom_ac
    d43 = d4 - d3
    d56 = d5 - d6
    denom_bc = np.where(d43 + d56 != 0.0, d43 + d56, 1.0)
    w_bc = d43 / denom_bc

    denom = va + vb + vc
    denom = np.where(denom != 0.0, denom, 1.0)
    v_in = vb / denom
    w_in = vc / denom

    shape = np.broadcast_shapes(p.shape, a.shape)
    out = np.empty(shape)
    region_a = (d1 <= 0) & (d2 <= 0)
    region_b = (d3 >= 0) & (d4 <= d3)
    region_c = (d6 >= 0) & (d5 <= d6)
    region_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    region_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    region_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    closest = a + np.clip(v_in, 0, 1)[..., None] * ab + np.clip(w_in, 0, 1)[..., None] * ac
    sel_bc = b + np.clip(w_bc, 0, 1)[..., None] * (c - b)
    sel_ac = a + np.clip(w_ac, 0, 1)[..., None] * ac
    sel_ab = a + np.clip(v_ab, 0, 1)[..., None] * ab
    out[...] = closest
    out[region_bc] = sel_bc[region_bc]
    out[region_ac] = sel_ac[region_ac]
    out[region_ab] = sel_ab[region_ab]
    out[region_c] = np.broadcast_to(c, shape)[region_c]
    out[region_b] = np.broadcast_to(b, shape)[region_b]
    out[region_a] = np.broadcast_to(a, shape)[region_a]
    return out


# Query rows per block in surface_distance.  Blocks keep the (rows, 6k, 3)
# candidate arrays bounded by the block, not by the number of queries.
_DISTANCE_BLOCK = 1024


def surface_distance(mesh: SimplexMesh, pts: np.ndarray, k_vertices: int = 8) -> np.ndarray:
    """Euclidean distance from each point to the triangulated surface,
    searching the faces incident to the k nearest vertices."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    V = mesh.vertices
    tree = mesh._vertex_tree()
    k = min(k_vertices, V.shape[0])
    incidence = mesh._incident_faces()
    dist = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _DISTANCE_BLOCK):
        block = pts[start:start + _DISTANCE_BLOCK]
        _, nearest = tree.query(block, k=k)
        cand = incidence[np.atleast_2d(nearest)].reshape(block.shape[0], -1)  # (B, k*6)
        tris = mesh.triangulation[cand]  # (B, k*6, 3)
        a = V[tris[..., 0]]
        b = V[tris[..., 1]]
        c = V[tris[..., 2]]
        closest = _closest_point_on_triangles(block[:, None, :], a, b, c)
        d = np.linalg.norm(closest - block[:, None, :], axis=2)
        dist[start:start + block.shape[0]] = d.min(axis=1)
    return dist


def invariance_residual(m: CompetitiveMap, mesh: SimplexMesh) -> float:
    """max over vertices v of distance(T(v), surface); near zero certifies
    approximate invariance T(S) = S."""
    images = m(mesh.vertices)
    return float(surface_distance(mesh, images).max())


def estimate_tangent_cone(
    mesh: SimplexMesh,
    base_point: np.ndarray,
    radius: float,
    w_basis: np.ndarray,
    min_neighbors: int = 3,
) -> TangentConeEstimate:
    """Secant directions from base_point to mesh vertices within radius and
    the worst angle between them and the plane spanned by w_basis."""
    xi = np.asarray(base_point, dtype=float)
    idx = mesh._vertex_tree().query_ball_point(xi, r=radius)
    V = mesh.vertices[idx]
    diffs = V - xi
    norms = np.linalg.norm(diffs, axis=1)
    # secants to near-coincident vertices carry only surface noise
    keep = norms > 1e-3 * radius
    if keep.sum() < min_neighbors:
        raise TooFewNeighborsError(
            f"{int(keep.sum())} neighbors within radius {radius:g} (need {min_neighbors})"
        )
    z = diffs[keep] / norms[keep, None]
    Q, _ = np.linalg.qr(np.asarray(w_basis, dtype=float))
    resid = z - (z @ Q) @ Q.T
    sines = np.clip(np.linalg.norm(resid, axis=1), 0.0, 1.0)
    angles = np.arcsin(sines)
    return TangentConeEstimate(
        base_point=xi, radius=float(radius), secants=z, angle_to_w=float(angles.max())
    )


def estimate_theta(
    mesh: SimplexMesh,
    q: np.ndarray,
    v: np.ndarray,
    w_basis: np.ndarray,
    radius: float,
) -> float:
    """Empirical constant Theta: max over mesh vertices xi near q of
    ||xi - Pi(xi)|| / ||q - Pi(xi)||, where Pi projects along v onto the
    plane q + W (the first-order leaf projection)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    B = np.asarray(w_basis, dtype=float)
    idx = mesh._vertex_tree().query_ball_point(q, r=radius)
    if not idx:
        raise EmptyNeighborhoodError(f"no mesh vertices within radius {radius:g} of q")
    xi = mesh.vertices[idx]
    Mcols = np.column_stack([v, B])
    coeffs = np.linalg.solve(Mcols, (xi - q).T)  # rows: v-component, then W-components
    num = np.abs(coeffs[0]) * np.linalg.norm(v)
    den = np.linalg.norm(B @ coeffs[1:], axis=0)
    good = den > 1e-14 * max(1.0, float(np.linalg.norm(q)))
    if not np.any(good):
        raise EmptyNeighborhoodError("all sampled vertices project onto q itself")
    return float((num[good] / den[good]).max())
