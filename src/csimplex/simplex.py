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

import functools
import math
import operator
import sys
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


# The one-ring of a face of lattice_triangulation: (di, dj, down) of the cells
# (i + di, j + dj) and kinds (up 0, down 1) of the faces that share a vertex
# with the up (first) or down (second) face of cell (i, j), in raster order of
# the cells and up before down, which is ascending face order.
_RING_OFFSETS = np.array([
    [(-1, -1, 1), (-1, 0, 0), (-1, 0, 1), (-1, 1, 0), (-1, 1, 1), (0, -1, 0), (0, -1, 1),
     (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, -1, 0), (1, -1, 1), (1, 0, 0)],
    [(-1, 0, 1), (-1, 1, 0), (-1, 1, 1), (0, -1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 0),
     (0, 1, 1), (1, -1, 0), (1, -1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)],
]).transpose(0, 2, 1)  # (kind, di/dj/down, 13)


def _ring_faces(N: int) -> np.ndarray:
    """(F, 13) faces of lattice_triangulation(N) that share a vertex with
    each face, the face itself included, ascending and padded by repeating
    the first (13 is the count for a face of the interior).

    Cell (i, j) holds up face 2 _lattice_index(i, j, N - 1) - i and, when
    i + j < N - 1, the down face after it; row i of cells holds N - i of
    them.  So the face of cell (i + di, j + dj) and kind `down` lies
    2 di (N - i) + 2 dj - |di| + down after the up face of cell (i, j), and a
    face's ring is the faces at its _RING_OFFSETS.  Only faces next to the
    rim have offsets outside the lattice; those are dropped and the ring
    padded."""
    ci, cj = _lattice_ij(N - 1)
    keep = np.ones(2 * ci.size, dtype=bool)
    keep[1::2] = ci + cj < N - 1
    i, j = np.repeat(ci, 2)[keep], np.repeat(cj, 2)[keep]
    kind = np.tile([0, 1], ci.size)[keep]
    up = np.arange(i.size) - kind
    ring = np.empty((i.size, 13), dtype=np.intp)
    for k, (di, dj, down) in enumerate(_RING_OFFSETS):
        at = np.flatnonzero(kind == k)
        ring[at] = up[at, None] + 2 * di * (N - i[at, None]) + (2 * dj - np.abs(di) + down)
    rim = np.flatnonzero((i == 0) | (j == 0) | (i + j >= N - 2))
    di, dj, down = np.moveaxis(_RING_OFFSETS[kind[rim]], 1, 0)
    c, d = i[rim, None] + di, j[rim, None] + dj
    part = np.where((c >= 0) & (d >= 0) & (c + d <= N - 1 - down), ring[rim], -1)
    part = np.take_along_axis(part, np.argsort(part < 0, axis=1, kind="stable"), axis=1)
    ring[rim] = np.where(part < 0, part[:, :1], part)
    return ring


# The corners after corner k of a face, in cyclic order.
_CORNERS_AFTER = np.array([[1, 2], [2, 0], [0, 1]])


class _Lattice:
    """The regular lattice of resolution N with every table of it that
    meshes, graph transforms and mesh images read, and the map from a
    direction to its face.  It holds no radii, so nothing in it can go
    stale, and every caller of _lattice(N) shares it, so its arrays are
    read-only.

    - ``directions`` (barycentric_lattice) and ``faces``
      (lattice_triangulation);
    - ``incidence`` (M, 6): the faces incident to each vertex, ascending,
      padded by repeating the list from its start (every vertex lies on a
      face);
    - ``link`` (M, 6, 2): per incident face, the edge opposite the vertex,
      as the face's corners after it in cyclic order; together they are the
      rim of the vertex's star;
    - ``rings`` (F, 13): the one-ring of each face (see _ring_faces);
    - ``queries`` (2, Q): the interior directions (i/N, j/N), 1 <= i, j and
      i + j <= N - 1, in index order;
    - the vertex index sets ``corner_idx``, ``edge_idx`` (per axis a: the
      vertices whose coordinate a is zero, and those of them that are no
      corner) and ``interior_idx``, and the directions' norms ``unorm``.
    """

    def __init__(self, N: int):
        self.N = N
        self.directions = U = barycentric_lattice(N)
        self.faces = F = lattice_triangulation(N)
        vert = F.ravel()
        order = np.argsort(vert, kind="stable")  # face order kept per vertex
        counts = np.bincount(vert, minlength=U.shape[0])
        starts = np.cumsum(counts) - counts
        slot = np.arange(6)[None, :] % counts[:, None]
        # (M, 6): each incident face, and the vertex's corner in it
        self.incidence, corner = np.divmod(order[starts[:, None] + slot], 3)
        self.link = F[self.incidence[..., None], _CORNERS_AFTER[corner]]
        self.rings = _ring_faces(N)
        # the interior points are the lattice of N - 3 shifted by (1, 1)
        qi, qj = _lattice_ij(N - 3)
        self.queries = np.stack([qi + 1, qj + 1]) / N
        self.unorm = np.linalg.norm(U, axis=1)
        corner = np.max(U, axis=1) == 1.0
        self.corner_idx = np.nonzero(corner)[0]
        self.edge_idx = tuple((np.nonzero(on)[0], np.nonzero(on & ~corner)[0]) for on in U.T == 0.0)
        self.interior_idx = np.nonzero(np.min(U, axis=1) > 0.0)[0]
        for table in [*vars(self).values(), *(idx for edge in self.edge_idx for idx in edge)]:
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    def face_of(self, u: np.ndarray):
        """Index into ``faces`` of the face that contains each direction row
        of u, with the row's offsets (fi, fj) in its lattice cell and whether
        it lies in the cell's down triangle."""
        N = self.N
        a1 = u[:, 0] * N
        a2 = u[:, 1] * N
        # np.minimum and np.maximum clip as np.clip does, at less cost per call
        i = np.minimum(np.maximum(np.floor(a1).astype(np.intp), 0), N - 1)
        j = np.minimum(np.maximum(np.floor(a2).astype(np.intp), 0), np.maximum(N - 1 - i, 0))
        fi = a1 - i
        fj = a2 - j
        # cells on the hypotenuse row have no down triangle; spill there is noise
        dn = (fi + fj > 1.0 + 1e-12) & (i + j < N - 1)
        # cell (i, j) holds faces 2k - i and, unless on the hypotenuse row,
        # 2k - i + 1, where k indexes the cell among the lattice of N - 1
        face = 2 * _lattice_index(i, j, N - 1) - i + dn
        return face, fi, fj, dn

    def locate(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing face and barycentric weights for directions u.  Returns
        (face index into ``faces`` (m,), weights (m, 3) of its corners in
        order)."""
        face, fi, fj, dn = self.face_of(np.atleast_2d(u))
        # corners: up (i, j), (i+1, j), (i, j+1); down (i+1, j), (i+1, j+1), (i, j+1)
        wts = np.stack([
            np.where(dn, 1.0 - fj, 1.0 - fi - fj),
            np.where(dn, fi + fj - 1.0, fi),
            np.where(dn, 1.0 - fi, fj),
        ], axis=1)
        wts = np.clip(wts, 0.0, None)
        wts /= wts.sum(axis=1, keepdims=True)
        return face, wts


# A process meshes at one or a few resolutions; the tables of N=512 take
# about 47 MB.
_cached_lattice = functools.lru_cache(maxsize=4)(_Lattice)


def _lattice(N: int) -> _Lattice:
    """The one _Lattice of resolution N, built on first use.  N is keyed by
    its integer value, so 16 and np.int64(16) share one lattice.  Raises
    ValueError, before anything is built or cached, unless N is an integer
    >= 1 (a bool is not one)."""
    try:
        n = operator.index(N)
    except TypeError:
        n = None
    if n is None or isinstance(N, bool) or n < 1:
        raise ValueError(f"resolution must be an integer >= 1, got {N!r}")
    return _cached_lattice(n)


_lattice.cache_info = _cached_lattice.cache_info
_lattice.cache_clear = _cached_lattice.cache_clear


@dataclass(eq=False)  # it holds arrays, so == is identity
class SimplexMesh:
    """Radial graph r(u) over ``lattice``, the shared _Lattice of the resolution.

    ``residual`` is the size of the final graph-transform update,
    max over directions of |delta rho| * ||u||.  ``flagged`` lists the
    directions whose ray the last sweep's image did not cover (interior rays
    outside every image face, rim rays whose interpolation touches an
    invalid image, corners without a valid image); their radii are NaN.
    ``full_scans`` counts the sweeps in which any ray was scanned
    (_ImageMesh.find) rather than certified in its face of the previous
    sweep: the first sweep, a sweep whose image is not embedded, and one
    that leaves some ray uncertified; it is not part of the JSON form.
    """

    resolution: int
    radii: np.ndarray
    residual: float
    converged: bool = True
    sweeps: int = 0
    flagged: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    residual_history: list = field(default_factory=list)
    full_scans: int = 0

    @property
    def lattice(self) -> _Lattice:
        return _lattice(self.resolution)

    @property
    def directions(self) -> np.ndarray:
        return self.lattice.directions

    @property
    def triangulation(self) -> np.ndarray:
        return self.lattice.faces

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

    def pull_back(self, m: CompetitiveMap) -> "_ImageMesh":
        """The PL inverse of T on the mesh, as a function of point rows.

        T maps lattice face f of the mesh onto image face f, whose corners
        are the images of f's vertices, built with one map call.  A point
        whose direction u lies in image face f with weights b pulls back to
        sum_k b_k U_k / sum_k (b_k / rho_k): the point of the mesh's flat
        face f with direction weights b, where U_k and rho_k are the
        directions and radii of f's corners.  T restricted to S is a
        homeomorphism, so this is a PL map only when the image faces tile
        the simplex once; raises ManifoldError when the image fails the
        embedding test of _ImageMesh (a face flat, flipped, NaN or too thin,
        or a rim vertex off its edge).  The returned _ImageMesh also has
        find (image face and weights of directions, by the graph
        transform's search), pull (the PL inverse from given image faces,
        returning the faces it used, so that an orbit carries them from step
        to step; it raises ManifoldError for a point in no image face) and
        fixed_point (the PL map's fixed point near a point).
        """
        from .manifolds import ManifoldError  # manifolds imports this module

        image = _ImageMesh(m(self.vertices), self.lattice, self.radii)
        if not image.embedded:
            raise ManifoldError("the image of the mesh under T is not embedded")
        return image

    def to_json(self) -> dict:
        return {
            "resolution": int(self.resolution),
            "directions": self.directions.tolist(),
            "radii": self.radii.tolist(),
            "residual": float(self.residual),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SimplexMesh":
        N = doc["resolution"]
        directions = np.asarray(doc["directions"], dtype=float)
        # before any lattice is built (type excludes bool, a subclass of int)
        if type(N) is not int or N < 1 or directions.shape != ((N + 1) * (N + 2) // 2, 3):
            raise SimplexError("resolution must be an integer N >= 1 with (N+1)(N+2)/2 directions")
        if not np.allclose(directions, _lattice(N).directions, atol=1e-12):
            raise SimplexError("directions do not match the regular lattice for this resolution")
        radii = np.asarray(doc["radii"], dtype=float)
        if radii.shape != (directions.shape[0],):
            raise SimplexError("radii length does not match directions")
        if not np.all(np.isfinite(radii) & (radii > 0.0)):
            raise SimplexError("radii must be finite and positive")
        residual = doc["residual"]
        # a JSON number (not a bool, not a string), finite and >= 0
        if type(residual) not in (int, float) or not 0.0 <= residual <= sys.float_info.max:
            raise SimplexError(f"residual must be a finite number >= 0, got {residual!r}")
        return cls(resolution=N, radii=radii, residual=float(residual))


@dataclass(frozen=True)
class TangentConeEstimate:
    base_point: np.ndarray
    radius: float
    secants: np.ndarray  # unit secant directions, one per sampled neighbor
    angle_to_w: float


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
    face, wts = mesh.lattice.locate(U)
    rho = (mesh.radii[mesh.triangulation[face]] * wts).sum(axis=1)
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

# A direction counts as inside a face when its smallest barycentric weight is
# at least -_FOUND_TOL.
_FOUND_TOL = 1e-6


# _ImageMesh.locate certifies a face when the direction's barycentric weights
# there all exceed _WARM_EPS, or exceed -_WARM_EPS far enough inside a vertex
# star; an image is embedded only if rounding moves no face's weights by
# _WARM_EPS or more.
_WARM_EPS = 1e-9
# units of roundoff in that bound; 45 suffice for the arithmetic of
# _ImageMesh._weights
_ROUNDING = 64 * np.finfo(float).eps / 2
_SQRT2 = math.sqrt(2.0)


def _runs(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths laid end to end, the run of each
    element and its offset in that run."""
    run = np.repeat(np.arange(count.size), count)
    return run, np.arange(run.size) - (np.cumsum(count) - count)[run]


def _image(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate sums s and directions Y / s of the image points Y, both NaN
    where s is not a normal positive float (a map that is NaN, overflows or
    underflows to the origin there), so that 1 / s is finite elsewhere."""
    s = Y[:, 0] + Y[:, 1] + Y[:, 2]
    bad = ~((s >= np.finfo(float).tiny) & (s < np.inf))
    if np.any(bad):
        Y = np.where(bad[:, None], np.nan, Y)
        s = np.where(bad, np.nan, s)
    return s, Y / s[:, None]


class _ImageMesh:
    """_ImageMesh(Y, lattice, radii): the images Y under T of the vertices
    of the mesh with the given radii on the _Lattice, seen as the triangles
    of their directions: image face f has the image directions of the
    corners of lattice face f.  The graph transform's sweep finds its rays
    among these faces, and as the PL inverse of T on a mesh
    (SimplexMesh.pull_back) the object maps points back onto the mesh.

    ``s`` and ``D`` are the images' coordinate sums and directions (see
    _image), ``P`` (2, M) the directions' first two coordinates, and
    ``edges`` (7, F) holds per face its first corner, its edges e1 and e2
    from that corner and twice its signed area (1e-300 where that is 0, so
    that the weights of a flat face are defined).

    Embedding.  ``embedded`` holds when every rim vertex of the lattice maps
    onto its edge of the simplex (its zero coordinates stay exactly zero)
    and every face passes a rounding test.  With (sx, sy) the sums of the
    absolute coordinate differences along a face's two edges (bounds on its
    coordinate ranges) and d twice its signed area, the minimum weight that
    _weights computes for the face at a point of its bounding box, padded
    as _scan pads it, is within _ROUNDING (6 sx sy + 1e-9 (sx + sy)) / d
    of the exact one, or below -1/4 where that is
    negative; outside that box some weight is below -_FOUND_TOL.  Every face
    must be positively oriented and have this bound under _WARM_EPS.  The
    image of the rim then winds once around every interior direction, so the
    faces cover a neighbourhood of it exactly once: a direction inside one
    face is outside every other.
    """

    def __init__(self, Y, lattice: _Lattice, radii):
        self.lattice, self.radii = lattice, radii
        self.s, self.D = _image(Y)
        self.P = np.ascontiguousarray(self.D[:, :2].T)
        # (coordinate, corner, face); np.take is much faster here than indexing
        T = np.take(self.P, lattice.faces.T, axis=1)
        e1 = T[:, 1] - T[:, 0]
        e2 = T[:, 2] - T[:, 0]
        d = e1[0] * e2[1] - e2[0] * e1[1]
        sx, sy = np.abs(e1) + np.abs(e2)
        self.embedded = bool(
            np.all(Y[lattice.directions == 0.0] == 0.0)
            and np.all(_WARM_EPS * d > _ROUNDING * (6.0 * sx * sy + 1e-9 * (sx + sy)))
        )
        self.diam = np.max(sx + sy)  # bounds every face's diameter
        self.edges = np.concatenate([T[:, 0], e1, e2, np.where(d == 0.0, 1e-300, d)[None]])

    def _weights(self, q, faces):
        """Barycentric weights (c0, c1, c2) of directions q (2, ...) in the
        image faces (...), with the smallest of them."""
        x0, y0, e1x, e1y, e2x, e2y, d = np.take(self.edges, faces, axis=1)
        r0 = q[0] - x0
        r1 = q[1] - y0
        c1 = (r0 * e2y - e2x * r1) / d
        c2 = (e1x * r1 - r0 * e1y) / d
        c0 = 1.0 - c1 - c2
        return (c0, c1, c2), np.minimum(np.minimum(c0, c1), c2)

    def locate(self, q: np.ndarray, guess: np.ndarray):
        """Face, barycentric weights (m, 3) and a certified mask (m,) for the
        directions q (2, m; first two coordinates), searched from the guessed
        faces (m,).  The image must be embedded.

        1. A row whose computed weights in its guess all exceed _WARM_EPS
           lies strictly inside it (the rounding bound holds there, since
           those weights are below 2 in size).  Every other face has a
           negative exact minimum weight there, so a computed one below
           _WARM_EPS: the guess is certified.
        2. The other rows take the best face of the guess's one-ring R (the
           faces that share a vertex with it, each weighed once): the
           largest minimum weight m, lowest face index on ties.  It is
           certified when m > _WARM_EPS, as in 1, or when m > -_WARM_EPS and
           the row lies D >= 16 _WARM_EPS diam from the rim of the star (the
           union of the faces) of a vertex that the best face shares with
           the guess.  That rim is made of the edges opposite the vertex and
           the edges of the simplex, whose distance is min(u1, u2,
           (1 - u1 - u2) / sqrt 2).  The row is then inside that star, which
           R contains, and a face outside R has exact minimum weight
           <= -D / (2 diam), so a computed one below -_WARM_EPS < m.

        A certified row's face and weights are therefore those of the argmax
        of the minimum weight over all faces, lowest face index on ties: what
        _scan computes, bit for bit, from any guess.  When every row is
        certified in its guess, the guess array itself is returned as the
        faces.
        """
        c, low = self._weights(q, guess)
        bary = np.empty((low.size, 3))  # the columns c, as np.stack(c, axis=1) at less cost
        bary[:, 0], bary[:, 1], bary[:, 2] = c
        certified = low > _WARM_EPS
        if certified.all():
            return guess, bary, certified
        face = guess.copy()
        rest = np.nonzero(~certified)[0]
        ring = self.lattice.rings[guess[rest]]  # (row, face)
        q = q[:, rest]
        c, score = self._weights(q[:, :, None], ring)  # (row, face)
        # a ring is ascending, so its first maximum has the lowest face index
        col = score.argmax(axis=1)
        rows = np.arange(rest.size)
        best = score[rows, col]
        face[rest] = win = ring[rows, col]
        bary[rest] = np.array(c)[:, rows, col].T
        inside = best > _WARM_EPS
        if not inside.all():
            # the rim of a guess vertex's star: the edges opposite the vertex
            # in its faces, and the edges of the simplex
            faces = self.lattice.faces
            own = faces[guess[rest]]  # (row, vertex of the guess)
            # (coordinate, row, vertex, face, end): the opposite edges' ends
            ends = np.take(self.P, self.lattice.link[own], axis=1)
            a = ends[..., 0]
            e = ends[..., 1] - a
            r = q[:, :, None, None] - a
            t = np.clip((r * e).sum(axis=0) / (e * e).sum(axis=0), 0.0, 1.0)
            rim = np.minimum(np.minimum(q[0], q[1]), (1.0 - q[0] - q[1]) / _SQRT2)
            dist = np.minimum(np.hypot(*(r - t * e)).min(axis=-1), rim[:, None])
            # take the star of a guess vertex that the best face shares
            shared = (own[:, :, None] == faces[win][:, None, :]).any(axis=-1)
            dist = np.where(shared, dist, 0.0).max(axis=1)
            inside |= (best > -_WARM_EPS) & (dist >= 16.0 * _WARM_EPS * self.diam)
        certified[rest] = inside
        return face, bary, certified

    def find(self, q: np.ndarray, guess: np.ndarray | None = None):
        """Face, barycentric weights (m, 3) and found mask (m,) of the
        directions q (2, m; first two coordinates), with the number of rows
        scanned.  On an embedded image, locate searches from the guessed
        faces (m,) and only the rows it leaves uncertified go to _scan;
        without a guess, or on an image that is not embedded, every row is
        scanned.  A found row's face and weights are those of the argmax of
        the minimum weight over every face, lowest face index on ties, so
        the result does not depend on the guess; it only decides how much
        of the search runs.  When every row is certified in its guess, the
        guess array itself is returned as the faces."""
        if guess is None or not self.embedded:
            return (*self._scan(q), q.shape[1])
        face, c, found = self.locate(q, guess)
        if found.all():
            return face, c, found, 0
        rest = np.flatnonzero(~found)
        face[rest], c[rest], found[rest] = self._scan(q[:, rest])
        return face, c, found, rest.size

    @functools.cached_property
    def _buckets(self):
        """The faces' padded boxes ``box`` (4, F: lo0, lo1, hi0, hi1) in
        lattice-index units (direction coordinates times N), and the faces
        bucketed by the lattice cells [a, a + 1] x [b, b + 1], 0 <= a, b < N,
        that their boxes overlap: cell aN + b holds the faces
        members[starts[aN + b]:starts[aN + b + 1]], ascending.  A point
        whose barycentric weights in a face are all >= -_FOUND_TOL lies at
        most 2 _FOUND_TOL times the extent of the face's box outside it, so
        the box is padded by 1e-5 of its extent plus 1e-9.  Coordinates
        outside [0, N) count in the cell at their end of the range, and a
        box with a NaN corner is in no cell."""
        N = self.lattice.N
        T = np.take(self.P, self.lattice.faces.T, axis=1)
        lo = T.min(axis=1) * N
        hi = T.max(axis=1) * N
        pad = 1e-5 * (hi - lo) + 1e-9
        box = np.concatenate([lo - pad, hi + pad])
        first = np.clip(np.floor(box[:2]), 0.0, N - 1.0)
        # a NaN box spans no cell; float arithmetic is exact on these integers
        span = np.nan_to_num(np.clip(np.floor(box[2:]), 0.0, N - 1.0) - first + 1.0)
        face, k = _runs((span[0] * span[1]).astype(np.intp))  # its cells in raster order
        width = np.take(span[1], face)
        # the k-th cell of a face's box: row floor(k / width) of the box
        cell = np.take(first[0] * N + first[1], face) + k + np.floor(k / width) * (N - width)
        cell = cell.astype(np.intp)
        # a stable sort keeps the faces ascending in a cell; it is a radix
        # sort on 16-bit cells (N <= 256)
        order = np.argsort(cell.astype(np.min_scalar_type(N * N - 1)), kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=N * N))])
        return box, starts, face[order]

    def _scan(self, q: np.ndarray):
        """Face, barycentric weights (m, 3) and found mask (m,) of the
        directions q (2, m; any values, NaN included) among every image
        face: the face with the largest minimum weight, lowest face index on
        ties, found when that weight is >= -_FOUND_TOL.  A row meets only
        the faces of its cell (see _buckets) whose padded box holds it; any
        other face has a weight below -_FOUND_TOL there.  A row that no face
        holds is not found and takes face 0."""
        box, starts, members = self._buckets
        N = self.lattice.N
        m = q.shape[1]
        x = q * N
        # np.fmax maps NaN to the first cell, whose boxes then reject it
        a, b = np.fmin(np.fmax(np.floor(x), 0.0), N - 1.0).astype(np.intp)
        cell = a * N + b
        row, pair = _runs(starts[cell + 1] - starts[cell])  # each row with each face of its cell
        pair += np.take(starts, np.take(cell, row))
        pair = np.take(members, pair)
        for axis in (0, 1):  # keep the pairs whose padded box holds the row
            xa = np.take(x[axis], row)
            held = np.flatnonzero((np.take(box[axis], pair) <= xa) & (xa <= np.take(box[2 + axis], pair)))
            row, pair = np.take(row, held), np.take(pair, held)
        score = self._weights(q[:, row], pair)[1]
        best = np.full(m, -np.inf)
        np.maximum.at(best, row, score)
        win = score == best[row]
        face = np.full(m, self.lattice.faces.shape[0], dtype=np.intp)
        np.minimum.at(face, row[win], pair[win])
        found = best >= -_FOUND_TOL
        face[~found] = 0
        c = self._weights(q, face)[0]
        bary = np.empty((m, 3))
        bary[:, 0], bary[:, 1], bary[:, 2] = c
        return face, bary, found

    def fixed_point(self, x: np.ndarray) -> np.ndarray:
        """The fixed point of the PL map near the point x, as a point of the
        mesh.  On image face f the direction map is affine: with t0 and the
        edges (e1, e2) of f and the corners U_k of lattice face f, a
        direction v (first two coordinates) maps to U_0 + W B (v - t0),
        where W = [U_1 - U_0, U_2 - U_0] and B = [e1, e2]^-1, so its fixed
        point on f solves one 2 x 2 system.  The search starts on the face
        that contains x's direction and moves to the face that contains
        each solution outside its face; raises ManifoldError when 16 such
        moves do not settle, or when a solution lies in no face."""
        from .manifolds import ManifoldError  # manifolds imports this module

        x = np.asarray(x, dtype=float)
        v = x[:2] / x.sum()
        for _ in range(16):
            face, _, found, _ = self.find(v[:, None], self.lattice.face_of(v[None, :])[0])
            if not found[0]:  # v has left every face
                break
            f = face[0]
            t0, e1, e2, d = np.split(self.edges[:, f], [2, 4, 6])
            B = np.array([[e2[1], -e2[0]], [-e1[1], e1[0]]]) / d
            corners = self.lattice.directions[self.lattice.faces[f], :2]
            L = (corners[1:] - corners[0]).T @ B
            try:
                v = np.linalg.solve(np.eye(2) - L, corners[0] - L @ t0)
            except np.linalg.LinAlgError as exc:
                raise ManifoldError(f"the PL map has multiplier 1 on face {f}") from exc
            c = B @ (v - t0)
            if min(c[0], c[1], 1.0 - c[0] - c[1]) >= -_WARM_EPS:
                return self(np.append(v, 1.0 - v.sum())[None, :])[0]
        raise ManifoldError(f"the PL map has no fixed point near {x}")

    def pull(self, X: np.ndarray, faces: np.ndarray | None = None):
        """The PL inverse of T at the point rows X, a float array (m, 3) (see
        SimplexMesh.pull_back), with the image faces it used and the number
        of rows not certified in the faces searched from (by default the
        lattice faces of the rows' directions; see find).  A row pulled back
        from image face f lies on lattice face f, so along an orbit the faces
        returned are the faces to search from at the next step.  Raises
        ManifoldError when a row's direction lies in no image face."""
        U = X / X.sum(axis=1, keepdims=True)
        if faces is None:
            faces = self.lattice.face_of(U)[0]
        face, b, found, _ = self.find(U[:, :2].T, faces)
        if not found.all():
            from .manifolds import ManifoldError  # manifolds imports this module

            raise ManifoldError(f"{np.count_nonzero(~found)} of {found.size} points lie in no image face")
        # locate returns the guess itself when it certifies every row there;
        # otherwise a row certified in its guess keeps that face, with every
        # weight above _WARM_EPS, and every other row is searched further
        misses = 0
        if face is not faces:
            misses = int(np.count_nonzero((face != faces) | (b.min(axis=1) <= _WARM_EPS)))
        b = np.maximum(b, 0.0)
        b /= b.sum(axis=1, keepdims=True)
        corners = self.lattice.faces[face]
        num = np.einsum("ik,ikj->ij", b, self.lattice.directions[corners])
        return num / (b / self.radii[corners]).sum(axis=1, keepdims=True), face, misses

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """The PL inverse of T at the point rows X (see SimplexMesh.pull_back)."""
        return self.pull(np.atleast_2d(np.asarray(X, dtype=float)))[0]


def _sweep(m: CompetitiveMap, lattice: _Lattice, radii: np.ndarray, face: np.ndarray | None):
    """One graph-transform sweep: map the surface forward and re-sample it
    radially, finding the interior rays from ``face``, the previous sweep's
    faces (None at the first sweep; see _ImageMesh.find).

    Returns (new radii, the rays whose new radius is NaN, this sweep's
    faces, the number of rays scanned).  A finite image maps the lattice's
    rim onto the simplex's edges, so its faces cover every interior
    direction; a ray that misses, or a rim ray whose interpolation touches
    a vertex without a valid image (see _image), means a non-finite image,
    and its radius is NaN.
    """
    U = lattice.directions
    image = _ImageMesh(m(radii[:, None] * U), lattice, radii)
    s, D = image.s, image.D
    new = np.full_like(radii, np.nan)

    # corners: the axis dynamics is 1-D, the image stays on the axis
    new[lattice.corner_idx] = s[lattice.corner_idx]

    # boundary edges: 1-D re-sampling in the surviving coordinate pair
    for axis, (full_idx, query_idx) in enumerate(lattice.edge_idx):
        if query_idx.size == 0:
            continue
        param_axis = 0 if axis != 0 else 1
        new[query_idx] = _rim_radii(D[full_idx, param_axis], s[full_idx], U[query_idx, param_axis])

    # interior: 2-D point location among image-direction triangles
    face, best_bary, ok, scanned = image.find(lattice.queries, face)
    face_pick = face
    if not ok.all():
        face_pick, best_bary = face[ok], best_bary[ok]
    c = np.clip(best_bary, 0.0, None)
    # rows are summed left to right, as sum(axis=1) does, but faster
    c /= (c[:, 0] + c[:, 1] + c[:, 2])[:, None]
    c /= np.take(s, np.take(lattice.faces, face_pick, axis=0))
    new[lattice.interior_idx[ok]] = 1.0 / (c[:, 0] + c[:, 1] + c[:, 2])
    return new, np.nonzero(np.isnan(new))[0], face, scanned


def _rim_radii(alpha: np.ndarray, s: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Radii of the rim rays at the edge coordinates ``queries`` of one edge
    of the simplex, from the images of the edge's lattice vertices in
    lattice order (edge coordinate increasing): alpha, the image direction's
    edge coordinate, and s, the image's coordinate sum, NaN where the image
    is not valid (see _image).  1 / s is interpolated linearly in alpha over
    the valid images.  A query in the alpha range between the valid lattice
    neighbours of a run of invalid images would interpolate across them, so
    its radius is NaN."""
    ok = ~np.isnan(alpha)
    if not ok.any():
        return np.full(queries.shape, np.nan)
    order = np.argsort(alpha[ok])
    g = np.interp(queries, alpha[ok][order], (1.0 / s[ok])[order])
    if not ok.all():
        # pad with the ends of the edge, then take the neighbours of each run
        a = np.concatenate([[-np.inf], alpha, [np.inf]])
        bad = np.concatenate([[False], ~ok, [False]])
        before = np.nonzero(bad[1:] & ~bad[:-1])[0]
        after = np.nonzero(bad[:-1] & ~bad[1:])[0] + 1
        lo = np.minimum(a[before], a[after])[:, None]
        hi = np.maximum(a[before], a[after])[:, None]
        g[np.any((lo <= queries) & (queries <= hi), axis=0)] = np.nan
    return 1.0 / g


def compute_carrying_simplex(
    m: CompetitiveMap,
    resolution: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> SimplexMesh:
    """Iterate the graph transform from the plane through the axial fixed
    points until the maximal radial displacement drops below tol.

    Raises ValueError, before the first sweep, unless resolution is an
    integer >= 1 and tol is finite and > 0, and SimplexError unless m has
    n = 3 species.  Raises NonConvergenceError (mesh
    attached) when max_iters sweeps do not reach tolerance, and after the
    first sweep whose residual is not finite (a map that is NaN, overflows
    or underflows to the origin somewhere on the surface); the mesh's
    ``flagged`` then lists the rays whose radius that sweep left NaN.
    """
    try:
        valid_tol = math.isfinite(tol) and tol > 0
    except TypeError:
        valid_tol = False
    if not valid_tol:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if m.n != 3:
        raise SimplexError("simplex meshing is implemented for n = 3")
    lattice = _lattice(resolution)
    w = axial_caps(m)
    radii = 1.0 / (lattice.directions / w[None, :]).sum(axis=1)
    history: list[float] = []
    flagged = np.empty(0, dtype=np.intp)
    residual = float("inf")
    sweeps = full_scans = 0
    face = None
    for sweeps in range(1, max_iters + 1):
        new, flagged, face, scanned = _sweep(m, lattice, radii, face)
        full_scans += scanned > 0
        residual = float(np.max(np.abs(new - radii) * lattice.unorm))
        radii = new
        history.append(residual)
        if residual < tol or not np.isfinite(residual):
            break
    mesh = SimplexMesh(
        resolution=resolution,
        radii=radii,
        residual=residual,
        converged=residual < tol,
        sweeps=sweeps,
        flagged=flagged,
        residual_history=history,
        full_scans=full_scans,
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


def _face_distances(V: np.ndarray, tris: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distances from points p to the triangles with vertex indices tris
    (..., 3) of the vertex rows V; p broadcasts against tris' leading axes."""
    closest = _closest_point_on_triangles(p, V[tris[..., 0]], V[tris[..., 1]], V[tris[..., 2]])
    return np.linalg.norm(closest - p, axis=-1)


# Query rows per block in surface_distance.  Blocks keep the (rows, 13, 3)
# candidate arrays bounded by the block, not by the number of queries.
_DISTANCE_BLOCK = 1024
# (1 + sqrt 3) * 3, the certificate's factor on N * d (see surface_distance),
# padded for the rounding of u, of _Lattice.face_of's slack and of d
_RING_FACTOR = 3.0 * (1.0 + np.sqrt(3.0)) * (1.0 + 1e-9)


def surface_distance(mesh: SimplexMesh, pts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the triangulated surface.

    Each row p with s = sum(p) is measured first on the face ring of its
    direction u = p / s: the lattice face that holds u (located as
    radial_project does) and every face that shares a vertex with it.  The
    ring minimum d bounds the distance from above, and it is the distance
    when a certificate holds.  A vertex star is the ball of radius 1/N
    about the vertex in the max norm of direction space, and u lies within
    2/(3N) of a corner of its face, so the ring holds every direction within
    1/(3N) of u.  A point q with |q - p| <= d has t = sum(q) >= s - sqrt(3) d
    and direction q / t within d (1 + sqrt 3) / (s - sqrt(3) d) of u in the
    max norm.  Hence when p >= 0 and 3 N (1 + sqrt 3) d <= s - sqrt(3) d,
    the nearest surface point lies on the ring and d is exact.

    Rows that fail the certificate (far off the surface, near the origin or
    outside the orthant) search every face incident to a vertex within
    d + max_edge_length() of p: a nearest point lies on some face, whose
    corners all lie within an edge length of it.  This is exact at a cost
    bounded by what lies near p.  The vertices come from a kd-tree built per
    call (scipy is imported only then), so nothing cached depends on the
    radii.  Raises ValueError for rows that are not finite.
    """
    pts = _finite_rows(pts)
    V = mesh.vertices
    lattice = mesh.lattice
    dist = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _DISTANCE_BLOCK):
        block = pts[start:start + _DISTANCE_BLOCK]
        tris = lattice.faces[lattice.rings[_direction_faces(lattice, block)]]  # (B, 13, 3)
        dist[start:start + block.shape[0]] = _face_distances(V, tris, block[:, None, :]).min(axis=1)
    far = np.nonzero(~_ring_certified(lattice, pts, dist))[0]
    if far.size:
        dist[far] = _ball_distance(mesh, pts[far], dist[far])
    return dist


def _finite_rows(pts: np.ndarray) -> np.ndarray:
    """pts as a 2-D float array; raises ValueError unless every row is finite."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("surface_distance needs finite points")
    return pts


def _direction_faces(lattice: _Lattice, pts: np.ndarray) -> np.ndarray:
    """The lattice face of each row's direction, the centre of its face ring
    in surface_distance.  The ring of any direction bounds the distance, so
    rows outside the orthant take that of their clipped direction (they are
    left to the ball search)."""
    pos = np.maximum(pts, 0.0)
    ps = pos.sum(axis=1, keepdims=True)
    u = np.divide(pos, ps, out=np.full_like(pos, 1.0 / 3.0), where=ps > 0.0)
    return lattice.face_of(u)[0]


def _ring_certified(lattice: _Lattice, pts: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Rows whose nearest surface point lies on their face ring, given upper
    bounds d on their distances (see surface_distance); the test only gets
    easier as d falls."""
    s = pts.sum(axis=1)
    return np.all(pts >= 0.0, axis=1) & (_RING_FACTOR * lattice.N * d <= s - np.sqrt(3.0) * d)


def _ball_distance(mesh: SimplexMesh, pts: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Distance from each row of pts to the surface, given upper bounds on
    it: the minimum over the faces incident to the vertices within
    bound + max_edge_length() of the row, each (row, face) pair once."""
    from scipy.spatial import cKDTree  # only this search needs scipy

    V = mesh.vertices
    tree = cKDTree(V)
    lattice = mesh.lattice
    F = lattice.faces.shape[0]
    radius = (bound + mesh.max_edge_length()) * (1.0 + 1e-9)
    counts = tree.query_ball_point(pts, radius, return_length=True)
    # rows in chunks of about 3 * _DISTANCE_BLOCK vertex hits (over that by
    # at most one row's hits), so that a chunk has about as many (row, face)
    # pairs as a ring block
    chunk = np.cumsum(counts) // (3 * _DISTANCE_BLOCK)
    cuts = np.flatnonzero(np.diff(chunk)) + 1
    dist = np.full(pts.shape[0], np.inf)
    for rows in np.split(np.arange(pts.shape[0]), cuts):
        near = tree.query_ball_point(pts[rows], radius[rows])
        row = np.repeat(rows, counts[rows])
        faces = lattice.incidence[np.concatenate(near).astype(np.intp)]  # (hits, 6)
        key = np.unique(row[:, None] * F + faces)
        row, face = np.divmod(key, F)
        np.minimum.at(dist, row, _face_distances(V, lattice.faces[face], pts[row]))
    return dist


def invariance_residual(m: CompetitiveMap, mesh: SimplexMesh) -> float:
    """max over vertices v of distance(T(v), surface); near zero certifies
    approximate invariance T(S) = S.  Raises ValueError when an image is not
    finite.

    The result is float(surface_distance(mesh, T(V)).max()), bit for bit,
    without measuring every row.  A row's distance b to the lattice face of
    its direction bounds its distance from above: that face is in the row's
    ring, so the ring minimum is at most b, computed alike.  When the ring
    certificate holds with b, it holds with the ring minimum, which is then
    the row's distance.  Rows for which it fails with b may take the ball
    search and are measured outright; the others are measured in decreasing
    order of b, in batches of doubling size, until the next b is no larger
    than the largest distance so far."""
    V = mesh.vertices
    images = _finite_rows(m(V))
    bound = _face_distances(V, mesh.triangulation[_direction_faces(mesh.lattice, images)], images)
    ring = _ring_certified(mesh.lattice, images, bound)
    best = -np.inf
    if not ring.all():
        best = surface_distance(mesh, images[~ring]).max()
    order = np.flatnonzero(ring)[np.argsort(-bound[ring], kind="stable")]
    start, size = 0, 1
    while start < order.size and bound[order[start]] > best:
        rows = order[start:start + size]
        best = max(best, surface_distance(mesh, images[rows]).max())
        start, size = start + size, 2 * size
    return float(best)


def _vertices_within(mesh: SimplexMesh, x: np.ndarray, radius: float) -> np.ndarray:
    """The mesh vertices within radius of the point x, in index order."""
    V = mesh.vertices
    d = V - x
    return V[d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= radius * radius]


def estimate_tangent_cone(
    mesh: SimplexMesh,
    base_point: np.ndarray,
    radius: float,
    w_basis: np.ndarray,
) -> TangentConeEstimate:
    """Secant directions from base_point to mesh vertices within radius and
    the worst angle between them and the plane spanned by w_basis; raises
    TooFewNeighborsError when fewer than 3 secants remain."""
    xi = np.asarray(base_point, dtype=float)
    diffs = _vertices_within(mesh, xi, radius) - xi
    norms = np.linalg.norm(diffs, axis=1)
    # secants to near-coincident vertices carry only surface noise
    keep = norms > 1e-3 * radius
    if keep.sum() < 3:
        raise TooFewNeighborsError(f"{int(keep.sum())} neighbors within radius {radius:g} (need 3)")
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
    xi = _vertices_within(mesh, q, radius)
    if not xi.size:
        raise EmptyNeighborhoodError(f"no mesh vertices within radius {radius:g} of q")
    Mcols = np.column_stack([v, B])
    coeffs = np.linalg.solve(Mcols, (xi - q).T)  # rows: v-component, then W-components
    num = np.abs(coeffs[0]) * np.linalg.norm(v)
    den = np.linalg.norm(B @ coeffs[1:], axis=0)
    good = den > 1e-14 * max(1.0, float(np.linalg.norm(q)))
    if not np.any(good):
        raise EmptyNeighborhoodError("all sampled vertices project onto q itself")
    return float((num[good] / den[good]).max())
