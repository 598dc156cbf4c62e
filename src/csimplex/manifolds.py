"""Invariant manifolds of an interior saddle on the carrying simplex, and the
foliation/conjugacy diagnostics around it.

At an interior fixed point q satisfying the inverse-positivity condition, the
spectrum splits into the simple radial eigenvalue mu (eigenvector v >> 0) and
the complementary invariant plane W.  Leaves of the invariant foliation are
approximated at first order by translates of span{v}; the contraction rate
rho is chosen in (mu, min{1, nu}) and the expansion parameter sigma in
(rho, nu), midpoints by default.

One routine grows both curves as the orbits of a short seed along an
eigendirection in W, re-sampled by arclength: the unstable curve under T,
the stable curve as the unstable curve of T^-1 restricted to the mesh, where
T^-1 is the mesh's piecewise-linear inverse (SimplexMesh.pull_back): point
location among the image faces of the vertices, in closed form, with no map
call per step.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import eigen3, eigvec_for, verify_C1
from .existence import axial_caps
from .models import CompetitiveMap
from .simplex import SimplexMesh, directions_from_uv, radial_project

__all__ = [
    "ManifoldError",
    "C1ViolatedError",
    "NotASaddleError",
    "NoUnstableEigendirectionError",
    "BranchDidNotTerminateError",
    "SpectralSplitting",
    "ManifoldCurve",
    "LeafContractionReport",
    "ConjugacyDecayReport",
    "M2ExpansionReport",
    "pseudo_splitting",
    "trace_unstable",
    "basin_of_batch",
    "trace_stable_on_S",
    "leaf_contraction_report",
    "conjugacy_decay_report",
    "m2_expansion_report",
    "curve_to_json",
    "curve_from_json",
]

# Basin labelling: the radius of each attractor's ball and the iterations an
# orbit gets to enter one.
DEFAULT_BASIN_TOL = 1e-6
DEFAULT_BASIN_MAX_ITER = 50000
# basin_of_batch drops its captured orbits once they are more than this share
# of the orbits it holds; until then they wait, masked, and are mapped on.
_COMPACT_SHARE = 1.0 / 8.0
# Map steps between tests in both orbit loops: with every attractor
# certified, basin_of_batch tests its capture ellipsoids once every this many
# map steps (and at max_iter), and _grow_curve tests its tips' arrival once
# every this many orbit points.
_CAPTURE_PERIOD = 8

# Foliation/conjugacy diagnostics: sampled points per report; the fitted decay
# ratio may exceed rho by _CONJUGACY_SLACK (first-order leaves); an orbit pair
# is followed for at most _CONJUGACY_STEPS steps, while both stay within
# _CONJUGACY_LEAVE radii of q.
_SAMPLE_COUNT = 200
_CONJUGACY_SLACK = 0.1
_CONJUGACY_STEPS = 10
_CONJUGACY_LEAVE = 10.0


class ManifoldError(RuntimeError):
    pass


class C1ViolatedError(ManifoldError):
    pass


class NotASaddleError(ManifoldError):
    pass


class NoUnstableEigendirectionError(ManifoldError):
    pass


class BranchDidNotTerminateError(ManifoldError):
    pass


@dataclass(frozen=True)
class SpectralSplitting:
    """Radial/tangential splitting of DT(q): mu with Perron direction v, the
    complementary invariant plane W (orthonormal basis), and the W-spectrum."""

    mu: float
    v: np.ndarray
    w_basis: np.ndarray  # (n, n-1), orthonormal
    w_eigenvalues: np.ndarray  # complex, sorted by modulus
    nu: float
    rho: float
    sigma: float


_CURVE_KINDS = ("stable", "unstable")


@dataclass(eq=False)  # it holds arrays, so == is identity
class ManifoldCurve:
    points: np.ndarray  # (k, n) ordered polyline
    kind: str  # one of _CURVE_KINDS
    endpoints: dict  # name -> terminal distance
    tol: float
    # searches that missed the faces carried by the stable tracer's tips;
    # not part of the JSON form
    misses: int = 0

    @property
    def arc_params(self) -> np.ndarray:
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    def distance_to(self, x: np.ndarray) -> float:
        """Distance from x to the polyline (segment-wise); to its point, on
        a one-point curve."""
        x = np.asarray(x, dtype=float)
        P = self.points
        a, b = (P[:-1], P[1:]) if P.shape[0] > 1 else (P, P)  # one point: one segment of length 0
        ab = b - a
        denom = (ab * ab).sum(axis=1)
        denom[denom == 0.0] = 1.0
        t = np.clip(((x - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        return float(np.linalg.norm(proj - x, axis=1).min())


def curve_to_json(curve: ManifoldCurve) -> dict:
    return {
        "kind": curve.kind,
        "points": curve.points.tolist(),
        "endpoints": sorted(curve.endpoints),
        "tol": float(curve.tol),
    }


def curve_from_json(doc: dict) -> ManifoldCurve:
    """Raises ValueError unless kind is "stable" or "unstable", points are
    k >= 1 finite rows of 3, endpoints is a list of strings and tol is a
    finite number >= 0."""
    kind = doc["kind"]
    if kind not in _CURVE_KINDS:
        raise ValueError(f"curve kind {kind!r} is not one of {_CURVE_KINDS}")
    P, tol, names = np.asarray(doc["points"], dtype=float), doc["tol"], doc["endpoints"]
    if not (P.ndim == 2 and P.shape[0] and P.shape[1] == 3 and np.isfinite(P).all()):
        raise ValueError(f"curve points of shape {P.shape} not allowed")
    # a JSON number (not a bool, not a string), finite and >= 0
    if type(tol) not in (int, float) or not 0.0 <= tol <= sys.float_info.max:
        raise ValueError(f"curve tol must be a finite number >= 0, got {tol!r}")
    if type(names) is not list or not all(type(name) is str for name in names):
        raise ValueError(f"curve endpoints must be a list of names, got {names!r}")
    endpoints = {name: float("nan") for name in names}
    return ManifoldCurve(points=P, kind=kind, endpoints=endpoints, tol=float(tol))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def pseudo_splitting(
    m: CompetitiveMap,
    q: np.ndarray,
    rho: float | None = None,
    sigma: float | None = None,
) -> SpectralSplitting:
    """Compute (mu, v, W, spectrum of DT|_W) at an interior fixed point.

    W is realized as the orthogonal complement of the left Perron eigenvector,
    which is DT-invariant whenever mu is simple.  Raises C1ViolatedError when
    the inverse-positivity condition fails at q.
    """
    q = np.asarray(q, dtype=float)
    rep = verify_C1(m, q)
    if not rep.passed:
        raise C1ViolatedError(f"condition (C1) fails at q: {rep.reason}")
    DT = m.jacobian(q)
    mu = float(rep.mu.real)
    v = rep.perron_vector
    left = eigvec_for(DT.T, mu)
    # orthonormal basis of the hyperplane orthogonal to the left eigenvector
    _, _, vh = np.linalg.svd(left[None, :])
    B = vh[1:].T
    eigs = eigen3(DT)
    w_eigs = eigs[1:]
    nu = float(np.abs(w_eigs[0]))
    rho_val = rho if rho is not None else 0.5 * (mu + min(1.0, nu))
    if not (mu < rho_val < min(1.0, nu)):
        raise ValueError(f"rho must lie in (mu, min(1, nu)) = ({mu:.6g}, {min(1.0, nu):.6g})")
    sigma_val = sigma if sigma is not None else 0.5 * (rho_val + nu)
    if not (rho_val < sigma_val < nu):
        raise ValueError(f"sigma must lie in (rho, nu) = ({rho_val:.6g}, {nu:.6g})")
    return SpectralSplitting(
        mu=mu, v=v, w_basis=B, w_eigenvalues=w_eigs, nu=nu, rho=rho_val, sigma=sigma_val
    )


# ---------------------------------------------------------------------------
# Curve growing
# ---------------------------------------------------------------------------

def _resample_polyline(P: np.ndarray, spacing: float) -> np.ndarray:
    seg = np.linalg.norm(np.diff(P, axis=0), axis=1)
    keep = np.concatenate([[True], seg > 0])
    P = P[keep]
    if P.shape[0] < 2:
        return P
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(P, axis=0), axis=1))])
    total = s[-1]
    k = max(2, int(np.ceil(total / spacing)) + 1)
    targets = np.linspace(0.0, total, k)
    out = np.empty((k, P.shape[1]))
    for d in range(P.shape[1]):
        out[:, d] = np.interp(targets, s, P[:, d])
    return out


def _saddle_eigendirection(
    m: CompetitiveMap, q: np.ndarray, expanding: bool
) -> tuple[np.ndarray, int]:
    """Eigenvector of DT(q) for the one expanding (or contracting) eigenvalue
    in W, and the map steps per orbit point: two when that eigenvalue is
    negative, so that a branch does not flip sides at every step."""
    split = pseudo_splitting(m, q)
    mods = np.abs(split.w_eigenvalues)
    word = "expanding" if expanding else "contracting"
    chosen = np.nonzero(mods > 1.0 if expanding else mods < 1.0)[0]
    if chosen.size == 0:
        raise NotASaddleError(f"no {word} eigenvalue at q")
    if chosen.size != 1:
        raise NotASaddleError(f"{chosen.size} {word} eigenvalues; need exactly one")
    lam = split.w_eigenvalues[chosen[0]]
    if abs(lam.imag) > 1e-10 * abs(lam):
        raise NoUnstableEigendirectionError(f"{word} eigenvalue is complex")
    return eigvec_for(m.jacobian(q), float(lam.real)), 2 if lam.real < 0 else 1


# Orbit points kept after which _grow_curve gives up on a branch.
_MAX_ITERATIONS = 20000


def _grow_curve(
    kind: str,
    step: Callable[[np.ndarray, np.ndarray | None], tuple[np.ndarray, np.ndarray | None, int]],
    q: np.ndarray,
    seed: np.ndarray,
    steps: int,
    targets: dict[str, np.ndarray],
    endpoint_tol: float,
    h_max: float,
) -> ManifoldCurve:
    """Unstable curve of `step` at its fixed point q, as the orbits of the
    seed tips q +- seed: each orbit point maps the open tips by `steps`
    applications of `step`, and the images extend their branches
    [q, q +- seed, ...] until a tip enters the endpoint_tol ball of a
    target.  With the seed in the linear regime the orbit lies on the curve,
    one point per fundamental domain, so each branch is the polyline through
    it, re-sampled by arclength to spacing h_max at the end.  The tips
    advance in lockstep, so each application of `step` maps both in one
    batch; `step` must map rows independently.

    Arrival is tested once per block of _CAPTURE_PERIOD orbit points, on all
    of the block's points at once.  The block is kept up to its first point
    at which a tip arrives, and the next block starts there with the tips
    still open; the later points are discarded.  A step may round a row
    by the batch it is mapped in (a custom map's `x @ A.T` can round a lone
    row differently from the same row in a batch of two), so the discarded
    points are mapped again in the smaller batch, and the curve is that of
    a test after every point, bit for bit.  _MAX_ITERATIONS bounds the
    points kept per branch.

    `step(Y, faces)` returns the images of the rows Y, the faces to pass
    with them to the next call, and a count of missed searches, summed over
    the kept points into the curve's `misses`.  The faces are per-row state
    that travels with the tips (the stable step's image faces,
    _ImageMesh.pull), None at the first call; the rows of a branch that has
    arrived are dropped from them.  A step that keeps no such state returns
    them as given."""
    names = list(targets)
    ends = np.array([targets[k] for k in names], dtype=float)
    Y = np.array([q + seed, q - seed])
    branches = [[q[None, :], Y[:1]], [q[None, :], Y[1:]]]  # blocks of orbit points
    arrivals: list[tuple[str, float] | None] = [None, None]
    ids = [0, 1]
    faces, misses, kept = None, 0, 0
    while kept < _MAX_ITERATIONS:
        size = min(_CAPTURE_PERIOD, _MAX_ITERATIONS - kept)
        tips = np.empty((size,) + Y.shape)
        carried, missed = [], [0] * size
        for i in range(size):
            for _ in range(steps):
                Y, faces, count = step(Y, faces)
                missed[i] += count
            tips[i] = Y
            carried.append(faces)
        diff = tips[:, :, None, :] - ends
        # np.linalg.norm(diff, axis=3), as it computes it, without its checks
        d = np.sqrt(np.add.reduce(diff * diff, axis=3))
        # each tip's distance to its nearest target: the value at argmin, NaN
        # in a row that holds one
        near = d.min(axis=2)
        arrived = near < endpoint_tol  # (point, tip)
        k = int(arrived.any(axis=1).argmax()) if arrived.any() else None  # first arrival
        n = size if k is None else k + 1
        for row, b in enumerate(ids):
            branches[b].append(tips[:n, row])
        kept += n
        misses += sum(missed[:n])
        if k is None:  # no tip has arrived
            continue
        j = d[k].argmin(axis=1)
        for row in np.flatnonzero(arrived[k]):
            arrivals[ids[row]] = (names[j[row]], float(near[k, row]))
        still = np.flatnonzero(~arrived[k])
        if not still.size:
            break
        ids, Y, faces = [ids[row] for row in still], tips[k, still], carried[k]
        if faces is not None:
            faces = faces[still]
    else:
        closest = float(np.min(np.linalg.norm(Y[:, None, :] - ends[None, :, :], axis=2)))
        raise BranchDidNotTerminateError(
            f"branch did not reach {' or '.join(names)} within {_MAX_ITERATIONS} iterations "
            f"(closest {closest:.3e})"
        )
    plus, minus = (_resample_polyline(np.concatenate(blocks), h_max) for blocks in branches)
    (name_p, d_p), (name_m, d_m) = arrivals
    return ManifoldCurve(
        points=np.vstack([minus[::-1], plus[1:]]),
        kind=kind,
        endpoints={name_m: d_m, name_p: d_p},
        tol=float(endpoint_tol),
        misses=misses,
    )


def trace_unstable(
    m: CompetitiveMap,
    q: np.ndarray,
    attractors: dict[str, np.ndarray],
    h0: float | None = None,
    endpoint_tol: float | None = None,
    h_max: float | None = None,
) -> ManifoldCurve:
    """Grow both branches of the unstable curve of the saddle q as the orbits
    of a seed along the expanding eigendirection, until each enters the
    endpoint tolerance of one of the given attractors, and re-sample them by
    arclength."""
    q = np.asarray(q, dtype=float)
    e_u, steps = _saddle_eigendirection(m, q, expanding=True)
    if h0 is None:
        h0 = 1e-6 * float(np.linalg.norm(q))
    w_norm = float(np.linalg.norm(axial_caps(m)))
    if endpoint_tol is None:
        endpoint_tol = 1e-5 * w_norm
    if h_max is None:
        h_max = 1e-3 * w_norm
    return _grow_curve("unstable", lambda Y, faces: (m(Y), faces, 0), q, h0 * e_u, steps,
                       attractors, endpoint_tol, h_max)


# ---------------------------------------------------------------------------
# Basins
# ---------------------------------------------------------------------------

def _second_derivative_bound(m: CompetitiveMap, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | None:
    """Bounds on sup ||D^2 T|| over the boxes [lo_k, hi_k] in R^n_+ (rows of
    lo, hi) for the builtin laws; None for other maps.

    With F_i = g_i(s_i), D^2 T_i[h, h] = 2 h_i g_i'(s_i) (a_i . h)
    + x_i g_i''(s_i) (a_i . h)^2, and s_i is smallest at lo.  For unit h the
    vector of these is at most max_i 2 |a_i| |g_i'| + ||(x_i |a_i|^2 |g_i''|)_i||.
    """
    if m.slopes is None:
        return None
    g1, g2 = m.slopes(lo)
    a = np.linalg.norm(m.params.A, axis=1)
    return np.max(2.0 * a * g1, axis=-1) + np.linalg.norm(hi * a * a * g2, axis=-1)


@dataclass(frozen=True)
class _Capture:
    """Ellipsoid {x >= 0 : ||x - p||_P <= radius} around an attractor p,
    where ||y||_P^2 = y^T P y, that T maps into itself, moving every point
    closer to p by the factor (1 + theta) / 2 up to the residual of p.  It
    contains the Euclidean ball of radius `inner` around p."""

    P: np.ndarray
    radius: float
    theta: float
    inner: float


def _capture_ellipsoid(
    m: CompetitiveMap, p: np.ndarray, others: np.ndarray, tol: float
) -> _Capture | None:
    """Certified capture ellipsoid of the attractor p, or None.

    P solves J^T P J - P = -I with J = DT(p), so ||J y||_P <= theta ||y||_P
    with theta = sqrt(1 - 1/lambda_max(P)).  With M2 a bound on ||D^2 T|| over
    a box p +- delta, the Taylor remainder adds at most (1 - theta)/2 ||y||_P
    on radius (1 - theta) lambda_min / (sqrt(lambda_max) M2); the radius is
    also capped at sqrt(lambda_min) delta, which keeps the ellipsoid in the
    ball of radius delta inside the box.  delta is the best of a dyadic scan
    below min(||p||, d/2 - tol), d running over the distances to the other
    attractors (the rows of `others`), so no ellipsoid meets another
    attractor's tol ball.  The ellipsoid is returned only when it contains
    the tol ball of p and the orbits in it settle inside that ball despite
    the residual ||T(p) - p||.  Custom maps and spectral radius >= 1 give
    None."""
    n = p.shape[0]
    J = m.jacobian(p)
    if not np.all(np.isfinite(J)) or np.max(np.abs(np.linalg.eigvals(J))) >= 1.0:
        return None
    K = np.kron(J.T, J.T) - np.eye(n * n)
    P = np.linalg.solve(K, -np.eye(n).ravel()).reshape(n, n)
    P = 0.5 * (P + P.T)
    lam_min, lam_max = np.linalg.eigvalsh(P)[[0, -1]]
    if not lam_min > 0.0:
        return None
    theta = float(np.sqrt(1.0 - 1.0 / lam_max))
    reach = min([float(np.linalg.norm(p))] + [0.5 * float(np.linalg.norm(p - o)) - tol for o in others])
    if not reach > 0.0:
        return None
    delta = reach * 0.5 ** np.arange(16)[:, None]
    M2 = _second_derivative_bound(m, np.clip(p - delta, 0.0, None), p + delta)
    if M2 is None:
        return None
    radius = float(np.max(np.minimum(
        (1.0 - theta) * lam_min / (np.sqrt(lam_max) * M2), np.sqrt(lam_min) * delta[:, 0]
    )))
    residual = float(np.linalg.norm(m(p) - p))
    settles = 2.0 * np.sqrt(lam_max) * residual / (1.0 - theta) < np.sqrt(lam_min) * tol
    inner = radius / float(np.sqrt(lam_max))
    if not (settles and inner >= tol):
        return None
    return _Capture(P=P, radius=radius, theta=theta, inner=inner)


def _capture_labels(pts: np.ndarray, regions: list) -> np.ndarray:
    """Index of the capture region that each row x of pts lies in, -1 for
    none, the lowest index where regions overlap.  A region (p, W, r2) holds
    the x with y.P y < r2, y = x - p, where W holds P's diagonal and twice
    its entries above it (the form summed row by row of P's upper triangle);
    W None is the ball |y|^2 < r2."""
    hit = np.full(pts.shape[0], -1, dtype=np.intp)
    for k in range(len(regions) - 1, -1, -1):  # the lowest index written last
        p, W, r2 = regions[k]
        y = [pts[:, j] - p[j] for j in range(p.shape[0])]
        if W is None:
            s = y[0] * y[0]
            for yj in y[1:]:
                s += yj * yj
        else:
            s = np.zeros(pts.shape[0])
            for i, yi in enumerate(y):
                t = W[i][i] * yi
                for j in range(i + 1, len(y)):
                    t += W[i][j] * y[j]
                t *= yi
                s += t
        hit[s < r2] = k
    return hit


def basin_of_batch(
    m: CompetitiveMap,
    X: np.ndarray,
    attractors: dict[str, np.ndarray],
    max_iter: int = DEFAULT_BASIN_MAX_ITER,
    tol: float = DEFAULT_BASIN_TOL,
) -> np.ndarray:
    """Labels (index into sorted attractor names) of the attractor whose
    capture region each orbit enters; -1 where unresolved after max_iter.

    The capture region of an attractor is its tol ball or, for the builtin
    laws and points of R^n_+, its certified capture ellipsoid E (see
    _capture_ellipsoid), which contains the tol ball.  T maps E into itself,
    and an orbit in E reaches the tol ball of its attractor before any
    other, so the labels are those of the tol balls alone, and each is a
    certificate.

    When every attractor is certified, the loop tests the ellipsoids once
    every _CAPTURE_PERIOD map steps and again at max_iter, and in between it
    only maps.  An orbit in E at one test is in E at every later one, so the
    labels are those of a test at every step.  The test is y.P y < radius^2
    with y = x - p, P and radius from _Capture, and radius^2 shrunk by
    4 (n + 1) eps ||P||_F / lambda_min(P): four times the first-order bound
    (2n + 2) u |y|.|P||y| <= (2n + 2) u ||P||_F y.P y / lambda_min(P) on the
    rounding of y and of the form (u = eps / 2), so that a row that passes
    lies in E.  Cut-off rule: an orbit is labelled when it lies in an E at a
    test, so at max_iter an orbit that is in E but has not yet reached the
    tol ball is labelled; -1 means outside every E at max_iter.  When some
    attractor is uncertified (custom maps, inputs with a negative entry),
    the loop tests at every step, that attractor by its bare tol ball.

    A captured orbit is masked so that it is labelled once, and waits,
    mapped on with the others, until a test finds more than _COMPACT_SHARE
    of the orbits held captured; then all captured orbits are dropped at
    once.  An orbit waiting in a certified ellipsoid stays in it, so it
    stays finite.  A bare tol ball gives no such guarantee, so with an
    uncertified attractor every test that captures an orbit drops the
    captured orbits at once.  The label is the region that an orbit enters,
    not its nearest attractor; the two agree because the regions are
    disjoint: an ellipsoid lies within half the distance to every other
    attractor, less tol, and tol balls are disjoint when the attractors are
    2 tol apart.  (For attractors closer than that, the lowest index
    wins.)"""
    names = sorted(attractors)
    att = np.array([attractors[k] for k in names], dtype=float)
    X = np.array(np.atleast_2d(X), dtype=float)
    labels = np.full(X.shape[0], -1, dtype=np.intp)
    if not labels.size:  # no orbit to hold: no map call
        return labels
    regions = [(p, None, tol * tol) for p in att]
    if not np.any(X < 0.0):
        for k, p in enumerate(att):
            cap = _capture_ellipsoid(m, p, np.delete(att, k, axis=0), tol)
            if cap is not None:
                margin = 4.0 * (p.shape[0] + 1) * np.finfo(float).eps * np.linalg.norm(cap.P)
                margin /= np.linalg.eigvalsh(cap.P)[0]
                W = (2.0 * np.triu(cap.P, 1) + np.diag(np.diag(cap.P))).tolist()
                regions[k] = (p, W, cap.radius * cap.radius * (1.0 - margin))
    bare = any(W is None for _, W, _ in regions)
    period = 1 if bare else _CAPTURE_PERIOD
    active = np.arange(X.shape[0])  # input row of each orbit held
    done = np.zeros(X.shape[0], dtype=bool)  # held orbits already labelled
    n_done = 0
    pts = X
    for it in range(max_iter + 1):
        if it:
            pts = m(pts)
        if it % period and it < max_iter:
            continue
        hit = _capture_labels(pts, regions)
        if n_done:
            hit[done] = -1
        caught = hit >= 0
        if not caught.any():
            continue
        labels[active[caught]] = hit[caught]
        done |= caught
        n_done += int(np.count_nonzero(caught))
        if bare or n_done > _COMPACT_SHARE * active.size:
            keep = ~done
            active, pts = active[keep], pts[keep]
            done, n_done = np.zeros(active.size, dtype=bool), 0
            if active.size == 0:
                break
    return labels


# ---------------------------------------------------------------------------
# Stable manifold on S
# ---------------------------------------------------------------------------

def trace_stable_on_S(
    m: CompetitiveMap,
    mesh: SimplexMesh,
    q: np.ndarray,
    repellers: dict[str, np.ndarray],
    attractors: dict[str, np.ndarray],
    h_max: float | None = None,
) -> ManifoldCurve:
    """Stable curve of the saddle q on S, from repeller to repeller.

    T restricted to S is a homeomorphism and DT is inverse-positive, so the
    stable curve of q on S is the unstable curve of T^-1 restricted to S.  It
    is grown from the contracting W-eigendirection e_s; each step is the
    mesh's PL inverse of T (SimplexMesh.pull_back), which raises
    ManifoldError when the image of the mesh is not embedded or a tip's
    direction lies in no image face.  Each tip carries the image face of
    its last step: the point pulled back from image face f lies on lattice
    face f, so the next step's search starts there (_ImageMesh.pull), and
    only a tip that has left that face is searched in its one-ring, then by
    the scan (_ImageMesh.find).  The curve does not depend on where the
    search starts.  The returned curve's ``misses`` counts the kept tip
    steps whose carried face was not certified (ring searches plus scans;
    461 of 4,691 on the first benchmark battery of
    seed 1); like SimplexMesh.full_scans, it is not part of the curve's
    JSON form.
    A branch stops within tol = 0.1 of the longest mesh edge of a repeller,
    whose location caps the polyline.  The PL map fixes a point p within
    O(h^2) of q, not q, and along e_s that offset is amplified by
    1 / (1/lambda_s - 1) for the contracting eigenvalue lambda_s near 1; a
    seed centred on q and shorter than the offset sends both branches to
    one repeller.  So both branches grow from p
    (SimplexMesh.pull_back(m).fixed_point).  The seed is as long as one step
    keeps straight: starting from a tenth of the distance from q to the
    nearer repeller, its length is halved until the steps of p +- h e_s lie
    within 0.01 tol of the line through p along e_s, and it is never
    shorter than 1e-6 ||q||.  The attractors are only checked for the 2+2
    layout.
    """
    if len(repellers) != 2 or len(attractors) != 2:
        raise ValueError("need exactly two repellers and two attractors")
    q = np.asarray(q, dtype=float)
    e_s, steps = _saddle_eigendirection(m, q, expanding=False)
    if h_max is None:
        h_max = 1e-3 * float(np.linalg.norm(axial_caps(m)))
    tol = 0.1 * mesh.max_edge_length()

    image = mesh.pull_back(m)
    p = image.fixed_point(q)
    h_min = 1e-6 * float(np.linalg.norm(q))
    h0 = 0.1 * min(float(np.linalg.norm(q - np.asarray(r, dtype=float))) for r in repellers.values())
    while h0 > h_min:
        off = image(p[None, :] + np.outer([h0, -h0], e_s)) - p
        off -= np.outer(off @ e_s, e_s)  # e_s is a unit vector
        if np.linalg.norm(off, axis=1).max() <= 0.01 * tol:
            break
        h0 *= 0.5
    h0 = max(h0, h_min)
    curve = _grow_curve("stable", image.pull, p, h0 * e_s, steps, repellers, tol, h_max)
    if len(curve.endpoints) != 2:
        raise ManifoldError(f"both branches of the stable curve reached {list(curve.endpoints)}")
    first, last = (np.asarray(repellers[name], dtype=float) for name in curve.endpoints)
    curve.points = np.vstack([first, curve.points, last])
    return curve


# ---------------------------------------------------------------------------
# Foliation / conjugacy diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafContractionReport:
    rho: float
    radius: float
    secant: float
    max_ratio: float
    passed: bool
    n_samples: int
    n_violations: int
    ratios_at_q: np.ndarray  # directional ratio for dyadically shrinking secants


def leaf_contraction_report(
    m: CompetitiveMap,
    q: np.ndarray,
    v: np.ndarray,
    rho: float,
    radius: float,
    secant: float | None = None,
    n_dyadic: int = 3,
    rng: np.random.Generator | None = None,
) -> LeafContractionReport:
    """Sampled check of leaf contraction: pairs (xi, xi + t v) inside the
    neighborhood must contract by at least rho under one application of T.
    Also reports the directional ratio at q itself for dyadically shrinking
    secant lengths (its limit is mu)."""
    rng = rng or np.random.default_rng(0)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    if secant is None:
        secant = 0.1 * radius
    z = rng.normal(size=(_SAMPLE_COUNT, q.shape[0]))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, _SAMPLE_COUNT) ** (1.0 / q.shape[0])
    xi = q[None, :] + r[:, None] * z
    xi = np.clip(xi, 1e-12, None)
    xj = xi + secant * v[None, :]
    num = np.linalg.norm(m(xi) - m(xj), axis=1)
    den = np.linalg.norm(xi - xj, axis=1)
    ratios = num / den
    at_q = np.empty(n_dyadic)
    for k in range(n_dyadic):
        t = secant / 2.0 ** k
        at_q[k] = float(np.linalg.norm(m(q + t * v) - q) / t)
    violations = int(np.sum(ratios > rho))
    return LeafContractionReport(
        rho=float(rho),
        radius=float(radius),
        secant=float(secant),
        max_ratio=float(ratios.max()),
        passed=bool(violations == 0),
        n_samples=_SAMPLE_COUNT,
        n_violations=violations,
        ratios_at_q=at_q,
    )


@dataclass(frozen=True)
class ConjugacyDecayReport:
    rho: float
    slack: float
    radius: float
    fitted_ratios: np.ndarray
    pass_fraction: float
    n_samples: int


def conjugacy_decay_report(
    m: CompetitiveMap,
    mesh: SimplexMesh,
    q: np.ndarray,
    v: np.ndarray,
    w_basis: np.ndarray,
    rho: float,
    radius: float,
    rng: np.random.Generator | None = None,
) -> ConjugacyDecayReport:
    """Decay of d_k = ||T^k(xi) - T^k(R xi)|| for on-mesh samples xi near q,
    where R projects along v onto the plane q + W (first-order leaf map).
    All orbit pairs advance in lockstep while both orbits stay near q; a
    ratio is exp of the least-squares slope of log d_k over its d_k > 1e-250
    (3 or more), or 0 on the plane (d_0 < 1e-14 max(1, ||q||)).  Conjugacy
    predicts ratios <= rho (+ slack for first-order leaves)."""
    rng = rng or np.random.default_rng(0)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)
    B = np.asarray(w_basis, dtype=float)
    # on-mesh samples: random directions near q's, lifted onto the surface
    # (the vertex lattice itself can be coarser than the radius)
    u_q = q / q.sum()
    r_dir = radius / max(np.linalg.norm(q), 1e-12)
    z = rng.normal(size=(8 * _SAMPLE_COUNT, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    offs = r_dir * np.sqrt(rng.uniform(0.0, 1.0, 8 * _SAMPLE_COUNT))[:, None] * z
    lifted = radial_project(mesh, directions_from_uv(u_q[:2] + offs))
    dist = np.linalg.norm(lifted - q, axis=1)
    cand = lifted[(dist <= radius) & (dist > 1e-12)][:_SAMPLE_COUNT]
    coeffs = np.linalg.solve(np.column_stack([v, B]), (cand - q).T)
    proj = cand - np.outer(coeffs[0], v)  # R(xi) = xi - <v-component>
    leave = _CONJUGACY_LEAVE * radius
    # d[i, k] = d_k of sample i while both its orbits stay near q, else 0
    d = np.zeros((cand.shape[0], _CONJUGACY_STEPS + 1))
    d[:, 0] = np.linalg.norm(cand - proj, axis=1)
    on_plane = d[:, 0] < 1e-14 * max(1.0, float(np.linalg.norm(q)))
    live = np.flatnonzero(~on_plane)
    a, b = cand[live], proj[live]
    for step in range(1, _CONJUGACY_STEPS + 1):
        if not live.size:
            break
        a, b = m(a), m(b)
        # a NaN orbit is followed on, as its d_k are dropped from the fit
        stay = ~((np.linalg.norm(a - q, axis=1) > leave) | (np.linalg.norm(b - q, axis=1) > leave))
        live, a, b = live[stay], a[stay], b[stay]
        d[live, step] = np.linalg.norm(a - b, axis=1)
    good = d > 1e-250
    fit = good.sum(axis=1) >= 3
    good = good[fit]
    # slope sum (k - mean k) log d_k / sum (k - mean k)^2 over the good k
    steps = np.arange(_CONJUGACY_STEPS + 1)
    mean = (good * steps).sum(axis=1, keepdims=True) / good.sum(axis=1, keepdims=True)
    k = np.where(good, steps - mean, 0.0)
    y = np.log(d[fit], out=np.zeros(good.shape), where=good)
    ratios = np.zeros(cand.shape[0])
    ratios[fit] = np.exp((k * y).sum(axis=1) / (k * k).sum(axis=1))
    fitted = ratios[on_plane | fit]
    ok = fitted <= rho + _CONJUGACY_SLACK
    return ConjugacyDecayReport(
        rho=float(rho),
        slack=_CONJUGACY_SLACK,
        radius=float(radius),
        fitted_ratios=fitted,
        pass_fraction=float(ok.mean()) if fitted.size else 0.0,
        n_samples=int(fitted.size),
    )


@dataclass(frozen=True)
class M2ExpansionReport:
    sigma: float
    found: bool
    l: int | None
    norms: np.ndarray  # ||(DT|_W)^{-l}|| for l = 1..l_search_max


def m2_expansion_report(
    m: CompetitiveMap,
    q: np.ndarray,
    w_basis: np.ndarray,
    sigma: float,
    l_search_max: int = 60,
) -> M2ExpansionReport:
    """Smallest l with ||(DT(q)|_W)^{-l}|| < sigma^{-l}, mirroring the
    backward-expansion bound on the pseudo-unstable manifold; reports
    found=False (NoSuchL) when no l up to the search cap works."""
    q = np.asarray(q, dtype=float)
    B = np.asarray(w_basis, dtype=float)
    DT = m.jacobian(q)
    A_W = B.T @ DT @ B
    A_inv = np.linalg.inv(A_W)
    norms = np.empty(l_search_max)
    P = np.eye(A_W.shape[0])
    found_l = None
    for l in range(1, l_search_max + 1):
        P = P @ A_inv
        norms[l - 1] = float(np.linalg.norm(P, 2))
        if found_l is None and norms[l - 1] < sigma ** (-l):
            found_l = l
    return M2ExpansionReport(
        sigma=float(sigma), found=found_l is not None, l=found_l, norms=norms
    )
