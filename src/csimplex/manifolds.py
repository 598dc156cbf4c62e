"""Invariant manifolds of an interior saddle on the carrying simplex, and the
foliation/conjugacy diagnostics around it.

At an interior fixed point q satisfying the inverse-positivity condition, the
spectrum splits into the simple radial eigenvalue mu (eigenvector v >> 0) and
the complementary invariant plane W.  Leaves of the invariant foliation are
approximated at first order by translates of span{v}; the contraction rate
rho is chosen in (mu, min{1, nu}) and the expansion parameter sigma in
(rho, nu), midpoints by default.

The unstable curve is grown by iterating a short eigendirection seed forward
with arclength re-sampling; the stable curve is computed as the basin
boundary between the two attractors, bisected along a fan of transversal
segments in direction space and lifted onto the mesh.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import eigen3, eigvec_for, verify_C1
from .models import CompetitiveMap
from .simplex import SimplexMesh, radial_project

__all__ = [
    "ManifoldError",
    "C1ViolatedError",
    "NotASaddleError",
    "NoUnstableEigendirectionError",
    "BranchDidNotTerminateError",
    "SegmentNotStraddlingError",
    "UnresolvedOrbitError",
    "SpectralSplitting",
    "ManifoldCurve",
    "LeafContractionReport",
    "ConjugacyDecayReport",
    "M2ExpansionReport",
    "pseudo_splitting",
    "trace_unstable",
    "basin_of",
    "basin_of_batch",
    "trace_stable_on_S",
    "leaf_contraction_report",
    "conjugacy_decay_report",
    "m2_expansion_report",
    "curve_to_json",
    "curve_from_json",
]

UNRESOLVED = None


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


class SegmentNotStraddlingError(ManifoldError):
    pass


class UnresolvedOrbitError(ManifoldError):
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


@dataclass
class ManifoldCurve:
    points: np.ndarray  # (k, n) ordered polyline
    kind: str  # "unstable" | "stable"
    endpoints: dict  # name -> terminal distance
    tol: float

    @property
    def arc_params(self) -> np.ndarray:
        seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    def distance_to(self, x: np.ndarray) -> float:
        """Distance from x to the polyline (segment-wise)."""
        x = np.asarray(x, dtype=float)
        a = self.points[:-1]
        b = self.points[1:]
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
    return ManifoldCurve(
        points=np.asarray(doc["points"], dtype=float),
        kind=str(doc["kind"]),
        endpoints={name: float("nan") for name in doc["endpoints"]},
        tol=float(doc["tol"]),
    )


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
# Unstable manifold
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


def trace_unstable(
    m: CompetitiveMap,
    q: np.ndarray,
    attractors: dict[str, np.ndarray],
    h0: float | None = None,
    endpoint_tol: float | None = None,
    h_max: float | None = None,
    max_points: int = 20000,
    max_sweeps: int = 1000,
) -> ManifoldCurve:
    """Grow both branches of the unstable curve of the saddle q by forward
    iteration of a seed along the expanding eigendirection, re-sampling by
    arclength after every sweep, until each branch enters the endpoint
    tolerance of one of the given attractors."""
    q = np.asarray(q, dtype=float)
    split = pseudo_splitting(m, q)
    mods = np.abs(split.w_eigenvalues)
    expanding = np.nonzero(mods > 1.0)[0]
    if expanding.size == 0:
        raise NotASaddleError("no expanding eigenvalue at q")
    if expanding.size != 1:
        raise NotASaddleError(f"{expanding.size} expanding eigenvalues; need exactly one")
    lam = split.w_eigenvalues[expanding[0]]
    if abs(lam.imag) > 1e-10 * abs(lam):
        raise NoUnstableEigendirectionError("expanding eigenvalue is complex")
    e_u = eigvec_for(m.jacobian(q), float(lam.real))
    steps_per_sweep = 2 if lam.real < 0 else 1

    scale = float(np.linalg.norm(q))
    if h0 is None:
        h0 = 1e-6 * scale
    if endpoint_tol is None or h_max is None:
        from .existence import axial_caps

        w_norm = float(np.linalg.norm(axial_caps(m)))
        if endpoint_tol is None:
            endpoint_tol = 1e-5 * w_norm
        if h_max is None:
            h_max = 1e-3 * w_norm

    names = list(attractors)
    att = np.array([attractors[k] for k in names], dtype=float)

    def fast_forward(P: np.ndarray) -> tuple[np.ndarray, str, float] | None:
        """Extend the branch with the orbit of its endpoint; the orbit is part
        of the manifold, so this closes the slow final approach cheaply."""
        y = P[-1].copy()
        tail = [y]
        for _ in range(20000):
            y = m(y)
            tail.append(y.copy())
            d = np.linalg.norm(att - y, axis=1)
            j = int(np.argmin(d))
            if d[j] < endpoint_tol:
                ext = _resample_polyline(np.vstack([P, np.asarray(tail)]), h_max)
                return ext, names[j], float(d[j])
        return None

    def trace_branch(direction: float) -> tuple[np.ndarray, str, float]:
        P = q[None, :] + np.linspace(0.0, 1.0, 5)[:, None] * (direction * h0 * e_u)[None, :]
        for sweep in range(1, max_sweeps + 1):
            img = m(P[1:])
            for _ in range(steps_per_sweep - 1):
                img = m(img)
            P = np.vstack([q[None, :], img])
            P = _resample_polyline(P, h_max)
            if P.shape[0] > max_points:
                raise BranchDidNotTerminateError(
                    f"branch exceeded {max_points} points before reaching an attractor"
                )
            d = np.linalg.norm(att - P[-1], axis=1)
            j = int(np.argmin(d))
            if d[j] < endpoint_tol:
                return P, names[j], float(d[j])
            if sweep % 25 == 0:
                closed = fast_forward(P)
                if closed is not None:
                    return closed
        raise BranchDidNotTerminateError(
            f"branch did not reach any attractor within {max_sweeps} sweeps "
            f"(closest {np.min(np.linalg.norm(att - P[-1], axis=1)):.3e})"
        )

    plus, name_p, d_p = trace_branch(+1.0)
    minus, name_m, d_m = trace_branch(-1.0)
    points = np.vstack([minus[::-1], plus[1:]])
    return ManifoldCurve(
        points=points,
        kind="unstable",
        endpoints={name_m: d_m, name_p: d_p},
        tol=float(endpoint_tol),
    )


# ---------------------------------------------------------------------------
# Basins
# ---------------------------------------------------------------------------

def basin_of_batch(
    m: CompetitiveMap,
    X: np.ndarray,
    attractors: dict[str, np.ndarray],
    max_iter: int = 50000,
    tol: float = 1e-6,
) -> np.ndarray:
    """Labels (index into sorted attractor names) of the attractor whose
    tol-ball each orbit enters; -1 where unresolved after max_iter."""
    names = sorted(attractors)
    att = np.array([attractors[k] for k in names], dtype=float)
    X = np.array(np.atleast_2d(X), dtype=float)
    labels = np.full(X.shape[0], -1, dtype=np.intp)
    active = np.arange(X.shape[0])
    pts = X
    for _ in range(max_iter + 1):
        if active.size == 0:
            break
        d = np.linalg.norm(pts[:, None, :] - att[None, :, :], axis=2)
        j = np.argmin(d, axis=1)
        hit = d[np.arange(pts.shape[0]), j] < tol
        if np.any(hit):
            labels[active[hit]] = j[hit]
            active = active[~hit]
            pts = pts[~hit]
            if active.size == 0:
                break
        pts = m(pts)
    return labels


def basin_of(
    m: CompetitiveMap,
    x: np.ndarray,
    attractors: dict[str, np.ndarray],
    max_iter: int = 50000,
    tol: float = 1e-6,
) -> str | None:
    """Attractor id whose tol-ball the orbit of x enters, or None (unresolved)."""
    label = basin_of_batch(m, np.asarray(x, dtype=float)[None, :], attractors, max_iter, tol)[0]
    if label < 0:
        return UNRESOLVED
    return sorted(attractors)[label]


# ---------------------------------------------------------------------------
# Stable manifold on S
# ---------------------------------------------------------------------------

def _lift(mesh: SimplexMesh, d2: np.ndarray) -> np.ndarray:
    """Direction-space (u1, u2) points onto the mesh surface."""
    d2 = np.atleast_2d(d2)
    u3 = 1.0 - d2.sum(axis=1)
    U = np.column_stack([d2, u3])
    U = np.clip(U, 1e-12, None)
    U /= U.sum(axis=1, keepdims=True)
    return radial_project(mesh, U)


def _max_step_inside(P: np.ndarray, d: np.ndarray, margin: float = 1e-6) -> np.ndarray:
    """Largest t with the 2-D direction point P + t d inside the simplex
    (all three barycentric coordinates >= margin)."""
    t = np.full(P.shape[0], np.inf)
    for coef, bound in (
        (-d[:, 0], P[:, 0] - margin),
        (-d[:, 1], P[:, 1] - margin),
        (d[:, 0] + d[:, 1], 1.0 - P[:, 0] - P[:, 1] - margin),
    ):
        pos = coef > 0
        t[pos] = np.minimum(t[pos], bound[pos] / coef[pos])
    return np.clip(t, 0.0, None)


def trace_stable_on_S(
    m: CompetitiveMap,
    mesh: SimplexMesh,
    q: np.ndarray,
    repellers: dict[str, np.ndarray],
    attractors: dict[str, np.ndarray],
    resolution: int = 33,
    bisect_tol: float | None = None,
    max_iter: int = 50000,
    basin_tol: float = 1e-6,
) -> ManifoldCurve:
    """Stable curve of q on S as the boundary between the two basins.

    A fan of transversal segments sweeps in direction space from the first
    repeller's direction through q's to the second's.  Each segment is grown
    (and clipped into the simplex) until its endpoints resolve to different
    attractors, then bisected on the lifted surface; stations whose
    spine-perpendicular segment never straddles are re-spanned along the
    chord between neighboring settled crossings, which follows bends of the
    curve.  The crossings, chained in fan order and capped by the repeller
    locations, form the curve.
    """
    if len(repellers) != 2 or len(attractors) != 2:
        raise ValueError("need exactly two repellers and two attractors")
    q = np.asarray(q, dtype=float)
    r_names = sorted(repellers)
    if bisect_tol is None:
        bisect_tol = 1e-5 * max(np.linalg.norm(q), 1.0)

    def dir2(x: np.ndarray) -> np.ndarray:
        u = x / x.sum()
        return u[:2]

    u_r1, u_r2 = dir2(repellers[r_names[0]]), dir2(repellers[r_names[1]])
    u_q = dir2(q)

    # fan stations along the two spine legs, station at u_q included
    len1 = np.linalg.norm(u_q - u_r1)
    len2 = np.linalg.norm(u_r2 - u_q)
    k1 = max(2, int(round(resolution * len1 / (len1 + len2))))
    k2 = max(2, resolution - k1)
    leg1 = u_r1 + np.linspace(0.0, 1.0, k1 + 1)[1:, None] * (u_q - u_r1)
    leg2 = u_q + np.linspace(0.0, 1.0, k2 + 1)[:-1, None] * (u_r2 - u_q)[None, :]
    stations = np.vstack([leg1, leg2[1:]])
    tangents = np.gradient(stations, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    spacing = (len1 + len2) / max(resolution - 1, 1)
    K = stations.shape[0]

    crossings = np.empty((K, q.shape[0]))
    crossings_d2 = np.empty((K, 2))
    settled = np.zeros(K, dtype=bool)

    def attempt(idx: np.ndarray, centers: np.ndarray, normal_dirs: np.ndarray) -> None:
        """Straddle-search and bisect transversal segments; record successes."""
        e1 = np.empty((idx.size, 2))
        e2 = np.empty((idx.size, 2))
        found = np.zeros(idx.size, dtype=bool)
        for grow in (0.5, 1.0, 2.0, 4.0, 8.0):
            open_rows = np.nonzero(~found)[0]
            if open_rows.size == 0:
                break
            half = grow * spacing
            P = centers[open_rows]
            n = normal_dirs[open_rows]
            step_lo = np.minimum(half, 0.98 * _max_step_inside(P, -n))
            step_hi = np.minimum(half, 0.98 * _max_step_inside(P, n))
            lo = P - step_lo[:, None] * n
            hi = P + step_hi[:, None] * n
            lab_lo = basin_of_batch(m, _lift(mesh, lo), attractors, max_iter, basin_tol)
            lab_hi = basin_of_batch(m, _lift(mesh, hi), attractors, max_iter, basin_tol)
            straddle = ((lab_lo == 0) & (lab_hi == 1)) | ((lab_lo == 1) & (lab_hi == 0))
            rows = open_rows[straddle]
            flip = (lab_lo[straddle] == 1)[:, None]
            e1[rows] = np.where(flip, hi[straddle], lo[straddle])
            e2[rows] = np.where(flip, lo[straddle], hi[straddle])
            found[rows] = True

        active = np.nonzero(found)[0]
        for _ in range(200):
            if active.size == 0:
                break
            mid = 0.5 * (e1[active] + e2[active])
            lifted = _lift(mesh, mid)
            labels = basin_of_batch(m, lifted, attractors, max_iter, basin_tol)
            # an unresolved midpoint between resolved endpoints converged to a
            # non-attracting fixed point, i.e. it sits on the boundary; keep
            # narrowing the bracket through a nudged probe unless it is
            # already below tolerance
            on_boundary = np.nonzero(labels < 0)[0]
            if on_boundary.size:
                width_b = np.linalg.norm(
                    _lift(mesh, e1[active[on_boundary]]) - _lift(mesh, e2[active[on_boundary]]),
                    axis=1,
                )
                narrow = width_b < bisect_tol
                probe = mid[on_boundary] + 0.1 * (e2[active[on_boundary]] - e1[active[on_boundary]])
                plabels = basin_of_batch(m, _lift(mesh, probe), attractors, max_iter, basin_tol)
                for r, row in enumerate(on_boundary):
                    if narrow[r] or plabels[r] < 0:
                        crossings[idx[active[row]]] = lifted[row]
                        crossings_d2[idx[active[row]]] = mid[row]
                        settled[idx[active[row]]] = True
                    elif plabels[r] == 0:
                        e1[active[row]] = probe[r]
                    else:
                        e2[active[row]] = probe[r]
            e1[active[labels == 0]] = mid[labels == 0]
            e2[active[labels == 1]] = mid[labels == 1]
            width = np.linalg.norm(_lift(mesh, e1[active]) - _lift(mesh, e2[active]), axis=1)
            done = (width < bisect_tol) & (labels >= 0)
            rows = active[done]
            mids = 0.5 * (e1[rows] + e2[rows])
            crossings[idx[rows]] = _lift(mesh, mids)
            crossings_d2[idx[rows]] = mids
            settled[idx[rows]] = True
            newly_settled = settled[idx[active]]
            active = active[~done & ~newly_settled]
        if active.size:
            raise UnresolvedOrbitError(
                f"bisection failed to converge at stations {idx[active].tolist()}"
            )

    # pass 1: transversals perpendicular to the straight spine
    attempt(np.arange(K), stations, normals)

    # pass 2+: re-span runs of failed stations along the chord between their
    # settled neighbors (follows bends of the curve away from the spine)
    for _ in range(3):
        if settled.all():
            break
        open_idx = np.nonzero(~settled)[0]
        runs: list[tuple[int, int]] = []
        start_run = open_idx[0]
        prev = open_idx[0]
        for i in open_idx[1:]:
            if i != prev + 1:
                runs.append((start_run, prev))
                start_run = i
            prev = i
        runs.append((start_run, prev))
        for lo_i, hi_i in runs:
            left = crossings_d2[lo_i - 1] if lo_i > 0 else u_r1
            right = crossings_d2[hi_i + 1] if hi_i + 1 < K else u_r2
            count = hi_i - lo_i + 1
            ts = np.linspace(0.0, 1.0, count + 2)[1:-1, None]
            centers = left + ts * (right - left)
            chord = right - left
            norm = np.linalg.norm(chord)
            if norm < 1e-14:
                continue
            n = np.array([-chord[1], chord[0]]) / norm
            attempt(np.arange(lo_i, hi_i + 1), centers, np.tile(n, (count, 1)))
    if not settled.all():
        raise SegmentNotStraddlingError(
            f"{int((~settled).sum())} fan segments found no straddling endpoints"
        )

    # q is on the stable curve by definition; when the station through u_q
    # bisected onto q's ray, place q itself rather than its mesh lift (the
    # lift would carry the surface interpolation error)
    q_station = k1 - 1
    if np.linalg.norm(crossings_d2[q_station] - u_q) * q.sum() <= 5 * bisect_tol:
        crossings[q_station] = q
        crossings_d2[q_station] = u_q

    start = repellers[r_names[0]]
    end = repellers[r_names[1]]
    points = np.vstack([start[None, :], crossings, end[None, :]])
    endpoints = {
        r_names[0]: float(np.linalg.norm(crossings[0] - start)),
        r_names[1]: float(np.linalg.norm(crossings[-1] - end)),
    }
    return ManifoldCurve(points=points, kind="stable", endpoints=endpoints, tol=float(bisect_tol))


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
    sample_count: int = 200,
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
    z = rng.normal(size=(sample_count, q.shape[0]))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, sample_count) ** (1.0 / q.shape[0])
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
        n_samples=sample_count,
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
    source: str  # "mesh" samples or user-supplied "points" (informational)


def conjugacy_decay_report(
    m: CompetitiveMap,
    mesh: SimplexMesh,
    q: np.ndarray,
    v: np.ndarray,
    w_basis: np.ndarray,
    rho: float,
    radius: float,
    slack: float = 0.1,
    k_max: int = 10,
    sample_count: int = 200,
    leave_factor: float = 10.0,
    points: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> ConjugacyDecayReport:
    """Decay of d_k = ||T^k(xi) - T^k(R xi)|| for on-mesh samples xi near q,
    where R projects along v onto the plane q + W (first-order leaf map).
    Per sample, a geometric ratio is fitted to the d_k while both orbits stay
    in the neighborhood; conjugacy predicts ratios <= rho (+ slack for the
    first-order approximation of the leaves)."""
    rng = rng or np.random.default_rng(0)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)
    B = np.asarray(w_basis, dtype=float)
    if points is None:
        # on-mesh samples: random directions near q's, lifted onto the surface
        # (the vertex lattice itself can be coarser than the radius)
        u_q = q / q.sum()
        r_dir = radius / max(np.linalg.norm(q), 1e-12)
        z = rng.normal(size=(8 * sample_count, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        offs = r_dir * np.sqrt(rng.uniform(0.0, 1.0, 8 * sample_count))[:, None] * z
        lifted = _lift(mesh, u_q[:2] + offs)
        dist = np.linalg.norm(lifted - q, axis=1)
        keep = (dist <= radius) & (dist > 1e-12)
        cand = lifted[keep][:sample_count]
        source = "mesh"
    else:
        cand = np.atleast_2d(np.asarray(points, dtype=float))
        source = "points"
    Mcols = np.column_stack([v, B])
    coeffs = np.linalg.solve(Mcols, (cand - q).T)
    proj = cand - np.outer(coeffs[0], v)  # R(xi) = xi - <v-component>
    scale = max(1.0, float(np.linalg.norm(q)))
    leave = leave_factor * radius
    ratios = np.full(cand.shape[0], np.nan)
    for i in range(cand.shape[0]):
        a, b = cand[i].copy(), proj[i].copy()
        d = [float(np.linalg.norm(a - b))]
        if d[0] < 1e-14 * scale:
            ratios[i] = 0.0  # already on the pseudo-unstable plane
            continue
        for _ in range(k_max):
            a, b = m(a), m(b)
            if np.linalg.norm(a - q) > leave or np.linalg.norm(b - q) > leave:
                break
            d.append(float(np.linalg.norm(a - b)))
        d = np.asarray(d)
        good = d > 1e-250
        if good.sum() >= 3:
            k = np.arange(len(d))[good]
            slope = np.polyfit(k, np.log(d[good]), 1)[0]
            ratios[i] = float(np.exp(slope))
    fitted = ratios[~np.isnan(ratios)]
    ok = fitted <= rho + slack
    return ConjugacyDecayReport(
        rho=float(rho),
        slack=float(slack),
        radius=float(radius),
        fitted_ratios=fitted,
        pass_fraction=float(ok.mean()) if fitted.size else 0.0,
        n_samples=int(fitted.size),
        source=source,
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
