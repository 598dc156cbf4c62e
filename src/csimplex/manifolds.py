"""Invariant manifolds of an interior saddle on the carrying simplex, and the
foliation/conjugacy diagnostics around it.

At an interior fixed point q satisfying the inverse-positivity condition, the
spectrum splits into the simple radial eigenvalue mu (eigenvector v >> 0) and
the complementary invariant plane W.  Leaves of the invariant foliation are
approximated at first order by translates of span{v}; the contraction rate
rho is chosen in (mu, min{1, nu}) and the expansion parameter sigma in
(rho, nu), midpoints by default.

One routine grows both curves from a short seed along an eigendirection in
W, mapping and re-sampling it by arclength sweep after sweep: the unstable
curve under T, the stable curve as the unstable curve of T^-1 restricted to
the mesh (Newton preimages projected radially onto the mesh).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import eigen3, eigvec_for, verify_C1
from .existence import axial_caps
from .models import CompetitiveMap
from .simplex import SimplexMesh, radial_project

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
    in W, and the map steps per sweep: two when that eigenvalue is negative,
    so that a branch does not flip sides at every step."""
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


def _grow_curve(
    kind: str,
    step: Callable[[np.ndarray], np.ndarray],
    q: np.ndarray,
    seed: np.ndarray,
    steps_per_sweep: int,
    targets: dict[str, np.ndarray],
    endpoint_tol: float,
    h_max: float,
    max_points: int = 20000,
    max_sweeps: int = 1000,
) -> ManifoldCurve:
    """Unstable curve of `step` at its fixed point q, grown on both sides
    from the segments [q, q +- seed]: every sweep maps a branch by
    steps_per_sweep applications of `step` and re-samples it by arclength to
    spacing h_max, until its end enters the endpoint_tol ball of a target."""
    names = list(targets)
    ends = np.array([targets[k] for k in names], dtype=float)

    def fast_forward(P: np.ndarray) -> tuple[np.ndarray, str, float] | None:
        """Extend the branch with the orbit of its endpoint; the orbit is part
        of the curve, so this closes the slow final approach cheaply."""
        y = P[-1].copy()
        tail = [y]
        for _ in range(20000):
            y = step(y)
            tail.append(y.copy())
            d = np.linalg.norm(ends - y, axis=1)
            j = int(np.argmin(d))
            if d[j] < endpoint_tol:
                ext = _resample_polyline(np.vstack([P, np.asarray(tail)]), h_max)
                return ext, names[j], float(d[j])
        return None

    def trace_branch(direction: float) -> tuple[np.ndarray, str, float]:
        P = q[None, :] + np.linspace(0.0, 1.0, 5)[:, None] * (direction * seed)[None, :]
        for sweep in range(1, max_sweeps + 1):
            img = P[1:]
            for _ in range(steps_per_sweep):
                img = step(img)
            P = np.vstack([q[None, :], img])
            P = _resample_polyline(P, h_max)
            if P.shape[0] > max_points:
                raise BranchDidNotTerminateError(
                    f"branch exceeded {max_points} points before reaching {' or '.join(names)}"
                )
            d = np.linalg.norm(ends - P[-1], axis=1)
            j = int(np.argmin(d))
            if d[j] < endpoint_tol:
                return P, names[j], float(d[j])
            if sweep % 25 == 0:
                closed = fast_forward(P)
                if closed is not None:
                    return closed
        raise BranchDidNotTerminateError(
            f"branch did not reach {' or '.join(names)} within {max_sweeps} sweeps "
            f"(closest {np.min(np.linalg.norm(ends - P[-1], axis=1)):.3e})"
        )

    plus, name_p, d_p = trace_branch(+1.0)
    minus, name_m, d_m = trace_branch(-1.0)
    return ManifoldCurve(
        points=np.vstack([minus[::-1], plus[1:]]),
        kind=kind,
        endpoints={name_m: d_m, name_p: d_p},
        tol=float(endpoint_tol),
    )


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
    e_u, steps_per_sweep = _saddle_eigendirection(m, q, expanding=True)
    if h0 is None:
        h0 = 1e-6 * float(np.linalg.norm(q))
    w_norm = float(np.linalg.norm(axial_caps(m)))
    if endpoint_tol is None:
        endpoint_tol = 1e-5 * w_norm
    if h_max is None:
        h_max = 1e-3 * w_norm
    return _grow_curve(
        "unstable", m, q, h0 * e_u, steps_per_sweep, attractors, endpoint_tol, h_max,
        max_points, max_sweeps,
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


def _preimage(m: CompetitiveMap, Y: np.ndarray) -> np.ndarray:
    """Rows x with T(x) = y for the rows y of Y, by batched Newton from x = y.
    Raises ManifoldError unless every residual reaches 1e-12 (1 + ||y||)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    X = Y.copy()
    bound = 1e-12 * (1.0 + np.linalg.norm(Y, axis=1))
    active = np.arange(Y.shape[0])
    for _ in range(50):
        R = m(X[active]) - Y[active]
        open_rows = ~(np.linalg.norm(R, axis=1) <= bound[active])  # NaN stays open
        active, R = active[open_rows], R[open_rows]
        if active.size == 0:
            return X
        try:
            X[active] -= np.linalg.solve(m.jacobian(X[active]), R[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise ManifoldError(f"Newton preimage met a singular Jacobian: {exc}") from exc
    raise ManifoldError(f"Newton preimage did not converge at {active.size} of {Y.shape[0]} points")


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
    is grown from the contracting W-eigendirection; each step is the Newton
    preimage under T projected radially onto the mesh.  The projected map
    fixes the lifts of q and the repellers, not the points, so the seed is
    max(1e-6 ||q||, 10 ||radial_project(mesh, q) - q||) long and a branch
    stops within 0.1 of the longest mesh edge of a repeller, whose location
    caps the polyline.  The attractors are only checked for the 2+2 layout.
    """
    if len(repellers) != 2 or len(attractors) != 2:
        raise ValueError("need exactly two repellers and two attractors")
    q = np.asarray(q, dtype=float)
    e_s, steps_per_sweep = _saddle_eigendirection(m, q, expanding=False)
    gap = float(np.linalg.norm(radial_project(mesh, q) - q))
    h0 = max(1e-6 * float(np.linalg.norm(q)), 10.0 * gap)
    if h_max is None:
        h_max = 1e-3 * float(np.linalg.norm(axial_caps(m)))

    def step(X: np.ndarray) -> np.ndarray:
        return radial_project(mesh, _preimage(m, X).reshape(np.shape(X)))

    curve = _grow_curve(
        "stable", step, q, h0 * e_s, steps_per_sweep, repellers,
        0.1 * mesh.max_edge_length(), h_max,
    )
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
