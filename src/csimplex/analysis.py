"""Fixed points of competitive maps: location, spectra, condition (C1),
on-simplex type and fixed point index.

The smallest-modulus eigenvalue mu at an interior fixed point plays the role
of the radial (transverse-to-simplex) direction; classification on the
carrying simplex reads the remaining n-1 eigenvalues.  The index is computed
as sign(det(I - DT(q))), which equals (-1)^m with m the number of eigenvalues
exceeding one, but stays well-defined for complex pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .models import CompetitiveMap

__all__ = [
    "SType",
    "FixedPointRecord",
    "C1Report",
    "AnalysisError",
    "NoAxialFixedPointError",
    "DegenerateSystemError",
    "NoInteriorFixedPointError",
    "NewtonDivergedError",
    "SingularJacobianError",
    "NonHyperbolicError",
    "EigenvalueOneError",
    "eigen3",
    "eigvec_for",
    "verify_C1",
    "classify_on_S",
    "fixed_point_index",
    "find_axial_fixed_points",
    "find_planar_fixed_points",
    "find_interior_fixed_point",
    "find_all_fixed_points",
    "boundary_sets",
    "record_at",
]

UNIT_CIRCLE_TOL = 1e-9
RESIDUAL_TOL = 1e-10


class AnalysisError(RuntimeError):
    pass


class NoAxialFixedPointError(AnalysisError):
    pass


class DegenerateSystemError(AnalysisError):
    """The restricted linear system for a boundary fixed point is singular."""


class NoInteriorFixedPointError(AnalysisError):
    pass


class NewtonDivergedError(AnalysisError):
    pass


class SingularJacobianError(AnalysisError):
    pass


class NonHyperbolicError(AnalysisError):
    """Some eigenvalue modulus sits within tolerance of 1."""


class EigenvalueOneError(AnalysisError):
    """1 is an eigenvalue of DT within tolerance; the index is undefined."""


class SType:
    ATTRACTOR = "attractor"
    REPELLER = "repeller"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class C1Report:
    """Inverse-positivity check at a fixed point.

    Passes when (DT)^-1 exists with strictly positive entries and the
    smallest-modulus eigenvalue mu is real with 0 < mu < 1; then mu is simple
    and its eigenvector can be chosen strictly positive (Perron-Frobenius).
    """

    det: float
    inverse_min_entry: float
    mu: complex
    perron_vector: np.ndarray | None
    passed: bool
    reason: str = ""


@dataclass(frozen=True)
class FixedPointRecord:
    location: np.ndarray
    support: tuple[int, ...]
    eigenvalues: np.ndarray  # complex, sorted by modulus ascending
    mu: complex
    nu: float
    c1_holds: bool
    hyperbolic: bool
    s_type: str | None
    index: int | None
    residual: float

    @property
    def support_type(self) -> str:
        k = len(self.support)
        n = self.location.shape[0]
        if k == 0:
            return "origin"
        if k == 1:
            return "axial"
        if k == n:
            return "interior"
        return "planar"

    @property
    def name(self) -> str:
        if not self.support:
            return "origin"
        tag = "".join(str(i + 1) for i in self.support)
        return f"{self.support_type}_{tag}"


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def _sort_spectrum(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    return vals[order]


def eigen3(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real square matrix (LAPACK), sorted by modulus
    ascending; imaginary parts below 1e-12 max(1, max|M|) are set to zero."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("eigen3 expects a square matrix")
    vals = np.linalg.eigvals(M)
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(M))))
    vals = np.where(np.abs(vals.imag) < tiny, vals.real + 0j, vals)
    return _sort_spectrum(vals)


def eigvec_for(M: np.ndarray, lam: complex) -> np.ndarray:
    """Unit eigenvector of M for the (known) eigenvalue lam: the SVD null
    vector of M - lam*I, scaled so that its largest-modulus component is real
    and positive.  The result is real when lam is a real float."""
    M = np.asarray(M, dtype=float)
    _, _, vh = np.linalg.svd(M - lam * np.eye(M.shape[0]))
    v = vh[-1].conj()
    k = int(np.argmax(np.abs(v)))
    return v * (abs(v[k]) / v[k])


# ---------------------------------------------------------------------------
# Condition (C1), on-S type, index
# ---------------------------------------------------------------------------

def verify_C1(m: CompetitiveMap, location: np.ndarray) -> C1Report:
    """Check that (DT)^-1 exists with strictly positive entries and that the
    smallest-modulus eigenvalue mu is real with 0 < mu < 1."""
    x = np.asarray(location, dtype=float)
    DT = m.jacobian(x)
    # singularity is decided on log |det|, which neither overflows nor underflows
    sign, log_det = np.linalg.slogdet(DT)
    log_scale = m.n * math.log(max(1.0, float(np.max(np.abs(DT)))))
    if not log_det >= math.log(1e-14) + log_scale:
        raise SingularJacobianError(f"DT is singular at {x} (log |det| = {log_det:.3e})")
    det = float(sign) * (math.exp(log_det) if log_det < 709.0 else math.inf)  # e^709.79 overflows
    inv = np.linalg.inv(DT)
    inv_min = float(inv.min())
    eigs = eigen3(DT)
    mu = eigs[0]
    if inv_min <= 0.0:
        return C1Report(det, inv_min, mu, None, False, "inverse has non-positive entries")
    if abs(mu.imag) > 1e-12 * max(1.0, abs(mu)):
        return C1Report(det, inv_min, mu, None, False, "smallest-modulus eigenvalue not real")
    mu_r = float(mu.real)
    if not (0.0 < mu_r < 1.0):
        return C1Report(det, inv_min, mu, None, False, f"mu={mu_r:.6g} outside (0, 1)")
    v = eigvec_for(DT, mu_r)
    if np.any(v <= 0):
        return C1Report(det, inv_min, mu_r, None, False, "Perron vector not strictly positive")
    return C1Report(det, inv_min, mu_r, v, True)


def _classify_moduli(moduli: np.ndarray, tol: float) -> str:
    near_one = np.abs(moduli - 1.0) <= tol
    if np.any(near_one):
        raise NonHyperbolicError(
            f"eigenvalue modulus within {tol:g} of 1: {moduli[near_one]}"
        )
    below = moduli < 1.0
    if np.all(below):
        return SType.ATTRACTOR
    if not np.any(below):
        return SType.REPELLER
    return SType.SADDLE


def classify_on_S(eigenvalues, tol: float = UNIT_CIRCLE_TOL) -> str:
    """Type of the restriction to the carrying simplex at an interior fixed
    point: drop the smallest-modulus eigenvalue (the radial direction) and
    classify the remaining n-1 moduli against the unit circle."""
    eigs = _sort_spectrum(np.asarray(list(eigenvalues), dtype=complex))
    if eigs.shape[0] < 2:
        raise ValueError("need at least two eigenvalues")
    return _classify_moduli(np.abs(eigs[1:]), tol)


def fixed_point_index(m: CompetitiveMap, location: np.ndarray, tol: float = UNIT_CIRCLE_TOL) -> int:
    """sign(det(I - DT)), which equals (-1)^m for hyperbolic fixed points,
    with m the number of eigenvalues greater than one (multiplicity counted)."""
    x = np.asarray(location, dtype=float)
    DT = m.jacobian(x)
    eigs = eigen3(DT)
    if np.min(np.abs(eigs - 1.0)) <= tol:
        raise EigenvalueOneError("1 is an eigenvalue of DT within tolerance")
    sign, _ = np.linalg.slogdet(np.eye(m.n) - DT)
    return 1 if sign > 0 else -1


# ---------------------------------------------------------------------------
# Fixed point location
# ---------------------------------------------------------------------------

def _solve_support_system(m: CompetitiveMap, support: tuple[int, ...]) -> np.ndarray | None:
    """Builtin fixed point on a support: solve sum_{j in k} a_ij x_j = 1 for
    i in k.  Returns None when some coordinate is non-positive."""
    A = m.params.A
    idx = list(support)
    sub = A[np.ix_(idx, idx)]
    k = len(idx)
    # the determinant of the scaled block, so that large entries cannot overflow
    if abs(np.linalg.det(sub / np.max(np.abs(sub)))) < 1e-12:
        raise DegenerateSystemError(f"singular support system for {support}")
    q_sub = np.linalg.solve(sub, np.ones(k))
    if np.any(q_sub <= 0):
        return None
    q = np.zeros(m.n)
    q[idx] = q_sub
    return q


def _newton_on_support(
    m: CompetitiveMap,
    support: tuple[int, ...],
    seed: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Damped Newton for F_i(x) = 1, i in support, x vanishing off-support."""
    idx = list(support)
    x = np.asarray(seed, dtype=float).copy()
    mask = np.zeros(m.n, dtype=bool)
    mask[idx] = True
    x[~mask] = 0.0
    res = m.growth(x)[idx] - 1.0
    for _ in range(max_iter):
        if np.linalg.norm(res) < tol:
            return x
        J = m.growth_jacobian(x)[np.ix_(idx, idx)]
        try:
            step = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergedError(f"singular Newton system on support {support}") from exc
        lam = 1.0
        base = np.linalg.norm(res)
        for _ in range(30):
            x_new = x.copy()
            x_new[idx] = x[idx] + lam * step
            if np.all(x_new[idx] > 0):
                res_new = m.growth(x_new)[idx] - 1.0
                if np.linalg.norm(res_new) < base:
                    x, res = x_new, res_new
                    break
            lam *= 0.5
        else:
            raise NewtonDivergedError(f"line search failed on support {support}")
    if np.linalg.norm(res) < 1e-8:
        return x
    raise NewtonDivergedError(f"Newton did not converge on support {support}")


def _axial_1d(m: CompetitiveMap, i: int) -> float:
    """Root of F_i(t e_i) = 1, t > 0, by bracketing plus bisection/Newton."""
    def g(t: float) -> float:
        x = np.zeros(m.n)
        x[i] = t
        return float(m.growth(x)[i]) - 1.0

    lo, hi = None, None
    t = 1.0
    for _ in range(200):
        val = g(t)
        if val > 0:
            lo = t
            break
        t *= 0.5
    t = max(1.0, 2.0 * (lo or 1.0))
    for _ in range(200):
        if g(t) < 0:
            hi = t
            break
        t *= 2.0
    if lo is None or hi is None:
        raise NoAxialFixedPointError(f"could not bracket the axial fixed point on axis {i}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def find_axial_fixed_points(m: CompetitiveMap) -> list[FixedPointRecord]:
    """One fixed point w_i e_i per axis; closed form w_i = 1/a_ii for the
    builtins, bracketed 1-D root otherwise."""
    records = []
    for i in range(m.n):
        if m.params is not None:
            w = 1.0 / m.params.A[i, i]
        else:
            w = _axial_1d(m, i)
        x = np.zeros(m.n)
        x[i] = w
        records.append(record_at(m, x, (i,)))
    return records


def find_planar_fixed_points(
    m: CompetitiveMap, pair: tuple[int, int], seed: np.ndarray | None = None
) -> FixedPointRecord | None:
    """Fixed point interior to the (i, j) coordinate plane, or None when the
    restricted system has no strictly positive solution."""
    i, j = pair
    if m.params is not None:
        q = _solve_support_system(m, (i, j))
        if q is None:
            return None
    else:
        if seed is None:
            wi = _axial_1d(m, i)
            wj = _axial_1d(m, j)
            seed = np.zeros(m.n)
            seed[i], seed[j] = wi / 2.0, wj / 2.0
        q = _newton_on_support(m, (i, j), seed)
        if np.any(q[[i, j]] <= 0):
            return None
    return record_at(m, q, (i, j))


def find_interior_fixed_point(
    m: CompetitiveMap, seed: np.ndarray | None = None
) -> FixedPointRecord:
    """Interior fixed point q >> 0.  Builtins: q = A^-1 1, accepted only when
    strictly positive.  Custom maps: damped Newton from the seed (default:
    centroid of the axial fixed points)."""
    full = tuple(range(m.n))
    if m.params is not None:
        try:
            q = _solve_support_system(m, full)
        except DegenerateSystemError:
            raise NoInteriorFixedPointError("interaction matrix is singular")
        if q is None:
            raise NoInteriorFixedPointError("A^-1 1 has a non-positive coordinate")
    else:
        if seed is None:
            axials = [r.location for r in find_axial_fixed_points(m)]
            seed = np.mean(axials, axis=0)
        q = _newton_on_support(m, full, seed)
        if np.any(q <= 0):
            raise NoInteriorFixedPointError("Newton converged outside the open orthant")
        if np.linalg.norm(m(q) - q) > 1e-10 * (1.0 + np.linalg.norm(q)):
            raise NewtonDivergedError("residual above tolerance after Newton")
    return record_at(m, q, full)


def _on_s_spectrum(m: CompetitiveMap, x: np.ndarray, support: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues governing T restricted to S at a boundary fixed point.

    On the face spanned by the support, the restricted Jacobian inherits the
    inverse-positivity structure, so its smallest-modulus eigenvalue is the
    radial direction and is dropped; the external growth rates F_k(x) for
    absent species k enter directly (DT is block triangular across supports).
    """
    idx = list(support)
    DT = m.jacobian(x)
    face = DT[np.ix_(idx, idx)]
    face_eigs = eigen3(face)
    external = [complex(m.growth(x)[k]) for k in range(m.n) if k not in support]
    return _sort_spectrum(np.concatenate([face_eigs[1:], np.array(external, dtype=complex)]))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, taken of v scaled by the power of two of
    max|v| so that its squares neither overflow nor underflow.  The scaling
    is exact, so the value is np.linalg.norm(v) wherever that neither
    overflows nor underflows."""
    big = float(np.max(np.abs(v)))
    if not 0.0 < big < np.inf:
        return float(np.linalg.norm(v))
    e = math.frexp(big)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


def record_at(
    m: CompetitiveMap,
    location: np.ndarray,
    support: tuple[int, ...] | None = None,
    unit_tol: float = UNIT_CIRCLE_TOL,
) -> FixedPointRecord:
    """Assemble the full record (spectrum, C1, on-S type, index) at a point
    that is already known to be fixed."""
    x = np.asarray(location, dtype=float)
    if support is None:
        support = tuple(int(i) for i in np.nonzero(x)[0])
    residual = _norm(m(x) - x)
    if residual > RESIDUAL_TOL * (1.0 + _norm(x)):
        raise AnalysisError(f"point {x} is not fixed (residual {residual:.3e})")
    DT = m.jacobian(x)
    eigs = eigen3(DT)
    mu = eigs[0]
    nu = float(np.abs(eigs[1])) if eigs.shape[0] > 1 else float("nan")
    hyperbolic = bool(np.all(np.abs(np.abs(eigs) - 1.0) > unit_tol))
    c1_holds = False
    if len(support) == m.n:
        try:
            c1_holds = verify_C1(m, x).passed
        except SingularJacobianError:
            c1_holds = False
    s_type: str | None
    try:
        if len(support) == m.n:
            s_type = classify_on_S(eigs, unit_tol) if (c1_holds and hyperbolic) else None
            if s_type is None and c1_holds:
                s_type = SType.NON_HYPERBOLIC
        elif len(support) > 0:
            s_type = _classify_moduli(np.abs(_on_s_spectrum(m, x, support)), unit_tol)
        else:
            s_type = None  # origin is not on S
    except NonHyperbolicError:
        s_type = SType.NON_HYPERBOLIC
    try:
        index = fixed_point_index(m, x, unit_tol)
    except EigenvalueOneError:
        index = None
    return FixedPointRecord(
        location=x,
        support=tuple(support),
        eigenvalues=eigs,
        mu=mu,
        nu=nu,
        c1_holds=c1_holds,
        hyperbolic=hyperbolic,
        s_type=s_type,
        index=index,
        residual=residual,
    )


def find_all_fixed_points(m: CompetitiveMap) -> list[FixedPointRecord]:
    """Origin, axial, planar and (when present) interior fixed points of a
    3-species map, each with a full record.  Builtins solve the linear
    support systems; custom maps run damped Newton from the axial points, and
    a Newton run that diverges or ends outside the open orthant means no
    fixed point on that support."""
    records = [record_at(m, np.zeros(m.n), ())]
    axial = find_axial_fixed_points(m)
    records.extend(axial)
    if m.n == 3:
        w = np.sum([r.location for r in axial], axis=0)
        for pair in combinations(range(3), 2):
            seed = np.zeros(3)
            seed[list(pair)] = w[list(pair)] / 2.0
            try:
                rec = find_planar_fixed_points(m, pair, seed)
            except (DegenerateSystemError, NewtonDivergedError):
                rec = None
            if rec is not None:
                records.append(rec)
        try:
            records.append(find_interior_fixed_point(m, w / 3.0))
        except (NoInteriorFixedPointError, NewtonDivergedError):
            pass
    return records


def boundary_sets(
    records: list[FixedPointRecord],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The attractors and the repellers on S among the boundary (axial and
    planar) fixed points, each as a name -> location map in record order."""
    boundary = [r for r in records if r.support_type in ("axial", "planar")]
    att = {r.name: r.location for r in boundary if r.s_type == SType.ATTRACTOR}
    rep = {r.name: r.location for r in boundary if r.s_type == SType.REPELLER}
    return att, rep
