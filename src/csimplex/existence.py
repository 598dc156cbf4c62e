"""Carrying-simplex existence checks (A1)-(A3) and the Ricker closed form.

(A1) all partials dF_i/dx_j strictly negative, (A2) positive axial fixed
points, (A3) at each sampled x in [0,w]\\{0} and each supported species i,
at least one of

    F_i(x) + sum_{j in supp} x_j dF_i/dx_j,
    F_i(x) + sum_{j in supp} x_i dF_i/dx_j

is strictly positive.  The checks sample a stratified grid (one stratum per
nonempty support) and report worst-case margins; they are honest sampled
verdicts, not rigorous enclosures.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .analysis import NoAxialFixedPointError, find_axial_fixed_points
from .models import CompetitiveMap, ParameterSet

__all__ = [
    "CheckResult",
    "ExistenceReport",
    "check_A1",
    "check_A2",
    "check_A3",
    "ricker_condition",
    "verify_existence",
    "axial_caps",
]

DEFAULT_GRID = 25
# (A1) samples [0, w(1 + _A1_PAD)], a margin beyond the order interval.
_A1_PAD = 0.1


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    margin: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExistenceReport:
    a1: CheckResult
    a2: CheckResult
    a3: CheckResult
    grid_resolution: int
    region: np.ndarray  # the order interval upper corner w

    @property
    def passed(self) -> bool:
        return self.a1.passed and self.a2.passed and self.a3.passed


def axial_caps(m: CompetitiveMap) -> np.ndarray:
    """Vector w of axial fixed point heights (the order interval [0, w])."""
    if m.params is not None:
        return 1.0 / np.diag(m.params.A)
    return np.array([r.location[r.support[0]] for r in find_axial_fixed_points(m)])


def _support_grid(w: np.ndarray, support: tuple[int, ...], grid: int) -> np.ndarray:
    """Points with the given support, coordinates on a regular grid over
    (0, w_i]."""
    n = w.shape[0]
    axes = [np.linspace(0.0, w[i], grid + 1)[1:] for i in support]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.zeros((mesh[0].size, n))
    for ax, i in zip(mesh, support):
        pts[:, i] = ax.ravel()
    return pts


def check_A1(m: CompetitiveMap, grid: int = DEFAULT_GRID) -> CheckResult:
    """All partials dF_i/dx_j < 0 on a grid over [0, w(1 + _A1_PAD)].

    margin is the maximum sampled partial; pass requires margin < 0.
    """
    w = axial_caps(m)
    axes = [np.linspace(0.0, wi * (1.0 + _A1_PAD), grid + 1) for wi in w]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([ax.ravel() for ax in mesh], axis=-1)
    dF = m.growth_jacobian(pts)
    margin = float(dF.max())
    return CheckResult(margin < 0.0, margin, {"samples": pts.shape[0]})


def check_A2(m: CompetitiveMap) -> CheckResult:
    """Every axis carries a fixed point w_i e_i with w_i > 0."""
    try:
        recs = find_axial_fixed_points(m)
    except NoAxialFixedPointError as exc:
        return CheckResult(False, float("-inf"), {"error": str(exc)})
    w = np.array([r.location[r.support[0]] for r in recs])
    return CheckResult(bool(np.all(w > 0)), float(w.min()), {"w": w})


def check_A3(m: CompetitiveMap, grid: int = DEFAULT_GRID) -> CheckResult:
    """Sampled verification of (A3) over [0,w]\\{0}, stratified by support.

    For each sample x and each i in supp(x) both alternative expressions are
    evaluated; the margin is the minimum over samples of max(expr1, expr2).
    """
    w = axial_caps(m)
    n = m.n
    worst = float("inf")
    worst_at = None
    count = 0
    for k in range(1, n + 1):
        for support in combinations(range(n), k):
            pts = _support_grid(w, support, grid)
            count += pts.shape[0]
            F = m.growth(pts)
            dF = m.growth_jacobian(pts)
            idx = list(support)
            # expr1_i = F_i + sum_j x_j dF_ij  (off-support terms vanish with x_j = 0)
            expr1 = F + np.einsum("...ij,...j->...i", dF, pts)
            # expr2_i = F_i + x_i sum_{j in supp} dF_ij
            expr2 = F + pts * dF[..., idx].sum(axis=-1)
            best = np.maximum(expr1[:, idx], expr2[:, idx])
            bmin = float(best.min())
            if bmin < worst:
                worst = bmin
                worst_at = pts[int(np.argmin(best)) // len(idx)].copy()
    return CheckResult(worst > 0.0, worst, {"samples": count, "worst_at": worst_at})


def ricker_condition(params: ParameterSet) -> CheckResult:
    """Closed-form sufficient condition for the Ricker model: per species,
    r_i < a_ii / sum_j a_ij  or  r_i < 1 / (sum_j a_ij / a_jj)."""
    r, A = params.r, params.A
    diag = np.diag(A)
    t1 = diag / A.sum(axis=1)
    t2 = 1.0 / (A / diag[None, :]).sum(axis=1)
    per_species = (r < t1) | (r < t2)
    margin = float(np.max(np.stack([t1 - r, t2 - r]), axis=0).min())
    return CheckResult(
        bool(np.all(per_species)),
        margin,
        {"threshold_self": t1, "threshold_cross": t2, "per_species": per_species},
    )


def verify_existence(m: CompetitiveMap, grid: int = DEFAULT_GRID) -> ExistenceReport:
    """Run (A1)-(A3) and bundle the verdicts."""
    a2 = check_A2(m)
    if not a2.passed:
        zero = CheckResult(False, float("-inf"), {"skipped": "no axial fixed points"})
        return ExistenceReport(zero, a2, zero, grid, np.full(m.n, np.nan))
    w = axial_caps(m)
    a1 = check_A1(m, grid=grid)
    a3 = check_A3(m, grid=grid)
    return ExistenceReport(a1, a2, a3, grid, w)
