"""Parameter-regime classification of 3x3 interaction matrices.

The tabulated classes 19-25 are strict sign patterns on the six off-diagonal
differences alpha_ij = a_ii - a_ji combined with strict inequalities on the
three invasion sums built from beta_ij = (a_jj - a_ij)/(a_ii a_jj - a_ij a_ji).
A matrix belongs to a class when some relabeling (permutation) of the three
species satisfies every inequality strictly.  Margins within a degeneracy
band are refused, never rounded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

__all__ = [
    "AlphaBeta",
    "ClassificationResult",
    "ClassifyError",
    "DegenerateDenominatorError",
    "TieOnBoundaryError",
    "OUT_OF_TABULATED_RANGE",
    "CLASS_RULES",
    "compute_alpha_beta",
    "classify_table1",
    "classify_table1_batch",
]

OUT_OF_TABULATED_RANGE = "out_of_tabulated_range"
DEGENERACY_BAND = 1e-10


class ClassifyError(RuntimeError):
    pass


class DegenerateDenominatorError(ClassifyError):
    """Some 2x2 block a_ii a_jj - a_ij a_ji vanishes; beta is undefined."""


class TieOnBoundaryError(ClassifyError):
    """Some decisive margin sits inside the degeneracy band; classification
    would not be stable under perturbation, so it is refused."""


@dataclass(frozen=True)
class AlphaBeta:
    """Off-diagonal tables alpha_ij = a_ii - a_ji and
    beta_ij = (a_jj - a_ij)/(a_ii a_jj - a_ij a_ji); diagonals are NaN."""

    alpha: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class ClassificationResult:
    class_id: int | str
    permutation: tuple[int, int, int]
    alpha_beta: AlphaBeta
    margins: dict[str, float] = field(default_factory=dict)

    @property
    def tabulated(self) -> bool:
        return isinstance(self.class_id, int)


# Sign pattern order: (alpha_12, alpha_13, alpha_21, alpha_23, alpha_31, alpha_32).
# Sum conditions compare a_12 b_23 + a_13 b_32 ("inv1"), a_21 b_13 + a_23 b_31
# ("inv2"), a_31 b_12 + a_32 b_21 ("inv3") against 1.
CLASS_RULES: dict[int, dict] = {
    19: {"signs": (+1, +1, -1, -1, -1, -1), "sums": {"inv1": "<"}},
    20: {"signs": (-1, -1, -1, -1, +1, -1), "sums": {"inv1": "<", "inv3": "<"}},
    21: {"signs": (-1, -1, -1, +1, -1, +1), "sums": {"inv1": ">", "inv2": "<", "inv3": "<"}},
    22: {"signs": (+1, +1, -1, -1, +1, -1), "sums": {"inv1": "<", "inv2": ">"}},
    23: {"signs": (+1, +1, +1, +1, -1, -1), "sums": {"inv3": ">"}},
    24: {"signs": (+1, +1, +1, +1, -1, +1), "sums": {"inv1": ">", "inv3": ">"}},
    25: {"signs": (+1, +1, +1, -1, +1, -1), "sums": {"inv1": "<", "inv2": ">", "inv3": ">"}},
}

_ALPHA_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_ALPHA_KEYS = tuple(f"alpha_{i+1}{j+1}" for i, j in _ALPHA_PAIRS)
_PAIR_I, _PAIR_J = np.array(_ALPHA_PAIRS).T
_DIAG = np.arange(3)
# Invasion sum k is a_kj b_jl + a_kl b_lj over the other two species j < l.
_SUM_J, _SUM_L = np.array([1, 0, 0]), np.array([2, 2, 1])
_SUM_KEYS = ("inv1", "inv2", "inv3")

# The six relabelings in lexicographic order, and the (class, permutation)
# candidates in scan order: permutation-major.  Relabeling p maps entry
# (i, j) of any table to entry (p_i, p_j) of the identity labelling's table.
_PERMS = tuple(permutations(range(3)))
_P = np.array(_PERMS)  # (6, 3)
_PERM_ROWS, _PERM_COLS = _P[:, :, None], _P[:, None, :]
_CANDIDATES = tuple((cid, perm) for perm in _PERMS for cid in CLASS_RULES)
_N_CLASSES = len(CLASS_RULES)

# Per class: the sign each alpha margin carries, and per invasion sum +1 for
# ">" (margin s - 1), -1 for "<" (margin 1 - s), 0 when the class has no
# condition on it.
_SIGNS = np.array([rules["signs"] for rules in CLASS_RULES.values()], dtype=float)
_SUM_REL = np.array(
    [[{">": 1, "<": -1}.get(rules["sums"].get(key), 0) for key in _SUM_KEYS]
     for rules in CLASS_RULES.values()]
)


def _tables(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha_ij = p_ii - p_ji, den_ij = p_ii p_jj - p_ij p_ji and
    beta_ij = (p_jj - p_ij)/den_ij for matrices P (..., 3, 3), each entry
    one elementwise float expression; alpha and beta have NaN diagonals."""
    d = np.diagonal(P, axis1=-2, axis2=-1)
    PT = np.swapaxes(P, -1, -2)
    alpha = d[..., :, None] - PT
    den = d[..., :, None] * d[..., None, :] - P * PT
    beta = (d[..., None, :] - P) / den
    alpha[..., _DIAG, _DIAG] = np.nan
    beta[..., _DIAG, _DIAG] = np.nan
    return alpha, den, beta


def _refusals(As: np.ndarray, S: np.ndarray, den: np.ndarray) -> list[Exception | None]:
    """Why each matrix of As (K, 3, 3) has no alpha/beta tables, or None.
    den (K, 3, 3) holds the 2x2 determinants of S, As or As rescaled by
    powers of two; they vanish below 1e-12 times the squared maximum of S.
    The first vanishing determinant is reported in (i, j) loop order."""
    nonpositive = np.any(As <= 0, axis=(1, 2)).tolist()
    nonfinite = (~np.all(np.isfinite(As), axis=(1, 2))).tolist()
    overflow = np.isinf(np.max(As, axis=(1, 2)) ** 2).tolist()
    scale = np.max(S, axis=(1, 2)) ** 2
    vanishing = np.abs(den[:, _PAIR_I, _PAIR_J]) < 1e-12 * scale[:, None]
    first = np.where(vanishing.any(axis=1), np.argmax(vanishing, axis=1), -1).tolist()
    out: list[Exception | None] = []
    for k in range(len(As)):
        if nonpositive[k]:
            out.append(ValueError("entries must be positive"))
        elif nonfinite[k]:
            out.append(ValueError("entries must be finite"))
        elif overflow[k]:
            out.append(ValueError("entries too large: the squared maximum overflows"))
        elif first[k] >= 0:
            i, j = _ALPHA_PAIRS[first[k]]
            out.append(DegenerateDenominatorError(
                f"a_{i+1}{i+1} a_{j+1}{j+1} - a_{i+1}{j+1} a_{j+1}{i+1} vanishes"
            ))
        else:
            out.append(None)
    return out


def _as_3x3(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError("classification is defined for 3x3 matrices")
    return A


def _scaled_tables(As: np.ndarray):
    """(e, S, alpha, beta, refusals) for matrices As (K, 3, 3).

    S = As 2^-e, with e (K, 1, 1) the binary exponent of max|A|, so that
    max|S| lies in [1/2, 1); alpha and beta are the tables of S and refusals
    those of As.  Scaling by a power of two is exact, so the determinant
    threshold cannot underflow, and the tables of A are alpha 2^e and
    beta 2^-e."""
    with np.errstate(all="ignore"):
        e = np.frexp(np.max(np.abs(As), axis=(1, 2)))[1][:, None, None]
        S = np.ldexp(As, -e)
        alpha, den, beta = _tables(S)
        return e, S, alpha, beta, _refusals(As, S, den)


def compute_alpha_beta(A: np.ndarray) -> AlphaBeta:
    """Exact alpha/beta tables for a positive 3x3 matrix, computed on the
    rescaled matrix as in ``classify_table1_batch``.

    Raises ValueError for a non-positive, non-finite or overflowing entry and
    DegenerateDenominatorError when some a_ii a_jj - a_ij a_ji vanishes.
    """
    e, _, alpha, beta, (refusal,) = _scaled_tables(_as_3x3(A)[None])
    if refusal is not None:
        raise refusal
    with np.errstate(all="ignore"):
        return AlphaBeta(alpha=np.ldexp(alpha[0], e[0]), beta=np.ldexp(beta[0], -e[0]))


def classify_table1_batch(
    As: np.ndarray, band: float = DEGENERACY_BAND
) -> list[ClassificationResult | ValueError | ClassifyError]:
    """``classify_table1`` for every matrix of As (K, 3, 3) at once.

    Item k is the ClassificationResult of As[k], or the exception that
    ``classify_table1(As[k], band)`` raises, with the same message.  All
    six relabelings and seven classes are decided in array operations; only
    the assembly of each row's result is a loop over rows.  The tables of a
    relabeled matrix are gathered from those of the matrix, which is exact:
    each entry is one expression in the same four entries.

    The decisions are made on A 2^-e, with e the binary exponent of max|A|,
    so that max|A 2^-e| lies in [1/2, 1).  Scaling by a power of two is
    exact, so the alpha band is band * max|A| at every scale and the
    determinant threshold cannot underflow; margins and tables are those of
    A, scaled back.
    """
    As = np.asarray(As, dtype=float)
    if As.ndim != 3 or As.shape[1:] != (3, 3):
        raise ValueError("classification is defined for (K, 3, 3) stacks of matrices")
    e, S, alpha, beta, refusals = _scaled_tables(As)
    with np.errstate(all="ignore"):
        # every relabeling at once, gathered from the identity tables:
        # alpha_ij for i != j in _ALPHA_PAIRS order, (K, 6, 6) ...
        a = alpha[:, _P[:, _PAIR_I], _P[:, _PAIR_J]]
        # ... and the three invasion sums a_kj b_jl + a_kl b_lj, (K, 6, 3)
        pk, pj, pl = _P, _P[:, _SUM_J], _P[:, _SUM_L]
        sums = S[:, pk, pj] * beta[:, pj, pl] + S[:, pk, pl] * beta[:, pl, pj]
        above, below = sums - 1.0, 1.0 - sums
        # alpha margins scale with A, sum margins are dimensionless
        alpha_band = band * np.max(np.abs(S), axis=(1, 2))[:, None, None]
        # A margin is met above its band and failed below minus its band;
        # alpha margins are sign * alpha, so a sign of -1 swaps met and failed.
        met, failed = a > alpha_band, a < -alpha_band  # (K, 6, 6)
        a, alpha, beta = np.ldexp(a, e), np.ldexp(alpha, e), np.ldexp(beta, -e)
    plus = _SIGNS > 0  # (7, 6) against (K, 6, 1, 6)
    alpha_met = np.where(plus, met[:, :, None], failed[:, :, None]).all(axis=-1)
    alpha_failed = np.where(plus, failed[:, :, None], met[:, :, None]).any(axis=-1)
    gt, used = _SUM_REL > 0, _SUM_REL != 0  # (7, 3) against (K, 6, 1, 3)
    sum_met = np.where(gt, (above > band)[:, :, None], (below > band)[:, :, None])
    sum_failed = np.where(gt, (above < -band)[:, :, None], (below < -band)[:, :, None])
    match = alpha_met & (sum_met | ~used).all(axis=-1)  # (K, 6, 7)
    ambiguous = ~match & ~alpha_failed & ~(sum_failed & used).any(axis=-1)
    match = match.reshape(len(As), len(_CANDIDATES))
    ambiguous = ambiguous.reshape(len(As), len(_CANDIDATES))
    first = np.where(match.any(axis=1), np.argmax(match, axis=1), len(_CANDIDATES))
    tied = np.any(ambiguous & (np.arange(len(_CANDIDATES)) < first[:, None]), axis=1)

    out: list[ClassificationResult | ValueError | ClassifyError] = []
    for k, (refusal, t, is_tied) in enumerate(zip(refusals, first.tolist(), tied.tolist())):
        if refusal is not None:
            out.append(refusal)
        elif is_tied:
            ahead = [_CANDIDATES[c] for c in np.flatnonzero(ambiguous[k, :t])]
            if t < len(_CANDIDATES):
                # an earlier candidate could flip to a match under a
                # band-sized perturbation, changing the verdict
                msg = (f"candidates {ahead} sit on the boundary ahead of a clean match "
                       f"for class {_CANDIDATES[t][0]}; refusing to classify")
            else:
                msg = f"margins within {band:g} of zero for candidates {ahead}; refusing to classify"
            out.append(TieOnBoundaryError(msg))
        elif t < len(_CANDIDATES):
            p, c = divmod(t, _N_CLASSES)
            class_id, perm = _CANDIDATES[t]
            margins = dict(zip(_ALPHA_KEYS, (_SIGNS[c] * a[k, p]).tolist()))
            for key, rel, hi, lo in zip(_SUM_KEYS, _SUM_REL[c].tolist(),
                                        above[k, p].tolist(), below[k, p].tolist()):
                if rel:
                    margins[key] = hi if rel > 0 else lo
            rows, cols = _PERM_ROWS[p], _PERM_COLS[p]
            ab = AlphaBeta(alpha=alpha[k][rows, cols], beta=beta[k][rows, cols])
            out.append(ClassificationResult(class_id, perm, ab, margins))
        else:
            ab = AlphaBeta(alpha=alpha[k].copy(), beta=beta[k].copy())
            signs = dict(zip(_ALPHA_KEYS, np.sign(a[k, 0]).tolist()))
            out.append(ClassificationResult(OUT_OF_TABULATED_RANGE, (0, 1, 2), ab, signs))
    return out


def classify_table1(A: np.ndarray, band: float = DEGENERACY_BAND) -> ClassificationResult:
    """Scan the six relabelings in lexicographic order against the seven
    tabulated classes; return the first strict match.

    Raises TieOnBoundaryError when any candidate's verdict depends on a
    margin inside the degeneracy band, DegenerateDenominatorError when
    beta is undefined, and ValueError for a non-positive, non-finite or
    overflowing entry.  Matrices matching no tabulated class come back with
    class_id OUT_OF_TABULATED_RANGE and the identity permutation's sign
    pattern to aid a manual lookup.
    """
    (result,) = classify_table1_batch(_as_3x3(A)[None], band)
    if isinstance(result, Exception):
        raise result
    return result
