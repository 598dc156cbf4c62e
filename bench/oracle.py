"""Independent brute-force oracle for the regime classification.

A literal transcription of the seven inequality systems (classes 19-25),
evaluated for every relabeling with no early exit and no shared code with
``csimplex.classify``.  It says what the classifier must answer for a row:
the first strict match in scan order, "out of range" when nothing matches,
or that the row must be refused.
"""
from __future__ import annotations

from itertools import permutations

# Per class: required sign of alpha_ij = a_ii - a_ji, and of (s_k - 1) for the
# invasion sums s1 = a12 b23 + a13 b32, s2 = a21 b13 + a23 b31,
# s3 = a31 b12 + a32 b21 with b_ij = (a_jj - a_ij) / (a_ii a_jj - a_ij a_ji).
RULES = {
    19: ({"12": 1, "13": 1, "21": -1, "23": -1, "31": -1, "32": -1}, {"s1": -1}),
    20: ({"12": -1, "13": -1, "21": -1, "23": -1, "31": 1, "32": -1}, {"s1": -1, "s3": -1}),
    21: ({"12": -1, "13": -1, "21": -1, "23": 1, "31": -1, "32": 1},
         {"s1": 1, "s2": -1, "s3": -1}),
    22: ({"12": 1, "13": 1, "21": -1, "23": -1, "31": 1, "32": -1}, {"s1": -1, "s2": 1}),
    23: ({"12": 1, "13": 1, "21": 1, "23": 1, "31": -1, "32": -1}, {"s3": 1}),
    24: ({"12": 1, "13": 1, "21": 1, "23": 1, "31": -1, "32": 1}, {"s1": 1, "s3": 1}),
    25: ({"12": 1, "13": 1, "21": 1, "23": -1, "31": 1, "32": -1},
         {"s1": -1, "s2": 1, "s3": 1}),
}

# The classifier's refusal band: alpha margins scale with max(1, max a_ij),
# invasion-sum margins are dimensionless.
BAND = 1e-10

REFUSE = "refuse"
OUT_OF_RANGE = "out_of_tabulated_range"


def expected(a: list[float]) -> tuple[object, str | None, bool]:
    """(verdict, permutation string or None, clear) for a row a11..a33.

    verdict is a class id, OUT_OF_RANGE or REFUSE (some 2x2 block
    a_ii a_jj - a_ij a_ji is exactly zero).  ``clear`` is True when every
    margin of every candidate lies outside the refusal band, in which case
    the classifier has no licence to refuse the row.
    """
    A = [a[0:3], a[3:6], a[6:9]]
    scale = max(1.0, max(abs(v) for v in a))
    first = None
    clear = True
    for perm in permutations(range(3)):
        P = [[A[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        alpha, beta = {}, {}
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                den = P[i][i] * P[j][j] - P[i][j] * P[j][i]
                if den == 0.0:
                    return REFUSE, None, False
                alpha[f"{i+1}{j+1}"] = P[i][i] - P[j][i]
                beta[f"{i+1}{j+1}"] = (P[j][j] - P[i][j]) / den
        sums = {
            "s1": P[0][1] * beta["23"] + P[0][2] * beta["32"],
            "s2": P[1][0] * beta["13"] + P[1][2] * beta["31"],
            "s3": P[2][0] * beta["12"] + P[2][1] * beta["21"],
        }
        for cid, (alpha_rules, sum_rules) in RULES.items():
            margins = [sign * alpha[key] for key, sign in alpha_rules.items()]
            bands = [BAND * scale] * len(margins)
            margins += [sign * (sums[key] - 1.0) for key, sign in sum_rules.items()]
            bands += [BAND] * len(sum_rules)
            if any(abs(m) <= b for m, b in zip(margins, bands)):
                clear = False
            if first is None and all(m > 0 for m in margins):
                first = (cid, "".join(str(p + 1) for p in perm))
    if first is None:
        return OUT_OF_RANGE, None, clear
    return first[0], first[1], clear


def judge(row_out: dict, want: tuple[object, str | None, bool]) -> bool:
    """True when the classifier's output row agrees with the oracle."""
    verdict, perm, clear = want
    refused = bool(row_out["error"])
    if verdict == REFUSE:
        return refused
    if refused:
        return not clear
    if verdict == OUT_OF_RANGE:
        return row_out["class_id"] == OUT_OF_RANGE
    return row_out["class_id"] == verdict and row_out["permutation"] == perm
