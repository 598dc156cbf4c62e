"""Table-based classification of 3x3 interaction matrices."""
from __future__ import annotations

import warnings
from itertools import permutations

import numpy as np
import pytest

from csimplex.classify import (
    CLASS_RULES,
    DEGENERACY_BAND,
    AlphaBeta,
    ClassificationResult,
    DegenerateDenominatorError,
    OUT_OF_TABULATED_RANGE,
    TieOnBoundaryError,
    _MARGIN_KEYS,
    _OUTCOMES,
    _PERMS,
    _decide_block,
    classify_table1,
    classify_table1_batch,
    compute_alpha_beta,
)
from conftest import A_CLASS19, ANCHOR_MATRICES


def brute_force_matches(A: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
    """Independent oracle: literal transcription of the seven inequality
    systems, evaluated for every relabeling with no early exit."""
    rules = {
        19: ([("12", 1), ("13", 1), ("21", -1), ("23", -1), ("31", -1), ("32", -1)],
             [("s1", -1)]),
        20: ([("12", -1), ("13", -1), ("21", -1), ("23", -1), ("31", 1), ("32", -1)],
             [("s1", -1), ("s3", -1)]),
        21: ([("12", -1), ("13", -1), ("21", -1), ("23", 1), ("31", -1), ("32", 1)],
             [("s1", 1), ("s2", -1), ("s3", -1)]),
        22: ([("12", 1), ("13", 1), ("21", -1), ("23", -1), ("31", 1), ("32", -1)],
             [("s1", -1), ("s2", 1)]),
        23: ([("12", 1), ("13", 1), ("21", 1), ("23", 1), ("31", -1), ("32", -1)],
             [("s3", 1)]),
        24: ([("12", 1), ("13", 1), ("21", 1), ("23", 1), ("31", -1), ("32", 1)],
             [("s1", 1), ("s3", 1)]),
        25: ([("12", 1), ("13", 1), ("21", 1), ("23", -1), ("31", 1), ("32", -1)],
             [("s1", -1), ("s2", 1), ("s3", 1)]),
    }
    matches = []
    for perm in permutations(range(3)):
        P = A[np.ix_(perm, perm)]
        alpha = {}
        beta = {}
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                alpha[f"{i+1}{j+1}"] = P[i, i] - P[j, i]
                beta[f"{i+1}{j+1}"] = (P[j, j] - P[i, j]) / (
                    P[i, i] * P[j, j] - P[i, j] * P[j, i]
                )
        sums = {
            "s1": P[0, 1] * beta["23"] + P[0, 2] * beta["32"],
            "s2": P[1, 0] * beta["13"] + P[1, 2] * beta["31"],
            "s3": P[2, 0] * beta["12"] + P[2, 1] * beta["21"],
        }
        for cid, (alpha_rules, sum_rules) in rules.items():
            ok = all(sign * alpha[key] > 0 for key, sign in alpha_rules)
            ok = ok and all(sign * (sums[key] - 1.0) > 0 for key, sign in sum_rules)
            if ok:
                matches.append((cid, perm))
    return matches


_PAIRS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def loop_alpha_beta(A: np.ndarray) -> AlphaBeta:
    """Per-entry loop reference for the alpha/beta tables of a finite
    positive matrix."""
    alpha = np.full((3, 3), np.nan)
    beta = np.full((3, 3), np.nan)
    scale = float(np.max(A)) ** 2
    for i, j in _PAIRS:
        alpha[i, j] = A[i, i] - A[j, i]
        den = A[i, i] * A[j, j] - A[i, j] * A[j, i]
        if abs(den) < 1e-12 * scale:
            raise DegenerateDenominatorError(
                f"a_{i+1}{i+1} a_{j+1}{j+1} - a_{i+1}{j+1} a_{j+1}{i+1} vanishes"
            )
        beta[i, j] = (A[j, j] - A[i, j]) / den
    return AlphaBeta(alpha=alpha, beta=beta)


def loop_classify(A: np.ndarray, band: float = DEGENERACY_BAND):
    """Per-row loop reference for classify_table1 on a finite positive
    matrix: scan relabelings x classes with dicts, return the result or the
    exception it refuses with."""
    alpha_band = band * float(np.max(np.abs(A)))
    ambiguous = []
    try:
        for perm in permutations(range(3)):
            P = A[np.ix_(perm, perm)]
            ab = loop_alpha_beta(P)
            b = ab.beta
            sums = {
                "inv1": P[0, 1] * b[1, 2] + P[0, 2] * b[2, 1],
                "inv2": P[1, 0] * b[0, 2] + P[1, 2] * b[2, 0],
                "inv3": P[2, 0] * b[0, 1] + P[2, 1] * b[1, 0],
            }
            for class_id, rules in CLASS_RULES.items():
                margins = {}
                for sign, (i, j) in zip(rules["signs"], _PAIRS):
                    margins[f"alpha_{i+1}{j+1}"] = sign * ab.alpha[i, j]
                for key, rel in rules["sums"].items():
                    margins[key] = (1.0 - sums[key]) if rel == "<" else (sums[key] - 1.0)
                decided = []
                for key, val in margins.items():
                    bd = alpha_band if key.startswith("alpha") else band
                    decided.append(1 if val > bd else (-1 if val < -bd else 0))
                if all(d > 0 for d in decided):
                    if ambiguous:
                        raise TieOnBoundaryError(
                            f"candidates {ambiguous} sit on the boundary ahead of a "
                            f"clean match for class {class_id}; refusing to classify"
                        )
                    return ClassificationResult(class_id, tuple(perm), ab, margins)
                if all(d >= 0 for d in decided) and any(d == 0 for d in decided):
                    ambiguous.append((class_id, perm))
        if ambiguous:
            raise TieOnBoundaryError(
                f"margins within {band:g} of zero for candidates {ambiguous}; "
                "refusing to classify"
            )
    except (DegenerateDenominatorError, TieOnBoundaryError) as exc:
        return exc
    ab = loop_alpha_beta(A)
    signs = {f"alpha_{i+1}{j+1}": float(np.sign(ab.alpha[i, j])) for i, j in _PAIRS}
    return ClassificationResult(OUT_OF_TABULATED_RANGE, (0, 1, 2), ab, signs)


def assert_same_outcome(got, want):
    """Equal class, permutation, margin keys in order, and bit-identical
    margins and tables (NaN diagonals included); or the same exception."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, ClassificationResult)
    assert got.class_id == want.class_id and type(got.class_id) is type(want.class_id)
    assert got.permutation == want.permutation
    assert list(got.margins) == list(want.margins)
    assert [float(v).hex() for v in got.margins.values()] == [
        float(v).hex() for v in want.margins.values()
    ]
    assert got.alpha_beta.alpha.tobytes() == want.alpha_beta.alpha.tobytes()
    assert got.alpha_beta.beta.tobytes() == want.alpha_beta.beta.tobytes()


def oracle_rows() -> np.ndarray:
    """Uniform rows, one-decimal rows (ties), degenerate rows (all entries
    equal; a_ii a_jj = a_ij a_ji exactly with powers of two) and jittered
    anchor matrices."""
    rng = np.random.default_rng(53)
    rows = [rng.uniform(0.2, 3.0, (3, 3)) for _ in range(300)]
    rows += [np.round(rng.uniform(0.2, 3.0, (3, 3)), 1) for _ in range(400)]
    for k in range(40):
        if k % 2 == 0:
            rows.append(np.full((3, 3), rng.uniform(0.2, 3.0)))
        else:
            A = rng.uniform(0.2, 3.0, (3, 3))
            i, j = sorted(rng.choice(3, 2, replace=False))
            p, q, s = rng.integers(-1, 2, 3)
            A[i, i], A[j, j], A[i, j], A[j, i] = 2.0**p, 2.0**q, 2.0**s, 2.0**(p + q - s)
            rows.append(A)
    for k in range(240):
        A = np.asarray(ANCHOR_MATRICES[k % len(ANCHOR_MATRICES)][1])
        rows.append(A * np.exp(rng.normal(0.0, 0.05, (3, 3))))
    return np.array(rows)


class TestBatchKernel:
    def test_matches_loop_reference(self):
        As = oracle_rows()
        got = classify_table1_batch(As)
        want = [loop_classify(A) for A in As]
        for g, w in zip(got, want):
            assert_same_outcome(g, w)
        kinds = {type(w).__name__ for w in want}
        assert {"ClassificationResult", "TieOnBoundaryError",
                "DegenerateDenominatorError"} <= kinds
        assert any(isinstance(w, ClassificationResult) and not w.tabulated for w in want)

    def test_other_band_matches_loop_reference(self):
        As = oracle_rows()[::3]
        for g, w in zip(classify_table1_batch(As, band=0.05), [loop_classify(A, 0.05) for A in As]):
            assert_same_outcome(g, w)

    def test_margin_equal_to_band(self):
        """A margin exactly at the band is undecided, for alpha margins
        (band scaled by max|A|, here below 1) and for invasion-sum margins."""
        rng = np.random.default_rng(59)
        checked = 0
        for A in rng.uniform(0.2, 1.0, (150, 3, 3)):
            res = loop_classify(A)
            if not isinstance(res, ClassificationResult) or not res.tabulated:
                continue
            for band in res.margins.values():
                (got,) = classify_table1_batch(A[None], band)
                assert_same_outcome(got, loop_classify(A, band))
                checked += 1
        assert checked > 50

    def test_batch_equals_single_calls(self):
        As = oracle_rows()[::4]
        for A, got in zip(As, classify_table1_batch(As)):
            try:
                want = classify_table1(A)
            except (ValueError, DegenerateDenominatorError, TieOnBoundaryError) as exc:
                want = exc
            assert_same_outcome(got, want)
        assert classify_table1_batch(np.empty((0, 3, 3))) == []

    @staticmethod
    def mixed_rows() -> np.ndarray:
        """1,025 oracle rows, shuffled, behind a class-19 row, a tie, an
        all-equal (degenerate) row, one out of the tabulated range and a NaN
        row."""
        tie = A_CLASS19.copy()
        tie[1, 0] = tie[0, 0]
        out_of_range = np.array([[1.0, 0.2, 0.2], [0.2, 1.0, 0.2], [0.2, 0.2, 1.0]])
        head = np.array([A_CLASS19, tie, np.full((3, 3), 2.0), out_of_range, np.full((3, 3), np.nan)])
        rows = oracle_rows()
        rows = rows[np.random.default_rng(61).permutation(len(rows))]
        return np.concatenate([head, rows, rows[:1025 - len(head) - len(rows)]])

    def test_blocks_of_1_2_and_1025_match_single_calls(self):
        As = self.mixed_rows()
        assert len(As) == 1025
        blocks = [*np.split(As[:40], 40), *np.split(As[40:80], 20), As]
        for block in blocks:
            for A, got in zip(block, classify_table1_batch(block)):
                try:
                    want = classify_table1(A)
                except (ValueError, DegenerateDenominatorError, TieOnBoundaryError) as exc:
                    want = exc
                assert_same_outcome(got, want)
        kinds = {type(r).__name__ if isinstance(r, Exception) else r.tabulated
                 for r in classify_table1_batch(As[:5])}
        assert kinds == {True, False, "TieOnBoundaryError", "DegenerateDenominatorError", "ValueError"}

    def test_decided_values_match_results(self):
        """_decide_block's per-row values are those read off the results of
        classify_table1_batch: the exception, or the class and permutation
        of the row's outcome and the margins under its keys (keys in order,
        values bit for bit), with the tables' relabeling equal to the
        permutation."""
        for As, band in [(oracle_rows(), DEGENERACY_BAND), (oracle_rows()[::3], 0.05),
                         (self.mixed_rows(), DEGENERACY_BAND)]:
            block = _decide_block(As, band)
            results = classify_table1_batch(As, band)
            assert len(block.errors) == len(block.outcomes) == len(block.values) == len(results)
            for k, res in enumerate(results):
                error, t, values = block.errors[k], block.outcomes[k], block.values[k]
                if isinstance(res, Exception):
                    assert type(error) is type(res) and str(error) == str(res)
                    continue
                assert error is None
                assert _OUTCOMES[t] == (res.class_id, res.permutation)
                assert type(_OUTCOMES[t][0]) is type(res.class_id)
                keys = _MARGIN_KEYS[t]
                assert list(keys) == list(res.margins)
                assert [v.hex() for v in values[:len(keys)]] == [v.hex() for v in res.margins.values()]
                if res.tabulated:
                    assert _PERMS[block.relabeling[k]] == res.permutation

    def test_results_own_their_tables(self):
        """Writing one result's tables leaves every other row's, and those of
        a second call, unchanged."""
        As = self.mixed_rows()[:200]
        results = [r for r in classify_table1_batch(As) if isinstance(r, ClassificationResult)]
        assert {r.tabulated for r in results} == {True, False}
        before = [(r.alpha_beta.alpha.copy(), r.alpha_beta.beta.copy()) for r in results]
        for r in results:
            assert r.alpha_beta.alpha.base is None and r.alpha_beta.beta.base is None
        results[0].alpha_beta.alpha[...] = 7.0
        results[0].alpha_beta.beta[...] = -7.0
        for r, (alpha, beta) in zip(results[1:], before[1:]):
            assert r.alpha_beta.alpha.tobytes() == alpha.tobytes()
            assert r.alpha_beta.beta.tobytes() == beta.tobytes()
        again = [r for r in classify_table1_batch(As) if isinstance(r, ClassificationResult)]
        for r, (alpha, beta) in zip(again, before):
            assert r.alpha_beta.alpha.tobytes() == alpha.tobytes()
            assert r.alpha_beta.beta.tobytes() == beta.tobytes()

    def test_compute_alpha_beta_matches_loop_reference(self):
        for A in oracle_rows():
            try:
                want = loop_alpha_beta(A)
            except DegenerateDenominatorError as exc:
                with pytest.raises(DegenerateDenominatorError, match=str(exc)):
                    compute_alpha_beta(A)
                continue
            got = compute_alpha_beta(A)
            assert got.alpha.tobytes() == want.alpha.tobytes()
            assert got.beta.tobytes() == want.beta.tobytes()

    def test_no_warning_escapes(self):
        bad = np.array([np.full((3, 3), np.nan), np.full((3, 3), np.inf),
                        np.full((3, 3), 1e308), -np.ones((3, 3)), np.full((3, 3), 1e-200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = classify_table1_batch(np.concatenate([oracle_rows(), bad]))
            # unscaled, the products would underflow to 0/0
            with pytest.raises(DegenerateDenominatorError):
                compute_alpha_beta(np.full((3, 3), 1e-200))
        assert all(isinstance(o, ValueError) for o in out[-5:-1])

    @pytest.mark.parametrize("value, message", [
        (np.nan, "entries must be finite"),
        (np.inf, "entries must be finite"),
        (1e308, "the squared maximum overflows"),
        (0.0, "entries must be positive"),
        (-np.inf, "entries must be positive"),
    ], ids=["nan", "inf", "1e308", "zero", "minus_inf"])
    def test_bad_entry_refused(self, value, message):
        A = A_CLASS19.copy()
        A[1, 2] = value
        with pytest.raises(ValueError, match=message):
            classify_table1(A)
        with pytest.raises(ValueError, match=message):
            compute_alpha_beta(A)

    def test_non_3x3_refused(self):
        with pytest.raises(ValueError):
            classify_table1(np.ones((4, 4)))
        with pytest.raises(ValueError):
            classify_table1_batch(np.ones((2, 3, 4)))


class TestAlphaBeta:
    def test_reference_values(self):
        ab = compute_alpha_beta(A_CLASS19)
        assert ab.alpha[0, 1] == pytest.approx(0.5)
        assert ab.alpha[0, 2] == pytest.approx(0.5)
        assert ab.alpha[1, 0] == pytest.approx(-0.2)
        assert ab.alpha[1, 2] == pytest.approx(-1.0)
        assert ab.alpha[2, 0] == pytest.approx(-0.2)
        assert ab.alpha[2, 1] == pytest.approx(-1.0)
        assert ab.beta[1, 2] == pytest.approx(1.0 / 3.0)
        assert ab.beta[2, 1] == pytest.approx(1.0 / 3.0)

    def test_all_equal_matrix_degenerate(self):
        with pytest.raises(DegenerateDenominatorError):
            compute_alpha_beta(np.ones((3, 3)))

    @pytest.mark.parametrize("s", [1e-10, 1e-200, 2.0**-600], ids=["1e-10", "1e-200", "2^-600"])
    def test_tiny_scale_matches_classify(self, s):
        """The tables come from the same rescaled matrix as classify_table1's,
        so they stay finite where unscaled determinants would underflow."""
        got = compute_alpha_beta(s * A_CLASS19)
        want = classify_table1(s * A_CLASS19).alpha_beta
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isfinite(got.alpha[off])) and np.all(np.isfinite(got.beta[off]))
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.beta.tobytes() == want.beta.tobytes()

    def test_relabeling_permutes_tables(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(0.5, 2.0, (3, 3))
        ab = compute_alpha_beta(A)
        perm = (2, 0, 1)
        ab_p = compute_alpha_beta(A[np.ix_(perm, perm)])
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                assert ab_p.alpha[i, j] == pytest.approx(ab.alpha[perm[i], perm[j]])
                assert ab_p.beta[i, j] == pytest.approx(ab.beta[perm[i], perm[j]])


class TestClassify:
    def test_reference_is_class_19_identity(self):
        res = classify_table1(A_CLASS19)
        assert res.class_id == 19
        assert res.permutation == (0, 1, 2)
        assert res.margins["inv1"] == pytest.approx(0.2, abs=1e-12)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(41)
        seen = 0
        for _ in range(400):
            A = rng.uniform(0.2, 3.0, (3, 3))
            matches = brute_force_matches(A)
            try:
                res = classify_table1(A)
            except (DegenerateDenominatorError, TieOnBoundaryError):
                continue
            if res.tabulated:
                seen += 1
                assert (res.class_id, res.permutation) in matches
                assert all(cid == res.class_id for cid, _ in matches)
            else:
                assert not matches
        assert seen > 20

    def test_no_double_match_within_permutation(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            A = rng.uniform(0.2, 3.0, (3, 3))
            try:
                matches = brute_force_matches(A)
            except ZeroDivisionError:
                continue
            per_perm: dict[tuple, list[int]] = {}
            for cid, perm in matches:
                per_perm.setdefault(perm, []).append(cid)
            for cids in per_perm.values():
                assert len(cids) == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(47)
        count = 0
        while count < 100:
            A = rng.uniform(0.2, 3.0, (3, 3))
            try:
                res = classify_table1(A)
            except (DegenerateDenominatorError, TieOnBoundaryError):
                continue
            count += 1
            perm = tuple(rng.permutation(3))
            res_p = classify_table1(A[np.ix_(perm, perm)])
            assert res_p.class_id == res.class_id

    def test_scale_invariance(self):
        """The alpha band and the determinant threshold scale with A, so a
        multiple of the reference, however small, is class 19 with the same
        permutation and margins scaled by s, exactly for a power of two."""
        res = classify_table1(A_CLASS19)
        for s in (0.01, 0.5, 7.0, 300.0, 1e-10, 1e-200, 2.0**-600):
            got = classify_table1(s * A_CLASS19)
            assert (got.class_id, got.permutation) == (res.class_id, res.permutation)
            want = {k: s * v if k.startswith("alpha") else v for k, v in res.margins.items()}
            assert got.margins == pytest.approx(want, rel=1e-12)
            if s in (0.5, 2.0**-600):
                assert got.margins == want
                np.testing.assert_array_equal(got.alpha_beta.alpha, s * res.alpha_beta.alpha)
                np.testing.assert_array_equal(got.alpha_beta.beta, res.alpha_beta.beta / s)

    def test_all_equal_refused(self):
        # at 1e-200 the determinants underflow to 0, and so would the
        # threshold 1e-12 max|A|^2 without rescaling A: degenerate, not a tie
        for value in (2.5, 1e-200):
            with pytest.raises(DegenerateDenominatorError):
                classify_table1(np.full((3, 3), value))

    def test_boundary_tie_refused(self):
        A = A_CLASS19.copy()
        A[1, 0] = A[0, 0]  # forces alpha_12 = 0 exactly
        with pytest.raises(TieOnBoundaryError):
            classify_table1(A)

    def test_out_of_tabulated_range_reports_signs(self):
        # mutualistic-looking column dominance matches no tabulated class
        A = np.array([[1.0, 0.2, 0.2], [0.2, 1.0, 0.2], [0.2, 0.2, 1.0]])
        res = classify_table1(A)
        assert res.class_id == OUT_OF_TABULATED_RANGE
        assert not res.tabulated
        assert set(res.margins) == {
            "alpha_12", "alpha_13", "alpha_21", "alpha_23", "alpha_31", "alpha_32",
        }
