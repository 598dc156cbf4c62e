"""Fixed point location, spectra, condition (C1), on-simplex type, index."""
from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csimplex.analysis import (
    DegenerateSystemError,
    EigenvalueOneError,
    NoInteriorFixedPointError,
    NonHyperbolicError,
    SType,
    SingularJacobianError,
    boundary_sets,
    classify_on_S,
    eigen3,
    eigvec_for,
    find_all_fixed_points,
    find_axial_fixed_points,
    find_interior_fixed_point,
    find_planar_fixed_points,
    fixed_point_index,
    record_at,
    verify_C1,
)
from csimplex.classify import ClassifyError, classify_table1, compute_alpha_beta
from csimplex.existence import axial_caps
from csimplex.models import ParameterSet, make_custom, make_leslie_gower, make_ricker
from conftest import A_CLASS19, ANCHOR_MATRICES, build_model


def jacobi_eigenvalues(M: np.ndarray, sweeps: int = 50) -> np.ndarray:
    """Independent oracle: cyclic Jacobi rotations for symmetric matrices."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-15:
                    continue
                off += A[p, q] ** 2
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                R = np.eye(n)
                R[p, p] = R[q, q] = c
                R[p, q] = s
                R[q, p] = -s
                A = R.T @ A @ R
        if off < 1e-30:
            break
    return np.sort(np.diag(A))


def diag_map(growth_values) -> "make_custom":
    """Custom Kolmogorov map with constant growth; DT(0) = diag(growth)."""
    g = np.asarray(growth_values, dtype=float)

    def growth(x):
        return np.broadcast_to(g, np.shape(x)).copy()

    def growth_jac(x):
        return np.zeros((3, 3))

    return make_custom(3, growth, growth_jac)


class TestEigen3:
    def test_diagonal(self):
        vals = eigen3(np.diag([0.5, 0.9, 1.3]))
        assert np.allclose(vals, [0.5, 0.9, 1.3])
        assert np.all(vals.imag == 0.0)

    def test_rotation_block(self):
        M = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        vals = eigen3(M)
        assert np.allclose(sorted(np.abs(vals)), [1.0, 1.0, 2.0])
        assert np.allclose(sorted(v.imag for v in vals), [-1.0, 0.0, 1.0])

    def test_symmetric_against_jacobi_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            B = rng.normal(size=(3, 3))
            M = (B + B.T) / 2.0
            ours = np.sort(eigen3(M).real)
            assert np.max(np.abs(eigen3(M).imag)) < 1e-9
            oracle = jacobi_eigenvalues(M)
            assert np.max(np.abs(ours - oracle)) < 1e-9

    def test_char_poly_residual(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            M = rng.normal(size=(3, 3)) * 10 ** rng.uniform(-2, 2)
            for lam in eigen3(M):
                res = abs(np.linalg.det(M - lam * np.eye(3)))
                assert res < 1e-8 * (1.0 + np.linalg.norm(M) ** 3)

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            M = rng.normal(size=(3, 3))
            ours = sorted(eigen3(M), key=lambda z: (round(z.real, 9), z.imag))
            ref = sorted(np.linalg.eigvals(M), key=lambda z: (round(z.real, 9), z.imag))
            for a, b in zip(ours, ref):
                assert abs(a - b) < 1e-9 * (1.0 + np.max(np.abs(M)))

    def test_general_sizes(self):
        assert np.allclose(eigen3(np.array([[3.0]])), [3.0])
        assert np.allclose(eigen3(np.array([[2.0, 1.0], [0.0, 0.5]])), [0.5, 2.0])
        M4 = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(eigen3(M4), [1, 2, 3, 4])

    def test_sorted_by_modulus(self):
        vals = eigen3(np.diag([1.3, 0.5, -0.9]))
        assert np.all(np.diff(np.abs(vals)) >= 0)

    def test_eigvec_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            M = rng.normal(size=(3, 3))
            for lam in eigen3(M):
                v = eigvec_for(M, lam)
                assert np.linalg.norm(M @ v - lam * v) < 1e-9
                top = v[np.argmax(np.abs(v))]
                assert abs(top.imag) < 1e-15 and top.real > 0.0

    def test_ricker_axial_double_root(self):
        # README Ricker system at axial_1 = e_1: DT is block triangular with
        # exact spectrum {1 - r, e^{r/2}, e^{r/2}} for r = 0.2, a_21 = a_31 = 0.5.
        m = make_ricker(ParameterSet(r=np.full(3, 0.2), A=A_CLASS19))
        x = find_axial_fixed_points(m)[0].location
        DT = m.jacobian(x)
        vals = eigen3(DT)
        exact = np.array([0.8, np.exp(0.1), np.exp(0.1)])
        assert np.all(vals.imag == 0.0)
        assert np.max(np.abs(vals.real - exact) / exact) < 1e-14
        v = eigvec_for(DT, 0.8)
        assert v.dtype == float
        assert v[np.argmax(np.abs(v))] > 0.0
        assert np.linalg.norm(DT @ v - 0.8 * v) < 1e-14


class TestAxialPoints:
    def test_ricker_closed_form(self):
        A = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        m = make_ricker(ParameterSet(r=np.full(3, 0.2), A=A))
        recs = find_axial_fixed_points(m)
        assert recs[0].location[0] == pytest.approx(0.5)

    def test_leslie_gower_unit_diagonal(self):
        m = build_model("leslie_gower", A_CLASS19)
        recs = find_axial_fixed_points(m)
        w = [r.location[r.support[0]] for r in recs]
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_atkinson_allen_quarter(self):
        A = np.array([[1.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 1.0]])
        m = build_model("atkinson_allen", A)
        recs = find_axial_fixed_points(m)
        assert recs[1].location[1] == pytest.approx(0.25)

    def test_custom_map_newton_path(self):
        # same growth law as Leslie-Gower but supplied as a custom map
        ref = build_model("leslie_gower", A_CLASS19)
        m = make_custom(3, ref.growth, ref.growth_jacobian)
        recs = find_axial_fixed_points(m)
        for rec, wi in zip(recs, 1.0 / np.diag(A_CLASS19)):
            assert rec.location[rec.support[0]] == pytest.approx(wi, abs=1e-10)


class TestPlanarPoints:
    def test_symmetric_pair_closed_form(self):
        A = np.array([[1.0, 2.0, 0.7], [2.0, 1.0, 0.7], [0.7, 0.7, 1.0]])
        m = build_model("leslie_gower", A)
        rec = find_planar_fixed_points(m, (0, 1))
        assert rec is not None
        assert np.allclose(rec.location[:2], [1.0 / 3.0, 1.0 / 3.0])
        assert rec.location[2] == 0.0
        assert np.linalg.norm(m(rec.location) - rec.location) < 1e-12

    def test_degenerate_block(self):
        A = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        m = build_model("leslie_gower", A)
        with pytest.raises(DegenerateSystemError):
            find_planar_fixed_points(m, (0, 1))

    def test_absent_when_solution_not_positive(self):
        # strong asymmetric competition: the 2x2 solve goes negative
        A = np.array([[1.0, 3.0, 0.5], [0.2, 1.0, 0.5], [0.5, 0.5, 1.0]])
        sol = np.linalg.solve(A[:2, :2], np.ones(2))
        assert np.any(sol <= 0)
        m = build_model("leslie_gower", A)
        assert find_planar_fixed_points(m, (0, 1)) is None


class TestInteriorPoint:
    def test_reference_matrix(self):
        m = build_model("leslie_gower", A_CLASS19)
        rec = find_interior_fixed_point(m)
        assert np.allclose(rec.location, [1.0 / 3.0, 5.0 / 18.0, 5.0 / 18.0])
        assert np.linalg.norm(m(rec.location) - rec.location) < 1e-12

    def test_absent_when_solution_not_positive(self):
        A = np.array([[1.0, 3.0, 3.0], [0.2, 1.0, 0.2], [0.2, 0.2, 1.0]])
        assert np.any(np.linalg.solve(A, np.ones(3)) <= 0)
        m = build_model("leslie_gower", A)
        with pytest.raises(NoInteriorFixedPointError):
            find_interior_fixed_point(m)

    def test_custom_damped_newton(self):
        ref = build_model("ricker", A_CLASS19)
        m = make_custom(3, ref.growth, ref.growth_jacobian)
        rec = find_interior_fixed_point(m)
        assert np.allclose(rec.location, np.linalg.solve(A_CLASS19, np.ones(3)), atol=1e-9)


class TestC1:
    def test_diagonal_jacobian_fails(self):
        m = diag_map([0.5, 0.8, 1.2])
        rep = verify_C1(m, np.zeros(3))
        assert not rep.passed
        assert "non-positive" in rep.reason

    def test_reference_interior_passes(self):
        m = build_model("leslie_gower", A_CLASS19)
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        rep = verify_C1(m, q)
        assert rep.passed
        # independent oracle: direct inversion and entrywise check
        inv = np.linalg.inv(m.jacobian(q))
        assert inv.min() > 0.0
        assert rep.inverse_min_entry == pytest.approx(inv.min())
        assert 0.0 < rep.mu.real < 1.0
        assert np.all(rep.perron_vector > 0.0)

    def test_singular_jacobian(self):
        def growth(x):
            return np.stack([2.0 - x[..., 0], np.ones(np.shape(x)[:-1]),
                             np.ones(np.shape(x)[:-1])], axis=-1)

        def growth_jac(x):
            J = np.zeros((3, 3))
            J[0, 0] = -1.0
            return J

        m = make_custom(3, growth, growth_jac)
        x = np.array([1.0, 0.0, 0.0])  # fixed; DT = diag(0, 1, 1)
        assert np.allclose(m(x), x)
        with pytest.raises(SingularJacobianError):
            verify_C1(m, x)


class TestOnSimplexType:
    def test_saddle_pattern(self):
        assert classify_on_S([0.3, 0.7, 1.4]) == SType.SADDLE

    def test_attractor(self):
        assert classify_on_S([0.3, 0.5, 0.7]) == SType.ATTRACTOR

    def test_repeller(self):
        assert classify_on_S([0.3, 1.2, 1.4]) == SType.REPELLER

    def test_non_hyperbolic_refused(self):
        with pytest.raises(NonHyperbolicError):
            classify_on_S([0.3, 1.0, 1.4])

    def test_ignores_radial_eigenvalue_scale(self):
        # classification never reads mu beyond dropping it
        for mu in (0.01, 0.3, 0.69):
            assert classify_on_S([mu, 0.7, 1.4]) == SType.SADDLE


class TestIndex:
    def test_saddle_index_minus_one(self):
        assert fixed_point_index(diag_map([0.3, 0.7, 1.4]), np.zeros(3)) == -1

    def test_attractor_index_plus_one(self):
        assert fixed_point_index(diag_map([0.3, 0.5, 0.7]), np.zeros(3)) == 1

    def test_two_expanding_index_plus_one(self):
        assert fixed_point_index(diag_map([0.3, 1.2, 1.4]), np.zeros(3)) == 1

    def test_eigenvalue_one_refused(self):
        with pytest.raises(EigenvalueOneError):
            fixed_point_index(diag_map([0.3, 1.0, 1.4]), np.zeros(3))

    def test_sign_matches_eigenvalue_count(self):
        # cross-check of the two index computation paths on real spectra
        rng = np.random.default_rng(37)
        for _ in range(50):
            vals = rng.uniform(0.1, 2.0, 3)
            if np.any(np.abs(vals - 1.0) < 1e-3):
                continue
            idx = fixed_point_index(diag_map(vals), np.zeros(3))
            assert idx == (-1) ** int(np.sum(vals > 1.0))


class TestRecords:
    def test_reference_system_structure(self):
        m = build_model("leslie_gower", A_CLASS19)
        recs = find_all_fixed_points(m)
        by_name = {r.name: r for r in recs}
        assert set(by_name) == {
            "origin", "axial_1", "axial_2", "axial_3", "planar_23", "interior_123",
        }
        assert by_name["axial_1"].s_type == SType.REPELLER
        assert by_name["axial_2"].s_type == SType.ATTRACTOR
        assert by_name["axial_3"].s_type == SType.ATTRACTOR
        assert by_name["planar_23"].s_type == SType.REPELLER
        q = by_name["interior_123"]
        assert q.s_type == SType.SADDLE and q.index == -1 and q.c1_holds
        mods = np.abs(q.eigenvalues)
        assert mods[0] < mods[1] < 1.0 < mods[2]

    def test_boundary_sets(self):
        att, rep = boundary_sets(find_all_fixed_points(build_model("leslie_gower", A_CLASS19)))
        assert list(att) == ["axial_2", "axial_3"]
        assert list(rep) == ["axial_1", "planar_23"]
        # an interior attractor is not a boundary attractor
        weak = build_model("leslie_gower", [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
        recs = find_all_fixed_points(weak)
        assert next(r for r in recs if r.support_type == "interior").s_type == SType.ATTRACTOR
        att, rep = boundary_sets(recs)
        assert att == {} and list(rep) == ["axial_1", "axial_2", "axial_3"]

    @pytest.mark.parametrize("scale", [1e-6, 1e-90, 1e4])
    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    def test_records_equivariant_under_scaled_A(self, kind, scale):
        """A -> s A conjugates T by x -> x / s: the same records, with the
        same types, each located at x / s."""
        ref = find_all_fixed_points(build_model(kind, A_CLASS19))
        scaled = find_all_fixed_points(build_model(kind, scale * A_CLASS19))
        key = lambda recs: [(r.name, r.s_type, r.index) for r in recs]
        assert len(ref) == 6 and key(scaled) == key(ref)
        for a, b in zip(ref, scaled):
            np.testing.assert_allclose(b.location * scale, a.location, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("A", [A_CLASS19] + [A for _, A in ANCHOR_MATRICES],
                             ids=["class19"] + [f"anchor{k}" for k in range(len(ANCHOR_MATRICES))])
    def test_records_scale_with_log_uniform_s(self, kind, A):
        """A -> s A for six s drawn log-uniformly from [1e-3, 1e3]: the same
        names, supports, types, indices and (C1) verdicts, and each location
        times s within 1e-12 ||w|| of the unscaled one."""
        m = build_model(kind, A)
        ref = find_all_fixed_points(m)
        tol = 1e-12 * np.linalg.norm(axial_caps(m))
        key = lambda recs: [(r.name, r.support, r.s_type, r.index, r.c1_holds) for r in recs]
        for s in 10.0 ** np.random.default_rng(19).uniform(-3.0, 3.0, 6):
            scaled = find_all_fixed_points(build_model(kind, s * np.asarray(A)))
            assert key(scaled) == key(ref)
            for a, b in zip(ref, scaled):
                assert np.linalg.norm(s * b.location - a.location) <= tol

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("A", [A_CLASS19] + [A for _, A in ANCHOR_MATRICES])
    def test_custom_map_gives_builtin_records(self, kind, A):
        """The same law wrapped by make_custom, whose fixed points come from
        Newton rather than the linear support systems: the same records in
        the same order, with the same types, at the same locations."""
        m = build_model(kind, A)
        ref = find_all_fixed_points(m)
        custom = find_all_fixed_points(make_custom(3, m.growth, m.growth_jacobian))
        key = lambda recs: [(r.name, r.s_type) for r in recs]
        assert key(custom) == key(ref)
        for a, b in zip(ref, custom):
            np.testing.assert_allclose(b.location, a.location, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @settings(derandomize=True, max_examples=52, deadline=None)
    @given(
        anchor=st.integers(0, len(ANCHOR_MATRICES) - 1),
        jitter=st.lists(st.floats(-0.01, 0.01), min_size=9, max_size=9),
    )
    def test_relabeling_permutes_records(self, kind, anchor, jitter):
        """Relabeling the species by p (A -> A[p][:, p]) conjugates T by
        x -> x[p]: each record reappears on the relabeled support, with the
        same type and index, at its location permuted; the Table-1 class (or
        refusal) is unchanged."""
        A = np.asarray(ANCHOR_MATRICES[anchor][1]) * np.exp(np.reshape(jitter, (3, 3)))

        def table1(A):
            try:
                return classify_table1(A).class_id
            except ClassifyError as exc:
                return type(exc)

        ref = find_all_fixed_points(build_model(kind, A))
        for p in permutations(range(3)):
            got = {r.support: r for r in find_all_fixed_points(build_model(kind, A[np.ix_(p, p)]))}
            assert len(got) == len(ref)
            for r in ref:
                g = got[tuple(k for k in range(3) if p[k] in r.support)]
                assert (g.s_type, g.index) == (r.s_type, r.index)
                np.testing.assert_allclose(g.location, r.location[list(p)], rtol=1e-9, atol=0.0)
            assert table1(A[np.ix_(p, p)]) == table1(A)

    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    @pytest.mark.parametrize("A", [A_CLASS19] + [A for _, A in ANCHOR_MATRICES],
                             ids=["class19"] + [f"anchor{k}" for k in range(len(ANCHOR_MATRICES))])
    def test_axial_types_follow_alpha_signs(self, kind, A):
        """The class's alpha and beta tables against the boundary portrait
        (Zeeman 1993; Jiang & Niu 2017).  Species j invades axial point i
        iff alpha_ij = a_ii - a_ji > 0, so axial point i is an attractor on
        S when no species invades it, a repeller when both do and a saddle
        otherwise.  The planar point of edge {j, l} exists iff alpha_jl and
        alpha_lj share a sign, and attracts along the edge iff both are
        positive; the species k off the edge invades it iff
        a_kj beta_jl + a_kl beta_lj < 1, the sum taken at the record's
        location (beta_jl, beta_lj).  It is an attractor on S when it
        attracts along the edge and is not invaded, a repeller when it
        repels and is invaded, and a saddle otherwise.  The matrix as given
        and under four seeded 2% jitters."""
        A = np.asarray(A)
        rng = np.random.default_rng(26)
        for B in [A] + [A * rng.uniform(0.98, 1.02, (3, 3)) for _ in range(4)]:
            tables = compute_alpha_beta(B)
            alpha = tables.alpha
            records = {r.name: r for r in find_all_fixed_points(build_model(kind, B))}
            for i in range(3):
                invaders = sum(alpha[i, j] > 0 for j in range(3) if j != i)
                want = (SType.ATTRACTOR, SType.SADDLE, SType.REPELLER)[invaders]
                assert records[f"axial_{i + 1}"].s_type == want, (B.tolist(), i)
            for j, l in ((0, 1), (0, 2), (1, 2)):
                (k,) = {0, 1, 2} - {j, l}
                rec = records.get(f"planar_{j + 1}{l + 1}")
                if (alpha[j, l] > 0) != (alpha[l, j] > 0):
                    assert rec is None, (B.tolist(), j, l)
                    continue
                x = rec.location
                np.testing.assert_allclose(x[[j, l]], tables.beta[[j, l], [l, j]], rtol=1e-9)
                attracts = alpha[j, l] > 0
                invaded = B[k, j] * x[j] + B[k, l] * x[l] < 1.0
                want = (SType.ATTRACTOR if attracts and not invaded
                        else SType.REPELLER if invaded and not attracts else SType.SADDLE)
                assert rec.s_type == want, (B.tolist(), j, l)

    def test_residual_invariant(self):
        for kind in ("leslie_gower", "atkinson_allen", "ricker"):
            m = build_model(kind, A_CLASS19)
            for rec in find_all_fixed_points(m):
                assert rec.residual < 1e-10 * (1.0 + np.linalg.norm(rec.location))

    def test_eigenvalues_sorted(self):
        m = build_model("leslie_gower", A_CLASS19)
        for rec in find_all_fixed_points(m):
            assert np.all(np.diff(np.abs(rec.eigenvalues)) >= -1e-12)

    def test_record_rejects_non_fixed_point(self):
        m = build_model("leslie_gower", A_CLASS19)
        with pytest.raises(Exception):
            record_at(m, np.array([0.5, 0.5, 0.5]))
