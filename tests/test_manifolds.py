"""Invariant manifold tracing and the foliation/conjugacy diagnostics."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from csimplex.analysis import boundary_sets, find_all_fixed_points
from csimplex.manifolds import (
    C1ViolatedError,
    ManifoldError,
    basin_of,
    basin_of_batch,
    conjugacy_decay_report,
    curve_from_json,
    curve_to_json,
    leaf_contraction_report,
    m2_expansion_report,
    pseudo_splitting,
    trace_stable_on_S,
    trace_unstable,
)
from csimplex.existence import axial_caps
from csimplex.manifolds import _lift, _preimage
from csimplex.models import make_custom
from csimplex.simplex import compute_carrying_simplex, radial_project, surface_distance
from conftest import A_CLASS19, ANCHOR_MATRICES, build_model


@pytest.fixture(scope="module")
def ref(class19_lg, class19_mesh):
    """Reference class-19 system with its records, splitting and mesh."""
    recs = find_all_fixed_points(class19_lg)
    q = next(r for r in recs if r.support_type == "interior")
    att, rep = boundary_sets(recs)
    split = pseudo_splitting(class19_lg, q.location)
    return {
        "m": class19_lg,
        "mesh": class19_mesh,
        "q": q.location,
        "att": att,
        "rep": rep,
        "split": split,
    }


def halving_map():
    """T(x) = x/2: DT = I/2, whose inverse is diagonal, so (C1) fails."""
    return make_custom(
        3, lambda x: np.full(np.shape(x), 0.5), lambda x: np.zeros((3, 3))
    )


class TestSplitting:
    def test_c1_violated_for_diagonal_jacobian(self):
        with pytest.raises(C1ViolatedError):
            pseudo_splitting(halving_map(), np.zeros(3))

    def test_perron_direction_residual(self, ref):
        split = ref["split"]
        DT = ref["m"].jacobian(ref["q"])
        assert np.all(split.v > 0)
        assert np.linalg.norm(DT @ split.v - split.mu * split.v) < 1e-9

    def test_w_plane_invariant(self, ref):
        split = ref["split"]
        DT = ref["m"].jacobian(ref["q"])
        B = split.w_basis
        A_W = B.T @ DT @ B
        assert np.linalg.norm(DT @ B - B @ A_W) < 1e-9

    def test_rate_defaults_inside_admissible_intervals(self, ref):
        s = ref["split"]
        assert s.mu < s.rho < min(1.0, s.nu)
        assert s.rho < s.sigma < s.nu

    def test_rejects_out_of_range_rates(self, ref):
        with pytest.raises(ValueError):
            pseudo_splitting(ref["m"], ref["q"], rho=0.99)
        with pytest.raises(ValueError):
            pseudo_splitting(ref["m"], ref["q"], sigma=ref["split"].nu * 1.1)


class TestUnstable:
    def test_joins_the_two_attractors(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        assert set(curve.endpoints) == set(ref["att"])
        assert all(d <= curve.tol for d in curve.endpoints.values())
        assert curve.kind == "unstable"

    def test_contained_in_surface(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        d = surface_distance(ref["mesh"], curve.points)
        assert d.max() <= 2 * ref["mesh"].max_edge_length()

    def test_passes_through_q(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        assert curve.distance_to(ref["q"]) < 1e-12

    def test_seed_self_convergence(self, ref):
        # halving the seed leaves the curve unchanged up to the re-sampling
        # error (which is amplified along the expanding flight and dominates
        # any seed-scale bound); measured deviation is ~0.17 * h_max
        h0 = 1e-6 * np.linalg.norm(ref["q"])
        h_max = 1e-3 * 1.1
        c1 = trace_unstable(ref["m"], ref["q"], ref["att"], h0=h0, endpoint_tol=h0)
        c2 = trace_unstable(ref["m"], ref["q"], ref["att"], h0=h0 / 10.0, endpoint_tol=h0)
        d12 = max(c2.distance_to(p) for p in c1.points[::7])
        d21 = max(c1.distance_to(p) for p in c2.points[::7])
        assert max(d12, d21) < 0.5 * h_max

    def test_arc_params_monotone(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        s = curve.arc_params
        assert s[0] == 0.0 and np.all(np.diff(s) > 0)

    def test_halved_step_self_convergence(self, ref):
        h_max = 1e-3
        c1 = trace_unstable(ref["m"], ref["q"], ref["att"], h_max=h_max)
        c2 = trace_unstable(ref["m"], ref["q"], ref["att"], h_max=h_max / 2.0)
        d12 = max(c2.distance_to(p) for p in c1.points[::9])
        assert d12 < h_max  # O(step) agreement


class TestBasins:
    def test_attractor_resolves_immediately(self, ref):
        name = sorted(ref["att"])[0]
        assert basin_of(ref["m"], ref["att"][name], ref["att"]) == name

    def test_axis_point_converges_to_axial_attractor(self, ref):
        # axis 2 carries the attracting axial point
        x = np.array([0.0, 0.4, 0.0])
        assert basin_of(ref["m"], x, ref["att"]) == "axial_2"

    def test_q_is_unresolved(self, ref):
        assert basin_of(ref["m"], ref["q"], ref["att"], max_iter=2000) is None

    def test_batch_labels_match_scalar(self, ref):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.05, 1.0, (20, 3))
        labels = basin_of_batch(ref["m"], X, ref["att"], max_iter=20000)
        names = sorted(ref["att"])
        for x, lab in zip(X, labels):
            got = basin_of(ref["m"], x, ref["att"], max_iter=20000)
            assert got == (names[lab] if lab >= 0 else None)


class TestStable:
    def test_joins_the_two_repellers_through_q(self, ref):
        curve = trace_stable_on_S(ref["m"], ref["mesh"], ref["q"], ref["rep"], ref["att"])
        assert curve.kind == "stable"
        assert set(curve.endpoints) == set(ref["rep"])
        assert curve.distance_to(ref["q"]) <= curve.tol
        # the branch ends sit close to the pinned repellers
        assert max(curve.endpoints.values()) <= curve.tol

    def test_invariant_under_projected_map(self, ref):
        mesh = ref["mesh"]
        curve = trace_stable_on_S(ref["m"], mesh, ref["q"], ref["rep"], ref["att"])
        images = radial_project(mesh, ref["m"](curve.points))
        assert max(curve.distance_to(y) for y in images) <= curve.tol

    def test_halved_step_self_convergence(self):
        # an asymmetric system: on the reference the stable curve lies on the
        # symmetry line x2 = x3 at every step, which hides the step error
        m = build_model("leslie_gower", ANCHOR_MATRICES[0][1])
        mesh = compute_carrying_simplex(m, resolution=32, tol=1e-8)
        recs = find_all_fixed_points(m)
        q = next(r for r in recs if r.support_type == "interior").location
        att, rep = boundary_sets(recs)
        h_max = 1e-3 * float(np.linalg.norm(axial_caps(m)))
        c1 = trace_stable_on_S(m, mesh, q, rep, att, h_max=h_max)
        c2 = trace_stable_on_S(m, mesh, q, rep, att, h_max=h_max / 2.0)
        d12 = max(c2.distance_to(p) for p in c1.points)
        d21 = max(c1.distance_to(p) for p in c2.points)
        assert max(d12, d21) < 0.1 * h_max  # measured 0.036 * h_max

    def test_curves_meet_only_at_q(self, ref):
        stable = trace_stable_on_S(ref["m"], ref["mesh"], ref["q"], ref["rep"], ref["att"])
        unstable = trace_unstable(ref["m"], ref["q"], ref["att"])
        d_to_unst = cKDTree(unstable.points).query(stable.points)[0]
        far = np.linalg.norm(stable.points - ref["q"], axis=1) > 10 * stable.tol
        assert d_to_unst[far].min() > stable.tol

    def test_opposite_sides_resolve_to_opposite_attractors(self, ref):
        curve = trace_stable_on_S(ref["m"], ref["mesh"], ref["q"], ref["rep"], ref["att"])
        s = curve.arc_params
        labels = []
        for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
            k = int(np.searchsorted(s, frac * s[-1]))
            u = curve.points[k] / curve.points[k].sum()
            tangent = curve.points[k + 1] - curve.points[k - 1]
            t2 = (tangent / np.linalg.norm(tangent))[:2]
            n2 = np.array([-t2[1], t2[0]])
            offsets = np.array([0.02, 0.05])[:, None]
            sides = np.vstack([u[:2] + offsets * n2, u[:2] - offsets * n2])
            labels.append(basin_of_batch(ref["m"], _lift(ref["mesh"], sides), ref["att"]))
        labels = np.array(labels)
        plus, minus = labels[:, :2], labels[:, 2:]
        assert np.all(plus == plus[0, 0]) and np.all(minus == minus[0, 0])
        assert plus[0, 0] != minus[0, 0] and min(plus[0, 0], minus[0, 0]) >= 0


class TestPreimage:
    @pytest.mark.parametrize("kind", ["leslie_gower", "atkinson_allen", "ricker"])
    def test_round_trip(self, kind):
        # preimages of the images of random points x in [0, 2w]
        m = build_model(kind, A_CLASS19)
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 2.0, (200, 3)) * axial_caps(m)
        Y = m(X)
        back = m(_preimage(m, Y))
        err = np.linalg.norm(back - Y, axis=1)
        assert np.all(err <= 1e-12 * (1.0 + np.linalg.norm(Y, axis=1)))

    def test_singular_jacobian_raises(self):
        dead = make_custom(3, lambda x: np.zeros(np.shape(x)), lambda x: np.zeros((3, 3)))
        with pytest.raises(ManifoldError):
            _preimage(dead, np.array([[0.2, 0.3, 0.4]]))


class TestLeafContraction:
    def test_contracts_at_rho_near_q(self, ref):
        split = ref["split"]
        rep = leaf_contraction_report(
            ref["m"], ref["q"], split.v, split.rho,
            radius=1e-3 * np.linalg.norm(ref["q"]),
        )
        assert rep.passed and rep.max_ratio <= split.rho

    def test_directional_ratio_converges_to_mu(self, ref):
        split = ref["split"]
        rep = leaf_contraction_report(
            ref["m"], ref["q"], split.v, split.rho,
            radius=1e-3 * np.linalg.norm(ref["q"]), n_dyadic=3,
        )
        errs = np.abs(rep.ratios_at_q - split.mu)
        assert np.all(np.diff(errs) < 0)
        assert errs[-1] < 1e-3

    def test_huge_radius_flags_violations(self, ref):
        split = ref["split"]
        rep = leaf_contraction_report(
            ref["m"], ref["q"], split.v, split.rho, radius=2.0, secant=0.2
        )
        assert rep.n_violations > 0 and not rep.passed


class TestConjugacyDecay:
    def test_on_mesh_samples_decay(self, ref):
        split = ref["split"]
        rep = conjugacy_decay_report(
            ref["m"], ref["mesh"], ref["q"], split.v, split.w_basis, split.rho,
            radius=1e-2 * np.linalg.norm(ref["q"]),
        )
        assert rep.source == "mesh"
        assert rep.n_samples > 50
        assert rep.pass_fraction >= 0.9

    def test_point_on_pseudo_unstable_plane_is_degenerate(self, ref):
        split = ref["split"]
        xi = ref["q"] + 1e-3 * split.w_basis[:, 0]
        rep = conjugacy_decay_report(
            ref["m"], ref["mesh"], ref["q"], split.v, split.w_basis, split.rho,
            radius=1e-2, points=xi[None, :],
        )
        assert rep.source == "points"
        assert rep.fitted_ratios[0] == 0.0  # d_k identically ~0

    def test_off_surface_points_informational(self, ref):
        split = ref["split"]
        pts = ref["q"] + np.array([[0.03, 0.0, 0.0], [0.0, 0.03, 0.0]])
        rep = conjugacy_decay_report(
            ref["m"], ref["mesh"], ref["q"], split.v, split.w_basis, split.rho,
            radius=0.05, points=pts,
        )
        assert rep.source == "points"
        assert rep.n_samples == 2


class TestM2Expansion:
    def test_diagonal_restriction_oracle(self):
        # DT(0) = diag(0.5, 0.7, 1.4); W = span{e2, e3}; A_W = diag(0.7, 1.4)
        m = make_custom(
            3,
            lambda x: np.broadcast_to(np.array([0.5, 0.7, 1.4]), np.shape(x)).copy(),
            lambda x: np.zeros((3, 3)),
        )
        B = np.eye(3)[:, 1:]
        rep = m2_expansion_report(m, np.zeros(3), B, sigma=0.65)
        assert rep.found and rep.l == 1
        # oracle: direct powering of the 2x2 restriction
        assert rep.norms[0] == pytest.approx(1.0 / 0.7)
        rep_bad = m2_expansion_report(m, np.zeros(3), B, sigma=0.9)
        assert not rep_bad.found and rep_bad.l is None

    def test_reference_system_finds_l(self, ref):
        split = ref["split"]
        rep = m2_expansion_report(ref["m"], ref["q"], split.w_basis, split.sigma)
        assert rep.found
        lam1 = abs(split.w_eigenvalues[0])
        assert split.sigma < lam1

    def test_sigma_above_nu_reports_no_such_l(self, ref):
        split = ref["split"]
        rep = m2_expansion_report(
            ref["m"], ref["q"], split.w_basis, sigma=split.nu * 1.05, l_search_max=40
        )
        assert not rep.found


class TestCurveJson:
    def test_round_trip(self, ref):
        curve = trace_unstable(ref["m"], ref["q"], ref["att"])
        doc = curve_to_json(curve)
        assert doc["kind"] == "unstable"
        assert set(doc) == {"kind", "points", "endpoints", "tol"}
        back = curve_from_json(doc)
        assert np.allclose(back.points, curve.points)
        assert set(back.endpoints) == set(curve.endpoints)
