"""Acceptance suite: one test per criterion, each printing a PASS line.

The 20 sampled parameter sets are drawn by rejection sampling (classify into
classes 19-25, existence checks pass, Ricker closed-form condition when
applicable) from small multiplicative jitter around the screened anchor
matrices in conftest; meshes and spectral data are computed once per session.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from csimplex.analysis import boundary_sets, find_all_fixed_points, fixed_point_index
from csimplex.classify import (
    DegenerateDenominatorError,
    classify_table1,
)
from csimplex.cli import main
from csimplex.existence import axial_caps, ricker_condition, verify_existence
from csimplex.manifolds import (
    conjugacy_decay_report,
    leaf_contraction_report,
    m2_expansion_report,
    pseudo_splitting,
    trace_stable_on_S,
    trace_unstable,
)
from csimplex.portrait import basin_raster, count_basin_components
from csimplex.simplex import (
    compute_carrying_simplex,
    estimate_tangent_cone,
    invariance_residual,
    surface_distance,
    unordered_check,
)
from conftest import A_CLASS19, ANCHOR_MATRICES, build_model, finite_difference_jacobian

KINDS = ("leslie_gower", "atkinson_allen", "ricker")
SAMPLER_SEED = 2026
N_SYSTEMS = 20
MESH_RESOLUTION = 64
MESH_TOL = 1e-8


def _passline(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE CRITERION {number} [{name}]: PASS{suffix}")


@pytest.fixture(scope="session")
def systems():
    """20 rejection-sampled systems: (class_id, kind, map)."""
    rng = np.random.default_rng(SAMPLER_SEED)
    out = []
    i = 0
    while len(out) < N_SYSTEMS:
        cid_anchor, A = ANCHOR_MATRICES[i % len(ANCHOR_MATRICES)]
        kind = KINDS[i % len(KINDS)]
        i += 1
        for _ in range(16):
            jit = np.asarray(A) * np.exp(rng.normal(0.0, 0.002, (3, 3)))
            try:
                res = classify_table1(jit)
            except Exception:
                continue
            if not res.tabulated:
                continue
            m = build_model(kind, jit)
            if kind == "ricker" and not ricker_condition(m.params).passed:
                continue
            if not verify_existence(m, grid=12).passed:
                continue
            out.append((res.class_id, kind, m))
            break
        else:
            raise RuntimeError(f"rejection sampler stalled at combo {i}")
    return out


@pytest.fixture(scope="session")
def structures(systems):
    """Records / interior splitting per sampled system."""
    data = []
    for cid, kind, m in systems:
        recs = find_all_fixed_points(m)
        q = next(r for r in recs if r.support_type == "interior")
        att, rep = boundary_sets(recs)
        split = pseudo_splitting(m, q.location)
        data.append(
            {"cid": cid, "kind": kind, "m": m, "records": recs, "q": q,
             "att": att, "rep": rep, "split": split}
        )
    return data


@pytest.fixture(scope="session")
def meshes(systems):
    return [
        compute_carrying_simplex(m, resolution=MESH_RESOLUTION, tol=MESH_TOL)
        for _, _, m in systems
    ]


def test_criterion_1_fixed_point_algebra():
    from csimplex.models import ParameterSet, make_ricker

    rng = np.random.default_rng(1)
    q = np.linalg.solve(A_CLASS19, np.ones(3))
    ricker = make_ricker(ParameterSet(r=np.full(3, 0.2), A=A_CLASS19))
    assert ricker_condition(ricker.params).passed
    maps = [build_model("leslie_gower", A_CLASS19),
            build_model("atkinson_allen", A_CLASS19), ricker]
    worst_fp = 0.0
    worst_jac = 0.0
    for m in maps:
        worst_fp = max(worst_fp, float(np.linalg.norm(m(q) - q)))
        w = axial_caps(m)
        X = rng.uniform(0.0, 2.0, (1000, 3)) * w
        for x in X:
            J = m.jacobian(x)
            err = np.max(np.abs(J - finite_difference_jacobian(m, x)))
            worst_jac = max(worst_jac, err / (1.0 + np.max(np.abs(J))))
    assert worst_fp < 1e-12
    assert worst_jac < 1e-5
    _passline(1, "fixed-point algebra", f"|T(q)-q| {worst_fp:.1e}, jac err {worst_jac:.1e}")


def test_criterion_2_classification():
    from test_classify import brute_force_matches

    res = classify_table1(A_CLASS19)
    assert res.class_id == 19 and res.permutation == (0, 1, 2)
    invasion_sum = 1.0 - res.margins["inv1"]
    assert abs(invasion_sum - 0.8) < 1e-12
    # the matrix is symmetric under swapping species 2 and 3, so the oracle
    # finds class 19 under both relabelings and nothing else
    matches = brute_force_matches(A_CLASS19)
    assert {cid for cid, _ in matches} == {19}
    assert (19, (0, 1, 2)) in matches

    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        A = rng.uniform(0.2, 3.0, (3, 3))
        try:
            base = classify_table1(A)
        except Exception:
            continue
        perm = tuple(rng.permutation(3))
        relabeled = A[np.ix_(perm, perm)]
        assert classify_table1(relabeled).class_id == base.class_id
        checked += 1

    with pytest.raises(DegenerateDenominatorError):
        classify_table1(np.full((3, 3), 1.7))
    _passline(2, "classification", "class 19 identity, 1000 relabelings invariant")


def test_criterion_3_regime_consistency(structures):
    assert len(structures) == N_SYSTEMS
    for s in structures:
        assert s["cid"] in range(19, 26)
        q = s["q"]
        assert q.c1_holds
        mods = np.abs(q.eigenvalues)
        assert np.all(np.abs(mods - 1.0) > 1e-9)
        assert mods[0] < mods[1] < 1.0 < mods[2]
        assert fixed_point_index(s["m"], q.location) == -1
    classes = sorted({s["cid"] for s in structures})
    _passline(3, "regime consistency", f"20 systems, classes {classes}")


def test_criterion_4_carrying_simplex_invariants(systems, meshes, symmetric_mesh):
    worst_res = 0.0
    for (_, _, m), mesh in zip(systems, meshes):
        w = axial_caps(m)
        wn = float(np.linalg.norm(w))
        assert mesh.converged and mesh.residual < MESH_TOL
        assert unordered_check(mesh, 1e-6 * wn) == []
        res = invariance_residual(m, mesh)
        worst_res = max(worst_res, res / wn)
        assert res < 1e-4 * wn
        assert np.all(mesh.vertices <= w[None, :] * (1.0 + 1e-6))
        edge = mesh.max_edge_length()
        for rec in find_all_fixed_points(m):
            if rec.support:
                assert surface_distance(mesh, rec.location[None])[0] <= edge
    sums = symmetric_mesh.vertices.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-6
    _passline(4, "carrying simplex invariants", f"worst residual {worst_res:.2e}*||w||")


def test_criterion_5_manifold_structure(structures, meshes):
    eligible = [
        (s, mesh)
        for s, mesh in zip(structures, meshes)
        if len(s["att"]) == 2 and len(s["rep"]) == 2
    ]
    assert len(eligible) == N_SYSTEMS  # all sampled systems have the 2+2 layout
    for s, mesh in eligible:
        m = s["m"]
        w = axial_caps(m)
        wn = float(np.linalg.norm(w))
        edge = mesh.max_edge_length()
        unstable = trace_unstable(m, s["q"].location, s["att"], endpoint_tol=1e-5 * wn)
        assert set(unstable.endpoints) == set(s["att"])
        assert all(d <= 1e-5 * wn for d in unstable.endpoints.values())
        assert surface_distance(mesh, unstable.points).max() <= 2 * edge
        stable = trace_stable_on_S(m, mesh, s["q"].location, s["rep"], s["att"])
        assert set(stable.endpoints) == set(s["rep"])
        assert stable.distance_to(s["q"].location) <= stable.tol
        raster = basin_raster(m, mesh, s["att"], resolution=81)
        inside = raster.labels > -2
        assert np.all(raster.labels[inside] >= 0)  # every raster orbit resolved
        # the cells away from the stable curve take its side's attractor
        by_side = basin_raster(m, mesh, s["att"], resolution=81, stable=stable)
        assert np.array_equal(by_side.labels, raster.labels)
        assert by_side.orbit_cells < raster.orbit_cells
        components = count_basin_components(raster, [stable, unstable])
        assert components == 4
    _passline(5, "manifold structure", "20/20 systems: curves + 4 basin components")


def test_criterion_6_trivial_dynamics(systems):
    rng = np.random.default_rng(6)
    max_iter = 50000
    for _, _, m in systems:
        w = axial_caps(m)
        targets = np.array([r.location for r in find_all_fixed_points(m)])
        X = rng.uniform(0.0, 2.0, (500, 3)) * w
        resolved = np.zeros(X.shape[0], dtype=bool)
        pts = X.copy()
        for _ in range(max_iter):
            d = np.linalg.norm(pts[:, None, :] - targets[None, :, :], axis=2).min(axis=1)
            newly = d < 1e-6
            resolved |= newly
            if resolved.all():
                break
            pts = m(pts)
        assert resolved.all(), f"{int((~resolved).sum())} orbits unresolved"
    _passline(6, "trivial dynamics", "20 x 500 orbits converged to fixed points")


def test_criterion_7_foliation(structures):
    worst_gap = 0.0
    for s in structures:
        split = s["split"]
        q = s["q"].location
        rep = leaf_contraction_report(
            s["m"], q, split.v, split.rho, radius=1e-3 * np.linalg.norm(q)
        )
        assert rep.passed and rep.max_ratio <= split.rho
        errs = np.abs(rep.ratios_at_q - split.mu)
        assert errs[-1] < 1e-3
        assert np.all(np.diff(errs) < 0)
        m2 = m2_expansion_report(s["m"], q, split.w_basis, split.sigma)
        assert m2.found  # sigma < nu = |lambda_1| by construction
        worst_gap = max(worst_gap, rep.max_ratio / split.rho)
    s0 = structures[0]
    no_l = m2_expansion_report(
        s0["m"], s0["q"].location, s0["split"].w_basis,
        sigma=s0["split"].nu * 1.02, l_search_max=40,
    )
    assert not no_l.found
    _passline(7, "foliation diagnostics", f"worst ratio/rho {worst_gap:.3f}")


def test_criterion_8_conjugacy_decay(structures, meshes):
    rng = np.random.default_rng(8)
    worst = 1.0
    for s, mesh in zip(structures, meshes):
        split = s["split"]
        q = s["q"].location
        rep = conjugacy_decay_report(
            s["m"], mesh, q, split.v, split.w_basis, split.rho,
            radius=1e-2 * np.linalg.norm(q), rng=rng,
        )
        assert rep.n_samples >= 20
        assert rep.pass_fraction >= 0.9
        worst = min(worst, rep.pass_fraction)
    _passline(8, "conjugacy decay", f"min pass fraction {worst:.2f}")


def test_criterion_9_tangent_cones(structures, meshes, symmetric_lg, symmetric_mesh):
    for s, mesh in zip(structures, meshes):
        q = s["q"].location
        h = mesh.max_edge_length()
        angles = [
            estimate_tangent_cone(mesh, q, r, s["split"].w_basis).angle_to_w
            for r in (8 * h, 4 * h, 2 * h)
        ]
        noise = 2.0 * h / np.linalg.norm(axial_caps(s["m"]))
        assert angles[0] + noise >= angles[1] >= -noise
        assert angles[1] + noise >= angles[2]
    q_sym = np.full(3, 1.0 / 3.0)
    split_sym = pseudo_splitting(symmetric_lg, q_sym)
    h = symmetric_mesh.max_edge_length()
    for r in (8 * h, 4 * h, 2 * h):
        est = estimate_tangent_cone(symmetric_mesh, q_sym, r, split_sym.w_basis)
        assert est.angle_to_w < 1e-3
    _passline(9, "tangent cones", "monotone trend on 20 systems; plane case < 1e-3")


def test_criterion_10_determinism(tmp_path):
    cid, A = ANCHOR_MATRICES[3]
    doc = {
        "model": {"kind": "atkinson_allen", "r": [1, 1, 1], "c": [0.4, 0.4, 0.4], "A": A},
        "numeric": {"mesh_resolution": 16, "existence_grid": 10},
        "seed": 424242,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outs = []
    for name in ("a1.json", "a2.json"):
        out = tmp_path / name
        main(["analyze", "--config", str(cfg), "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    vouts = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        main(["verify", "--config", str(cfg), "--out", str(out)])
        vouts.append(out.read_bytes())
    assert vouts[0] == vouts[1]
    assert json.loads(outs[0])["seed"] == 424242
    _passline(10, "determinism", "byte-identical analyze/verify for fixed seed")
