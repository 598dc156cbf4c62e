"""Builtin model evaluators, Jacobian assembly, and config validation."""
from __future__ import annotations

import numpy as np
import pytest

from csimplex.models import (
    CompetitiveMap,
    ConfigError,
    InvalidParameterError,
    ParameterSet,
    finite_difference_jacobian,
    make_atkinson_allen,
    make_custom,
    make_leslie_gower,
    make_ricker,
    map_from_config,
    map_to_config,
)
from conftest import A_CLASS19, build_model

ALL_KINDS = ("leslie_gower", "atkinson_allen", "ricker")


class TestParameterValidation:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameterError):
            ParameterSet(r=[1.0, -0.5, 1.0], A=np.ones((3, 3)))

    def test_rejects_nonpositive_interaction(self):
        A = np.ones((3, 3))
        A[0, 1] = 0.0
        with pytest.raises(InvalidParameterError):
            ParameterSet(r=np.ones(3), A=A)

    def test_rejects_identity_matrix(self):
        # zero off-diagonals violate positivity
        with pytest.raises(InvalidParameterError):
            ParameterSet(r=np.ones(3), A=np.eye(3))

    def test_rejects_survival_outside_unit_interval(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidParameterError):
                ParameterSet(r=np.ones(3), A=np.ones((3, 3)), c=[0.5, bad, 0.5])

    def test_ricker_rejects_survival_fractions(self):
        ps = ParameterSet(r=np.ones(3), A=np.ones((3, 3)), c=np.full(3, 0.5))
        with pytest.raises(InvalidParameterError):
            make_ricker(ps)

    def test_atkinson_allen_requires_survival_fractions(self):
        with pytest.raises(InvalidParameterError):
            make_atkinson_allen(ParameterSet(r=np.ones(3), A=np.ones((3, 3))))


class TestFixedPointAlgebra:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_origin_is_fixed(self, kind):
        m = build_model(kind, A_CLASS19)
        assert np.all(m(np.zeros(3)) == 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_interior_solution_of_linear_system_is_fixed(self, kind):
        m = build_model(kind, A_CLASS19)
        q = np.linalg.solve(A_CLASS19, np.ones(3))
        assert np.all(q > 0)
        assert np.linalg.norm(m(q) - q) < 1e-12

    def test_atkinson_allen_hand_evaluated_point(self):
        # x = (2, 0, 0), c = 1/2, r = 1, a11 = 1:
        # T1 = (1+1)(1/2)*2 / (1 + 1*2) + (1/2)*2 = 2/3 + 1 = 5/3
        m = make_atkinson_allen(
            ParameterSet(r=np.ones(3), A=np.ones((3, 3)), c=np.full(3, 0.5))
        )
        out = m(np.array([2.0, 0.0, 0.0]))
        assert out[0] == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert out[1] == out[2] == 0.0

    def test_ricker_axial_point_fixed(self):
        # exponent vanishes at x1 = 1/a11
        m = build_model("ricker", A_CLASS19)
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(m(x), x)


class TestJacobian:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        m = build_model(kind, A_CLASS19)
        w = 1.0 / np.diag(A_CLASS19)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0.0, 2.0, 3) * w
            J = m.jacobian(x)
            J_fd = finite_difference_jacobian(m, x)
            assert np.max(np.abs(J - J_fd)) < 1e-5 * (1.0 + np.max(np.abs(J)))

    def test_jacobian_at_origin_is_diagonal_growth(self):
        for kind in ALL_KINDS:
            m = build_model(kind, A_CLASS19)
            J = m.jacobian(np.zeros(3))
            assert np.allclose(J, np.diag(m.growth(np.zeros(3))))

    def test_vectorized_evaluation_matches_pointwise(self):
        m = build_model("ricker", A_CLASS19)
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 2.0, (7, 3))
        TX = m(X)
        JX = m.jacobian(X)
        for i in range(7):
            assert np.allclose(TX[i], m(X[i]))
            assert np.allclose(JX[i], m.jacobian(X[i]))


class TestMapProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_orthant_preserved(self, kind):
        m = build_model(kind, A_CLASS19)
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 4.0, (200, 3))
        assert np.all(m(X) >= 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_supports_cannot_grow(self, kind):
        m = build_model(kind, A_CLASS19)
        rng = np.random.default_rng(4)
        X = rng.uniform(0.0, 2.0, (100, 3))
        X[rng.uniform(size=(100, 3)) < 0.4] = 0.0
        TX = m(X)
        assert np.all(TX[X == 0.0] == 0.0)

    def test_growth_positive_on_orthant(self):
        rng = np.random.default_rng(6)
        for kind in ALL_KINDS:
            m = build_model(kind, A_CLASS19)
            X = rng.uniform(0.0, 5.0, (100, 3))
            assert np.all(m.growth(X) > 0.0)

    def test_orbit_matches_iterate(self):
        m = build_model("leslie_gower", A_CLASS19)
        x = np.array([0.4, 0.2, 0.1])
        orbit = m.orbit(x, 10)
        assert orbit.shape == (11, 3)
        assert np.allclose(orbit[-1], m.iterate(x, 10))


class TestCustomMaps:
    def test_custom_map_evaluates(self):
        growth = lambda x: np.full(np.shape(x), 0.5)
        growth_jac = lambda x: np.zeros((3, 3))
        m = make_custom(3, growth, growth_jac)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(m(x), 0.5 * x)
        assert np.allclose(m.jacobian(x), 0.5 * np.eye(3))

    def test_custom_requires_positive_dimension(self):
        with pytest.raises(InvalidParameterError):
            make_custom(0, lambda x: x, lambda x: x)


class TestConfig:
    def test_round_trip(self):
        doc = {"kind": "ricker", "r": [0.2, 0.2, 0.2], "A": A_CLASS19.tolist()}
        m = map_from_config(doc)
        assert isinstance(m, CompetitiveMap)
        assert m.kind == "ricker"
        assert map_to_config(m) == doc

    def test_parses_json_text(self):
        text = '{"kind": "leslie_gower", "r": [1, 1, 1], "A": [[1, 2, 2], [2, 1, 2], [2, 2, 1]]}'
        m = map_from_config(text)
        assert m.n == 3

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigError) as err:
            map_from_config('{"kind": "ricker",\n  "r": [1, }')
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"r": [1, 1], "A": [[1, 1], [1, 1]]}, "kind"),
            ({"kind": "lv", "r": [1, 1], "A": [[1, 1], [1, 1]]}, "kind"),
            ({"kind": "ricker", "A": [[1]]}, "r"),
            ({"kind": "ricker", "r": [1, "x"], "A": [[1, 1], [1, 1]]}, "r[1]"),
            ({"kind": "ricker", "r": [1, 1], "A": [[1, 1]]}, "A"),
            ({"kind": "ricker", "r": [1, 1], "A": [[1, 1], [1]]}, "A[1]"),
            ({"kind": "ricker", "r": [1, 1], "A": [[1, 1], [1, 1]], "c": [0.5, 0.5]}, "c"),
            ({"kind": "atkinson_allen", "r": [1, 1], "A": [[1, 1], [1, 1]]}, "c"),
            ({"kind": "ricker", "r": [1, 1], "A": [[1, 1], [1, 1]], "seed": 3}, "seed"),
        ],
    )
    def test_field_level_errors(self, doc, field):
        with pytest.raises(ConfigError) as err:
            map_from_config(doc)
        assert err.value.field_path == field

    @pytest.mark.parametrize("kind, too_large, large", [
        ("leslie_gower", 1e200, 1e150),
        ("atkinson_allen", 1e200, 1e150),
        ("ricker", 1500.0, 700.0),  # exp(1500) overflows, exp(700) does not
    ])
    def test_growth_not_finite_at_origin_rejected(self, kind, too_large, large):
        doc = {"kind": kind, "r": [too_large] * 3, "A": A_CLASS19.tolist()}
        if kind == "atkinson_allen":
            doc["c"] = [0.4] * 3
        with pytest.raises(ConfigError, match="not finite at the origin") as err:
            map_from_config(doc)
        assert err.value.field_path == "<params>"
        doc["r"] = [large] * 3
        assert map_from_config(doc).kind == kind

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            map_from_config({"kind": "ricker", "r": [1, -1], "A": [[1, 1], [1, 1]]})
