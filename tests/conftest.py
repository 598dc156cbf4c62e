"""Shared fixtures: the reference class-19 system, the anchor interaction
matrices used by the acceptance sampler, session-scoped meshes, and three test
helpers (a finite-difference Jacobian, the inverse of map_from_config and the
maps of the basin_battery benchmark workload)."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from csimplex.models import ParameterSet, make_atkinson_allen, make_leslie_gower, make_ricker
from csimplex.simplex import compute_carrying_simplex

# Reference matrix used throughout (classifies as class 19 under the identity
# relabeling); its interior fixed point is (1/3, 5/18, 5/18).
A_CLASS19 = np.array([[1.0, 1.2, 1.2], [0.5, 1.0, 2.0], [0.5, 2.0, 1.0]])

# Interaction matrices validated end to end (existence, saddle structure,
# N=64 mesh tolerances, manifold tracing) for all three builtin models;
# the acceptance sampler jitters around them and re-checks the predicate.
ANCHOR_MATRICES: list[tuple[int, list[list[float]]]] = [
    (19, [[1.17243901, 0.82260263, 0.80436391],
          [0.67538217, 0.74407087, 0.93154149],
          [0.74116787, 1.19831241, 0.75078958]]),
    (21, [[0.86370721, 1.13528795, 1.27055974],
          [1.07066307, 0.93745135, 0.73754700],
          [1.13611673, 0.64940549, 1.03199057]]),
    (21, [[0.90457067, 1.47446300, 1.19542564],
          [1.23939209, 1.38720629, 0.96156474],
          [1.29469198, 1.07391184, 1.11055804]]),
    (22, [[1.15981792, 0.60845863, 1.04627469],
          [0.81222953, 0.75277386, 1.13844970],
          [0.70693734, 0.97160526, 0.80222826]]),
    (22, [[0.94176403, 0.61728668, 0.79993242],
          [0.61966788, 0.78746565, 0.94763361],
          [0.82754301, 0.89618556, 0.72942109]]),
    (19, [[0.82153437, 1.18501444, 0.48267810],
          [1.18546387, 0.84830635, 0.57264672],
          [0.91561038, 0.96440468, 0.87065938]]),
    (19, [[0.99019612, 0.69225828, 0.67387120],
          [0.71030475, 0.62398269, 0.81516973],
          [0.81202599, 0.97931894, 0.61478437]]),
    (21, [[0.81503177, 1.07739960, 0.64163159],
          [1.14233731, 0.75578183, 0.86835773],
          [0.55897141, 1.06685638, 0.80370988]]),
    (21, [[1.50442645, 1.04495397, 1.30984472],
          [0.97810458, 1.23191014, 1.32064325],
          [1.61167377, 1.44857821, 0.97407222]]),
    (22, [[1.58668275, 2.65528547, 1.58789251],
          [1.32943372, 2.29710182, 2.26911397],
          [1.03816225, 2.88930945, 1.89834537]]),
    (22, [[1.08483316, 1.34813123, 1.06554172],
          [1.35624979, 1.12326115, 0.99942717],
          [1.27278792, 1.00730496, 1.22369512]]),
    (25, [[1.97911924, 1.58236721, 1.84586426],
          [1.61955360, 2.09659009, 1.31560426],
          [2.83415102, 1.39899837, 1.40833154]]),
]


def build_model(kind: str, A: np.ndarray):
    """Builtin map with the standard rate choices used by the tests."""
    A = np.asarray(A, dtype=float)
    if kind == "leslie_gower":
        return make_leslie_gower(ParameterSet(r=np.ones(3), A=A))
    if kind == "atkinson_allen":
        return make_atkinson_allen(ParameterSet(r=np.ones(3), A=A, c=np.full(3, 0.4)))
    if kind == "ricker":
        r = 0.8 * np.diag(A) / A.sum(axis=1)  # passes the closed-form condition
        return make_ricker(ParameterSet(r=r, A=A))
    raise ValueError(kind)


def map_to_config(m) -> dict:
    """Inverse of map_from_config for builtin maps."""
    if m.params is None:
        raise ValueError("custom maps have no config representation")
    doc = {"kind": m.kind, "r": m.params.r.tolist(), "A": m.params.A.tolist()}
    if m.params.c is not None:
        doc["c"] = m.params.c.tolist()
    return doc


def finite_difference_jacobian(m, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of T at x, the independent check for
    the analytic assembly (accurate to O(h^2))."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (m(x + e) - m(x - e)) / (2.0 * h)
    return J


def battery_maps(seed, monkeypatch, work):
    """The maps of every system that the basin_battery benchmark workload
    draws from the seed (its inputs written to the directory work),
    screened as bench/workloads.py screens them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracer
    import workloads

    battery = workloads.BasinBattery()
    battery.write_inputs(work, seed)
    battery.prepare(work)
    return [battery._screen(system, tracer.NullTracer())
            for systems in battery.batteries for system in systems]


@pytest.fixture(scope="session")
def class19_lg():
    return build_model("leslie_gower", A_CLASS19)


@pytest.fixture(scope="session")
def class19_mesh(class19_lg):
    return compute_carrying_simplex(class19_lg, resolution=64, tol=1e-8)


@pytest.fixture(scope="session")
def symmetric_lg():
    """Fully symmetric competition: the carrying simplex is the exact plane
    x1 + x2 + x3 = 1."""
    return make_leslie_gower(ParameterSet(r=np.ones(3), A=np.ones((3, 3))))


@pytest.fixture(scope="session")
def symmetric_mesh(symmetric_lg):
    return compute_carrying_simplex(symmetric_lg, resolution=64, tol=1e-8)
