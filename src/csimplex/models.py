"""Kolmogorov competitive maps T(x) = (x_1 F_1(x), ..., x_n F_n(x)).

Three builtin single-step population models (Leslie-Gower, Atkinson-Allen,
Ricker) with exact analytic partial derivatives, plus a hook for custom maps.
All evaluators are vectorized: a point is an array of shape (n,), a batch of
points an array of shape (m, n).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "InvalidParameterError",
    "ConfigError",
    "ParameterSet",
    "CompetitiveMap",
    "make_leslie_gower",
    "make_atkinson_allen",
    "make_ricker",
    "make_custom",
    "map_from_config",
    "map_to_config",
    "finite_difference_jacobian",
]

KINDS = ("leslie_gower", "atkinson_allen", "ricker")


class InvalidParameterError(ValueError):
    """A model parameter violates its positivity/range constraint."""


class ConfigError(ValueError):
    """A model configuration document failed validation.

    Carries the offending field path, e.g. ``"A[1][2]"``.
    """

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class ParameterSet:
    """Intrinsic rates r, interaction matrix A, optional survival fractions c.

    Constraints: r_i > 0, a_ij > 0 entrywise, and 0 < c_i < 1 when c is
    present (Atkinson-Allen only).
    """

    r: np.ndarray
    A: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        A = np.asarray(self.A, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "A", A)
        n = r.shape[0]
        if r.ndim != 1 or n < 1:
            raise InvalidParameterError("r must be a nonempty vector")
        if not np.all(np.isfinite(r)) or np.any(r <= 0):
            raise InvalidParameterError("all intrinsic rates r_i must be > 0")
        if A.shape != (n, n):
            raise InvalidParameterError(f"A must be {n}x{n}, got {A.shape}")
        if not np.all(np.isfinite(A)) or np.any(A <= 0):
            raise InvalidParameterError("all interaction coefficients a_ij must be > 0")
        if self.c is not None:
            c = np.atleast_1d(np.asarray(self.c, dtype=float))
            object.__setattr__(self, "c", c)
            if c.shape != (n,):
                raise InvalidParameterError(f"c must have shape ({n},), got {c.shape}")
            if not np.all(np.isfinite(c)) or np.any(c <= 0) or np.any(c >= 1):
                raise InvalidParameterError("all survival fractions c_i must lie in (0, 1)")

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class CompetitiveMap:
    """Evaluator bundle for one map: F, dF/dx, T and DT.

    ``growth(x)`` returns F(x) with shape (..., n); ``growth_jacobian(x)``
    returns the partials dF_i/dx_j with shape (..., n, n).  The map itself and
    its Jacobian are assembled from these:

        T_i(x)     = x_i F_i(x)
        DT(x)_ij   = delta_ij F_i(x) + x_i dF_i/dx_j(x)

    so coordinate hyperplanes are invariant by construction and the Jacobian
    is exact (never finite-differenced).
    """

    kind: str
    n: int
    growth: Callable[[np.ndarray], np.ndarray]
    growth_jacobian: Callable[[np.ndarray], np.ndarray]
    params: ParameterSet | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x * self.growth(x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        F = self.growth(x)
        dF = self.growth_jacobian(x)
        return np.eye(self.n) * F[..., :, None] + x[..., :, None] * dF

    def iterate(self, x: np.ndarray, steps: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        for _ in range(steps):
            x = x * self.growth(x)
        return x

    def orbit(self, x: np.ndarray, steps: int) -> np.ndarray:
        """Orbit segment [x, T(x), ..., T^steps(x)], stacked on axis 0."""
        x = np.asarray(x, dtype=float)
        out = np.empty((steps + 1,) + x.shape)
        out[0] = x
        for k in range(steps):
            x = x * self.growth(x)
            out[k + 1] = x
        return out


def _finite_at_origin(m: CompetitiveMap) -> CompetitiveMap:
    """m, after checking that F and dF/dx are finite at the origin.

    Every builtin F and |dF/dx| decrease in each x_j, so on R^n_+ both are
    largest at the origin: a model that passes is finite on all of R^n_+."""
    origin = np.zeros(m.n)
    with np.errstate(over="ignore", invalid="ignore"):
        F, dF = m.growth(origin), m.growth_jacobian(origin)
    if not (np.isfinite(F).all() and np.isfinite(dF).all()):
        raise InvalidParameterError("F or dF/dx is not finite at the origin (r or A too large)")
    return m


def make_leslie_gower(params: ParameterSet) -> CompetitiveMap:
    """Leslie-Gower map: T_i(x) = (1+r_i) x_i / (1 + r_i sum_j a_ij x_j)."""
    r, A = params.r, params.A
    num = 1.0 + r

    def growth(x):
        x = np.asarray(x, dtype=float)
        return num / (1.0 + r * (x @ A.T))

    def growth_jacobian(x):
        x = np.asarray(x, dtype=float)
        denom = 1.0 + r * (x @ A.T)
        return -(num * r)[:, None] * A / (denom[..., :, None] ** 2)

    m = CompetitiveMap("leslie_gower", params.n, growth, growth_jacobian, params)
    return _finite_at_origin(m)


def make_atkinson_allen(params: ParameterSet) -> CompetitiveMap:
    """Atkinson-Allen map: T_i(x) = (1+r_i)(1-c_i) x_i / (1 + r_i sum_j a_ij x_j) + c_i x_i."""
    if params.c is None:
        raise InvalidParameterError("Atkinson-Allen model requires survival fractions c")
    r, A, c = params.r, params.A, params.c
    num = (1.0 + r) * (1.0 - c)

    def growth(x):
        x = np.asarray(x, dtype=float)
        return num / (1.0 + r * (x @ A.T)) + c

    def growth_jacobian(x):
        x = np.asarray(x, dtype=float)
        denom = 1.0 + r * (x @ A.T)
        return -(num * r)[:, None] * A / (denom[..., :, None] ** 2)

    m = CompetitiveMap("atkinson_allen", params.n, growth, growth_jacobian, params)
    return _finite_at_origin(m)


def make_ricker(params: ParameterSet) -> CompetitiveMap:
    """Ricker map: T_i(x) = x_i exp(r_i (1 - sum_j a_ij x_j))."""
    if params.c is not None:
        raise InvalidParameterError("Ricker model takes no survival fractions c")
    r, A = params.r, params.A

    def growth(x):
        x = np.asarray(x, dtype=float)
        return np.exp(r * (1.0 - x @ A.T))

    def growth_jacobian(x):
        F = growth(x)
        return -(r[:, None] * A) * F[..., :, None]

    m = CompetitiveMap("ricker", params.n, growth, growth_jacobian, params)
    return _finite_at_origin(m)


def make_custom(
    n: int,
    growth: Callable[[np.ndarray], np.ndarray],
    growth_jacobian: Callable[[np.ndarray], np.ndarray],
) -> CompetitiveMap:
    """Wrap user-supplied F and dF/dx as a competitive map.

    The caller must supply analytic partials; there is no internal
    finite-difference fallback, so existence checks evaluate exact values.
    """
    if n < 1:
        raise InvalidParameterError("dimension n must be a positive integer")
    return CompetitiveMap("custom", n, growth, growth_jacobian, None)


_MAKERS = {
    "leslie_gower": make_leslie_gower,
    "atkinson_allen": make_atkinson_allen,
    "ricker": make_ricker,
}


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}{key}", "missing required field")
    return doc[key]


def _float_vector(value, name: str, n: int | None = None) -> np.ndarray:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(name, "must be a list of numbers")
    out = np.empty(len(value), dtype=float)
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{name}[{i}]", "must be a number")
        out[i] = float(v)
    if n is not None and out.shape[0] != n:
        raise ConfigError(name, f"expected {n} entries, got {out.shape[0]}")
    return out


def map_from_config(doc: dict | str) -> CompetitiveMap:
    """Build a builtin map from a JSON document or already-parsed dict.

    Schema: ``{"kind": "...", "r": [...], "A": [[...], ...], "c": [...]}``
    with ``c`` present exactly for the Atkinson-Allen model.  Validation is
    strict; errors carry the offending field path (and, for malformed JSON
    text, the line/column from the parser).
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"<json:line {exc.lineno}, col {exc.colno}>", exc.msg) from exc
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "model config must be a JSON object")
    known = {"kind", "r", "A", "c"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown field")
    kind = _require(doc, "kind", "")
    if kind not in _MAKERS:
        raise ConfigError("kind", f"must be one of {sorted(_MAKERS)}, got {kind!r}")
    r = _float_vector(_require(doc, "r", ""), "r")
    n = r.shape[0]
    a_rows = _require(doc, "A", "")
    if not isinstance(a_rows, (list, tuple)) or len(a_rows) != n:
        raise ConfigError("A", f"must be a list of {n} rows")
    A = np.empty((n, n), dtype=float)
    for i, row in enumerate(a_rows):
        A[i] = _float_vector(row, f"A[{i}]", n)
    c = None
    if kind == "atkinson_allen":
        c = _float_vector(_require(doc, "c", ""), "c", n)
    elif "c" in doc:
        raise ConfigError("c", f"not allowed for kind {kind!r}")
    try:
        return _MAKERS[kind](ParameterSet(r=r, A=A, c=c))
    except InvalidParameterError as exc:
        raise ConfigError("<params>", str(exc)) from exc


def map_to_config(m: CompetitiveMap) -> dict:
    """Inverse of map_from_config for builtin maps."""
    if m.params is None:
        raise ValueError("custom maps have no config representation")
    doc = {"kind": m.kind, "r": m.params.r.tolist(), "A": m.params.A.tolist()}
    if m.params.c is not None:
        doc["c"] = m.params.c.tolist()
    return doc


def finite_difference_jacobian(m: CompetitiveMap, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
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
