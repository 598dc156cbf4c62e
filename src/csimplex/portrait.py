"""Phase portraits on the carrying simplex, drawn in barycentric coordinates.

The simplex is projected to the plane triangle with corners (0,0), (1,0),
(1/2, sqrt(3)/2) (species 1, 2, 3).  Layers: basin shading from a raster of
direction-space points lifted onto the mesh, sampled orbit streaks, the
stable and unstable curves, the boundary triangle, and fixed point glyphs
(closed bullet = attracts on S, open bullet = repels on S, saddles are drawn
as the crossing of their invariant curves).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import FixedPointRecord, SType
from .manifolds import DEFAULT_BASIN_MAX_ITER, DEFAULT_BASIN_TOL, ManifoldCurve, basin_of_batch
from .models import CompetitiveMap
from .simplex import SimplexMesh, directions_from_uv, radial_project

__all__ = [
    "TRIANGLE_CORNERS",
    "BasinRaster",
    "to_plane",
    "basin_raster",
    "count_basin_components",
    "render_portrait",
]

TRIANGLE_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])

_BASIN_FILLS = ("#c7d9f2", "#f2d8c2", "#d6ecd2", "#e8d5ec")

# Grid points per side of the basin raster.
DEFAULT_RASTER = 200


def to_plane(x: np.ndarray) -> np.ndarray:
    """Project nonnegative points (or directions) to the plane triangle via
    their barycentric coordinates."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    s = X.sum(axis=1, keepdims=True)
    s[s == 0.0] = 1.0
    out = (X / s) @ TRIANGLE_CORNERS
    return out[0] if single else out


@dataclass
class BasinRaster:
    """Attractor labels on a regular grid over the direction simplex.

    labels[i, j] refers to grid direction (u1, u2) = (i, j)/(resolution-1);
    -2 marks points outside the simplex, -1 unresolved orbits, otherwise the
    index into the sorted attractor names.
    """

    resolution: int
    labels: np.ndarray
    attractor_names: list[str]

    def cell_size(self) -> float:
        return 1.0 / (self.resolution - 1)


def basin_raster(
    m: CompetitiveMap,
    mesh: SimplexMesh,
    attractors: dict[str, np.ndarray],
    resolution: int = DEFAULT_RASTER,
    max_iter: int = DEFAULT_BASIN_MAX_ITER,
    tol: float = DEFAULT_BASIN_TOL,
) -> BasinRaster:
    """Label a direction-space raster by the attractor its lifted orbit
    reaches."""
    R = resolution
    u1, u2 = np.meshgrid(np.linspace(0.0, 1.0, R), np.linspace(0.0, 1.0, R), indexing="ij")
    inside = u1 + u2 <= 1.0 + 1e-12
    labels = np.full((R, R), -2, dtype=np.intp)
    pts = radial_project(mesh, directions_from_uv(np.column_stack([u1[inside], u2[inside]])))
    labels[inside] = basin_of_batch(m, pts, attractors, max_iter=max_iter, tol=tol)
    return BasinRaster(resolution=R, labels=labels, attractor_names=sorted(attractors))


def _densify(P: np.ndarray, spacing: float) -> np.ndarray:
    """The polyline P (n, d) with each segment [a, b] cut into
    div = max(2, ceil(|b - a| / spacing)) - 1 pieces: P[0], then the points
    k = 1..div of each segment, equal to np.linspace(a, b, div + 1)[k] bit
    for bit: k (delta / div) + a, or (k / div) delta + a when a component of
    delta / div is zero, and b at k = div."""
    a, b = P[:-1], P[1:]
    delta = b - a
    div = np.maximum(2, np.ceil(np.linalg.norm(delta, axis=1) / spacing).astype(int)) - 1
    seg = np.repeat(np.arange(len(div)), div)
    last = np.cumsum(div) - 1
    k = (np.arange(seg.size) - np.repeat(last - div, div)).astype(float)
    step = delta / div[:, None]
    zero = np.any(step == 0.0, axis=1)[seg, None]
    dense = np.where(zero, (k / div[seg])[:, None] * delta[seg], k[:, None] * step[seg]) + a[seg]
    dense[last] = b
    return np.vstack([P[:1], dense])


def _near_curves(
    resolution: int, curves: list[ManifoldCurve], exclusion: float
) -> np.ndarray:
    """Raster cells whose grid direction lies closer than ``exclusion`` to a
    curve, measured in the (u1, u2) plane against the densified polyline."""
    from scipy.spatial import cKDTree

    R = resolution
    cell = 1.0 / (R - 1)
    u1, u2 = np.meshgrid(np.linspace(0.0, 1.0, R), np.linspace(0.0, 1.0, R), indexing="ij")
    grid2 = np.stack([u1.ravel(), u2.ravel()], axis=1)
    near_curve = np.zeros(R * R, dtype=bool)
    for curve in curves:
        p = curve.points / curve.points.sum(axis=1, keepdims=True)
        # densify the polyline so cell-scale gaps cannot leak through
        dense = _densify(p[:, :2], 0.5 * cell)
        d, _ = cKDTree(dense).query(grid2, distance_upper_bound=exclusion)
        near_curve |= d < exclusion
    return near_curve.reshape(R, R)


def count_basin_components(raster: BasinRaster, curves: list[ManifoldCurve]) -> int:
    """Connected components of the basin raster after removing cells within
    two cells of the given curves (the invariant curves themselves separate
    the components).

    Components smaller than 0.2% of the labeled cells are exclusion-band
    speckles at the raster scale (single cells pinched off where a curve
    passes near the simplex boundary) and are not counted.
    """
    from scipy import ndimage

    near_curve = _near_curves(raster.resolution, curves, 2.0 * raster.cell_size())
    kept = (raster.labels >= 0) & ~near_curve
    floor = max(2.0, 0.002 * float(kept.sum()))
    total = 0
    for label in range(len(raster.attractor_names)):
        mask = (raster.labels == label) & ~near_curve
        lab, n = ndimage.label(mask)
        if n:
            sizes = np.bincount(lab.ravel())[1:]
            total += int(np.sum(sizes >= floor))
    return total


def _fmt(v: float) -> str:
    return f"{v:.5f}"


def _svg_xy(p: np.ndarray, ymax: float) -> tuple[float, float]:
    return float(p[0]), float(ymax - p[1])


def _polyline(points2: np.ndarray, ymax: float, stroke: str, width: float, dashed=False) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(ymax - y)}" for x, y in points2)
    dash = ' stroke-dasharray="0.012,0.008"' if dashed else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}"{dash}/>'
    )


def render_portrait(
    records: list[FixedPointRecord],
    curves: list[ManifoldCurve],
    raster: BasinRaster | None = None,
    orbits: list[np.ndarray] | None = None,
    metadata: dict | None = None,
) -> str:
    """Compose the SVG document.  Deterministic for identical inputs except
    for the version banner comment."""
    ymax = float(TRIANGLE_CORNERS[:, 1].max())
    pad = 0.05
    view = f"{-pad} {-pad} {1 + 2 * pad} {ymax + 2 * pad}"
    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    from . import __version__

    parts.append(f"<!-- csimplex {__version__} -->")
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" '
        f'width="640" height="{int(640 * (ymax + 2 * pad) / (1 + 2 * pad))}">'
    )
    if metadata:
        meta = ",".join(f"{k}={metadata[k]}" for k in sorted(metadata))
        parts.append(f"<!-- {meta} -->")

    if raster is not None:
        cell = raster.cell_size()
        parts.append('<g shape-rendering="crispEdges">')
        labels = raster.labels
        corners = TRIANGLE_CORNERS
        for i in range(labels.shape[0]):
            j = 0
            while j < labels.shape[1]:
                lab = labels[i, j]
                if lab < 0:
                    j += 1
                    continue
                j0 = j
                while j < labels.shape[1] and labels[i, j] == lab:
                    j += 1
                # run of raster cells painted as one stroke in the plane
                u_lo = np.array([i * cell, j0 * cell])
                u_hi = np.array([i * cell, (j - 1) * cell])
                a = u_lo[0] * corners[0] + u_lo[1] * corners[1] + (1 - u_lo.sum()) * corners[2]
                b = u_hi[0] * corners[0] + u_hi[1] * corners[1] + (1 - u_hi.sum()) * corners[2]
                fill = _BASIN_FILLS[int(lab) % len(_BASIN_FILLS)]
                th = cell * 1.2
                parts.append(
                    f'<line x1="{_fmt(a[0])}" y1="{_fmt(ymax - a[1])}" '
                    f'x2="{_fmt(b[0])}" y2="{_fmt(ymax - b[1])}" '
                    f'stroke="{fill}" stroke-width="{_fmt(th)}"/>'
                )
        parts.append("</g>")

    if orbits:
        for orbit in orbits:
            parts.append(_polyline(to_plane(orbit), ymax, "#9aa2ab", 0.0035))

    tri = np.vstack([TRIANGLE_CORNERS, TRIANGLE_CORNERS[:1]])
    parts.append(_polyline(tri, ymax, "#1f2329", 0.006))

    for curve in curves:
        color = "#1d4ed8" if curve.kind == "stable" else "#b91c1c"
        parts.append(_polyline(to_plane(curve.points), ymax, color, 0.007))

    glyph_r = 0.016
    for rec in sorted(records, key=lambda r: r.name):
        if not rec.support:
            continue  # origin is not on S
        x, y = _svg_xy(to_plane(rec.location), ymax)
        if rec.s_type == SType.ATTRACTOR:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(glyph_r)}" fill="#111"/>')
        elif rec.s_type == SType.REPELLER:
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(glyph_r)}" fill="#fff" '
                f'stroke="#111" stroke-width="0.006"/>'
            )
        elif rec.s_type == SType.SADDLE:
            d = glyph_r * 1.3
            parts.append(
                f'<path d="M {_fmt(x - d)} {_fmt(y - d)} L {_fmt(x + d)} {_fmt(y + d)} '
                f'M {_fmt(x - d)} {_fmt(y + d)} L {_fmt(x + d)} {_fmt(y - d)}" '
                f'stroke="#111" stroke-width="0.006" fill="none"/>'
            )
        else:
            s = glyph_r
            parts.append(
                f'<rect x="{_fmt(x - s)}" y="{_fmt(y - s)}" width="{_fmt(2 * s)}" '
                f'height="{_fmt(2 * s)}" fill="#777"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
