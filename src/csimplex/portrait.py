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


@dataclass(eq=False)  # it holds arrays, so == is identity
class BasinRaster:
    """Attractor labels on a regular grid over the direction simplex.

    labels[i, j] refers to grid direction (u1, u2) = (i, j)/(resolution-1);
    -2 marks points outside the simplex, -1 unresolved orbits, otherwise the
    index into the sorted attractor names.  orbit_cells counts the cells
    labelled by their own orbit; the others were labelled by their side of
    the stable curve (see basin_raster).
    """

    resolution: int
    labels: np.ndarray
    attractor_names: list[str]
    orbit_cells: int

    def cell_size(self) -> float:
        return 1.0 / (self.resolution - 1)


# basin_raster with a stable curve: the half-width of the band of orbit
# cells, in max(1 cell, the curve's tol in the direction plane), and one in
# _SIDE_SAMPLE of the other cells labelled by orbit to check the sides.
_SIDE_BAND = 1.0
_SIDE_SAMPLE = 8

# Rim cells lie on the closing polygon's edges; the side test moves them this
# share of the way toward the centroid.
_RIM_NUDGE = 1e-9


def basin_raster(
    m: CompetitiveMap,
    mesh: SimplexMesh,
    attractors: dict[str, np.ndarray],
    resolution: int = DEFAULT_RASTER,
    max_iter: int = DEFAULT_BASIN_MAX_ITER,
    tol: float = DEFAULT_BASIN_TOL,
    stable: ManifoldCurve | None = None,
) -> BasinRaster:
    """Label a direction-space raster by the attractor its lifted orbit
    reaches.

    Without ``stable`` every cell inside the simplex is labelled by its
    orbit.  Given the stable curve of the saddle, which runs from one rim
    repeller to the other and, closed by the rim, separates the two basins,
    only the cells within a band of the curve are labelled by orbit: the
    band is _SIDE_BAND times max(1 cell, (1 + sqrt 3) curve.tol / min sum(x)
    over the curve's points), the curve's tol carried into the direction
    plane.  Every _SIDE_SAMPLE-th other cell in raster order is labelled by
    orbit too, and every remaining cell takes the attractor that all the
    sampled cells of its side reached.  The side is the parity of the
    crossings of the closed polyline below the cell along its raster row
    (rim cells are first moved _RIM_NUDGE toward the centroid).  The raster
    falls back to labelling every cell by orbit when an end of the curve is
    off the rim, when a side has no sampled cell, when a sampled cell is -1
    or differs from the others of its side, or when both sides reach the
    same attractor; ``orbit_cells`` then counts every cell.  Orbits map
    rows independently, so a cell's orbit label does not depend on which
    other cells are in its batch.
    """
    R = resolution
    u1, u2 = np.meshgrid(np.linspace(0.0, 1.0, R), np.linspace(0.0, 1.0, R), indexing="ij")
    inside = u1 + u2 <= 1.0 + 1e-12
    uv = np.column_stack([u1[inside], u2[inside]])
    side = None if stable is None else _stable_side(R, stable)

    def orbit_labels(rows):
        pts = radial_project(mesh, directions_from_uv(uv[rows]))
        return basin_of_batch(m, pts, attractors, max_iter=max_iter, tol=tol)

    if side is None:
        cell_labels = orbit_labels(slice(None))
        orbit_cells = cell_labels.size
    else:
        side = side[inside]
        by_orbit = _near_curve(R, stable, _SIDE_BAND * _curve_width(R, stable))[inside]
        sampled = np.flatnonzero(~by_orbit)[::_SIDE_SAMPLE]
        by_orbit[sampled] = True
        cell_labels = np.full(uv.shape[0], -1, dtype=np.intp)
        cell_labels[by_orbit] = orbit_labels(by_orbit)
        reached = [np.unique(cell_labels[sampled[side[sampled] == k]]) for k in (False, True)]
        if all(r.size == 1 and r[0] >= 0 for r in reached) and reached[0][0] != reached[1][0]:
            cell_labels[~by_orbit] = np.where(side[~by_orbit], reached[1][0], reached[0][0])
            orbit_cells = int(np.count_nonzero(by_orbit))
        else:
            cell_labels[~by_orbit] = orbit_labels(~by_orbit)
            orbit_cells = cell_labels.size
    labels = np.full((R, R), -2, dtype=np.intp)
    labels[inside] = cell_labels
    return BasinRaster(
        resolution=R, labels=labels, attractor_names=sorted(attractors), orbit_cells=orbit_cells
    )


def _rim_position(x: np.ndarray) -> float | None:
    """Position t in [0, 3] of the point x on the rim of the direction
    triangle, walked from (u1, u2) = (0, 0) through (1, 0) and (0, 1): u1
    on the edge x2 = 0, 1 + u2 on x3 = 0, 2 + u3 on x1 = 0.  None when no
    coordinate of x is zero."""
    u = x / x.sum()
    if u[1] == 0.0:
        return float(u[0])
    if u[2] == 0.0:
        return 1.0 + float(u[1])
    if u[0] == 0.0:
        return 2.0 + float(u[2])
    return None


def _stable_side(resolution: int, curve: ManifoldCurve) -> np.ndarray | None:
    """(R, R) mask of the raster cells on one side of the curve, whose ends
    lie on the rim, closed by the rim from its last point forward to its
    first; None when an end is off the rim or a point lies outside the
    closed orthant or at the origin.

    Each raster row i is the line u1 = i/(R-1).  A cell's side is the parity
    of the closed polygon's crossings of its row below the cell, an edge
    crossing the line when one end lies above it and the other does not.
    Rim cells lie on the polygon's rim edges, so each is moved _RIM_NUDGE of
    the way toward the centroid; a row's rim cells then share one line, at
    u1 + _RIM_NUDGE (1/3 - u1), and each row is two scanlines."""
    R = resolution
    P = curve.points
    sums = P.sum(axis=1)
    if not (np.all(P >= 0.0) and np.all(sums > 0.0)):
        return None
    t_first, t_last = _rim_position(P[0]), _rim_position(P[-1])
    if t_first is None or t_last is None:
        return None
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ahead = (np.arange(3.0) - t_last) % 3.0
    walk = [k for k in np.argsort(ahead) if 0.0 < ahead[k] < (t_first - t_last) % 3.0]
    uv = P[:, :2] / sums[:, None]
    V = np.vstack([uv, corners[walk], uv[:1]])
    a, b = V[:-1], V[1:]

    grid = np.linspace(0.0, 1.0, R)
    nudged = grid + _RIM_NUDGE * (1.0 / 3.0 - grid)
    lines = np.concatenate([grid, nudged])  # row i, then row i's rim cells
    line, edge = np.nonzero((a[None, :, 0] > lines[:, None]) != (b[None, :, 0] > lines[:, None]))
    a, b = a[edge], b[edge]
    at = a[:, 1] + (lines[line] - a[:, 0]) * (b[:, 1] - a[:, 1]) / (b[:, 0] - a[:, 0])
    # one sorted key per crossing: 4 per line apart, so that lines never mix
    keys = np.sort(4.0 * line + at)

    i, j = np.meshgrid(np.arange(R), np.arange(R), indexing="ij")
    rim = (i == 0) | (j == 0) | (i + j >= R - 1)
    on = np.where(rim, i + R, i)
    v = np.where(rim, nudged[j], grid[j])
    below = np.searchsorted(keys, 4.0 * on + v) - np.searchsorted(keys, 4.0 * on - 1.0)
    return below % 2 == 1


def _curve_width(resolution: int, curve: ManifoldCurve) -> float:
    """max(1 cell, the curve's tol carried into the direction plane): points
    within tol of each other have directions within (1 + sqrt 3) tol / s,
    s the smaller coordinate sum."""
    s = float(curve.points.sum(axis=1).min())
    return max(1.0 / (resolution - 1), (1.0 + np.sqrt(3.0)) * curve.tol / s)


def _near_curve(resolution: int, curve: ManifoldCurve, width: float) -> np.ndarray:
    """(R, R) mask of the raster cells within ``width`` of the curve in the
    (u1, u2) plane: the cells within width plus a quarter cell of a point of
    its polyline densified to half a cell.  Each point marks, on each raster
    row within reach, the run of cells inside its disk, so the work grows
    with the points times the rows of the band, not its area."""
    R = resolution
    cell = 1.0 / (R - 1)
    uv = curve.points[:, :2] / curve.points.sum(axis=1, keepdims=True)
    c = _densify(uv, 0.5 * cell) / cell  # in cells
    reach = width / cell + 0.25
    k = int(reach) + 1
    row = np.rint(c[:, :1]).astype(np.intp) + np.arange(-k, k + 1)
    dy = row - c[:, :1]
    half = np.sqrt(np.maximum(reach * reach - dy * dy, 0.0))
    lo = np.maximum(np.floor(c[:, 1:] - half) + 1.0, 0.0).astype(np.intp)
    hi = np.minimum(np.ceil(c[:, 1:] + half) - 1.0, R - 1.0).astype(np.intp)
    keep = (half > 0.0) & (row >= 0) & (row < R) & (lo <= hi)
    # +1 where a run starts and -1 after it ends, summed along each row
    start = row[keep] * (R + 1) + lo[keep]
    edges = np.bincount(start, minlength=R * (R + 1))
    edges -= np.bincount(start + (hi[keep] - lo[keep] + 1), minlength=R * (R + 1))
    return np.cumsum(edges.reshape(R, R + 1), axis=1)[:, :R] > 0


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
    curve, measured in the (u1, u2) plane against the densified polyline:
    the OR over the curves of _near_curve at width exclusion - cell/4,
    which reaches a quarter cell further than its width."""
    width = exclusion - 0.25 / (resolution - 1)
    near = np.zeros((resolution, resolution), dtype=bool)
    for curve in curves:
        near |= _near_curve(resolution, curve, width)
    return near


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


def _raster_runs(raster: BasinRaster) -> tuple[list, ...]:
    """The runs of equal labels >= 0 along each raster row, in raster order,
    as lists: the label and the plane points (a0, a1) of the run's first
    cell and (b0, b1) of its last.  A cell (i, j) has u = (i, j) * cell and
    goes to u1 c0 + u2 c1 + (1 - (u1 + u2)) c2 for the triangle's corners
    c, summed in that order."""
    labels = raster.labels
    cell = raster.cell_size()
    rows, cols = labels.shape
    # a column of -2 after each row ends its last run
    flat = np.full((rows, cols + 1), -2, dtype=labels.dtype)
    flat[:, :cols] = labels
    flat = flat.ravel()
    starts = np.flatnonzero(np.concatenate([[True], flat[1:] != flat[:-1]]))
    ends = np.append(starts[1:], flat.size)
    keep = flat[starts] >= 0
    starts, ends = starts[keep], ends[keep]
    u1 = (starts // (cols + 1)) * cell
    c = TRIANGLE_CORNERS
    ends_at = []
    for j in (starts % (cols + 1), ends % (cols + 1) - 1):
        u2 = j * cell
        rest = 1 - (u1 + u2)
        ends_at += [u1 * c[0, k] + u2 * c[1, k] + rest * c[2, k] for k in (0, 1)]
    return (flat[starts].tolist(), *(p.tolist() for p in ends_at))


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
        parts.append('<g shape-rendering="crispEdges">')
        th = _fmt(raster.cell_size() * 1.2)
        for lab, a0, a1, b0, b1 in zip(*_raster_runs(raster)):
            fill = _BASIN_FILLS[lab % len(_BASIN_FILLS)]
            parts.append(
                f'<line x1="{_fmt(a0)}" y1="{_fmt(ymax - a1)}" '
                f'x2="{_fmt(b0)}" y2="{_fmt(ymax - b1)}" '
                f'stroke="{fill}" stroke-width="{th}"/>'
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
