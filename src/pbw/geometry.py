"""The 24-chamber reflection tessellation of the 2-sphere, and its rendering.

The rank-3 root system of type A sits naturally in the sum-zero hyperplane
of R^4; a fixed orthonormal basis of that hyperplane carries everything to
R^3 isometrically.  Chambers are labeled by arrangements (w1, w2, w3, w4):
the chamber of w is the region x[w1] > x[w2] > x[w3] > x[w4] intersected
with the unit sphere, a geodesic triangle with angles (pi/2, pi/3, pi/3).
Crossing the wall between slots p, p+1 swaps those two letters, so the dual
graph of the tessellation is exactly the adjacent-transposition Cayley
graph used by the holonomy transport.

Everything in this module is floating point with stated tolerances; the
algebraic layers of the package stay exact.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, NamedTuple

from .coxeter import CellType, Permutation

__all__ = ["Chamber", "chambers", "render_svg"]

Vec3 = tuple[float, float, float]

# Orthonormal basis of the sum-zero hyperplane in R^4 (rows).
_B4TO3 = (
    (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0, 0.0),
    (1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6), 0.0),
    (1 / math.sqrt(12), 1 / math.sqrt(12), 1 / math.sqrt(12), -3 / math.sqrt(12)),
)

# Triangle corner profiles in slot-rank coordinates: corner t of the chamber
# of w places profile value s at coordinate w[s].  Corners 0 and 2 lie on two
# adjacent walls (hexagonal vertices), corner 1 on two commuting walls.
_CORNER_PROFILES = ((3.0, -1.0, -1.0, -1.0), (1.0, 1.0, -1.0, -1.0), (1.0, 1.0, 1.0, -3.0))

_INTERIOR_PROFILE = (1.5, 0.5, -0.5, -1.5)


def dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def norm(v: Vec3) -> float:
    return math.sqrt(dot(v, v))


def unit(v: Vec3) -> Vec3:
    n = norm(v)
    return (v[0] / n, v[1] / n, v[2] / n)


def _to3(v4) -> Vec3:
    return tuple(sum(row[t] * v4[t] for t in range(4)) for row in _B4TO3)


def _place(profile, label: Permutation) -> Vec3:
    v4 = [0.0] * 4
    for slot, value in enumerate(profile):
        v4[label[slot]] = value
    return _to3(v4)


class Chamber(NamedTuple):
    """One spherical triangle: its arrangement label and unit corner vertices."""

    label: Permutation
    triangle: tuple[Vec3, Vec3, Vec3]


def chambers() -> list[Chamber]:
    """The 24 chambers, labels in lexicographic arrangement order."""
    out = []
    for label in permutations(range(4)):
        tri = tuple(unit(_place(prof, label)) for prof in _CORNER_PROFILES)
        out.append(Chamber(label, tri))
    return out


def interior_point(label: Permutation) -> Vec3:
    """A unit point strictly inside the chamber of the given arrangement."""
    return unit(_place(_INTERIOR_PROFILE, label))


def _classify(regions: list[Chamber]) -> dict[CellType, list[Vec3]]:
    """The hexagonal vertices (corners 0 and 2) and the square ones (corner
    1), each sorted.  A vertex is the same tuple in every chamber it bounds:
    it comes from the same 4-vector by the same float operations."""
    return {CellType.TRICKY: sorted({v for ch in regions for v in ch.triangle[::2]}),
            CellType.EASY: sorted({ch.triangle[1] for ch in regions})}


def _stereographic(points: Iterable[Vec3], pole: Vec3, u: Vec3, v: Vec3,
                   size: int) -> list[tuple[float, float] | None]:
    """The pixel points of unit points p of the sphere in a size-pixel view,
    in order, None in the place of the pole.  With u, v = `_plane_basis(pole)`
    and d = 1 - p·pole, p goes to (p·u, p·v) / d in the pole's equatorial
    plane: great circles go to circles or lines, angles are kept.  The pole
    is where d is not positive, as d rounds to 0 within about 1.5e-8 of it.
    Images beyond RADIUS_CLAMP are pulled onto that circle, and the square of
    half-width VIEW_HALF_WIDTH fills the view, y up.  Points are unchecked
    (`render_svg` builds unit ones); dot products keep `dot`'s float order."""
    a, b, c = pole
    u0, u1, u2 = u
    v0, v1, v2 = v
    scale = size / (2.0 * VIEW_HALF_WIDTH)
    half = size / 2.0
    out: list[tuple[float, float] | None] = []
    for x, y, z in points:
        d = 1.0 - (x * a + y * b + z * c)
        if d <= 0.0:
            out.append(None)
            continue
        px, py = (x * u0 + y * u1 + z * u2) / d, (x * v0 + y * v1 + z * v2) / d
        r = math.hypot(px, py)
        if r > RADIUS_CLAMP:
            f = RADIUS_CLAMP / r
            px, py = px * f, py * f
        out.append((half + px * scale, half - py * scale))
    return out


def _plane_basis(pole: Vec3) -> tuple[Vec3, Vec3]:
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    seed = min(axes, key=lambda a: abs(dot(pole, a)))
    u = unit(cross(pole, seed))
    return u, cross(pole, u)


# Rendering constants: samples per geodesic arc, world half-width of the
# viewport, and the radius cap applied to points running off to infinity.
ARC_SAMPLES = 48
VIEW_HALF_WIDTH = 5.0
RADIUS_CLAMP = 20.0


def _arc(a: Vec3, b: Vec3, shared: dict[float, list[tuple[float, float]]]):
    """ARC_SAMPLES points from a towards b, two distinct corners of one
    chamber, on their geodesic.  The sine weights depend only on the clamped
    a·b, and shared keeps them under it: one acos and sine per value."""
    c = max(-1.0, min(1.0, dot(a, b)))
    weights = shared.get(c)
    if weights is None:
        theta = math.acos(c)
        sin_theta = math.sin(theta)
        weights = shared[c] = [
            (math.sin((1.0 - t) * theta) / sin_theta, math.sin(t * theta) / sin_theta)
            for t in (s / ARC_SAMPLES for s in range(ARC_SAMPLES))]
    return [(sa * a[0] + sb * b[0], sa * a[1] + sb * b[1], sa * a[2] + sb * b[2])
            for sa, sb in weights]


def render_svg(size: int = 800, labels: bool = False) -> str:
    """Deterministic SVG of the tessellation, projected from an easy vertex.

    All 24 chambers appear as closed paths of sampled geodesic arcs; the
    four chambers touching the pole run off through a radius clamp and show
    as unbounded regions.  The 13 finite vertices are marked: circles for
    the 8 hexagonal ("tricky") ones, squares for the 5 square ("easy") ones;
    the sixth easy vertex is the pole itself, out at infinity.  Each arc,
    vertex list and label list goes to pixels in one `_stereographic` call.
    The 72 arcs share one call's dict of sine weights, keyed by a·b.
    """
    if not (isinstance(size, int) and size >= 1):
        raise ValueError(f"need an int size >= 1, got size={size!r}")
    regions = chambers()
    by_type = _classify(regions)
    pole = by_type[CellType.EASY][0]

    view = (pole, *_plane_basis(pole), size)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        '<g fill="none" stroke="#333333" stroke-width="1.2">',
    ]
    shared: dict[float, list[tuple[float, float]]] = {}
    for ch in regions:
        pts = []
        for t in range(3):
            arc = _arc(ch.triangle[t], ch.triangle[(t + 1) % 3], shared)
            for xy in _stereographic(arc, *view):
                if xy is not None:
                    pts.append("%.4f %.4f" % xy)
        d = "M " + " L ".join(pts) + " Z"
        lines.append(f'<path class="region" d="{d}"/>')
    lines.append("</g>")

    for xy in _stereographic(by_type[CellType.TRICKY], *view):
        lines.append(
            f'<circle class="vertex tricky" cx="{xy[0]:.4f}" cy="{xy[1]:.4f}" '
            f'r="5" fill="#000000"/>')
    for xy in _stereographic(by_type[CellType.EASY], *view):
        if xy is None:
            continue  # the pole: its marker would be at infinity
        lines.append(
            f'<rect class="vertex easy" x="{xy[0] - 4:.4f}" y="{xy[1] - 4:.4f}" '
            f'width="8" height="8" fill="#bbbbbb" stroke="#000000"/>')

    if labels:
        letters = "abcd"
        points = [interior_point(ch.label) for ch in regions]
        for ch, xy in zip(regions, _stereographic(points, *view)):
            text = "".join(letters[t] for t in ch.label)
            lines.append(
                f'<text class="label" x="{xy[0]:.4f}" y="{xy[1]:.4f}" '
                f'font-size="{size / 55:.1f}" font-family="monospace" '
                f'text-anchor="middle">{text}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
