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
from typing import NamedTuple

from .coxeter import CellType, Permutation

__all__ = ["Chamber", "Vec3", "chambers", "render_svg"]

Vec3 = tuple[float, float, float]

POLE_EPS = 1e-9

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


def _stereographic(p: Vec3, pole: Vec3, u: Vec3, v: Vec3) -> tuple[float, float] | None:
    """Project the unit sphere minus the pole onto the pole's equatorial
    plane, in the basis u, v of `_plane_basis(pole)`; great circles go to
    circles or straight lines, angles are kept.  None at the pole.  The
    image (p - (p·pole) pole) / (1 - p·pole) is (p·u, p·v) / (1 - p·pole) in
    that basis, as u and v are orthogonal to the pole.  The norms and dot
    products are written out, with the float operations of `norm` and `dot`
    in the same order."""
    x, y, z = p
    if abs(1.0 - math.sqrt(x * x + y * y + z * z)) > 1e-12:
        raise ValueError("stereographic projection expects unit vectors")
    a, b, c = pole
    gx, gy, gz = x - a, y - b, z - c
    if math.sqrt(gx * gx + gy * gy + gz * gz) < POLE_EPS:
        return None
    d = 1.0 - (x * a + y * b + z * c)
    return ((x * u[0] + y * u[1] + z * u[2]) / d, (x * v[0] + y * v[1] + z * v[2]) / d)


def _plane_basis(pole: Vec3) -> tuple[Vec3, Vec3]:
    if abs(1.0 - norm(pole)) > 1e-12:
        raise ValueError("stereographic projection expects unit vectors")
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    seed = min(axes, key=lambda a: abs(dot(pole, a)))
    u = unit(cross(pole, seed))
    return u, cross(pole, u)


# Rendering constants: samples per geodesic arc, world half-width of the
# viewport, and the radius cap applied to points running off to infinity.
ARC_SAMPLES = 48
VIEW_HALF_WIDTH = 5.0
RADIUS_CLAMP = 20.0


def _arc(a: Vec3, b: Vec3):
    """ARC_SAMPLES points from a towards b, two distinct corners of one
    chamber, on their geodesic; one acos and sine per arc."""
    theta = math.acos(max(-1.0, min(1.0, dot(a, b))))
    sin_theta = math.sin(theta)
    weights = ((math.sin((1.0 - t) * theta) / sin_theta, math.sin(t * theta) / sin_theta)
               for t in (s / ARC_SAMPLES for s in range(ARC_SAMPLES)))
    return [(sa * a[0] + sb * b[0], sa * a[1] + sb * b[1], sa * a[2] + sb * b[2])
            for sa, sb in weights]


def render_svg(size: int = 800, labels: bool = False) -> str:
    """Deterministic SVG of the tessellation, projected from an easy vertex.

    All 24 chambers appear as closed paths of sampled geodesic arcs; the
    four chambers touching the pole run off through a radius clamp and show
    as unbounded regions.  The 13 finite vertices are marked: circles for
    the 8 hexagonal ("tricky") ones, squares for the 5 square ("easy") ones;
    the sixth easy vertex is the pole itself, out at infinity.
    """
    regions = chambers()
    by_type = _classify(regions)
    pole = by_type[CellType.EASY][0]

    basis = _plane_basis(pole)
    scale = size / (2.0 * VIEW_HALF_WIDTH)
    half = size / 2.0

    def project(v: Vec3) -> tuple[float, float] | None:
        """The pixel point of v, or None at the pole; a point beyond
        RADIUS_CLAMP is pulled back onto that circle."""
        xy = _stereographic(v, pole, *basis)
        if xy is None:
            return None
        x, y = xy
        r = math.hypot(x, y)
        if r > RADIUS_CLAMP:
            f = RADIUS_CLAMP / r
            x, y = x * f, y * f
        return (half + x * scale, half - y * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        '<g fill="none" stroke="#333333" stroke-width="1.2">',
    ]
    for ch in regions:
        pts = []
        for t in range(3):
            for v in _arc(ch.triangle[t], ch.triangle[(t + 1) % 3]):
                xy = project(v)
                if xy is not None:
                    pts.append(f"{xy[0]:.4f} {xy[1]:.4f}")
        d = "M " + " L ".join(pts) + " Z"
        lines.append(f'<path class="region" d="{d}"/>')
    lines.append("</g>")

    for v in by_type[CellType.TRICKY]:
        xy = project(v)
        lines.append(
            f'<circle class="vertex tricky" cx="{xy[0]:.4f}" cy="{xy[1]:.4f}" '
            f'r="5" fill="#000000"/>')
    for v in by_type[CellType.EASY]:
        xy = project(v)
        if xy is None:
            continue  # the pole: its marker would be at infinity
        lines.append(
            f'<rect class="vertex easy" x="{xy[0] - 4:.4f}" y="{xy[1] - 4:.4f}" '
            f'width="8" height="8" fill="#bbbbbb" stroke="#000000"/>')

    if labels:
        letters = "abcd"
        for ch in regions:
            xy = project(interior_point(ch.label))
            text = "".join(letters[t] for t in ch.label)
            lines.append(
                f'<text class="label" x="{xy[0]:.4f}" y="{xy[1]:.4f}" '
                f'font-size="{size / 55:.1f}" font-family="monospace" '
                f'text-anchor="middle">{text}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
