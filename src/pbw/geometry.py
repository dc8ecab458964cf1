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
from dataclasses import dataclass
from itertools import permutations

from .coxeter import CellType, Permutation

__all__ = [
    "Chamber",
    "Vec3",
    "a3_roots",
    "a3_simple_roots",
    "chambers",
    "classified_vertices",
    "mesh_counts",
    "reflect",
    "render_svg",
    "spherical_excess",
    "stereographic",
    "triangle_angles",
]

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
_CORNER_TYPES = (CellType.TRICKY, CellType.EASY, CellType.TRICKY)

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


def _root(i: int, j: int) -> Vec3:
    """The root e_i - e_j carried to R^3."""
    v4 = [0.0] * 4
    v4[i], v4[j] = 1.0, -1.0
    return _to3(v4)


def a3_simple_roots() -> list[Vec3]:
    """The three simple roots e1-e2, e2-e3, e3-e4 carried to R^3."""
    return [_root(t, t + 1) for t in range(3)]


def a3_roots() -> list[Vec3]:
    """All 12 roots e_i - e_j (i != j) in R^3: positives first, then their
    negatives, both in lexicographic (i, j) order."""
    pos = [_root(i, j) for i in range(4) for j in range(i + 1, 4)]
    return pos + [(-x, -y, -z) for x, y, z in pos]


def reflect(v: Vec3, root: Vec3) -> Vec3:
    """Reflection of v in the hyperplane orthogonal to root."""
    c = 2.0 * dot(v, root) / dot(root, root)
    return (v[0] - c * root[0], v[1] - c * root[1], v[2] - c * root[2])


@dataclass(frozen=True)
class Chamber:
    """One spherical triangle: its arrangement label, inward wall normals,
    and unit corner vertices."""

    label: Permutation
    walls: tuple[Vec3, Vec3, Vec3]
    triangle: tuple[Vec3, Vec3, Vec3]


def chambers() -> list[Chamber]:
    """The 24 chambers, labels in lexicographic arrangement order."""
    out = []
    for label in permutations(range(4)):
        walls = tuple(unit(_root(label[p], label[p + 1])) for p in range(3))
        tri = tuple(unit(_place(prof, label)) for prof in _CORNER_PROFILES)
        out.append(Chamber(label, walls, tri))
    return out


def interior_point(label: Permutation) -> Vec3:
    """A unit point strictly inside the chamber of the given arrangement."""
    return unit(_place(_INTERIOR_PROFILE, label))


def triangle_angles(tri) -> tuple[float, float, float]:
    """Interior spherical angles at the three corners."""
    out = []
    for t in range(3):
        a, b, c = tri[t], tri[(t + 1) % 3], tri[(t + 2) % 3]
        tb = _tangent(a, b)
        tc = _tangent(a, c)
        out.append(math.acos(max(-1.0, min(1.0, dot(tb, tc)))))
    return tuple(out)


def _tangent(a: Vec3, b: Vec3) -> Vec3:
    d = dot(a, b)
    return unit((b[0] - d * a[0], b[1] - d * a[1], b[2] - d * a[2]))


def spherical_excess(tri) -> float:
    """Area of the spherical triangle: angle sum minus pi."""
    return sum(triangle_angles(tri)) - math.pi


def _vkey(v: Vec3):
    return (round(v[0], 9), round(v[1], 9), round(v[2], 9))


def classified_vertices() -> dict[CellType, list[Vec3]]:
    """Distinct tessellation vertices by cell type, sorted by coordinates."""
    seen: dict[tuple, tuple[CellType, Vec3]] = {}
    for ch in chambers():
        for corner, kind in zip(ch.triangle, _CORNER_TYPES):
            seen.setdefault(_vkey(corner), (kind, corner))
    out: dict[CellType, list[Vec3]] = {CellType.TRICKY: [], CellType.EASY: []}
    for key in sorted(seen):
        kind, v = seen[key]
        out[kind].append(v)
    return out


def mesh_counts() -> tuple[int, int, int]:
    """(vertices, edges, faces) of the triangulation, by traversal."""
    verts: set[tuple] = set()
    edges: set[frozenset] = set()
    faces = 0
    for ch in chambers():
        keys = [_vkey(v) for v in ch.triangle]
        verts.update(keys)
        for t in range(3):
            edges.add(frozenset((keys[t], keys[(t + 1) % 3])))
        faces += 1
    return len(verts), len(edges), faces


def stereographic(p: Vec3, pole: Vec3) -> tuple[float, float]:
    """Project the unit sphere minus the pole onto the pole's equatorial
    plane; great circles go to circles or straight lines, angles are kept."""
    return _stereographic(p, pole, *_plane_basis(pole))


def _stereographic(p: Vec3, pole: Vec3, u: Vec3, v: Vec3) -> tuple[float, float]:
    """`stereographic` in the plane basis u, v of `_plane_basis(pole)`."""
    for w in (p, pole):
        if abs(1.0 - norm(w)) > 1e-12:
            raise ValueError("stereographic projection expects unit vectors")
    d = dot(p, pole)
    gap = (p[0] - pole[0], p[1] - pole[1], p[2] - pole[2])
    if norm(gap) < POLE_EPS:
        raise ValueError("point is at (or too close to) the projection pole")
    q = ((p[0] - d * pole[0]) / (1.0 - d),
         (p[1] - d * pole[1]) / (1.0 - d),
         (p[2] - d * pole[2]) / (1.0 - d))
    return (dot(q, u), dot(q, v))


def _plane_basis(pole: Vec3) -> tuple[Vec3, Vec3]:
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    seed = min(axes, key=lambda a: abs(dot(pole, a)))
    u = unit(cross(pole, seed))
    return u, cross(pole, u)


def _slerp(a: Vec3, b: Vec3, t: float) -> Vec3:
    theta = math.acos(max(-1.0, min(1.0, dot(a, b))))
    if theta < 1e-12:
        return a
    sa = math.sin((1.0 - t) * theta) / math.sin(theta)
    sb = math.sin(t * theta) / math.sin(theta)
    return (sa * a[0] + sb * b[0], sa * a[1] + sb * b[1], sa * a[2] + sb * b[2])


# Rendering constants: samples per geodesic arc, world half-width of the
# viewport, and the radius cap applied to points running off to infinity.
ARC_SAMPLES = 48
VIEW_HALF_WIDTH = 5.0
RADIUS_CLAMP = 20.0


def _clamp_radius(xy: tuple[float, float]) -> tuple[float, float]:
    r = math.hypot(*xy)
    if r > RADIUS_CLAMP:
        f = RADIUS_CLAMP / r
        return (xy[0] * f, xy[1] * f)
    return xy


def render_svg(size: int = 800, labels: bool = False) -> str:
    """Deterministic SVG of the tessellation, projected from an easy vertex.

    All 24 chambers appear as closed paths of sampled geodesic arcs; the
    four chambers touching the pole run off through a radius clamp and show
    as unbounded regions.  The 13 finite vertices are marked: circles for
    the 8 hexagonal ("tricky") ones, squares for the 5 square ("easy") ones;
    the sixth easy vertex is the pole itself, out at infinity.
    """
    by_type = classified_vertices()
    pole = by_type[CellType.EASY][0]

    basis = _plane_basis(pole)
    scale = size / (2.0 * VIEW_HALF_WIDTH)

    def to_px(xy: tuple[float, float]) -> tuple[float, float]:
        return (size / 2.0 + xy[0] * scale, size / 2.0 - xy[1] * scale)

    def project(v: Vec3):
        gap = (v[0] - pole[0], v[1] - pole[1], v[2] - pole[2])
        if norm(gap) < POLE_EPS:
            return None
        return to_px(_clamp_radius(_stereographic(v, pole, *basis)))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        '<g fill="none" stroke="#333333" stroke-width="1.2">',
    ]
    regions = chambers()
    for ch in regions:
        pts = []
        for t in range(3):
            a, b = ch.triangle[t], ch.triangle[(t + 1) % 3]
            for s in range(ARC_SAMPLES):
                xy = project(_slerp(a, b, s / ARC_SAMPLES))
                if xy is not None:
                    pts.append(xy)
        d = "M " + " L ".join(f"{x:.4f} {y:.4f}" for x, y in pts) + " Z"
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
