"""Spherical checks on `pbw.geometry.chambers()`: angles, area, Euler count."""

import math

from pbw.geometry import chambers, dot, unit


def vkey(v):
    return tuple(round(c, 9) for c in v)


def triangle_angles(tri):
    """Interior spherical angles at the three corners of a unit triangle."""
    def tangent(a, b):  # unit tangent at a of the great-circle arc to b
        d = dot(a, b)
        return unit(tuple(bt - d * at for at, bt in zip(a, b)))

    out = []
    for t in range(3):
        a, b, c = tri[t], tri[(t + 1) % 3], tri[(t + 2) % 3]
        out.append(math.acos(max(-1.0, min(1.0, dot(tangent(a, b), tangent(a, c))))))
    return tuple(out)


def spherical_excess(tri):
    """Area of the spherical triangle: angle sum minus pi."""
    return sum(triangle_angles(tri)) - math.pi


def mesh_counts():
    """(vertices, edges, faces) of the chamber triangulation, by traversal."""
    verts, edges, faces = set(), set(), 0
    for ch in chambers():
        keys = [vkey(v) for v in ch.triangle]
        verts.update(keys)
        edges.update(frozenset((keys[t], keys[(t + 1) % 3])) for t in range(3))
        faces += 1
    return len(verts), len(edges), faces
