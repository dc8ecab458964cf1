import hashlib
import itertools
import math
from collections import Counter

import pytest

from pbw import geometry
from pbw.coxeter import CellType
from pbw.geometry import (_B4TO3, ARC_SAMPLES, RADIUS_CLAMP, VIEW_HALF_WIDTH,
                          Chamber, _arc, _classify, _plane_basis, _stereographic, _to3,
                          chambers, cross, dot, interior_point, norm, render_svg, unit)

from sphere import vkey


def root(i, j):
    """The root e_i - e_j carried to R^3."""
    v4 = [0.0] * 4
    v4[i], v4[j] = 1.0, -1.0
    return _to3(v4)


def reflect(v, r):
    """Reflection of v in the plane orthogonal to r."""
    c = 2.0 * dot(v, r) / dot(r, r)
    return tuple(a - c * b for a, b in zip(v, r))


SIZE = 400
CENTRE = SIZE / 2.0
UNIT_PX = SIZE / (2 * VIEW_HALF_WIDTH)  # pixels per unit of the projection plane


def stereographic(p, pole):
    """The pixel point of p in a SIZE-pixel view, or None at the pole."""
    return _stereographic([p], pole, *_plane_basis(pole), SIZE)[0]


def roots():
    """All 12 roots e_i - e_j (i != j) carried to R^3."""
    return [root(i, j) for i, j in itertools.permutations(range(4), 2)]


def test_roots_count_and_negation():
    rs = roots()
    assert len(rs) == 12
    keys = {vkey(r) for r in rs}
    assert len(keys) == 12
    for r in rs:
        assert vkey((-r[0], -r[1], -r[2])) in keys


def test_roots_common_length_and_angles():
    rs = roots()
    lengths = {round(norm(r), 12) for r in rs}
    assert len(lengths) == 1
    # angles in {pi/3, pi/2, 2pi/3, pi}; checked on cosines because acos is
    # ill-conditioned at -1 (the antipodal pairs)
    allowed = (0.5, 0.0, -0.5, -1.0)
    for u, v in itertools.combinations(rs, 2):
        cosang = dot(u, v) / (norm(u) * norm(v))
        assert any(abs(cosang - a) < 1e-12 for a in allowed)


def test_adjacent_simple_roots_meet_at_120_degrees():
    s = [root(t, t + 1) for t in range(3)]
    for a, b in ((s[0], s[1]), (s[1], s[2])):
        cosang = dot(a, b) / (norm(a) * norm(b))
        assert abs(math.acos(cosang) - 2 * math.pi / 3) < 1e-12
    # the outer pair commutes: orthogonal roots
    assert abs(dot(s[0], s[2])) < 1e-12


def test_reflections_preserve_root_set():
    rs = roots()
    keys = {vkey(r) for r in rs}
    for r in rs:
        for s in rs:
            assert vkey(reflect(s, r)) in keys


def test_hyperplane_basis_is_orthonormal_and_sum_zero():
    # so _to3 carries the sum-zero hyperplane of R^4, and with it the A3
    # roots, their lengths, angles and reflections, isometrically onto R^3
    for r, row in enumerate(_B4TO3):
        assert abs(sum(row)) < 1e-12
        for s, other in enumerate(_B4TO3):
            assert abs(sum(a * b for a, b in zip(row, other)) - (r == s)) < 1e-12


def test_chamber_labels_are_all_arrangements():
    chs = chambers()
    assert len(chs) == 24
    assert {c.label for c in chs} == set(itertools.permutations(range(4)))


def test_chamber_is_an_immutable_value():
    c, other = chambers()[:2]
    assert repr(c) == f"Chamber(label={c.label!r}, triangle={c.triangle!r})"
    assert repr(c).startswith("Chamber(label=(0, 1, 2, 3), triangle=((")
    assert c == Chamber(c.label, c.triangle) and hash(c) == hash(Chamber(c.label, c.triangle))
    assert c != other
    for field in ("label", "triangle", "other"):
        with pytest.raises(AttributeError):
            setattr(c, field, None)


def test_chamber_interior_inside_walls():
    for c in chambers():
        p = interior_point(c.label)
        walls = [root(c.label[q], c.label[q + 1]) for q in range(3)]
        assert all(dot(p, w) > 0 for w in walls)


def test_chamber_data_is_unit_length():
    for c in chambers():
        for v in c.triangle:
            assert abs(1.0 - norm(v)) <= 1e-12


def test_chambers_closed_under_simple_reflections():
    chs = {c.label: c for c in chambers()}
    for label, c in chs.items():
        for p in range(3):
            alpha = root(p, p + 1)
            swapped = tuple(
                p + 1 if t == p else p if t == p + 1 else t for t in label)
            image = chs[swapped]
            for mine, theirs in zip(c.triangle, image.triangle):
                assert vkey(reflect(mine, alpha)) == vkey(theirs)


def test_classified_vertices_censuses():
    by_type = _classify(chambers())
    assert len(by_type[CellType.TRICKY]) == 8
    assert len(by_type[CellType.EASY]) == 6
    # degree-4 vertices are exactly the easy ones
    degree = Counter()
    for c in chambers():
        for corner in c.triangle:
            degree[vkey(corner)] += 1
    assert sorted(degree.values()) == [4] * 6 + [6] * 8
    for v in by_type[CellType.EASY]:
        assert degree[vkey(v)] == 4
    for v in by_type[CellType.TRICKY]:
        assert degree[vkey(v)] == 6


def test_stereographic_antipode_and_equator():
    # the antipode goes to the view's centre, and the equator to the circle
    # of one plane unit about it, UNIT_PX pixels
    pole = unit((1.0, 2.0, -0.5))
    assert stereographic((-pole[0], -pole[1], -pole[2]), pole) == (CENTRE, CENTRE)
    seed = unit(cross(pole, (0.0, 0.0, 1.0)))
    other = cross(pole, seed)
    for t in range(12):
        ang = 2 * math.pi * t / 12
        p = unit(tuple(math.cos(ang) * a + math.sin(ang) * b
                       for a, b in zip(seed, other)))
        x, y = stereographic(p, pole)
        assert abs(math.hypot(x - CENTRE, y - CENTRE) - UNIT_PX) < 1e-10


def test_stereographic_lines_through_pole():
    # a great circle through the pole goes to one pixel line through the centre
    pole = unit((0.3, -1.1, 0.7))
    seed = unit(cross(pole, (1.0, 0.0, 0.0)))
    pts = []
    for t in range(1, 21):
        ang = 0.1 + (2 * math.pi - 0.2) * t / 21
        p = tuple(math.cos(ang) * a + math.sin(ang) * b
                  for a, b in zip(pole, seed))
        x, y = stereographic(unit(p), pole)
        pts.append((x - CENTRE, y - CENTRE))
    far = max(pts, key=lambda q: math.hypot(*q))
    d = math.hypot(*far)
    direction = (far[0] / d, far[1] / d)
    for x, y in pts:
        residual = abs(x * direction[1] - y * direction[0])
        assert residual <= 1e-6 * max(1.0, math.hypot(x, y))


def test_stereographic_maps_the_pole_to_none():
    # the pole is where 1 - p·pole is not positive: the pole itself, a unit
    # point 1e-8 off it (the difference rounds to 0.0) and a point where it
    # rounds below 0.0 all map to None; a point farther off has an image far
    # past RADIUS_CLAMP, pulled back onto that circle
    pole = (0.0, 0.0, 1.0)
    assert stereographic(pole, pole) is None
    assert stereographic(unit((1e-8, 0.0, 1.0)), pole) is None
    assert stereographic((1.4e-8, 0.0, 1.0 + 2**-52), pole) is None
    x, y = stereographic(unit((1e-3, 0.0, 1.0)), pole)
    assert abs(math.hypot(x - CENTRE, y - CENTRE) - RADIUS_CLAMP * UNIT_PX) < 1e-9


def test_stereographic_projects_a_sequence_in_place():
    pole = unit((0.3, -1.1, 0.7))
    basis = _plane_basis(pole)
    points = [unit((1.0, t, 0.5 - t)) for t in (-2.0, -0.5, 0.25, 1.0, 3.0)]
    alone = [_stereographic([p], pole, *basis, SIZE)[0] for p in points]
    assert None not in alone
    # the pole is None wherever it stands, and every other point keeps its place
    for t in range(len(points) + 1):
        got = _stereographic(points[:t] + [pole] + points[t:], pole, *basis, SIZE)
        assert got == alone[:t] + [None] + alone[t:]


# sha256 of the rendered bytes: any change to a sampled or projected point
# that survives the 4-decimal formatting shows here.
RENDER_SHA256 = {
    (160, False): "2573484952173fe91d13152874f6b3c9882cc9c3e34d7aedfbb06d33fb1b1686",
    (800, False): "c55fe257b976aaa53ad9406954ff060576933ec2454ee6efcd25d446fdea643f",
    (320, True): "00d3a12ed2c1f3a4daa21d576d51a32e960d1abf7f8612b46b0fcdc5917f4fed",
    (640, False): "dad9502cee00fadd98d6fef72e81d36a1d52f39c5dadfe81cadb000f04c6b44c",
    (1000, True): "b62fc68ea1669e4fef362629c661d85c71e6a71b92613b2d72a9fa9b934651f7",
}


@pytest.mark.parametrize("size, labels", sorted(RENDER_SHA256))
def test_render_svg_bytes_pinned(size, labels):
    svg = render_svg(size, labels=labels).encode()
    assert hashlib.sha256(svg).hexdigest() == RENDER_SHA256[size, labels]


def test_arcs_sharing_weights_sample_the_same_points(monkeypatch):
    edges = [(ch.triangle[t], ch.triangle[(t + 1) % 3]) for ch in chambers() for t in range(3)]
    assert len(edges) == 72
    shared = {}
    for a, b in edges:
        assert _arc(a, b, shared) == _arc(a, b, {})
    # each render keeps the weights of all its arcs in one dict of its own,
    # with fewer entries than arcs
    seen = []

    def spy(a, b, weights):
        seen.append(weights)
        return _arc(a, b, weights)

    monkeypatch.setattr(geometry, "_arc", spy)
    render_svg(320)
    render_svg(320)
    assert len(seen) == 144
    first, second = seen[0], seen[72]
    assert first is not second
    assert all(w is first for w in seen[:72]) and all(w is second for w in seen[72:])
    assert 0 < len(first) < 72


def test_render_projects_only_unit_points(monkeypatch):
    # _stereographic checks no norm: every point render_svg builds and hands
    # it, arc samples, vertices and label points, is a unit vector
    seen = []

    def spy(points, *view):
        points = list(points)
        seen.extend(points)
        return _stereographic(points, *view)

    monkeypatch.setattr(geometry, "_stereographic", spy)
    svg = render_svg(320, labels=True).encode()
    assert hashlib.sha256(svg).hexdigest() == RENDER_SHA256[320, True]
    assert len(seen) == 72 * ARC_SAMPLES + 8 + 6 + 24
    assert all(abs(1.0 - norm(p)) <= 1e-12 for p in seen)
