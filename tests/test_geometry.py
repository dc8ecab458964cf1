import hashlib
import itertools
import math
from collections import Counter

import pytest

from pbw.coxeter import CellType
from pbw.geometry import (_B4TO3, Chamber, _classify, _plane_basis, _stereographic,
                          _to3, chambers, cross, dot, interior_point, norm,
                          render_svg, unit)

from sphere import mesh_counts, spherical_excess, triangle_angles, vkey


def root(i, j):
    """The root e_i - e_j carried to R^3."""
    v4 = [0.0] * 4
    v4[i], v4[j] = 1.0, -1.0
    return _to3(v4)


def reflect(v, r):
    """Reflection of v in the plane orthogonal to r."""
    c = 2.0 * dot(v, r) / dot(r, r)
    return tuple(a - c * b for a, b in zip(v, r))


def stereographic(p, pole):
    return _stereographic(p, pole, *_plane_basis(pole))


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


def test_triangle_angles():
    for c in chambers():
        angles = sorted(triangle_angles(c.triangle))
        assert abs(angles[0] - math.pi / 3) < 1e-9
        assert abs(angles[1] - math.pi / 3) < 1e-9
        assert abs(angles[2] - math.pi / 2) < 1e-9


def test_total_area_is_sphere():
    total = sum(spherical_excess(c.triangle) for c in chambers())
    assert abs(total - 4 * math.pi) < 1e-6


def test_mesh_counts_and_euler():
    v, e, f = mesh_counts()
    assert (v, e, f) == (14, 36, 24)
    assert v - e + f == 2


def test_vertex_degrees():
    degree = Counter()
    for c in chambers():
        for corner in c.triangle:
            degree[vkey(corner)] += 1
    assert sorted(degree.values()) == [4] * 6 + [6] * 8


def test_classified_vertices_censuses():
    by_type = _classify(chambers())
    assert len(by_type[CellType.TRICKY]) == 8
    assert len(by_type[CellType.EASY]) == 6
    # degree-4 vertices are exactly the easy ones
    degree = Counter()
    for c in chambers():
        for corner in c.triangle:
            degree[vkey(corner)] += 1
    for v in by_type[CellType.EASY]:
        assert degree[vkey(v)] == 4
    for v in by_type[CellType.TRICKY]:
        assert degree[vkey(v)] == 6


def test_stereographic_antipode_and_equator():
    pole = unit((1.0, 2.0, -0.5))
    assert stereographic((-pole[0], -pole[1], -pole[2]), pole) == (0.0, 0.0)
    seed = unit(cross(pole, (0.0, 0.0, 1.0)))
    other = cross(pole, seed)
    for t in range(12):
        ang = 2 * math.pi * t / 12
        p = unit(tuple(math.cos(ang) * a + math.sin(ang) * b
                       for a, b in zip(seed, other)))
        x, y = stereographic(p, pole)
        assert abs(math.hypot(x, y) - 1.0) < 1e-12


def test_stereographic_lines_through_pole():
    pole = unit((0.3, -1.1, 0.7))
    seed = unit(cross(pole, (1.0, 0.0, 0.0)))
    pts = []
    for t in range(1, 21):
        ang = 0.1 + (2 * math.pi - 0.2) * t / 21
        p = tuple(math.cos(ang) * a + math.sin(ang) * b
                  for a, b in zip(pole, seed))
        pts.append(stereographic(unit(p), pole))
    far = max(pts, key=lambda q: math.hypot(*q))
    d = math.hypot(*far)
    direction = (far[0] / d, far[1] / d)
    for x, y in pts:
        residual = abs(x * direction[1] - y * direction[0])
        assert residual <= 1e-6 * max(1.0, math.hypot(x, y))


def test_stereographic_rejects_pole_and_non_unit():
    pole = (0.0, 0.0, 1.0)
    assert stereographic(pole, pole) is None
    with pytest.raises(ValueError, match="unit"):
        stereographic((0.0, 0.0, 2.0), pole)
    with pytest.raises(ValueError, match="unit"):
        stereographic((1.0, 0.0, 0.0), (0.0, 0.0, 2.0))


def test_render_svg_contents():
    svg = render_svg(size=400)
    assert svg.count('class="region"') == 24
    assert svg.count('class="vertex tricky"') == 8
    assert svg.count('class="vertex easy"') == 5
    assert svg.count('class="label"') == 0
    assert 'width="400"' in svg


def test_render_svg_deterministic_and_labelled():
    a = render_svg(size=640, labels=True)
    b = render_svg(size=640, labels=True)
    assert a == b
    assert a.count('class="label"') == 24
    assert ">abcd<" in a


# sha256 of the rendered bytes: any change to a sampled or projected point
# that survives the 4-decimal formatting shows here.
RENDER_SHA256 = {
    (160, False): "2573484952173fe91d13152874f6b3c9882cc9c3e34d7aedfbb06d33fb1b1686",
    (800, False): "c55fe257b976aaa53ad9406954ff060576933ec2454ee6efcd25d446fdea643f",
    (320, True): "00d3a12ed2c1f3a4daa21d576d51a32e960d1abf7f8612b46b0fcdc5917f4fed",
}


@pytest.mark.parametrize("size, labels", sorted(RENDER_SHA256))
def test_render_svg_bytes_pinned(size, labels):
    svg = render_svg(size, labels=labels).encode()
    assert hashlib.sha256(svg).hexdigest() == RENDER_SHA256[size, labels]
