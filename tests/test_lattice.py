import random

import pytest

from planecover.errors import (
    DanglingReferenceError,
    DimensionError,
    DomainError,
    GeometryError,
)
from planecover.lattice import (
    PLANE,
    Center,
    DivisorClass,
    canonical,
    cremona_reflect,
    exceptional,
    hyperplane,
    intersect,
)

from conftest import parse_class

F1 = PLANE.blow_up(Center("1"))
TWO = F1.blow_up(Center("2"))
TILDE_F1 = F1.blow_up(Center("2", parent="1"))


def cls(surface, *coeffs):
    return DivisorClass(surface, tuple(coeffs))


def test_intersection_examples():
    assert intersect(hyperplane(PLANE), hyperplane(PLANE)) == 1
    e1 = exceptional(F1, "1")
    assert intersect(e1, e1) == -1
    d = cls(TWO, 6, -2, -6)
    assert intersect(d, d) == 36 - 4 - 36 == -4


def test_intersect_surface_mismatch():
    with pytest.raises(DimensionError):
        intersect(hyperplane(PLANE), hyperplane(F1))


def test_canonical_classes():
    assert canonical(PLANE) == cls(PLANE, -3)
    k1 = canonical(F1)
    assert k1 == cls(F1, -3, 1)
    assert intersect(k1, k1) == 8
    k2 = canonical(TWO)
    assert intersect(k2, k2) == 7


def test_k_squared_drops_by_one_per_center():
    surface = PLANE
    for i in range(1, 5):
        surface = surface.blow_up(Center(str(i)))
        k = canonical(surface)
        assert intersect(k, k) == 9 - i


def test_exceptional_curves_of_a_chain():
    # a (-1)-class has E.E = E.K = -1; the strict transform E1 - E2 of a
    # center with a point infinitely near it is a (-2)-class, E.K = 0
    for surface, e in [
        (F1, exceptional(F1, "1")),
        (TILDE_F1, exceptional(TILDE_F1, "2")),
        (TWO, cls(TWO, 1, -1, -1)),  # the line through both centers
    ]:
        assert (intersect(e, e), intersect(e, canonical(surface))) == (-1, -1)
    e1 = exceptional(TILDE_F1, "1") - exceptional(TILDE_F1, "2")
    assert e1 == cls(TILDE_F1, 0, 1, -1)
    assert (intersect(e1, e1), intersect(e1, canonical(TILDE_F1))) == (-2, 0)
    assert intersect(e1, exceptional(TILDE_F1, "2")) == 1


def test_blow_up_keeps_classes_and_intersections():
    # the total transform pads the coefficients with 0, keeps every
    # intersection number and misses the new exceptional class
    surface = TWO.blow_up(Center("3"))
    assert surface.centers[:2] == TWO.centers and surface.rank == TWO.rank + 1
    e3 = exceptional(surface, "3")
    assert canonical(surface) == DivisorClass.from_support(surface, canonical(TWO).support) + e3
    rng = random.Random(5)
    for _ in range(100):
        a, b = (cls(TWO, *(rng.randint(-4, 4) for _ in range(3))) for _ in range(2))
        up_a = DivisorClass.from_support(surface, a.support)
        up_b = DivisorClass.from_support(surface, b.support)
        assert up_a.coeffs == a.coeffs + (0,)
        assert intersect(up_a, up_b) == intersect(a, b)
        assert intersect(up_a, e3) == 0


def test_blow_up_validation():
    with pytest.raises(DanglingReferenceError):
        PLANE.blow_up(Center("y", parent="x"))
    with pytest.raises(DomainError):
        F1.blow_up(Center("1"))


THREE = TWO.blow_up(Center("3"))


def test_cremona_reflect_examples():
    line = cls(THREE, 1, 0, 0, 0)
    assert cremona_reflect(line, "1", "2", "3") == cls(THREE, 2, -1, -1, -1)
    through_two = cls(THREE, 1, -1, -1, 0)
    contracted = cremona_reflect(through_two, "1", "2", "3")
    assert contracted.degree == 0
    assert contracted == exceptional(THREE, "3")
    # degree-drop move: an (e-1)-fold point at the first center plus two
    # simple base points takes degree e to e-1
    for e in (3, 5, 7):
        curve = cls(THREE, e, -(e - 1), -1, -1)
        image = cremona_reflect(curve, "1", "2", "3")
        assert image.degree == e - 1


def test_cremona_reflect_validation():
    with pytest.raises(GeometryError):
        cremona_reflect(cls(THREE, 1, 0, 0, 0), "1", "1", "2")
    surface = THREE.blow_up(Center("4", parent="1"))
    # a base point infinitely near a non-base center is rejected
    with pytest.raises(GeometryError):
        cremona_reflect(DivisorClass(surface, (1, 0, 0, 0, 0)), "2", "3", "4")


def test_cremona_reflect_involution_and_form_preservation():
    rng = random.Random(20240)
    surfaces = [THREE, THREE.blow_up(Center("4")), TILDE_F1.blow_up(Center("3"))]
    k_checked = 0
    for _ in range(1000):
        surface = rng.choice(surfaces)
        names = surface.names[:3]
        a = DivisorClass(surface, tuple(rng.randint(-5, 5) for _ in range(surface.rank)))
        b = DivisorClass(surface, tuple(rng.randint(-5, 5) for _ in range(surface.rank)))
        ra = cremona_reflect(a, *names)
        rb = cremona_reflect(b, *names)
        assert cremona_reflect(ra, *names) == a
        assert intersect(ra, rb) == intersect(a, b)
        k = canonical(surface)
        assert cremona_reflect(k, *names) == k
        k_checked += 1
    assert k_checked == 1000


def test_class_printing_round_trip():
    d = cls(TILDE_F1, 4, -2, -4)
    assert str(d) == "4H-2E1-4E2"
    assert parse_class(TILDE_F1, "4H-2E1-4E2") == d
    assert str(cls(TWO, 0, 0, 0)) == "0"
    assert parse_class(TWO, "0") == cls(TWO, 0, 0, 0)
    assert parse_class(F1, "-3H+E1") == canonical(F1)


def test_rank_mismatch_rejected():
    with pytest.raises(DimensionError):
        cls(F1, 1)


def test_sparse_classes_match_dense_arithmetic():
    surface = PLANE
    for n in range(6):
        surface = surface.blow_up(Center(f"c{n}", parent=f"c{n - 1}" if n % 3 else None))
    rng = random.Random(1618)
    for _ in range(300):
        a = tuple(rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(surface.rank))
        b = tuple(rng.choice((0, 0, -1, 1)) for _ in range(surface.rank))
        x, y = cls(surface, *a), cls(surface, *b)
        assert x.support == {slot: v for slot, v in enumerate(a) if v}
        assert (x.coeffs, x.degree, x.is_zero) == (a, a[0], not any(a))
        assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
        assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
        assert (-x).coeffs == tuple(-p for p in a)
        assert (3 * x).coeffs == tuple(3 * p for p in a) and (0 * x).is_zero
        assert intersect(x, y) == a[0] * b[0] - sum(p * q for p, q in zip(a[1:], b[1:]))
        assert (x == y) == (a == b) and x == cls(surface, *a)
        assert hash(x) == hash(cls(surface, *a))
        assert DivisorClass.from_support(surface, x.support) == x
        assert parse_class(surface, str(x)) == x
    assert DivisorClass.from_support(TWO, {0: 2, 2: 0}).coeffs == (2, 0, 0)
    with pytest.raises(DimensionError):
        DivisorClass.from_support(F1, {2: 1})
    with pytest.raises(DimensionError):
        DivisorClass.from_support(F1, {-1: 1})
    with pytest.raises(AttributeError):
        x.coeffs = a
