import itertools

import pytest

from planecover import group
from planecover.errors import DimensionError, DomainError
from planecover.group import Character, GroupElement


def g(text):
    return GroupElement.parse(text)


def chi(text):
    return Character.parse(text)


def test_pair_examples():
    assert group.pair(chi("10"), g("01")) == 0
    assert group.pair(chi("11"), g("11")) == 0
    assert group.pair(chi("110"), g("100")) == 1


def test_pair_length_mismatch():
    with pytest.raises(DimensionError):
        group.pair(chi("10"), g("100"))


def test_epsilon_examples():
    assert group.epsilon(chi("10"), g("11")) == 1
    assert group.epsilon(chi("01"), g("10")) == 0
    values = tuple(group.epsilon(chi("11"), h) for h in (g("10"), g("01"), g("11")))
    assert values == (1, 1, 0)


def test_epsilon_rejects_zero():
    with pytest.raises(DomainError):
        group.epsilon(chi("10"), g("00"))
    with pytest.raises(DomainError):
        group.epsilon2(chi("10"), chi("01"), g("00"))


def test_epsilon2_examples():
    assert group.epsilon2(chi("10"), chi("10"), g("10")) == 1
    assert group.epsilon2(chi("10"), chi("01"), g("10")) == 0


def test_epsilon2_full_table_r3():
    # oracle: enumerate all nonzero g and apply the definition directly
    c1, c2 = chi("110"), chi("011")
    expected = {
        h
        for h in group.nonzero_elements(3)
        if group.pair(c1, h) == 1 and group.pair(c2, h) == 1
    }
    assert expected == {g("010"), g("101")}
    for h in group.nonzero_elements(3):
        assert group.epsilon2(c1, c2, h) == (1 if h in expected else 0)


def test_span_examples():
    assert group.span([], r=2) == frozenset({g("00")})
    assert group.span([g("10"), g("01")]) == frozenset(group.elements(2))
    assert group.span([g("110"), g("011")]) == frozenset(
        {g("000"), g("110"), g("011"), g("101")}
    )


def test_span_idempotent_monotone_power_of_two():
    import random

    rng = random.Random(7)
    for _ in range(50):
        r = rng.randint(1, 4)
        gens = [GroupElement(tuple(rng.randint(0, 1) for _ in range(r))) for _ in range(3)]
        gens = [x for x in gens if not x.is_zero]
        s = group.span(gens, r)
        assert group.span(s, r) == s
        bigger = group.span(list(s) + [GroupElement((1,) + (0,) * (r - 1))], r)
        assert s <= bigger
        assert len(s) & (len(s) - 1) == 0


def test_quotient_image_examples():
    h = [g("00"), g("10")]
    assert group.quotient_image(g("10"), h) == g("00")
    assert group.quotient_image(g("11"), h) == g("01")
    assert group.quotient_image(g("00"), h) == g("00")


def test_quotient_image_rejects_non_subgroup():
    with pytest.raises(DomainError):
        group.quotient_image(g("10"), [g("10"), g("01")])


def test_rank_cap():
    with pytest.raises(DomainError):
        GroupElement((0, 1, 0, 1, 1))


def test_epsilon_bilinear():
    for r in (2, 3, 4):
        for c in group.nonzero_characters(r):
            for a, b in itertools.product(group.nonzero_elements(r), repeat=2):
                if (a + b).is_zero:
                    continue
                assert group.epsilon(c, a + b) == group.epsilon(c, a) ^ group.epsilon(c, b)


def test_epsilon_sum_identity_exhaustive():
    # eps_chi(g) + eps_chi'(g) = eps_{chi chi'}(g) + 2 * eps_{chi,chi'}(g)
    for r in (2, 3, 4):
        for c1, c2 in itertools.product(group.characters(r), repeat=2):
            for h in group.nonzero_elements(r):
                lhs = group.epsilon(c1, h) + group.epsilon(c2, h)
                rhs = group.epsilon(c1 + c2, h) + 2 * group.epsilon2(c1, c2, h)
                assert lhs == rhs


def test_serialization_round_trip():
    assert str(g("110")) == "110"
    assert GroupElement.parse("110") == GroupElement((1, 1, 0))
    with pytest.raises(DomainError):
        GroupElement.parse("1a0")


def test_pair_is_the_dot_product_mod_two():
    for r in (1, 2, 3, 4):
        for c, h in itertools.product(group.characters(r), group.elements(r)):
            assert group.pair(c, h) == sum(a * b for a, b in zip(c.bits, h.bits)) % 2


def test_order_is_lexicographic_bit_string_order():
    for r in (1, 2, 3, 4):
        backwards = list(group.elements(r))[::-1]
        assert sorted(backwards) == sorted(backwards, key=str)


def test_characters_and_elements_are_one_type():
    assert Character is GroupElement
    assert list(group.characters(3)) == list(group.elements(3))
    assert [h.bits for h in group.elements(2)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
