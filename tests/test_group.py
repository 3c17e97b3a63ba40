import copy
import dataclasses
import itertools
import pickle
import random
from collections import Counter

import pytest

from planecover import cover, group
from planecover.errors import DimensionError, DomainError
from planecover.group import Character, GroupElement

from conftest import closure_span, greedy_complement_basis, reference_element_parse


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
    with pytest.raises(DimensionError):
        g("10") + g("100")


def test_epsilon_examples():
    assert group.epsilon(chi("10"), g("11")) == 1
    assert group.epsilon(chi("01"), g("10")) == 0
    values = tuple(group.epsilon(chi("11"), h) for h in (g("10"), g("01"), g("11")))
    assert values == (1, 1, 0)


def test_epsilon_rejects_zero():
    with pytest.raises(DomainError):
        group.epsilon(chi("10"), g("00"))


def test_epsilon_joint_table_r3():
    # the branch elements on which two characters are both odd
    c1, c2 = chi("110"), chi("011")
    both = {h for h in group.nonzero_elements(3) if group.epsilon(c1, h) & group.epsilon(c2, h)}
    assert both == {g("010"), g("101")}
    either = {h for h in group.nonzero_elements(3) if group.epsilon(c1 + c2, h)}
    assert either == {g("100"), g("001"), g("110"), g("011")}


def test_span_examples():
    assert group.span([], r=2) == frozenset({g("00")})
    assert group.span([g("10"), g("01")], 2) == frozenset(group.elements(2))
    assert group.span([g("110"), g("011")], 3) == frozenset(
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
                rhs = group.epsilon(c1 + c2, h) + 2 * (group.epsilon(c1, h) & group.epsilon(c2, h))
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


def _subsets(r):
    """Every subset of the nonzero elements for r <= 3; 500 seeded ones at r = 4."""
    nonzero = list(group.nonzero_elements(r))
    if r <= 3:
        for n in range(len(nonzero) + 1):
            yield from itertools.combinations(nonzero, n)
    else:
        rng = random.Random(4)
        for _ in range(500):
            yield tuple(h for h in nonzero if rng.random() < rng.random())


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_elimination_agrees_with_closure(r):
    for subset in _subsets(r):
        reference = closure_span(subset, r)
        assert group.span(subset, r) == reference
        assert 1 << group.rank(subset, r) == len(reference)
        model = cover.plane_cover(
            r,
            [(f"c{i}", 2, {}) for i in range(len(subset))],
            {str(h): [(f"c{i}", 1)] for i, h in enumerate(subset)},
        )
        assert cover.is_totally_ramified(model) == (len(reference) == 2**r)


@pytest.mark.parametrize("r, count", [(1, 2), (2, 5), (3, 16), (4, 67)])
def test_complement_basis_is_the_greedy_coordinate_basis(r, count):
    # every subgroup is spanned by at most r elements; count is their number
    nonzero = list(group.nonzero_elements(r))
    subgroups = {
        group.span(gens, r) for n in range(r + 1) for gens in itertools.combinations(nonzero, n)
    }
    assert len(subgroups) == count
    for sub in subgroups:
        basis = group.complement_basis(sub, r)
        assert basis == greedy_complement_basis(sub, r)
        assert len(basis) == r - group.rank(sub, r)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_complement_basis_of_generators_is_that_of_their_span(r):
    everything = frozenset(group.elements(r))
    for subset in _subsets(r):
        basis = group.complement_basis(subset, r)
        assert basis == group.complement_basis(group.span(subset, r), r)
        assert len(basis) == r - group.rank(subset, r)
        assert group.span([*subset, *basis], r) == everything


def test_rank_examples():
    assert group.rank([], 3) == 0
    assert group.rank([g("110"), g("011"), g("101")], 3) == 2
    assert group.rank(group.elements(4), 4) == 4
    with pytest.raises(DimensionError):
        group.rank([g("10"), g("100")], 2)


# -- interning -------------------------------------------------------------------

ALL = [h for r in range(1, group.MAX_RANK + 1) for h in group.elements(r)]


def _key(h):
    """The reference identity and order of an element: its (r, mask) tuple."""
    return (h.r, h.mask)


def test_every_way_to_make_an_element_returns_the_interned_object():
    assert len(ALL) == 30 and len({id(h) for h in ALL}) == 30
    for h in ALL:
        assert GroupElement(h.bits) is h
        assert GroupElement(list(h.bits)) is h
        assert GroupElement.parse(str(h)) is h
        assert GroupElement._of(h.r, h.mask) is h
        assert Character.parse(str(h)) is h
        assert group.zero(h.r) + h is h
        assert h + h is group.zero(h.r)
    interned = {id(h) for h in ALL}
    for r in range(1, group.MAX_RANK + 1):
        assert list(group.elements(r)) == list(group.characters(r))
        for a, b in itertools.product(group.elements(r), repeat=2):
            assert a + b is GroupElement._of(r, a.mask ^ b.mask)
        assert {id(h) for h in group.span(group.elements(r), r)} <= interned
        assert {id(h) for h in group.complement_basis([], r)} <= interned
        assert {id(h) for h in group.nonzero_characters(r)} <= interned


def test_equality_hash_and_order_agree_with_the_rank_mask_reference():
    for a, b in itertools.product(ALL, repeat=2):
        assert (a == b) == (_key(a) == _key(b))
        assert (a != b) == (_key(a) != _key(b))
        assert (a < b) == (_key(a) < _key(b))
        assert (a <= b) == (_key(a) <= _key(b))
        assert (a > b) == (_key(a) > _key(b))
        assert (a >= b) == (_key(a) >= _key(b))
        if a == b:
            assert hash(a) == hash(b)
    rng = random.Random(17)
    for _ in range(200):
        items = [rng.choice(ALL) for _ in range(rng.randint(0, 40))]
        assert [_key(h) for h in sorted(items)] == sorted(_key(h) for h in items)
        assert sorted(items, key=group.element_key) == sorted(items)
        assert sorted(_key(h) for h in set(items)) == sorted({_key(h) for h in items})
        counts = {h: items.count(h) for h in items}
        assert {_key(h): n for h, n in counts.items()} == Counter(_key(h) for h in items)
    assert g("10") != "10" and g("1") != 1


def test_copies_and_pickles_are_the_interned_object():
    for h in ALL:
        assert copy.copy(h) is h
        assert copy.deepcopy(h) is h
        assert pickle.loads(pickle.dumps(h)) is h
    branch = ((g("01"), (("c", 1),)), (g("11"), (("d", 2),)))
    copied = copy.deepcopy(branch)
    assert all(a is b for (a, _), (b, _) in zip(copied, branch))


def test_elements_stay_frozen_and_keep_their_text():
    h = g("0110")
    for name, value in (("r", 3), ("mask", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, name, value)
    assert (h.r, h.mask, h.bits, str(h), repr(h)) == (
        4, 6, (0, 1, 1, 0), "0110", "GroupElement((0, 1, 1, 0))"
    )
    assert g("0110") is h


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GroupElement((0, 2)), "bit vector entries must be 0 or 1, got (0, 2)"),
        (lambda: GroupElement((1, -1, 0)), "bit vector entries must be 0 or 1, got (1, -1, 0)"),
        (lambda: GroupElement(()), "rank must be between 1 and 4, got 0"),
        (lambda: GroupElement((0, 1, 0, 1, 1)), "rank must be between 1 and 4, got 5"),
        (lambda: GroupElement.parse("1a0"), "non-binary group element '1a0'"),
        (lambda: GroupElement.parse(""), "non-binary group element ''"),
        (lambda: GroupElement.parse("10101"), "rank must be between 1 and 4, got 5"),
        (lambda: group.zero(0), "rank must be between 1 and 4, got 0"),
        (lambda: list(group.elements(5)), "rank must be between 1 and 4, got 5"),
        (lambda: group.span([], 0), "rank must be between 1 and 4, got 0"),
        (lambda: group.span([], 5), "rank must be between 1 and 4, got 5"),
        (lambda: group.complement_basis([], 5), "rank must be between 1 and 4, got 5"),
        (lambda: group.rank([], 5), "rank must be between 1 and 4, got 5"),
    ],
)
def test_bad_bits_and_ranks_raise_the_same_domain_errors(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_parse_agrees_with_the_reference_on_every_short_string():
    def parsed(parse, text):
        try:
            return parse(text)
        except DomainError as exc:
            return str(exc)

    texts = ["".join(t) for n in range(6) for t in itertools.product("01x", repeat=n)]
    assert len(texts) == 364
    for text in texts:
        got = parsed(GroupElement.parse, text)
        want = parsed(reference_element_parse, text)
        assert got is want if isinstance(want, GroupElement) else got == want, text
