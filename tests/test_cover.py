import itertools
import random

import pytest

from planecover import cover as cov
from planecover import group
from planecover.cover import (
    add_marked_point,
    add_marked_points,
    check_prod_relations,
    derive_building_data,
    is_totally_ramified,
    plane_cover,
    quotient_cover,
)
from planecover.errors import (
    DanglingReferenceError,
    DimensionError,
    DomainError,
    InconsistencyError,
    ParityError,
)
from planecover.group import Character, GroupElement
from planecover.lattice import Center, DivisorClass
from planecover.normalize import pull_back

from conftest import FIXTURE_DIR, load_cover


def test_totally_ramified_examples():
    two = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {})],
        {"10": [("A", 1)], "01": [("B", 1)]},
    )
    assert is_totally_ramified(two)
    only_diag = plane_cover(2, [("A", 1, {})], {"11": [("A", 1)]})
    assert not is_totally_ramified(only_diag)
    assert is_totally_ramified(load_cover("prop48"))


def test_derive_building_data_two_lines_and_cubic():
    building = derive_building_data(load_cover("prop53"))
    degrees = {str(chi): cls.degree for chi, cls in building.items()}
    assert degrees == {"00": 0, "10": 2, "01": 2, "11": 1}


def test_derive_building_data_five_lines():
    building = derive_building_data(load_cover("prop59"))
    twos = {str(chi) for chi, cls in building.items() if cls.degree == 2}
    ones = {str(chi) for chi, cls in building.items() if cls.degree == 1}
    assert twos == {"1110", "1011", "0111", "1101", "1111"}
    assert len(ones) == 10


def test_derive_building_data_parity_error():
    bad = plane_cover(
        2,
        [("A", 1, {}), ("B", 2, {})],
        {"10": [("A", 1)], "01": [("B", 1)]},
    )
    with pytest.raises(ParityError) as err:
        derive_building_data(bad)
    assert err.value.character == Character((1, 0))


def test_prod_relations_hold_for_derived_data():
    for name in ("prop53", "prop57", "prop59", "prop51", "prop410"):
        report = check_prod_relations(load_cover(name))
        assert report.ok
        assert report.pairs_checked == 4 ** load_cover(name).r


def test_prop57_building_values():
    building = derive_building_data(load_cover("prop57"))
    by_chi = {str(chi): cls.degree for chi, cls in building.items() if not chi.is_zero}
    assert by_chi == {
        "100": 1,
        "010": 2,
        "001": 1,
        "110": 2,
        "101": 2,
        "011": 1,
        "111": 1,
    }


def test_perturbed_building_data_fail_prod():
    model = load_cover("prop53")
    building = derive_building_data(model)
    hh = Character((1, 1))
    building[hh] = building[hh] + cov.lattice.hyperplane(model.surface)
    report = check_prod_relations(model, building)
    assert not report.ok
    # oracle: a pair is violated exactly when L_11 appears unequally often
    # on the two sides of its relation
    expected = set()
    for c1, c2 in itertools.product(group.characters(2), repeat=2):
        if [c1, c2].count(hh) != [c1 + c2].count(hh):
            expected.add((c1, c2))
    assert set(report.violations) == expected
    assert all(hh in (c1, c2, c1 + c2) for c1, c2 in report.violations)


def test_explicit_rank2_relation_system():
    # the six relations of the rank-2 system, written out
    model = load_cover("prop53")
    L = derive_building_data(model)
    D = {str(g): model.branch_class(g) for g, _ in model.branch}
    c = {s: Character.parse(s) for s in ("10", "01", "11")}
    assert 2 * L[c["10"]] == D["10"] + D["11"]
    assert 2 * L[c["01"]] == D["01"] + D["11"]
    assert 2 * L[c["11"]] == D["10"] + D["01"]
    assert L[c["10"]] + L[c["01"]] == L[c["11"]] + D["11"]
    assert L[c["10"]] + L[c["11"]] == L[c["01"]] + D["01"]
    assert L[c["01"]] + L[c["11"]] == L[c["10"]] + D["10"]


def test_quotient_cover_examples():
    # r=2: modding out by <(1,0)> leaves a double cover branched along D_01 + D_11
    model = load_cover("prop53")
    half = quotient_cover(model, [GroupElement.parse("10")])
    assert half.r == 1
    branch = {str(g): sorted(cid for cid, _ in entries) for g, entries in half.branch}
    assert branch == {"1": ["cubic", "lineB"]}

    # r=3 case: quotient by the diagonal leaves the three pencil lines
    fix48 = load_cover("prop48")
    quarter = quotient_cover(fix48, [GroupElement.parse("111")])
    assert quarter.r == 2
    kept = sorted(cid for _, entries in quarter.branch for cid, _ in entries)
    assert kept == ["lineA", "lineB", "lineC"]
    assert is_totally_ramified(quarter)

    # trivial subgroup: unchanged cover
    same = quotient_cover(fix48, [])
    assert same == fix48


def test_three_intermediate_double_covers():
    # modding an r=2 cover by each nonzero element leaves the double cover
    # branched along the other two divisors
    model = load_cover("prop42")
    expected = {
        "10": ["lineB", "lineC"],
        "01": ["lineA", "lineC"],
        "11": ["lineA", "lineB"],
    }
    for key, remaining in expected.items():
        half = quotient_cover(model, [GroupElement.parse(key)])
        kept = sorted(cid for _, entries in half.branch for cid, _ in entries)
        assert kept == remaining


def test_quotient_of_rank4_family_is_the_curve_triple():
    # modding out the pencil-line subgroup leaves the three curves, which in
    # the concurrent case form the pencil-lines cover at the common point
    from planecover.classify import classify

    fix412 = load_cover("prop412")
    sub = [GroupElement.parse("0010"), GroupElement.parse("0001")]
    quotient = quotient_cover(fix412, sub)
    assert quotient.r == 2
    kept = sorted(cid for _, entries in quotient.branch for cid, _ in entries)
    assert kept == ["lineA", "lineB", "lineC"]
    label = classify(quotient)
    assert (label.proposition, label.symbol) == ("4.2", "P1.221&P1.22.1")
    assert dict(label.params)["common_point"] == "q"


def test_quotient_by_full_group_rejected():
    with pytest.raises(DomainError):
        quotient_cover(load_cover("prop53"), [GroupElement.parse("10"), GroupElement.parse("01")])


def test_quotient_preserves_total_ramification():
    rng = random.Random(11)
    for name in ("prop48", "prop410", "prop412", "prop59"):
        model = load_cover(name)
        assert is_totally_ramified(model)
        elements = [g for g in group.nonzero_elements(model.r)]
        for _ in range(5):
            sub = group.span([rng.choice(elements)], model.r)
            if group.subgroup_dimension(sub) == model.r:
                continue
            assert is_totally_ramified(quotient_cover(model, sub))


def test_parity_iff_same_parity_r2_exhaustive():
    # derivation succeeds exactly when the three branch degrees share parity
    for d10, d01, d11 in itertools.product(range(7), repeat=3):
        comps = []
        branch = {}
        for key, d in (("10", d10), ("01", d01), ("11", d11)):
            if d > 0:
                comps.append((f"c{key}", d, {}))
                branch[key] = [(f"c{key}", 1)]
        model = plane_cover(2, comps, branch)
        parities = {d % 2 for d in (d10, d01, d11)}
        if len(parities) == 1:
            building = derive_building_data(model)
            assert building[Character((1, 0))].degree == (d10 + d11) // 2
            assert check_prod_relations(model, building).ok
        else:
            with pytest.raises(ParityError):
                derive_building_data(model)


def random_valid_cover(rng: random.Random):
    """A random plane configuration whose building data derive successfully."""
    while True:
        r = rng.randint(2, 4)
        n = rng.randint(2, 5)
        comps = [(f"c{i}", rng.randint(1, 4), {}) for i in range(n)]
        branch = {}
        for i in range(n):
            g = rng.choice([h for h in group.nonzero_elements(r)])
            branch.setdefault(str(g), []).append((f"c{i}", 1))
        model = plane_cover(r, comps, branch)
        try:
            derive_building_data(model)
        except ParityError:
            continue
        return model


def test_prod_relations_random_valid_configurations():
    rng = random.Random(5150)
    for _ in range(200):
        model = random_valid_cover(rng)
        assert check_prod_relations(model).ok


def prod_violations_oracle(model, building):
    """Each relation on its own: L_chi + L_chi' = L_{chi+chi'} + sum eps_{chi,chi'}(g) D_g."""
    violations = []
    for chi, chi2 in itertools.product(group.characters(model.r), repeat=2):
        rhs = building[chi + chi2]
        for g, _ in model.branch:
            if group.epsilon2(chi, chi2, g):
                rhs = rhs + model.branch_class(g)
        if building[chi] + building[chi2] != rhs:
            violations.append((chi, chi2))
    return violations


def test_prod_relations_match_pairwise_oracle():
    rng = random.Random(2718)
    failing = 0
    for i in range(100):
        model = random_valid_cover(rng)
        if i % 2:
            # a second coordinate, so perturbations need not be multiples of H
            model = pull_back(model, "fresh")
        building = derive_building_data(model)
        for chi in rng.sample(list(group.characters(model.r)), rng.randint(1, 2)):
            shift = tuple(rng.randint(-2, 2) for _ in range(model.surface.rank))
            building[chi] = building[chi] + DivisorClass(model.surface, shift)
        report = check_prod_relations(model, building)
        assert report.pairs_checked == 4**model.r
        assert list(report.violations) == prod_violations_oracle(model, building)
        failing += not report.ok
    assert failing >= 50


def test_prod_relations_missing_character():
    model = load_cover("prop53")
    building = derive_building_data(model)
    del building[Character((0, 1))]
    with pytest.raises(DomainError, match="character 01"):
        check_prod_relations(model, building)


def test_prod_relations_class_on_another_surface():
    # same rank, different center: only the surface tells the classes apart
    model = pull_back(load_cover("prop51"), "x")
    building = derive_building_data(model)
    other = cov.lattice.PLANE.blow_up(Center("z"))
    hh = Character((1, 1))
    building[hh] = DivisorClass(other, building[hh].coeffs)
    with pytest.raises(DimensionError):
        check_prod_relations(model, building)


def test_component_validation():
    with pytest.raises(DomainError):
        plane_cover(2, [("A", -1, {})], {"10": [("A", 1)]})
    with pytest.raises(DomainError):
        # a degree-0 plane component is not an exceptional class
        cov.CurveComponent("A", cov.lattice.zero_class(cov.lattice.PLANE))


def test_add_marked_points_equals_successive_single_points():
    model = pull_back(load_cover("prop51"), "x")
    points = [("a", "x", None), ("b", None, {"conic": 1, "quartic": 2}), ("c", "a", {"E_x": 2})]
    successive = model
    for name, parent, mults in points:
        successive = add_marked_point(successive, name, parent, mults)
    batched = add_marked_points(model, points)
    assert batched == successive
    # the exceptional curve of x passes through its new direction a
    assert batched.component("E_x").mult_at("a") == 1
    assert batched.component("E_x").mult_at("c") == 2


def test_add_marked_points_rules_hold_per_point():
    model = pull_back(load_cover("prop51"), "x")
    for name in ("y", "x"):  # a marked point and a center
        with pytest.raises(DomainError):
            add_marked_points(model, [("a", None, None), (name, None, None)])
    with pytest.raises(DomainError):
        add_marked_points(model, [("a", None, None), ("a", None, None)])
    with pytest.raises(DanglingReferenceError):
        add_marked_points(model, [("a", None, {"conic": 1}), ("b", None, {"nope": 1})])
    with pytest.raises(DanglingReferenceError):
        add_marked_points(model, [("a", "nowhere", None)])


def test_indexed_lookups_agree_with_scans_and_keep_their_errors():
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        model = load_cover(path.stem)
        for m in model.marked:
            pulled = pull_back(model, m.name) if model.point_is_ripe(m.name) else model
            for c in pulled.components:
                assert pulled.component(c.cid) is c
            for m2 in pulled.marked:
                assert pulled.marked_point(m2.name) is m2
            for slot, center in enumerate(pulled.surface.centers, start=1):
                assert pulled.surface.index_of(center.name) == slot
                assert pulled.surface.has_center(center.name)
                assert pulled.surface.center(center.name) is center
    model = pull_back(load_cover("prop51"), "x")  # E_x lies in 10 twice and in 01 once
    with pytest.raises(DanglingReferenceError, match="no component named 'nope'"):
        model.component("nope")
    with pytest.raises(DanglingReferenceError, match="no marked point named 'x'"):
        model.marked_point("x")
    with pytest.raises(DanglingReferenceError, match="no center named 'y'"):
        model.surface.index_of("y")
    with pytest.raises(DanglingReferenceError, match="no center named 'y'"):
        model.surface.center("y")
    assert not model.surface.has_center("y")
    assert model.inertia_of("quartic") == GroupElement((1, 0))
    for cid in ("E_x", "nope"):
        with pytest.raises(InconsistencyError, match=f"component '{cid}' is not reduced/uniquely"):
            model.inertia_of(cid)
    for branch in ({"10": [("A", 1)], "01": [("A", 1)]}, {"10": [("A", 2)]}):
        with pytest.raises(InconsistencyError, match="component 'A' is not reduced/uniquely"):
            plane_cover(2, [("A", 1, {})], branch).inertia_of("A")
