"""Acceptance suite: every exit criterion, one pass/fail line per criterion.

All checks are exact integer comparisons.  Run under pytest as usual, or
execute this file directly to get the per-criterion report:

    python3 tests/test_acceptance.py
"""

import itertools
import random
import sys

from planecover import group, lattice
from planecover.census import census
from planecover.classify import classify, cremona_reduce, match_del_pezzo
from planecover.cover import (
    add_marked_point,
    derive_building_data,
    plane_cover,
)
from planecover.errors import MatchError, ParityError
from planecover.invariants import (
    bicanonical_pullback,
    canonical_square,
    invariant_report,
    riemann_hurwitz_genus,
)
from planecover.lattice import Center, DivisorClass, cremona_reflect, intersect
from planecover.normalize import normalize, pull_back, resolve

from conftest import (
    GOLDEN_DIR,
    PROPOSITION_FIXTURES,
    check_prod_relations,
    load_cover,
    normalize_by_moves,
    smooth_chi,
)


def _report(line: str) -> None:
    print(f"PASS {line}")


# -- criterion 1: invariant fixtures reproduce the source values exactly ----


def test_c1_three_lines_through_a_point():
    result = resolve(load_cover("prop42"))
    assert canonical_square(result.cover) == 8
    _report("criterion 1a: three pencil lines give K^2 = 8 on the blown-up model")


def test_c1_three_general_lines():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 1, {})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
    )
    assert canonical_square(model) == 9
    assert smooth_chi(model) == 1
    _report("criterion 1b: three general lines give K^2 = 9")


def test_c1_concurrent_lines_rank3():
    model = load_cover("prop410")
    two_center = normalize(pull_back(pull_back(model, "p"), "q"))
    assert canonical_square(two_center) == 0
    reduced, moves = cremona_reduce(model)
    assert len(moves) == 1
    assert sorted(c.cls.degree for c in reduced.components) == [1, 1, 1, 1]
    assert canonical_square(reduced) == 8
    assert invariant_report(resolve(reduced)).chi == 1
    _report("criterion 1c: rank-3 concurrent case gives K^2 = 0, then 4 lines with chi = 1, K^2 = 8")


def test_c1_rank4_two_center_model():
    model = load_cover("prop412")
    two_center = normalize(pull_back(pull_back(model, "p"), "q"))
    assert canonical_square(two_center) == -8
    assert canonical_square(resolve(model).cover) == -8
    _report("criterion 1d: rank-4 concurrent case gives K^2 = -8")


def test_c1_tacnode_cover():
    model = load_cover("prop51")
    result = resolve(model)
    assert result.rounds == 2
    assert canonical_square(result.cover) == -4
    expected = -2 * lattice.exceptional(result.cover.surface, "y")
    assert bicanonical_pullback(result.cover) == expected
    reduced, _ = cremona_reduce(model)
    assert canonical_square(resolve(reduced).cover) == -1
    _report(
        "criterion 1e: tacnode cover resolves in 2 rounds to K^2 = -4 with "
        "bicanonical -2E'; alternative model has K^2 = -1"
    )


def test_c1_two_lines_and_cubic():
    model = load_cover("prop53")
    assert smooth_chi(model) == 1
    assert canonical_square(model) == 1
    assert str(bicanonical_pullback(model)) == "-H"
    _report("criterion 1f: two lines plus cubic gives chi = 1, K^2 = 1, bicanonical -H")


def test_c1_lines_and_conic_with_triple_points():
    model = load_cover("prop55")
    result = resolve(model)
    assert invariant_report(result).chi == 1
    assert canonical_square(result.cover) == 2
    reduced, _ = cremona_reduce(model)
    assert sorted(c.cls.degree for c in reduced.components) == [1] * 5
    assert canonical_square(reduced) == 2
    assert invariant_report(resolve(reduced)).chi == 1
    _report("criterion 1g: triple-point case gives chi = 1, K^2 = 2 on both models")


def test_c1_lines_and_general_conic():
    model = load_cover("prop57")
    assert smooth_chi(model) == 1
    assert canonical_square(model) == 2
    _report("criterion 1h: three lines plus general conic gives chi = 1, K^2 = 2")


def test_c1_five_general_lines():
    model = load_cover("prop59")
    assert smooth_chi(model) == 1
    assert canonical_square(model) == 4
    building = derive_building_data(model)
    twos = {str(chi) for chi, cls in building.items() if cls.degree == 2}
    ones = [cls for chi, cls in building.items() if cls.degree == 1]
    assert twos == {"1110", "1011", "0111", "1101", "1111"}
    assert len(ones) == 10
    _report("criterion 1i: five general lines give chi = 1, K^2 = 4, building data 5x2H + 10xH")


# -- criterion 2: genus formulas ---------------------------------------------


def test_c2_genus_formulas():
    sweeps = [
        (a, b, c)
        for a, b, c in itertools.product(range(1, 6), repeat=3)
        if a % 2 == b % 2 == c % 2
    ]
    assert sweeps
    for a, b, c in sweeps:
        # fourfold covers of the curves in the rank-3 two-line-pair family:
        # branch points at pairwise crossings plus the two pencil lines,
        # two simple preimages each
        points = (a + b - 1) + (a + c - 1) + 2
        g = riemann_hurwitz_genus(4, 0, [(2, 2 * points)])
        assert g == 2 * a + b + c - 3
        assert g % 2 == 1
        # eightfold covers in the rank-4 family, four preimages per point
        g = riemann_hurwitz_genus(8, 0, [(2, 4 * (2 * a + b + c + 3))])
        assert g == 2 * (2 * a + b + c) - 1
        assert g % 4 == 3
    for d in (3, 5, 7):
        gp = d - 2
        g = riemann_hurwitz_genus(4, gp, [(2, 12)])
        assert g == 4 * gp + 3
    _report("criterion 2: genus formulas 2a+b+c-3, 2(2a+b+c)-1 (= 3 mod 4), 4g'+3")


# -- criterion 3: classification round-trips ---------------------------------


EXPECTED = {
    "prop42": "Prop4.2/P1.221&P1.22.1",
    "prop44": "Prop4.4/C.2,21[d=3]",
    "prop46": "Prop4.6/C.22[degrees=(3, 1, 1)]",
    "prop48": "Prop4.8/C.2,22[d=3]",
    "prop410": "Prop4.10/P1s.222[degrees=(1, 1, 1),common_point=q]",
    "prop412": "Prop4.12/P1.2222[degrees=(1, 1, 1),common_point=q]",
    "prop51": "Prop5.1/2.G2[tacnode=x]",
    "prop53": "Prop5.3/1.B2.1",
    "prop55": "Prop5.5/4.222[triple_points=('eta', 'xi')]",
    "prop57": "Prop5.7/2.G22",
    "prop59": "Prop5.9/4.2222",
}


def test_c3_classification_round_trips():
    propositions = set()
    for name in PROPOSITION_FIXTURES:
        model = load_cover(name)
        label = classify(model)
        assert label.serialize() == EXPECTED[name], name
        propositions.add(label.proposition)
        reduced, _ = cremona_reduce(model)
        assert classify(reduced).same_case(label), name
        # uniqueness across the corpus: the other matcher rejects
        if model.pencil is not None:
            try:
                match_del_pezzo(model)
                raise AssertionError(f"{name} matched both families")
            except MatchError:
                pass
    assert len(propositions) == 11
    _report("criterion 3: all 11 fixtures classify to their own label before and after reduction")


# -- criterion 4: property suites ---------------------------------------------


def test_c4_normalize_idempotent_and_order_independent():
    rng = random.Random(20260808)
    for _ in range(200):
        r = rng.randint(2, 4)
        n = rng.randint(2, 6)
        comps = [(f"c{i}", rng.randint(1, 3), {}) for i in range(n)]
        branch = {}
        for i in range(n):
            for g in group.nonzero_elements(r):
                if rng.random() < 0.25:
                    branch.setdefault(str(g), []).append((f"c{i}", rng.randint(1, 3)))
        if not branch:
            branch = {"1" + "0" * (r - 1): [("c0", 1)]}
        model = plane_cover(r, comps, branch)
        base = normalize(model)
        assert normalize(base) == base
        for _ in range(2):
            assert normalize_by_moves(model, random.Random(rng.random())) == base
    _report("criterion 4a: normalize is idempotent and order-independent on 200 random configurations")


def test_c4_prod_relations_everywhere():
    for name in PROPOSITION_FIXTURES:
        assert check_prod_relations(load_cover(name)).ok
    rng = random.Random(1771)
    produced = 0
    while produced < 200:
        r = rng.randint(2, 4)
        n = rng.randint(2, 5)
        comps = [(f"c{i}", rng.randint(1, 4), {}) for i in range(n)]
        branch = {}
        for i in range(n):
            g = rng.choice(list(group.nonzero_elements(r)))
            branch.setdefault(str(g), []).append((f"c{i}", 1))
        model = plane_cover(r, comps, branch)
        try:
            derive_building_data(model)
        except ParityError:
            continue
        assert check_prod_relations(model).ok
        produced += 1
    _report("criterion 4b: product relations hold exhaustively on fixtures and 200 random valid configurations")


def test_c4_cremona_reflection_properties():
    rng = random.Random(5005)
    surface = lattice.PLANE
    for name in ("1", "2", "3", "4"):
        surface = surface.blow_up(Center(name))
    names = ("1", "2", "3")
    k = lattice.canonical(surface)
    for _ in range(1000):
        a = DivisorClass(surface, tuple(rng.randint(-6, 6) for _ in range(surface.rank)))
        b = DivisorClass(surface, tuple(rng.randint(-6, 6) for _ in range(surface.rank)))
        ra, rb = cremona_reflect(a, *names), cremona_reflect(b, *names)
        assert cremona_reflect(ra, *names) == a
        assert intersect(ra, rb) == intersect(a, b)
    assert cremona_reflect(k, *names) == k
    _report("criterion 4c: reflection is an involution preserving the intersection form (1000 random classes)")


def test_c4_parity_detection_iff():
    for d10, d01, d11 in itertools.product(range(7), repeat=3):
        comps, branch = [], {}
        for key, d in (("10", d10), ("01", d01), ("11", d11)):
            if d > 0:
                comps.append((f"c{key}", d, {}))
                branch[key] = [(f"c{key}", 1)]
        model = plane_cover(2, comps, branch)
        same_parity = len({d % 2 for d in (d10, d01, d11)}) == 1
        if same_parity:
            derive_building_data(model)
        else:
            try:
                derive_building_data(model)
                raise AssertionError(f"parity violation undetected for {(d10, d01, d11)}")
            except ParityError:
                pass
    _report("criterion 4d: parity failure is detected exactly for mixed-parity degree triples (<= 6)")


def test_c4_chi_stable_under_extra_blow_up():
    rng = random.Random(8)
    for name in PROPOSITION_FIXTURES:
        smooth = resolve(load_cover(name))
        chi = invariant_report(smooth).chi
        comp = rng.choice(smooth.cover.components)
        marked = add_marked_point(smooth.cover, "probe", mults={comp.cid: 1})
        assert invariant_report(resolve(marked)).chi == chi == 1
    _report("criterion 4e: chi is invariant under an extra blow-up on every fixture")


# -- criterion 5: census golden file ------------------------------------------


def test_c5_census_golden():
    golden = (GOLDEN_DIR / "census_r2_maxdeg3.txt").read_text(encoding="utf-8")
    first = census(2, 3).to_text()
    second = census(2, 3).to_text()
    assert first == golden
    assert second == golden
    _report("criterion 5: census(r=2, max_degree=3) matches the golden file, byte-identical on rerun")


def main() -> int:
    failures = 0
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    for name, fn in tests:
        try:
            fn()
        except BaseException as exc:  # report and continue
            failures += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(tests) - failures}/{len(tests)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
