import random

import pytest

from planecover import lattice
from planecover.cover import add_marked_point, plane_cover
from planecover.errors import DomainError, InconsistencyError, PreconditionError
from planecover.invariants import (
    bicanonical_pullback,
    canonical_square,
    euler_characteristic,
    invariant_report,
    rationality_verdict,
    riemann_hurwitz_genus,
)
from planecover.normalize import normalize, pull_back, resolve, smoothness_report

from conftest import FIXTURE_DIR, PROPOSITION_FIXTURES, load_cover


def test_chi_two_lines_and_cubic():
    assert euler_characteristic(load_cover("prop53")) == 1


def test_chi_five_lines():
    assert euler_characteristic(load_cover("prop59")) == 1


def test_chi_resolved_triple_points():
    result = resolve(load_cover("prop55"))
    assert euler_characteristic(result.cover) == 1


def test_chi_requires_smooth_model():
    with pytest.raises(PreconditionError):
        euler_characteristic(load_cover("prop51"))


def test_k2_three_general_lines():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 1, {})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
    )
    assert canonical_square(model) == 9
    assert euler_characteristic(model) == 1


def test_k2_three_fibers_on_f1():
    model = normalize(pull_back(load_cover("prop42"), "p"))
    assert canonical_square(model) == 8


def test_k2_two_center_models():
    # rank-3 concurrent-lines case on the blow-up at both special points
    model = load_cover("prop410")
    model = normalize(pull_back(pull_back(model, "p"), "q"))
    assert canonical_square(model) == 0
    # rank-4 analogue
    model = load_cover("prop412")
    model = normalize(pull_back(pull_back(model, "p"), "q"))
    assert canonical_square(model) == -8


def test_k2_resolved_tacnode_cover():
    result = resolve(load_cover("prop51"))
    assert canonical_square(result.cover) == -4


def test_k2_odd_rank_parity_check():
    # r=1 double cover of odd total branch degree cannot halve
    model = plane_cover(1, [("A", 3, {})], {"1": [("A", 1)]})
    with pytest.raises(InconsistencyError):
        canonical_square(model)


def test_bicanonical_classes_and_verdicts():
    model = load_cover("prop53")
    assert str(bicanonical_pullback(model)) == "-H"
    assert rationality_verdict(model)[0] == "rational"

    result = resolve(load_cover("prop51"))
    cls = bicanonical_pullback(result.cover)
    assert cls == -2 * lattice.exceptional(result.cover.surface, "y")
    assert rationality_verdict(result.cover)[0] == "rational"

    assert str(bicanonical_pullback(load_cover("prop59"))) == "-H"
    assert rationality_verdict(load_cover("prop59"))[0] == "rational"


def test_verdict_is_conservative_on_singular_models():
    verdict, notes = rationality_verdict(load_cover("prop51"))
    assert verdict == "inconclusive"
    assert any("resolve" in note for note in notes)


def test_invariant_report_serialization():
    report = invariant_report(load_cover("prop53"))
    text = report.serialize()
    assert "chi = 1" in text
    assert "k2 = 1" in text
    assert "bicanonical = -H" in text
    assert "verdict = rational" in text


def test_classical_double_plane_anchors():
    # independent textbook values: the double plane branched on a smooth
    # sextic is a K3 surface, on a smooth quartic a degree-2 Del Pezzo
    sextic = plane_cover(1, [("B", 6, {})], {"1": [("B", 1)]})
    assert euler_characteristic(sextic) == 2
    assert canonical_square(sextic) == 0
    quartic = plane_cover(1, [("B", 4, {})], {"1": [("B", 1)]})
    assert euler_characteristic(quartic) == 1
    assert canonical_square(quartic) == 2
    conic = plane_cover(1, [("B", 2, {})], {"1": [("B", 1)]})
    assert euler_characteristic(conic) == 1
    assert canonical_square(conic) == 8


def test_riemann_hurwitz_examples():
    # quadruple cover of a rational curve in the rank-3 concurrent family
    for a, b, c in [(1, 1, 1), (3, 1, 1), (3, 3, 3), (5, 3, 1)]:
        branch_points = 2 * a + b + c
        g = riemann_hurwitz_genus(4, 0, [(2, 2 * branch_points)])
        assert g == 2 * a + b + c - 3
    # eightfold cover in the rank-4 family
    g = riemann_hurwitz_genus(8, 0, [(2, 4 * (2 + 1 + 1 + 3))])
    assert g == 2 * (2 + 1 + 1) - 1
    # quadruple cover of a genus g' curve with twelve simple branch points
    for gp in (0, 1, 3, 5):
        assert riemann_hurwitz_genus(4, gp, [(2, 12)]) == 4 * gp + 3


def test_riemann_hurwitz_validation():
    with pytest.raises(InconsistencyError):
        riemann_hurwitz_genus(2, 0, [(2, 1)])  # odd total
    with pytest.raises(InconsistencyError):
        riemann_hurwitz_genus(3, 0, [])  # 2g-2 = -6 unrealizable
    with pytest.raises(DomainError):
        riemann_hurwitz_genus(0, 0, [])
    with pytest.raises(DomainError):
        riemann_hurwitz_genus(2, 0, [(1, 2)])


def test_chi_invariant_under_extra_blow_ups():
    rng = random.Random(424242)
    for name in PROPOSITION_FIXTURES:
        result = resolve(load_cover(name))
        chi = euler_characteristic(result.cover)
        # blow up a fresh point away from the branch curve
        off = normalize(pull_back(result.cover, "extra_point"))
        assert euler_characteristic(off) == chi
        # blow up a general point on a random branch component, then
        # resolve the node this creates over the new crossing
        comp = rng.choice(result.cover.components)
        marked = add_marked_point(result.cover, "extra_on_curve", mults={comp.cid: 1})
        on_curve = resolve(marked).cover
        assert euler_characteristic(on_curve) == chi


def test_plane_branch_degree_formula():
    # on the plane, K^2 = 2^r * (t - 3)^2 where 2t is the total branch degree
    rng = random.Random(31)
    count = 0
    while count < 10:
        r = rng.randint(2, 4)
        keys = [format(i, f"0{r}b") for i in range(1, 2**r)]
        degrees = {g: rng.randint(0, 3) for g in keys}
        total = sum(degrees.values())
        if total % 2 or total == 0:
            continue
        comps = [(f"c{g}", d, {}) for g, d in degrees.items() if d]
        branch = {g: [(f"c{g}", 1)] for g, d in degrees.items() if d}
        model = plane_cover(r, comps, branch)
        assert canonical_square(model) == 2**r * (total // 2 - 3) ** 2
        count += 1


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.cfg")))
def test_report_agrees_with_the_single_invariants(name):
    cover = load_cover(name)
    for c in (cover, normalize(cover), resolve(cover).cover):
        report = invariant_report(c)
        assert rationality_verdict(c) == (report.rationality_verdict, report.notes)
        assert report.k_squared == canonical_square(c)
        assert report.bicanonical_pullback == bicanonical_pullback(c)
        assert report.chi == (euler_characteristic(c) if smoothness_report(c) else None)


def line_arrangement(k):
    """3k lines, k in each D_g of an r=2 cover, and k declared triple points.

    Triple point i carries line i of each D_g; every other crossing is general.
    """
    comps = [(f"L{j}_{i}", 1, {f"t{i}": 1}) for j in range(3) for i in range(k)]
    branch = {g: [(f"L{j}_{i}", 1) for i in range(k)] for j, g in enumerate(("10", "01", "11"))}
    return plane_cover(2, comps, branch, marked=[(f"t{i}", None) for i in range(k)])


@pytest.mark.parametrize(
    "k, expected",
    [
        (4, (10, 32, 2, 23)),
        (8, (64, 316, 2, 93)),
        (12, (166, 888, 2, 211)),
        (16, (316, 1748, 2, 377)),
    ],
)
def test_line_arrangement_invariants(k, expected):
    # rank 1 + k + 3 * C(k, 2): the triple points, then every general crossing
    result = resolve(line_arrangement(k))
    report = invariant_report(result.cover)
    assert (report.chi, report.k_squared, result.rounds, result.cover.surface.rank) == expected


# Closed forms, a second method for the r=2 arrangements (Hirzebruch 1983,
# via the bidouble-cover formulas of Catanese 1984 and Pardini 1991).  For
# K^2 = (2K + sum D_g)^2: on the plane 2K + sum D_g = (3k - 6)H; a blown-up
# triple point of three distinct inertias drops its exceptional curve and adds
# -E (square -1); a crossing of two same-inertia lines adds 0; a k-fold point
# of k same-inertia lines, k even, adds (2 - k)E.
@pytest.mark.parametrize(
    "k", [*range(4, 17), *(pytest.param(k, marks=pytest.mark.slow) for k in (24, 32, 48))]
)
def test_line_arrangement_closed_forms(k):
    result = resolve(line_arrangement(k))
    report = invariant_report(result.cover)
    assert (report.chi, report.k_squared) == (4 + 3 * k * (k - 3) // 2, (3 * k - 6) ** 2 - k)
    assert (result.rounds, result.cover.surface.rank) == (2, 1 + k + 3 * k * (k - 1) // 2)


def ceva_arrangement(k):
    """The 3k lines of x^k = y^k, y^k = z^k, z^k = x^k, one family per D_g.

    Lines a_i: x = w^i y pass through [0:0:1], b_j: y = w^j z through [1:0:0]
    and c_l: z = w^l x through [0:1:0] (w a primitive k-th root of unity);
    a_i, b_j and c_l meet in one point exactly when i + j + l = 0 mod k.
    These k^2 triple points and the three k-fold points are all the crossings.
    """
    pencil = {"a": "Pz", "b": "Px", "c": "Py"}
    through = {f"{f}{i}": {pencil[f]: 1} for f in "abc" for i in range(k)}
    for i in range(k):
        for j in range(k):
            point = f"t{i}_{j}"
            for line in (f"a{i}", f"b{j}", f"c{-(i + j) % k}"):
                through[line][point] = 1
    comps = [(name, 1, mults) for name, mults in through.items()]
    branch = {g: [(f"{f}{i}", 1) for i in range(k)] for f, g in zip("abc", ("10", "01", "11"))}
    points = [*pencil.values(), *(f"t{i}_{j}" for i in range(k) for j in range(k))]
    return plane_cover(2, comps, branch, marked=[(p, None) for p in points])


@pytest.mark.parametrize("k, chi", [(4, 4), (6, 13), (8, 28), (10, 49)])
def test_ceva_arrangement_closed_forms(k, chi):
    result = resolve(ceva_arrangement(k))
    report = invariant_report(result.cover)
    k_squared = (3 * k - 6) ** 2 - 3 * (k - 2) ** 2 - k**2
    assert (report.chi, report.k_squared) == (chi, k_squared)
    assert (result.rounds, result.cover.surface.rank) == (1, 4 + k**2)
