import pytest

from planecover import census as census_mod
from planecover import classify as classify_mod
from planecover.classify import (
    classify,
    cremona_reduce,
    infer_g_prime,
    match_conic_bundle,
    match_del_pezzo,
    quadratic_move,
)
from planecover.cover import add_marked_point, derive_building_data, plane_cover
from planecover.errors import MatchError, PreconditionError
from planecover.group import GroupElement
from planecover.invariants import canonical_square, euler_characteristic
from planecover.normalize import normalize, pull_back, resolve

from conftest import PROPOSITION_FIXTURES, load_cover

CONIC_BUNDLE = ("prop42", "prop44", "prop46", "prop48", "prop410", "prop412")
DEL_PEZZO = ("prop51", "prop53", "prop55", "prop57", "prop59")

EXPECTED_LABELS = {
    "prop42": ("4.2", "P1.221&P1.22.1"),
    "prop44": ("4.4", "C.2,21"),
    "prop46": ("4.6", "C.22"),
    "prop48": ("4.8", "C.2,22"),
    "prop410": ("4.10", "P1s.222"),
    "prop412": ("4.12", "P1.2222"),
    "prop51": ("5.1", "2.G2"),
    "prop53": ("5.3", "1.B2.1"),
    "prop55": ("5.5", "4.222"),
    "prop57": ("5.7", "2.G22"),
    "prop59": ("5.9", "4.2222"),
}


def subgroup_strings(structure):
    return {str(g) for g in structure.subgroup if not g.is_zero}


def test_infer_g_prime_trivial():
    structure = infer_g_prime(load_cover("prop42"), "p")
    assert structure.dimension == 0
    assert subgroup_strings(structure) == set()


def test_infer_g_prime_diagonal():
    structure = infer_g_prime(load_cover("prop44"), "p")
    assert structure.dimension == 1
    assert subgroup_strings(structure) == {"11"}


def test_infer_g_prime_full():
    structure = infer_g_prime(load_cover("prop46"), "p")
    assert structure.dimension == 2
    assert subgroup_strings(structure) == {"10", "01", "11"}


def test_infer_g_prime_rejects_bad_counts():
    # a single line through the pencil point plus a conic off it: one branch
    # point on the general pencil line matches no case
    model = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("Cc", 2, {})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
        marked=[("p", None)],
    )
    with pytest.raises(MatchError):
        infer_g_prime(model, "p")


def test_g_prime_bounds_on_all_conic_bundle_fixtures():
    for name in CONIC_BUNDLE:
        model = load_cover(name)
        structure = infer_g_prime(model, model.pencil)
        assert structure.dimension <= 2
        assert model.r - structure.dimension <= 2


def test_fixture_labels():
    for name, (prop, symbol) in EXPECTED_LABELS.items():
        label = classify(load_cover(name))
        assert (label.proposition, label.symbol) == (prop, symbol), name


def test_match_conic_bundle_examples():
    label = match_conic_bundle(load_cover("prop48"), "p")
    assert label.proposition == "4.8" and label.symbol == "C.2,22"
    assert dict(label.params)["d"] == 3

    d1 = plane_cover(
        3,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("Cc", 1, {"p": 1}), ("W", 1, {})],
        {"100": [("A", 1)], "010": [("B", 1)], "001": [("Cc", 1)], "111": [("W", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    label = match_conic_bundle(d1, "p")
    assert label.proposition == "4.8" and label.symbol == "P1.222&P1.2221"

    label = match_conic_bundle(load_cover("prop410"), "p")
    assert label.symbol == "P1s.222"
    label = match_conic_bundle(load_cover("prop412"), "p")
    assert label.symbol == "P1.2222"


def test_match_nonconcurrent_variants():
    generic_410 = plane_cover(
        3,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 1, {}), ("K1", 1, {"p": 1}), ("K2", 1, {"p": 1})],
        {"100": [("A", 1)], "010": [("B", 1)], "110": [("Cc", 1)], "001": [("K1", 1), ("K2", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    assert match_conic_bundle(generic_410, "p").symbol == "C.221"

    generic_412 = plane_cover(
        4,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 1, {}), ("K1", 1, {"p": 1}),
         ("K2", 1, {"p": 1}), ("K3", 1, {"p": 1})],
        {"1000": [("A", 1)], "0100": [("B", 1)], "1100": [("Cc", 1)],
         "0010": [("K1", 1)], "0001": [("K2", 1)], "0011": [("K3", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    assert match_conic_bundle(generic_412, "p").symbol == "C.22,22"


def test_match_b1_subcase_flag():
    # one of the three curves may pass through the pencil point once more;
    # a cubic with a triple point is three lines, so it is declared reducible
    model = plane_cover(
        2,
        [("A", 3, {"p": 3}), ("B", 3, {"p": 2}), ("Cc", 3, {"p": 2})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
        marked=[("p", None)],
        pencil="p",
        reducible=["A"],
    )
    label = match_conic_bundle(model, "p")
    assert label.proposition == "4.6"
    assert "b1" in label.flags


def test_match_b1_subcase_rank3_and_rank4():
    b1_r3 = plane_cover(
        3,
        [("A", 3, {"p": 3}), ("B", 3, {"p": 2}), ("Cc", 3, {"p": 2}),
         ("K1", 1, {"p": 1}), ("K2", 1, {"p": 1})],
        {"100": [("A", 1)], "010": [("B", 1)], "110": [("Cc", 1)],
         "001": [("K1", 1), ("K2", 1)]},
        marked=[("p", None)],
        pencil="p",
        reducible=["A"],
    )
    label = match_conic_bundle(b1_r3, "p")
    assert label.proposition == "4.10" and "b1" in label.flags

    b1_r4 = plane_cover(
        4,
        [("A", 1, {"p": 1}), ("B", 1, {}), ("Cc", 1, {}),
         ("K1", 1, {"p": 1}), ("K2", 1, {"p": 1}), ("K3", 1, {"p": 1})],
        {"1000": [("A", 1)], "0100": [("B", 1)], "1100": [("Cc", 1)],
         "0010": [("K1", 1)], "0001": [("K2", 1)], "0011": [("K3", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    label = match_conic_bundle(b1_r4, "p")
    assert label.proposition == "4.12" and "b1" in label.flags


def test_reduce_rejects_odd_residual_line_count():
    from planecover.classify import _reduce_odd_curve
    from planecover.errors import ReductionError

    # defensive path: a lone off-pencil line with a single residual pencil
    # line cannot be eliminated pairwise
    model = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("R0", 1, {}), ("R1", 1, {"p": 1})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("R0", 1), ("R1", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    with pytest.raises(ReductionError) as err:
        _reduce_odd_curve(model, "p", GroupElement.parse("11"))
    assert "even number of residual pencil lines" in str(err.value)


def test_match_degenerate_three_lines():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 1, {})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    label = match_conic_bundle(model, "p")
    assert label.symbol == "0.22"
    assert "degenerate-three-lines" in label.flags


def test_match_concurrent_lines_from_generic_pencil_point():
    # three lines through a common point away from the pencil point are the
    # pencil-lines cover in disguise
    model = plane_cover(
        2,
        [("A", 1, {"q": 1}), ("B", 1, {"q": 1}), ("Cc", 1, {"q": 1})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
        marked=[("p", None), ("q", None)],
        pencil="p",
    )
    label = match_conic_bundle(model, "p")
    assert (label.proposition, label.symbol) == ("4.2", "P1.221&P1.22.1")
    assert "pencil-away-from-common-point" in label.flags


def test_match_rejects_not_totally_ramified():
    # two lines only, both with the same inertia element
    model = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1})],
        {"11": [("A", 1), ("B", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    with pytest.raises(MatchError) as err:
        match_conic_bundle(model, "p")
    assert "not totally ramified" in str(err.value)


def test_match_rejects_non_normalized():
    model = pull_back(load_cover("prop51"), "x")
    with pytest.raises(PreconditionError):
        match_del_pezzo(model)


def test_del_pezzo_side_conditions():
    # conic through all three line intersections is not the 5.5 shape
    bad = plane_cover(
        3,
        [("A", 1, {"xi": 1, "zeta": 1}), ("B", 1, {"eta": 1, "zeta": 1}),
         ("Cc", 1, {"xi": 1, "eta": 1}), ("conic", 2, {"xi": 1, "eta": 1, "zeta": 1})],
        {"010": [("A", 1)], "001": [("B", 1)], "011": [("Cc", 1)], "100": [("conic", 1)]},
        marked=[("xi", None), ("eta", None), ("zeta", None)],
    )
    with pytest.raises(MatchError):
        match_del_pezzo(bad)
    # a declared tangency between the conic and a line is rejected
    tangent = plane_cover(
        3,
        [("A", 1, {"t": 1, "t2": 1}), ("B", 1, {}), ("Cc", 1, {}),
         ("conic", 2, {"t": 1, "t2": 1})],
        {"100": [("A", 1)], "010": [("B", 1)], "110": [("Cc", 1)], "011": [("conic", 1)]},
        marked=[("t", None), ("t2", "t")],
    )
    with pytest.raises(MatchError):
        match_del_pezzo(tangent)


def test_matchers_are_mutually_exclusive_on_fixtures():
    for name in CONIC_BUNDLE:
        with pytest.raises(MatchError):
            match_del_pezzo(load_cover(name))
    for name in DEL_PEZZO:
        assert load_cover(name).pencil is None
        label = match_del_pezzo(load_cover(name))
        assert label.proposition == EXPECTED_LABELS[name][0]


def test_quadratic_move_contracts_lines_between_base_points():
    model = load_cover("prop410")
    model = add_marked_point(model, "z", mults={"lineA": 1, "lineK1": 1})
    moved, record = quadratic_move(model, "p", "q", "z")
    assert set(record.contracted) >= {"lineA", "lineK1"}
    assert moved.surface.rank == 1


def test_reduce_identity_on_normal_forms():
    for name in ("prop42", "prop44", "prop46", "prop48", "prop412",
                  "prop53", "prop57", "prop59"):
        model = load_cover(name)
        reduced, moves = cremona_reduce(model)
        assert moves == ()
        assert reduced == normalize(model)


def test_reduce_mult_d_minus_one_to_line():
    model = load_cover("prop44_unreduced")
    label = classify(model)
    assert label.symbol == "0.22" and "needs-reduction" in label.flags
    reduced, moves = cremona_reduce(model)
    assert len(moves) == 3
    after = classify(reduced)
    assert after.symbol == "0.22" and dict(after.params)["d"] == 1
    # the odd curve is now a line missing the pencil point
    w = GroupElement.parse("11")
    comps = [reduced.component(cid) for cid, _ in reduced.branch_map()[w]]
    assert len(comps) == 1
    assert comps[0].cls.degree == 1 and comps[0].mult_at("p") == 0


def test_one_g_prime_inference_per_reduction(monkeypatch):
    # the recipe reuses what the match found instead of inferring G' again
    calls = []
    real = classify_mod.infer_g_prime

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify_mod, "infer_g_prime", spy)
    cremona_reduce(load_cover("prop44_unreduced"))
    assert len(calls) == 1
    calls.clear()
    census_mod.census(2, 7)
    assert len(calls) == len(list(census_mod._candidates(2, 7)))


def test_reduce_rank3_odd_curve_to_line():
    model = plane_cover(
        3,
        [("lineA", 1, {"p": 1}), ("lineB", 1, {"p": 1}), ("lineC", 1, {"p": 1}),
         ("cubic", 3, {"p": 2})],
        {"100": [("lineA", 1)], "010": [("lineB", 1)], "001": [("lineC", 1)],
         "111": [("cubic", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    before = classify(model)
    assert before.symbol == "P1.222&P1.2221" and "needs-reduction" in before.flags
    reduced, moves = cremona_reduce(model)
    assert len(moves) == 3
    after = classify(reduced)
    assert after.same_case(before) and dict(after.params)["d"] == 1


def test_reduce_concurrent_lines_to_four_lines():
    reduced, moves = cremona_reduce(load_cover("prop410"))
    assert len(moves) == 1
    degrees = sorted(c.cls.degree for c in reduced.components)
    assert degrees == [1, 1, 1, 1]
    building = derive_building_data(reduced)
    twos = {str(chi) for chi, cls in building.items() if cls.degree == 2}
    ones = {str(chi) for chi, cls in building.items() if cls.degree == 1}
    assert twos == {"011"}
    assert len(ones) == 6
    assert canonical_square(reduced) == 8
    assert euler_characteristic(resolve(reduced).cover) == 1


def test_reduce_five_line_model():
    reduced, moves = cremona_reduce(load_cover("prop55"))
    assert len(moves) == 1
    degrees = sorted(c.cls.degree for c in reduced.components)
    assert degrees == [1, 1, 1, 1, 1]
    building = derive_building_data(reduced)
    twos = sorted(cls.degree for chi, cls in building.items() if not chi.is_zero)
    assert twos.count(2) == 3 and twos.count(1) == 4
    assert canonical_square(reduced) == 2


def test_reduce_tacnode_to_tangent_line_model():
    reduced, moves = cremona_reduce(load_cover("prop51"))
    assert len(moves) == 1
    degrees = sorted(c.cls.degree for c in reduced.components)
    assert degrees == [1, 1, 3]
    label = match_del_pezzo(reduced)
    assert label.proposition == "5.1" and "reduced-cubic-model" in label.flags
    assert canonical_square(resolve(reduced).cover) == -1


def test_labels_stable_under_reduction():
    for name in PROPOSITION_FIXTURES:
        model = load_cover(name)
        before = classify(model)
        reduced, _ = cremona_reduce(model)
        after = classify(reduced)
        assert before.same_case(after), name


def test_chi_invariant_under_reduction():
    for name in PROPOSITION_FIXTURES:
        model = load_cover(name)
        chi_before = euler_characteristic(resolve(model).cover)
        reduced, _ = cremona_reduce(model)
        chi_after = euler_characteristic(resolve(reduced).cover)
        assert chi_before == chi_after == 1, name


def test_case_label_serialization():
    label = classify(load_cover("prop44"))
    assert label.serialize() == "Prop4.4/C.2,21[d=3]"
    label = classify(load_cover("prop59"))
    assert label.serialize() == "Prop5.9/4.2222"
