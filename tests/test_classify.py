import ast
import hashlib
import random
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from planecover import census as census_mod
from planecover import config, group, lattice
from planecover import classify as classify_mod
from planecover.classify import (
    CaseLabel,
    GPrimeStructure,
    MoveRecord,
    classify,
    cremona_reduce,
    infer_g_prime,
    match_conic_bundle,
    match_del_pezzo,
    quadratic_move,
)
from planecover.cover import (
    CoverModel,
    CurveComponent,
    add_marked_point,
    add_marked_points,
    children_by_parent,
    derive_building_data,
    plane_cover,
)
from planecover.errors import CoverError, GeometryError, MatchError, PreconditionError
from planecover.group import GroupElement
from planecover.invariants import canonical_square, invariant_report
from planecover.normalize import normalize, pull_back, resolve, to_record

from conftest import (
    FIXTURE_DIR,
    PROPOSITION_FIXTURES,
    fixture_text,
    load_cover,
    pulled_back_g_prime,
    purge_idle_marks_one_at_a_time,
    reference_cremona_reduce,
    reference_parse,
    reference_quadratic_move,
    reference_reduce_odd_curve,
    scan_common_point,
    scan_components_at,
    scan_tacnode,
    scan_tangency,
)

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
        _reduce_odd_curve(to_record(model), "p", GroupElement.parse("11"))
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
    # the 5.1 conic and quartic may meet at a marked point only at the tacnode
    crossing = plane_cover(
        2,
        [("conic", 2, {"x": 1, "y": 1, "q1": 1}), ("quartic", 4, {"x": 2, "y": 2, "q1": 1})],
        {"01": [("conic", 1)], "10": [("quartic", 1)]},
        marked=[("x", None), ("y", "x"), ("q1", None)],
    )
    for match_or_reduce in (match_del_pezzo, cremona_reduce):
        with pytest.raises(MatchError, match="marked incidences for the conic-plus-quartic"):
            match_or_reduce(crossing)


def test_matchers_are_mutually_exclusive_on_fixtures():
    for name in CONIC_BUNDLE:
        with pytest.raises(MatchError):
            match_del_pezzo(load_cover(name))
    for name in DEL_PEZZO:
        assert load_cover(name).pencil is None
        label = match_del_pezzo(load_cover(name))
        assert label.proposition == EXPECTED_LABELS[name][0]


# -- every exit of the matchers --------------------------------------------------


def _exit_model(r, points, curves, branch, pencil):
    """A plane model from a short spec: ``points`` as ``"p q y<p"`` (y
    infinitely near p); ``curves`` as ``"A=1 p; K=3* p:3"`` (name=degree, a
    ``*`` for a curve declared reducible, then the points on the curve, with
    ``:m`` when the multiplicity m is above 1); ``branch`` as ``"10:A 01:B,C"``."""
    marked = [(name, parent or None) for name, _, parent in (p.partition("<") for p in points.split())]
    comps, reducible = [], []
    for spec in curves.split(";"):
        head, *at = spec.split()
        cid, degree = head.split("=")
        if degree.endswith("*"):
            reducible.append(cid)
        mults = {name: int(m or 1) for name, _, m in (a.partition(":") for a in at)}
        comps.append((cid, int(degree.rstrip("*")), mults))
    entries = (entry.split(":") for entry in branch.split())
    branch = {g: [(cid, 1) for cid in cids.split(",")] for g, cids in entries}
    return plane_cover(r, comps, branch, marked, pencil, reducible)


def _past_the_plane_checks():
    # plane_cover rejects a multiplicity above the degree, so only a point
    # marked on a built model reaches the negative fiber degree
    model = _exit_model(2, "p", "A=1 p; B=1 p; C=1", "10:A 01:B 11:C", "p")
    return replace(add_marked_point(model, "w", mults={"A": 2}), pencil="w")


def _error(message):
    return MatchError, message


#: (exit, model spec, outcome of classify): one normalized, totally ramified
#: model of even parity for each exit of the matchers, in the order of the
#: checks (every exit has a row: see the test after the next); a label with a
#: recipe is listed in _WITH_RECIPE
_MATCHER_EXITS = [
    ("negative fiber degree", _past_the_plane_checks,
     _error("component A has negative fiber degree; bad multiplicities at the pencil point")),
    ("G' rank outside the table", (1, "p", "Q=2", "1:Q", "p"),
     _error("not an invariant-conic-bundle configuration: r=1 with G' of rank 1")),
    ("branch-point count", (2, "p", "A=1 p; B=1 p; W=3", "10:A 01:B 11:W", "p"),
     _error("not an invariant-conic-bundle configuration: 4 branch points on a general "
            "pencil line, expected 2 for r=2, s=1")),
    ("conic bundle not totally ramified", (2, "p", "A=1 p; B=1 p", "11:A,B", "p"),
     _error("not totally ramified")),
    ("s=0 two divisors", (2, "p", "A=1 p; B=1 p; C=1 p; D=1 p", "10:A,B 01:C,D", "p"),
     _error("all three branch divisors must be nonzero")),
    ("s=0 not single pencil lines", (2, "p", "A=1 p; B=1 p; K=3* p:3", "10:K 01:A 11:B", "p"),
     _error("D_10 must be a single line of the pencil")),
    ("s=0 pencil lines", (2, "p", "A=1 p; B=1 p; C=1 p", "10:A 01:B 11:C", "p"),
     CaseLabel("4.2", "P1.221&P1.22.1")),
    ("s=1 pencil line count", (2, "p", "A=1 p; B=1 p; Q=2", "10:A,B 11:Q", "p"),
     _error("exactly two branch divisors must be pencil lines")),
    ("s=1 pencil line sum", (3, "p", "A=1 p; B=1 p; C=1 p; Q=2", "100:A 010:B 110:C 001:Q", "p"),
     _error("the pencil-line inertia elements must sum to the G'-carrier")),
    ("s=1 d-2 not one irreducible curve", (2, "p", "A=1 p; B=1 p; W=3* p", "10:A 01:B 11:W", "p"),
     _error("D_11 with multiplicity d-2 must be one irreducible curve")),
    ("s=1 deep curve", (2, "p", "A=1 p; B=1 p; W=3 p", "10:A 01:B 11:W", "p"),
     CaseLabel("4.4", "C.2,21", (("d", 3),))),
    ("s=1 d-1 not one heavy curve",
     (2, "p", "A=1 p; B=1 p; W=3 p:2; K=2* p:2", "10:A 01:B 11:W,K", "p"),
     _error("D_11 with multiplicity d-1 must be one curve with an (e-1)-fold point at the "
            "pencil point plus pencil lines")),
    ("s=1 line", (2, "p", "A=1 p; B=1 p; L=1", "10:A 01:B 11:L", "p"),
     CaseLabel("4.4", "0.22", (("d", 1),))),
    ("s=1 needs reduction", (2, "p", "A=1 p; B=1 p; W=3 p:2", "10:A 01:B 11:W", "p"),
     CaseLabel("4.4", "0.22", (("d", 3),), ("needs-reduction",))),
    ("s=2 r=2 two divisors", (2, "p", "A=1 p; B=1; C=1 p; D=1", "10:A,B 01:C,D", "p"),
     _error("all three branch divisors must be nonzero")),
    ("s=2 r=3 four-line model",
     (3, "p", "K1=1 p; K2=1 p; H1=1; H2=1", "001:K1 111:K2 100:H1 010:H2", "p"),
     CaseLabel("4.10", "P1s.222", (), ("reduced-four-line-model",))),
    ("s=2 r=3 no shape", (3, "p", "A=1; B=1; C=1; K=2* p:2", "100:A 010:B 110:C 001:K", "p"),
     _error("branch data do not fit the rank-3 G'=(Z/2)^2 shapes")),
    ("s=2 r=4 six divisors",
     (4, "p", "A=1; B=1; C=1; K1=1 p; K2=1 p; K3=1 p; K4=1 p",
      "1000:A 0100:B 1100:C 0010:K1,K2 0001:K3,K4", "p"),
     _error("need three pencil lines and three curves")),
    ("s=2 r=4 pencil-line trio",
     (4, "p", "A=1; B=1; Q=2 p; K1=1 p; K2=1 p; K3=1 p; K4=1 p",
      "1000:A 0100:B 1100:Q 0010:K1 1110:K2 0001:K3,K4", "p"),
     _error("the pencil-line inertia elements must sum to zero")),
    ("s=2 curve span",
     (3, "p", "Q1=2 p; Q2=2 p; R=2* p:2; K1=1 p; K2=1 p", "100:Q1 010:Q2 001:R 111:K1,K2", "p"),
     _error("the three curve inertia elements must span a rank-2 subgroup")),
    ("s=2 three curves", (2, "p", "A=2 p; B=2 p; C=2 p", "10:A 01:B 11:C", "p"),
     CaseLabel("4.6", "C.22", (("degrees", (2, 2, 2)),))),
    ("s=2 r=2 concurrent lines", (2, "p q", "A=1 q; B=1 q; C=1 q", "10:A 01:B 11:C", "p"),
     CaseLabel("4.2", "P1.221&P1.22.1", (("common_point", "q"),),
               ("pencil-away-from-common-point",))),
    ("s=2 r=2 three lines", (2, "p", "A=1; B=1; C=1", "10:A 01:B 11:C", "p"),
     CaseLabel("4.6", "0.22", (("degrees", (1, 1, 1)),), ("degenerate-three-lines",))),
    ("s=2 r=3 lines",
     (3, "p", "A=1; B=1; C=1; K1=1 p; K2=1 p", "100:A 010:B 110:C 001:K1,K2", "p"),
     CaseLabel("4.10", "C.221", (("degrees", (1, 1, 1)),))),
    ("s=2 r=3 concurrent lines",
     (3, "p q", "A=1 q; B=1 q; C=1 q; K1=1 p; K2=1 p", "100:A 010:B 110:C 001:K1,K2", "p"),
     CaseLabel("4.10", "P1s.222", (("degrees", (1, 1, 1)), ("common_point", "q")))),
    ("s=2 r=4 concurrent lines",
     (4, "p q", "A=1 q; B=1 q; C=1 q; K1=1 p; K2=1 p; K3=1 p",
      "1000:A 0100:B 1100:C 0010:K1 0001:K2 0011:K3", "p"),
     CaseLabel("4.12", "P1.2222", (("degrees", (1, 1, 1)), ("common_point", "q")))),
    ("del Pezzo not totally ramified", (2, "", "A=1; B=1", "11:A,B", None),
     _error("not totally ramified")),
    ("two divisors, degrees", (2, "", "Q1=2; Q2=2", "10:Q1 01:Q2", None),
     _error("rank-2 two-divisor shape needs a conic and a quartic")),
    ("two divisors, single components", (2, "", "K1=1; K2=1; F=4", "10:K1,K2 01:F", None),
     _error("conic and quartic must be single components")),
    ("two divisors, irreducible", (2, "", "Q=2*; F=4", "10:F 01:Q", None),
     _error("conic and quartic must be irreducible")),
    ("two divisors, tacnode", (2, "", "Q=2; F=4", "10:F 01:Q", None),
     _error("need a tacnode of the quartic with the conic through it along the tacnodal tangent")),
    ("two divisors, marked incidences",
     (2, "x y<x q1", "Q=2 x y q1; F=4 x:2 y:2 q1", "10:F 01:Q", None),
     _error("unexpected marked incidences for the conic-plus-quartic shape")),
    ("two divisors, tacnode label", (2, "x y<x", "Q=2 x y; F=4 x:2 y:2", "10:F 01:Q", None),
     CaseLabel("5.1", "2.G2", (("tacnode", "x"),))),
    ("three divisors, degrees", (2, "", "A=1; B=1; C=1", "10:A 01:B 11:C", None),
     _error("rank-2 three-divisor shape needs two lines and a cubic")),
    ("three divisors, single cubic", (2, "", "A=1; B=1; Q=2; L=1", "10:A 01:B 11:Q,L", None),
     _error("the cubic must be a single component")),
    ("three divisors, smooth cubic", (2, "", "A=1; B=1; W=3*", "10:A 01:B 11:W", None),
     _error("the cubic must be smooth and irreducible")),
    ("three divisors, not tangential", (2, "t", "A=1 t; B=1; W=3 t", "10:A 01:B 11:W", None),
     _error("cubic meets a line at a marked point but not tangentially")),
    ("three divisors, tangency label",
     (2, "t u<t", "A=1 t u; B=1; W=3 t u", "10:A 01:B 11:W", None),
     CaseLabel("5.1", "2.G2", (("tangency", "t"),), ("reduced-cubic-model",))),
    ("three divisors, marked incidences",
     (2, "t", "A=1 t; B=1 t; W=3", "10:A 01:B 11:W", None),
     _error("unexpected marked incidences for the two-lines-plus-cubic shape")),
    ("three divisors, label", (2, "", "A=1; B=1; W=3", "10:A 01:B 11:W", None),
     CaseLabel("5.3", "1.B2.1")),
    ("conic and lines, irreducible",
     (3, "", "A=1; B=1; C=1; Q=2*", "100:A 010:B 110:C 001:Q", None),
     _error("the conic must be irreducible")),
    ("conic and lines, triple point",
     (3, "t", "A=1 t; B=1 t; C=1 t; Q=2", "100:A 010:B 110:C 001:Q", None),
     _error("unexpected triple point at t")),
    ("conic and lines, marked incidences",
     (3, "t", "A=1 t; B=1 t; C=1; Q=2", "100:A 010:B 110:C 001:Q", None),
     _error("unexpected marked incidences for the conic-plus-lines shape")),
    ("conic and lines, label", (3, "", "A=1; B=1; C=1; Q=2", "100:A 010:B 110:C 001:Q", None),
     CaseLabel("5.7", "2.G22")),
    ("conic and lines, triple points label",
     (3, "xi eta", "A=1 xi; B=1 eta; C=1 xi eta; Q=2 xi eta", "010:A 001:B 011:C 100:Q", None),
     CaseLabel("5.5", "4.222", (("triple_points", ("eta", "xi")),))),
    ("conic and lines, one triple point",
     (3, "x", "A=1 x; B=1 x; C=1; Q=2 x", "100:A 010:B 110:C 001:Q", None),
     _error("the conic must pass through exactly two line intersections on one common line")),
    ("five lines, too many through a point",
     (3, "t", "A=1 t; B=1 t; C=1 t; K1=1 t; K2=1", "100:A 010:B 110:C 001:K1,K2", None),
     _error("too many lines through t")),
    ("five lines, unmixed triple point",
     (3, "t", "A=1 t; B=1 t; C=1 t; K1=1; K2=1", "100:A 010:B 110:C 001:K1,K2", None),
     _error("triple point at t must mix both subgroup parts")),
    ("five lines, label",
     (3, "", "A=1; B=1; C=1; K1=1; K2=1", "100:A 010:B 110:C 001:K1,K2", None),
     CaseLabel("5.5", "4.222", (), ("reduced-five-line-model",))),
    ("rank 3, no shape", (3, "", "A=1; B=1; C=1; D=1", "100:A 010:B 001:C 111:D", None),
     _error("rank-3 branch data do not fit a Del Pezzo shape")),
    ("rank 4, five single lines",
     (4, "", "A=1; B=1; C=1; D=1; Q=2", "1000:A 0100:B 0010:C 1110:D 0001:Q", None),
     _error("rank-4 Del Pezzo shape needs five single lines")),
    ("rank 4, general position",
     (4, "t", "A=1 t; B=1 t; C=1; D=1; E=1", "1000:A 0100:B 0010:C 0001:D 1111:E", None),
     _error("the five lines must be in general position")),
    ("rank 4, label", (4, "", "A=1; B=1; C=1; D=1; E=1", "1000:A 0100:B 0010:C 0001:D 1111:E", None),
     CaseLabel("5.9", "4.2222")),
    ("rank 1", (1, "", "Q=2", "1:Q", None), _error("no Del Pezzo case matches r=1 branch data")),
]
_WITH_RECIPE = {
    "s=1 needs reduction",
    "s=2 r=3 concurrent lines",
    "two divisors, tacnode label",
    "conic and lines, triple points label",
}


@pytest.mark.parametrize(
    "name, spec, expected", [pytest.param(*row, id=row[0]) for row in _MATCHER_EXITS]
)
def test_every_matcher_exit(name, spec, expected):
    # the exact label, params and flags, or the exact error, of each exit
    model = spec() if callable(spec) else _exit_model(*spec)
    got = _outcome(classify, model)
    assert got == expected
    if isinstance(got, CaseLabel):
        assert (got.reduce is not None) == (name in _WITH_RECIPE)


def _matcher_exit_lines() -> dict[int, str]:
    """Line -> source of every ``raise MatchError(...)`` and ``return
    CaseLabel(...)`` statement of classify.py."""
    source = Path(classify_mod.__file__).read_text()
    exits = {}
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else getattr(node, "value", None)
        if (
            isinstance(node, (ast.Raise, ast.Return))
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in ("MatchError", "CaseLabel")
        ):
            exits[node.lineno] = ast.get_source_segment(source, node)
    return exits


def test_every_matcher_exit_is_run_by_the_exit_table():
    # each exit statement of the matchers runs for some row of _MATCHER_EXITS
    filename = classify_mod.__file__
    run = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            run.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    for _, spec, _ in _MATCHER_EXITS:
        model = spec() if callable(spec) else _exit_model(*spec)
        sys.settrace(trace_calls)
        try:
            _outcome(classify, model)
        finally:
            sys.settrace(previous)
    exits = _matcher_exit_lines()
    assert exits
    assert {line: exits[line] for line in sorted(exits.keys() - run)} == {}


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
    comps = [reduced.component(cid) for cid, _ in dict(reduced.branch)[w]]
    assert len(comps) == 1
    assert comps[0].cls.degree == 1 and comps[0].mult_at("p") == 0


def test_one_g_prime_inference_per_reduction(monkeypatch):
    # the recipe reuses what the match found instead of computing G' again
    calls = []
    real = classify_mod._g_prime

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify_mod, "_g_prime", spy)
    cremona_reduce(load_cover("prop44_unreduced"))
    assert len(calls) == 1
    calls.clear()
    census_mod.census(2, 7)
    assert len(calls) == len(list(census_mod._candidates(2, 7)))


def test_one_record_read_per_match(monkeypatch):
    # a match reads its model's record once, after the model checks; the
    # recipe it attaches runs on that record and reads no model
    reads = []
    real = classify_mod.to_record

    def spy(cover):
        reads.append(cover)
        return real(cover)

    monkeypatch.setattr(classify_mod, "to_record", spy)
    models = [normalize(load_cover(path.stem)) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    models += [model for r in (2, 3, 4) for _, model in census_mod._candidates(r, 7)]
    recipes = 0
    for model in models:
        if model.pencil is None:
            matchers = (classify, match_del_pezzo)
        else:
            matchers = (classify, partial(match_conic_bundle, pencil_point=model.pencil))
        for match in matchers:
            reads.clear()
            label = _outcome(match, model)
            assert reads == [model], model
            if isinstance(label, CaseLabel) and label.reduce is not None:
                reads.clear()
                label.reduce()
                assert reads == [], model
                recipes += 1
    assert len(models) >= 100 and recipes >= 20, (len(models), recipes)
    # a model that fails the model checks is not read
    lines = [("A", 1, {"p": 1}), ("B", 1, {"p": 1})]
    unramified = plane_cover(2, lines, {"11": [("A", 1), ("B", 1)]}, [("p", None)], "p")
    odd = plane_cover(2, lines, {"10": [("A", 1)], "01": [("B", 1)]}, [("p", None)], "p")
    for model in (unramified, odd, pull_back(load_cover("prop51"), "x")):
        for match in (classify, match_del_pezzo, partial(match_conic_bundle, pencil_point="p")):
            reads.clear()
            assert isinstance(_outcome(match, model), tuple)
            assert reads == []


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
    assert invariant_report(resolve(reduced)).chi == 1


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
        chi_before = invariant_report(resolve(model)).chi
        reduced, _ = cremona_reduce(model)
        chi_after = invariant_report(resolve(reduced)).chi
        assert chi_before == chi_after == 1, name


def test_case_label_serialization():
    label = classify(load_cover("prop44"))
    assert label.serialize() == "Prop4.4/C.2,21[d=3]"
    label = classify(load_cover("prop59"))
    assert label.serialize() == "Prop5.9/4.2222"


def _outcome(function, *args):
    """The result of a call, or the class and message of the error it raised."""
    try:
        return function(*args)
    except CoverError as exc:
        return type(exc), str(exc)


def random_pencil_cover(rng: random.Random):
    """A plane cover with a plane point p, a point q infinitely near p and
    curves of degree up to 5 with any multiplicity at p and q; each curve in
    one random D_g, so the model is normalized."""
    while True:
        r = rng.randint(2, 4)
        comps = []
        for i in range(rng.randint(2, 6)):
            d = rng.randint(1, 5)
            mults = {}
            m = rng.choice((0, 0, 1, 1, 2, d - 1, d))
            if m > 0:
                mults["p"] = m
                if rng.random() < 0.3:
                    mults["q"] = rng.randint(1, m)
            comps.append((f"c{i}", d, mults))
        branch = {}
        for cid, _, _ in comps:
            g = rng.choice(list(group.nonzero_elements(r)))
            branch.setdefault(str(g), []).append((cid, 1))
        try:
            return plane_cover(
                r,
                comps,
                branch,
                marked=[("p", None), ("q", "p")],
                pencil=rng.choice(("p", None)),
                reducible=[cid for cid, _, _ in comps],
            )
        except GeometryError:
            continue


def _g_prime_cases():
    """(model, point) pairs for the G' oracle."""
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        model = load_cover(path.stem)
        for point in [m.name for m in model.marked] + ["fresh"]:
            cases.append((model, point))
            cases.append((normalize(model), point))
    for r in (2, 3, 4):
        cases += [(model, "p") for _, model in census_mod._candidates(r, 7)]
    rng = random.Random(1103)
    for _ in range(300):
        model = random_pencil_cover(rng)
        cases += [(model, "p"), (model, "q")]
    # a curve in two D_g: not normalized
    lines = [("A", 1, {"p": 1}), ("B", 1, {"p": 1})]
    twice = plane_cover(2, lines, {"10": [("A", 1), ("B", 1)], "01": [("A", 1)]}, [("p", None)])
    cases.append((twice, "p"))
    # a multiplicity above the degree: negative fiber degree
    model = load_cover("prop46")
    over = add_marked_point(model, "w", mults={model.components[0].cid: 9})
    cases.append((over, "w"))
    return cases


def test_g_prime_matches_pull_back_reference():
    outcomes, parities = Counter(), Counter()
    for model, point in _g_prime_cases():
        expected = _outcome(pulled_back_g_prime, model, point)
        assert _outcome(infer_g_prime, model, point) == expected, (model, point)
        outcomes["G'" if isinstance(expected, GPrimeStructure) else expected[1]] += 1
        parities.update(m % 2 for _, m in scan_components_at(model, point))
    assert outcomes["G'"] >= 100 and min(parities[0], parities[1]) >= 100
    # every error the reference raises is met: not normalized, a pencil point
    # with a parent, a negative fiber degree, and both kinds of count mismatch
    for part in (
        "normalize the cover",
        "point 'q' is infinitely near",
        "component cubic has negative fiber degree",
        "branch points on a general pencil line",
        "with G' of rank",
    ):
        assert any(part in message for message in outcomes), part


def test_purge_idle_marks_matches_one_at_a_time_reference():
    rng = random.Random(77)
    models = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    models += [random_pencil_cover(rng) for _ in range(40)]
    changed = 0
    for base in models:
        for _ in range(5):
            names = [m.name for m in base.marked] + list(base.surface.names)
            points = []
            for n in range(rng.randint(1, 6)):
                parent = rng.choice(names + [None, None]) if names else None
                on = rng.sample(base.components, rng.randint(0, min(3, len(base.components))))
                points.append((f"t{n}", parent, {c.cid: 1 for c in on}))
                names.append(f"t{n}")
            model = add_marked_points(base, points)
            curves_at = {m.name: len(scan_components_at(model, m.name)) for m in model.marked}
            record = to_record(model)
            gone = classify_mod._purge_idle_marks(
                record, curves_at, children_by_parent(record.marked)
            )
            comps = tuple(
                replace(c, mults=tuple((n, k) for n, k in c.mults if n not in gone))
                for c in model.components
            )
            marked = tuple(m for m in model.marked if m.name not in gone)
            purged = replace(model, components=comps, marked=marked)
            assert purged == purge_idle_marks_one_at_a_time(model)
            changed += purged != model
    assert changed >= 100


#: (r, components as (cid, degree, multiplicity choices at a marked point),
#: branch, the components through a pencil point p, or None for no pencil):
#: the shapes whose matchers look for common points, tacnodes and tangencies
_INCIDENCE_SHAPES = [
    (2, [("quartic", 4, (0, 1, 2, 2)), ("conic", 2, (0, 1, 1))],
     {"10": ["quartic"], "01": ["conic"]}, None),
    (2, [("lineA", 1, (0, 1)), ("lineB", 1, (0, 1)), ("cubic", 3, (0, 1, 1))],
     {"10": ["lineA"], "01": ["lineB"], "11": ["cubic"]}, None),
    (3, [("A", 1, (0, 1)), ("B", 1, (0, 1)), ("C", 1, (0, 1)), ("conic", 2, (0, 1))],
     {"100": ["A"], "010": ["B"], "110": ["C"], "001": ["conic"]}, None),
    (2, [("A", 1, (0, 1, 1)), ("B", 1, (0, 1, 1)), ("C", 1, (0, 1, 1))],
     {"10": ["A"], "01": ["B"], "11": ["C"]}, ()),
    (3, [("A", 1, (0, 1, 1)), ("B", 1, (0, 1, 1)), ("C", 1, (0, 1, 1)),
         ("K1", 1, (0, 0, 1)), ("K2", 1, (0, 0, 1))],
     {"100": ["A"], "010": ["B"], "110": ["C"], "001": ["K1", "K2"]}, ("K1", "K2")),
    (4, [("A", 1, (0, 1, 1)), ("B", 1, (0, 1, 1)), ("C", 1, (0, 1, 1)),
         ("K1", 1, (0, 0, 1)), ("K2", 1, (0, 0, 1)), ("K3", 1, (0, 0, 1))],
     {"1000": ["A"], "0100": ["B"], "1100": ["C"], "0010": ["K1"], "0001": ["K2"],
      "0011": ["K3"]}, ("K1", "K2", "K3")),
]


def random_incidence_cover(rng: random.Random):
    """One of the shapes above with up to four more marked points, named so
    that name order is not creation order, each a plane point or infinitely
    near an earlier one; drawn again until ``plane_cover`` accepts it."""
    while True:
        r, comps, branch, through_p = rng.choice(_INCIDENCE_SHAPES)
        pencil = None if through_p is None else "p"
        names = [pencil] if pencil else []
        marked = [(pencil, None)] if pencil else []
        mults = {cid: {"p": 1} if cid in (through_p or ()) else {} for cid, _, _ in comps}
        for name in rng.sample("abmtxz", rng.randint(1, 4)):
            marked.append((name, rng.choice(names + [None, None])))
            names.append(name)
            for cid, _, choices in comps:
                m = rng.choice(choices)
                if m:
                    mults[cid][name] = m
        try:
            return plane_cover(
                r,
                [(cid, d, mults[cid]) for cid, d, _ in comps],
                {g: [(cid, 1) for cid in cids] for g, cids in branch.items()},
                marked=marked,
                pencil=pencil,
            )
        except GeometryError:
            continue


@pytest.mark.parametrize(
    "seed, count", [(6000, 2000), pytest.param(6001, 6000, marks=pytest.mark.slow)]
)
def test_incidence_predicates_match_scans(monkeypatch, seed, count):
    # the common-point, tacnode and tangency predicates read the components'
    # own multiplicities; with the scans of every marked point swapped in,
    # classify gives the same label or error on every configuration
    rng = random.Random(seed)
    models = [random_incidence_cover(rng) for _ in range(count)]
    found = [_outcome(classify, model) for model in models]
    for model, outcome in zip(models, found):
        # the predicates take the matched record and curve ids; the scans read the model
        def curves(*cids):
            return [model.component(cid) for cid in cids]

        def common_point(record, cids, exclude):
            return scan_common_point(model, curves(*cids), exclude)

        def tacnode(record, quartic, conic):
            return scan_tacnode(model, *curves(quartic, conic))

        def tangency(record, line, cubic):
            return scan_tangency(model, *curves(line, cubic))

        monkeypatch.setattr(classify_mod, "_common_point", common_point)
        monkeypatch.setattr(classify_mod, "_tacnode", tacnode)
        monkeypatch.setattr(classify_mod, "_tangency", tangency)
        assert _outcome(classify, model) == outcome, model
    seen = Counter(o.serialize() if isinstance(o, classify_mod.CaseLabel) else o[1] for o in found)
    for part in ("[tacnode=", "[tangency=", "[common_point=", "P1s.222[", "P1.2222[",
                 "need a tacnode", "not tangentially"):
        assert sum(n for key, n in seen.items() if part in key) >= count // 400, part


# -- quadratic moves against the reference move -----------------------------------

#: marked points of the random move models: plane points x, y, z, h, t, a
#: and s; w near x; u near y; the chains a -> b -> c and s -> r -> p
_MOVE_POINTS = [("x", None), ("y", None), ("z", None), ("h", None), ("t", None), ("a", None),
                ("s", None), ("w", "x"), ("u", "y"), ("b", "a"), ("c", "b"), ("r", "s"),
                ("p", "r")]

#: base triples: plane points, a point infinitely near a base point, and
#: chains (a, b, c, and s, r, p, whose names sort against the chain; both
#: blow up parents first); then invalid triples: a repeat, a parent not
#: based, a stray child (w near x, or u near y, left out), an unknown point
_MOVE_TRIPLES = [("z", "h", "t"), ("h", "t", "z"), ("x", "w", "z"), ("w", "x", "h"),
                 ("a", "b", "c"), ("c", "a", "b"), ("s", "r", "p"),
                 ("z", "z", "h"), ("w", "z", "h"), ("x", "z", "h"), ("y", "z", "t"),
                 ("z", "h", "nowhere")]


def random_move_model(rng: random.Random):
    """A plane model built without the plane checks: up to six curves of
    degree 1..4 through random marked points with multiplicities 1..3, each
    in one to three random D_g with multiplicity 1..3, so the carriers XOR
    and some cancel."""
    r = rng.randint(1, 4)
    names = [name for name, _ in _MOVE_POINTS]
    comps = []
    for i in range(rng.randint(1, 6)):
        at = {n: rng.choice((1, 1, 1, 1, 2, 3)) for n in rng.sample(names, rng.randint(0, 5))}
        cls = lattice.DivisorClass(lattice.PLANE, (rng.choice((1, 2, 3, 4, 4)),))
        comps.append(CurveComponent(f"c{i}", cls, mults=tuple(at.items())))
    elements = list(group.nonzero_elements(r))
    branch = [
        (rng.choice(elements), [(c.cid, rng.randint(1, 3))])
        for c in comps
        for _ in range(rng.choice((1, 1, 2, 3)))
    ]
    marked = tuple(lattice.Center(name, parent) for name, parent in _MOVE_POINTS)
    return CoverModel(r, lattice.PLANE, tuple(comps), tuple(branch), marked, rng.choice((None, "y")))


def test_quadratic_move_equals_reference_move_on_random_models():
    # the same moved model and record, or the same error class and message
    moved = contracted = emitted = 0
    messages, moved_triples = [], set()
    for seed in range(400):
        rng = random.Random(seed)
        model = random_move_model(rng)
        based = rng.choice(_MOVE_TRIPLES[:7] if rng.random() < 0.8 else _MOVE_TRIPLES[7:])
        if seed % 25 == 0:
            model = pull_back(model, "z")  # not a plane model any more
        got = _outcome(quadratic_move, model, *based)
        assert got == _outcome(reference_quadratic_move, model, *based), (seed, based)
        if isinstance(got[0], CoverModel):
            moved += 1
            moved_triples.add(based)
            contracted += bool(got[1].contracted)
            emitted += bool(got[1].emitted)
        else:
            messages.append(f"{got[0].__name__}: {got[1]}")
    assert moved >= 200 and contracted >= 50 and emitted >= 50, (moved, contracted, emitted)
    assert ("s", "r", "p") in moved_triples
    for part in (
        "GeometryError: move produced a negative multiplicity",
        "GeometryError: a quadratic move needs three distinct base points",
        "GeometryError: base point 'w' is infinitely near 'x', which is not based",
        "GeometryError: base point 'x' carries infinitely near points ['w']",
        "GeometryError: base point 'y' carries infinitely near points ['u']",
        "DanglingReferenceError: no marked point named 'nowhere'",
        "PreconditionError: quadratic moves operate on plane configurations",
    ):
        assert any(message.startswith(part) for message in messages), part


def _rename_cid(cid: str, names: dict[str, str]) -> str:
    """An exceptional curve ``E_<point>`` takes its point's new name."""
    return "E_" + names.get(cid[2:], cid[2:]) if cid.startswith("E_") else cid


def _rename_points(model: CoverModel, names: dict[str, str]) -> CoverModel:
    """The model with its marked points, and the exceptional curves ``E_<point>``
    a move emits, renamed by ``names`` (other names kept)."""

    def new(name):
        return names.get(name, name)

    comps = tuple(
        replace(c, cid=_rename_cid(c.cid, names), mults=tuple((new(n), m) for n, m in c.mults))
        for c in model.components
    )
    branch = tuple(
        (g, tuple((_rename_cid(cid, names), k) for cid, k in entries))
        for g, entries in model.branch
    )
    marked = tuple(lattice.Center(new(m.name), new(m.parent)) for m in model.marked)
    return replace(
        model, components=comps, branch=branch, marked=marked, pencil=new(model.pencil)
    )


def test_quadratic_move_on_a_chain_does_not_depend_on_its_names():
    # s -> r -> p and a -> b -> c are the same chain with names that sort
    # differently: swapping the two chains' names swaps the moves' results
    swap = {"s": "a", "r": "b", "p": "c", "a": "s", "b": "r", "c": "p"}
    moved = 0
    for seed in range(200):
        model = random_move_model(random.Random(seed))
        got = _outcome(quadratic_move, model, "s", "r", "p")
        want = _outcome(quadratic_move, _rename_points(model, swap), "a", "b", "c")
        if isinstance(want[0], CoverModel):
            moved += 1
            assert isinstance(got[0], CoverModel), (seed, got)
            assert got[0] == _rename_points(want[0], swap), seed
            contracted, emitted = (
                tuple(sorted(_rename_cid(cid, swap) for cid in cids))
                for cids in (want[1].contracted, want[1].emitted)
            )
            assert got[1] == MoveRecord(("s", "r", "p"), contracted, emitted), seed
        else:
            assert got == want, seed
    assert moved >= 150, moved


def test_one_model_build_per_quadratic_move(monkeypatch):
    # the move blows up and reflects on the model's record and builds the
    # moved model once; it does not go through pull_back.  The engine's
    # recipes chain their moves on records, so the moves watched here are
    # those of the step-by-step reference recipes
    builds = []
    post_init = CoverModel.__post_init__

    def counting(model):
        builds[-1] += 1
        post_init(model)

    def move(cover, *based):
        builds.append(0)
        monkeypatch.setattr(CoverModel, "__post_init__", counting)
        try:
            return quadratic_move(cover, *based)
        finally:
            monkeypatch.setattr(CoverModel, "__post_init__", post_init)

    monkeypatch.setattr(classify_mod, "quadratic_move", move)
    for r in (2, 3):
        for _, model in census_mod._candidates(r, 7):
            reference_cremona_reduce(model)
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        reference_cremona_reduce(load_cover(path.stem))
    monkeypatch.undo()
    assert len(builds) >= 40 and builds == [1] * len(builds)
    assert not hasattr(classify_mod, "pull_back")


# -- recipes chained on records -------------------------------------------------
# A recipe makes its moves on records and builds one model; the reference
# recipes in conftest build a model at every step.  Both must give the same
# reduced model and move records, or the same error.


def _perturbed_model(name: str, rng: random.Random):
    """The model of a fixture document changed at random: general points on
    random curves (some named like the recipes' auxiliary points), a curve's
    degree and multiplicities shifted together, a curve declared reducible,
    pencil lines added to a D_g, curves moved between the D_g, and every
    name permuted.  The changes are made on the document's data as read, in
    the order it was written."""
    r, components, branch, centers, pencil, reducible = reference_parse(fixture_text(name))
    components = [[cid, degree, mults] for cid, degree, mults in components]
    reducible = set(reducible)
    for i in range(rng.choice((0, 0, 1, 2))):
        point = rng.choice((f"aux{i + 1}", f"g{i}"))
        centers.append((point, None))
        for _, _, mults in rng.sample(components, rng.randint(0, 2)):
            mults[point] = 1
    if rng.random() < 0.5:
        comp = rng.choice(components)
        step = rng.choice((-2, -1, 1, 2, 2, 4))
        if comp[1] + step >= 1:
            comp[1] += step
            for point, m in comp[2].items():
                if rng.random() < 0.8:
                    comp[2][point] = max(1, m + step)
    if rng.random() < 0.3:
        reducible.add(rng.choice(components)[0])
    if pencil is not None and rng.random() < 0.4:
        key = rng.choice(sorted(branch))
        for j in range(rng.choice((1, 2, 2))):
            mults = {pencil: 1} if rng.random() < 0.8 else {}
            components.append([f"extra{j}", 1, mults])
            branch[key].append((f"extra{j}", 1))
    if rng.random() < 0.2:
        keys = sorted(branch)
        entry = branch[rng.choice(keys)].pop()
        branch.setdefault(rng.choice(keys), []).append(entry)
        branch = {key: entries for key, entries in branch.items() if entries}
    if rng.random() < 0.5:
        old = [cid for cid, _, _ in components] + [n for n, _ in centers]
        pool = [f"n{i}" for i in range(len(old))] + ["aux1", "aux2", "aux3", "E_p", "a", "zz"]
        new = dict(zip(old, rng.sample(pool, len(old))))
        components = [
            [new[cid], degree, {new[point]: m for point, m in mults.items()}]
            for cid, degree, mults in components
        ]
        reducible = {new[cid] for cid in reducible}
        centers = [(new[n], None if p is None else new[p]) for n, p in centers]
        branch = {key: [(new[cid], k) for cid, k in entries] for key, entries in branch.items()}
        pencil = None if pencil is None else new[pencil]
    return plane_cover(r, components, branch, centers, pencil, reducible)


def _odd_curve_models():
    """The odd curves W of degree 3..21 with a (d-1)-fold point at p, beside the
    census's pencil lines (r = 2, 3)."""
    models = []
    for r in (2, 3):
        lines = [(cid, g, 1, 1) for cid, g in census_mod._ODD_CURVE_LINES[r]]
        for d in range(3, 22, 2):
            models.append(census_mod._pencil_model(r, lines + [("W", "1" * r, d, d - 1)]))
    return models


def test_odd_curve_models_are_the_recorded_documents():
    # the SHA-256 of the 20 documents joined, recorded from the census's former
    # odd-curve builder: the table-driven builder makes the same models
    documents = "".join(config.write(model) for model in _odd_curve_models())
    digest = "98fcec527ffc556d59446974ccb4ffd517ecfb7ac946f3de99a5667a268f0322"
    assert hashlib.sha256(documents.encode()).hexdigest() == digest


def _recipe_inputs():
    """The fixtures, the census candidates (r = 2..4, d <= 7), the odd curves
    of degree d <= 21 with a (d-1)-fold point (r = 2, 3), and 600 seeded
    perturbations of three fixtures with recipes."""
    models = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    for r in (2, 3, 4):
        models += [model for _, model in census_mod._candidates(r, 7)]
    models += _odd_curve_models()
    rng = random.Random(1848)
    for name in ("prop44_unreduced", "prop51", "prop410"):
        for _ in range(200):
            try:
                models.append(_perturbed_model(name, rng))
            except CoverError:
                pass
    return models


def test_cremona_reduce_equals_the_step_by_step_reference(monkeypatch):
    # the reference recipes make each move with the reference move, built on
    # pull_back, so no step of the reference runs the engine's record path
    moves = Counter()
    errors = set()
    inputs = _recipe_inputs()
    for model in inputs:
        got = _outcome(cremona_reduce, model)
        with monkeypatch.context() as patch:
            patch.setattr(classify_mod, "quadratic_move", reference_quadratic_move)
            expected = _outcome(reference_cremona_reduce, model)
        assert got == expected, model
        if isinstance(got[0], CoverModel):
            moves[len(got[1])] += 1
        else:
            errors.add(got[0].__name__)
    assert len(inputs) >= 500 and max(moves) == 30 and sum(moves.values()) >= 350, moves
    assert sum(n for count, n in moves.items() if count) >= 200, moves
    assert {"MatchError", "ParityError"} <= errors, errors
    # no matched model reaches the recipe's ReductionError: it is reached by
    # calling the recipe on a model that no family matches
    model = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("R0", 1, {}), ("R1", 1, {"p": 1})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("R0", 1), ("R1", 1)]},
        marked=[("p", None)],
        pencil="p",
    )
    w = GroupElement.parse("11")
    got = _outcome(classify_mod._reduce_odd_curve, to_record(model), "p", w)
    assert got[0].__name__ == "ReductionError"
    assert got == _outcome(reference_reduce_odd_curve, model, "p", w)


def test_a_census_row_builds_no_model_after_its_plane_model(monkeypatch):
    # the nine tables (r = 2..4, d = 3, 5, 7) build their 177 plane models and
    # nothing else: the reductions, the shape keys, resolve and the
    # invariants all read records (every check still runs on every build)
    inside = []
    plane_cover_ = census_mod.plane_cover
    post_init = CoverModel.__post_init__

    def planar(*args, **kwargs):
        inside.append(True)
        try:
            return plane_cover_(*args, **kwargs)
        finally:
            inside.pop()

    def counting(model):
        builds.append(bool(inside))
        post_init(model)

    builds = []
    monkeypatch.setattr(census_mod, "plane_cover", planar)
    monkeypatch.setattr(CoverModel, "__post_init__", counting)
    for r in (2, 3, 4):
        for d in (3, 5, 7):
            census_mod.census(r, d)
    assert len(builds) == 177 and all(builds)


def test_cremona_reduce_builds_one_model_per_reduction(monkeypatch):
    # a recipe returns its record, whatever the number of its moves, and
    # cremona_reduce builds the reduced model from it: one build per
    # reduction, none for a family already in normal form
    models = [normalize(load_cover(path.stem)) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    models += [model for r in (2, 3, 4) for _, model in census_mod._candidates(r, 7)]
    recipes = [classify(model).reduce is not None for model in models]
    builds = []
    post_init = CoverModel.__post_init__

    def counting(model):
        builds.append(model)
        post_init(model)

    monkeypatch.setattr(CoverModel, "__post_init__", counting)
    moves = Counter()
    for model, has_recipe in zip(models, recipes):
        builds.clear()
        reduced, trail = cremona_reduce(model)
        assert [id(m) for m in builds] == ([id(reduced)] if has_recipe else []), model
        if has_recipe:
            moves[len(trail)] += 1
        else:
            assert reduced is model and trail == ()
    # four fixtures (three auxiliary moves and one odd curve) and the six
    # odd-curve patterns at r = 2, 3 (3, 6 and 9 moves at d = 3, 5, 7)
    assert sum(moves.values()) == 4 + 6 and max(moves) == 9, moves
