import functools
import itertools
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from planecover import census as census_mod
from planecover import classify as classify_mod
from planecover import config
from planecover import cover as cov
from planecover import group, lattice
from planecover import normalize as normalize_mod
from planecover.classify import quadratic_move
from planecover.cover import (
    CoverModel,
    CurveComponent,
    add_marked_point,
    add_marked_points,
    derive_building_data,
    is_totally_ramified,
    plane_cover,
    quotient_cover,
)
from planecover.errors import (
    ConfigError,
    CoverError,
    DanglingReferenceError,
    DimensionError,
    DomainError,
    InconsistencyError,
    ParityError,
)
from planecover.group import Character, GroupElement
from planecover.invariants import bicanonical_pullback, canonical_square, invariant_report
from planecover.lattice import BlownPlane, Center, DivisorClass
from planecover.normalize import ResolveResult, pull_back, resolve

from conftest import (
    check_prod_relations,
    FIXTURE_DIR,
    PERFBENCH_DIR,
    fresh_record,
    load_cover,
    per_character_building_data,
    point_is_ripe,
    reference_bicanonical_pullback,
    reference_branch_class,
    reference_canonical_square,
    reference_component_mults,
    reference_cover_fields,
    reference_odd_character,
    reference_plane_cover,
    reference_stepwise_resolve,
    resolve_within,
    scan_children_of_point,
    scan_components_at,
    searched_quotient_cover,
    total_transform_pull_back,
)


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
    building[hh] = building[hh] + lattice.hyperplane(model.surface)
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


def test_building_data_dict_is_fresh_per_call():
    model = load_cover("prop59")
    first = derive_building_data(model)
    snapshot = dict(first)
    for chi in list(first):
        first[chi] = first[chi] + lattice.hyperplane(model.surface)
    del first[Character.parse("1111")]
    assert derive_building_data(model) == snapshot
    report = check_prod_relations(model)
    assert report.ok and report.pairs_checked == 4**4


def test_parity_error_on_every_call():
    bad = plane_cover(
        3,
        [("A", 1, {}), ("B", 2, {}), ("C", 2, {})],
        {"100": [("A", 1)], "010": [("B", 1)], "001": [("C", 1)]},
    )
    for _ in range(2):
        with pytest.raises(ParityError) as err:
            derive_building_data(bad)
        assert err.value.character == Character.parse("100")
    with pytest.raises(ParityError):
        check_prod_relations(bad)


def test_engine_paths_build_no_building_data(monkeypatch, capsys):
    # census, invariants, validate and classify need parity only: none
    # derives building data, each model computes parity once, and each
    # report decides it once, from its own [D_g] sums
    from functools import cached_property

    from planecover import invariants as invariants_mod
    from planecover.census import census
    from planecover.cli import main
    from test_invariants import line_arrangement

    built, parity = [], []
    derive = cov.derive_building_data

    def deriving(model):
        built.append(model)
        return derive(model)

    # every planecover module that binds the name, so no engine path misses it
    for module in list(sys.modules.values()):
        if module.__name__.startswith("planecover") and hasattr(module, "derive_building_data"):
            monkeypatch.setattr(module, "derive_building_data", deriving)
    compute = cov.CoverModel.__dict__["_odd_character"].func

    def counting(model):
        parity.append(model)
        return compute(model)

    spied = cached_property(counting)
    spied.__set_name__(cov.CoverModel, "_odd_character")
    monkeypatch.setattr(cov.CoverModel, "_odd_character", spied)
    reports = []
    sweep = invariants_mod.odd_character

    def report_parity(r, curves):
        reports.append(r)
        return sweep(r, curves)

    monkeypatch.setattr(invariants_mod, "odd_character", report_parity)
    census(4, 7)
    invariant_report(resolve(line_arrangement(12)))
    codes = [
        main([command, "--input", str(path)])
        for path in sorted(FIXTURE_DIR.glob("*.cfg"))
        for command in ("validate", "classify")
    ]
    capsys.readouterr()
    assert codes == [0] * 24
    assert built == []
    # once per model: the 30 census patterns and one model per CLI call; the
    # list keeps them alive, so ids are distinct
    assert len({id(model) for model in parity}) == len(parity) == 30 + 24
    # once per report: the 30 resolved census rows and the arrangement
    assert len(reports) == 30 + 1
    # the spy sees a call made through the module
    cov.derive_building_data(load_cover("prop53"))
    assert len(built) == 1


def test_rank_is_computed_once_per_model(monkeypatch):
    # the matchers' check_cover asks every census pattern once whether it is
    # totally ramified; the model computes the rank of its branch elements once
    from functools import cached_property

    from planecover.census import census

    ranks, asked = [], []
    compute = cov.CoverModel.__dict__["_rank"].func
    is_totally_ramified = cov.is_totally_ramified

    def counting(model):
        ranks.append(model)
        return compute(model)

    def asking(model):
        asked.append(model)
        return is_totally_ramified(model)

    spied = cached_property(counting)
    spied.__set_name__(cov.CoverModel, "_rank")
    monkeypatch.setattr(cov.CoverModel, "_rank", spied)
    monkeypatch.setattr(cov, "is_totally_ramified", asking)
    census(4, 7)
    # the list keeps the 30 patterns alive, so their ids are distinct
    assert len({id(model) for model in ranks}) == len(ranks) == 30
    assert len(asked) == 30 and {id(model) for model in asked} == {id(m) for m in ranks}


def _spy_record_reads(monkeypatch):
    """(model, record, a copy of it made as it was read) for every record a
    model reads, in order; the list keeps the models alive, so their ids are
    distinct."""
    from functools import cached_property

    read = []
    compute = cov.CoverModel.__dict__["_record"].func

    def reading(model):
        read.append((model, compute(model), fresh_record(model)))
        return read[-1][1]

    spied = cached_property(reading)
    spied.__set_name__(cov.CoverModel, "_record")
    monkeypatch.setattr(cov.CoverModel, "_record", spied)
    return read


def test_census_reads_each_model_record_once(monkeypatch):
    # classify, a row's shape key and resolve share one record per plane model
    from planecover.census import census

    read = _spy_record_reads(monkeypatch)
    for r in (2, 3, 4):
        for d in (3, 5, 7):
            census(r, d)
    assert len({id(model) for model, _, _ in read}) == len(read) == 177


def test_cached_records_stay_as_read(monkeypatch, capsys):
    # no function given a record changes it: after a census pass and the six
    # document commands on every fixture, each model's record still equals
    # its copy made when it was read and one read afresh from the model's
    # fields (its coefficient maps are the classes' own), and the model
    # still returns it
    from planecover.census import census
    from planecover.cli import main

    read = _spy_record_reads(monkeypatch)
    for r in (2, 3, 4):
        for d in (3, 5, 7):
            census(r, d)
    commands = ("validate", "normalize", "resolve", "invariants", "classify", "reduce")
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        for command in commands:
            main([command, "--input", str(path)])
    capsys.readouterr()
    assert len(read) > 177
    for model, record, copy in read:
        assert cov.to_record(model) is record
        assert record == copy == fresh_record(model), model


def test_explicit_rank2_relation_system():
    # the six relations of the rank-2 system, written out
    model = load_cover("prop53")
    L = derive_building_data(model)
    D = {str(g): reference_branch_class(model, g) for g, _ in model.branch}
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


def test_quotient_cover_branch_images():
    # the image of g is its coordinates in the complement basis: with H = <100>
    # the basis is 010, 001; with H = <111> it is 100, 010 and 001 = 111 + 110
    fix48 = load_cover("prop48")
    expected = {
        "100": {"lineB": "10", "lineC": "01", "cubic": "11"},
        "111": {"lineA": "10", "lineB": "01", "lineC": "11"},
    }
    for h, images in expected.items():
        quotient = quotient_cover(fix48, [GroupElement.parse(h)])
        found = {cid: str(g) for g, entries in quotient.branch for cid, _ in entries}
        assert found == images


def test_quotient_cover_rejects_generators_of_wrong_rank():
    with pytest.raises(DimensionError):
        quotient_cover(load_cover("prop53"), [GroupElement.parse("100")])


def test_quotient_preserves_total_ramification():
    rng = random.Random(11)
    for name in ("prop48", "prop410", "prop412", "prop59"):
        model = load_cover(name)
        assert is_totally_ramified(model)
        elements = [g for g in group.nonzero_elements(model.r)]
        for _ in range(5):
            sub = group.span([rng.choice(elements)], model.r)
            if group.rank(sub, model.r) == model.r:
                continue
            assert is_totally_ramified(quotient_cover(model, sub))


def _quotient_outcome(function, model, gens):
    try:
        return function(model, gens)
    except CoverError as exc:
        return type(exc), str(exc)


def test_quotient_cover_matches_searched_reference():
    # every subgroup of (Z/2)^r, each once, given by a shortest generator tuple
    generators = {}
    for r in (2, 3, 4):
        subgroups = {}
        for n in range(r + 1):
            for gens in itertools.combinations(list(group.nonzero_elements(r)), n):
                subgroups.setdefault(group.span(gens, r), gens)
        generators[r] = list(subgroups.values())
    models = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    models += [model for r in (2, 3, 4) for _, model in census_mod._candidates(r, 7)]
    pairs = full = 0
    for model in models:
        for gens in generators[model.r]:
            quotient = _quotient_outcome(quotient_cover, model, gens)
            expected = _quotient_outcome(searched_quotient_cover, model, gens)
            assert quotient == expected, (model, gens)
            pairs += 1
            full += quotient == (DomainError, "cannot quotient by the full group")
    assert len(models) == full == 116 and pairs == 3015


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
            if group.epsilon(chi, g) & group.epsilon(chi2, g):
                rhs = rhs + reference_branch_class(model, g)
        if building[chi] + building[chi2] != rhs:
            violations.append((chi, chi2))
    return violations


def test_prod_relations_match_pairwise_oracle():
    rng = random.Random(2718)

    def seeded():
        for i in range(100):
            model = random_valid_cover(rng)
            # a second coordinate, so perturbations need not be multiples of H
            yield pull_back(model, "fresh") if i % 2 else model

    fixtures = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    models = itertools.chain(
        seeded(),
        fixtures,
        (resolve(m).cover for m in fixtures),
        (model for _, model in census_mod._candidates(3, 5)),
    )
    failing = 0
    for model in models:
        building = derive_building_data(model)
        for chi in rng.sample(list(group.characters(model.r)), rng.randint(1, 2)):
            shift = tuple(rng.randint(-2, 2) for _ in range(model.surface.rank))
            building[chi] = building[chi] + DivisorClass(model.surface, shift)
        report = check_prod_relations(model, building)
        assert report.pairs_checked == 4**model.r
        assert list(report.violations) == prod_violations_oracle(model, building)
        failing += not report.ok
    assert failing >= 50


def _building_data_models():
    """Fixtures, census candidates, seeded covers (also pulled back, so the
    classes have exceptional coefficients) and resolved models; some odd."""
    models = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    models += [resolve(m).cover for m in models]
    for r in (2, 3, 4):
        models += [model for _, model in census_mod._candidates(r, 7)]
    rng = random.Random(3141)
    for i in range(200):
        r = rng.randint(1, 4)
        n = rng.randint(1, 5)
        comps = [(f"c{j}", rng.randint(1, 4), {}) for j in range(n)]
        branch = {}
        for j in range(n):
            for _ in range(rng.randint(1, 2)):
                g = rng.choice(list(group.nonzero_elements(r)))
                branch.setdefault(str(g), []).append((f"c{j}", rng.randint(1, 3)))
        model = plane_cover(r, comps, branch)
        models.append(pull_back(model, "fresh") if i % 2 else model)
    return models


def _building_or_error(function, model):
    try:
        return function(model)
    except ParityError as exc:
        return exc.character, str(exc)


def test_building_data_match_per_character_reference():
    # the classes read off the one sweep of branch_classes, against the
    # per-character linear combinations of the reference [D_g]; so are
    # B = 2K + D and K^2 on every model, parity-broken ones included
    odd = 0
    for model in _building_data_models():
        expected = _building_or_error(lambda m: per_character_building_data(m)[0], model)
        got = _building_or_error(derive_building_data, model)
        assert got == expected, model
        if isinstance(expected, dict):
            assert list(got) == list(expected) == list(group.characters(model.r))
        else:
            odd += 1
        assert bicanonical_pullback(model) == reference_bicanonical_pullback(model), model
        got = _model_or_error(canonical_square, (model,))
        assert got == _model_or_error(reference_canonical_square, (model,)), model
    assert odd >= 50


def _parity_models(seed, count):
    """Each seeded model raw, normalized and resolved.  Every D_g entry is
    drawn with a multiplicity 1..3, and a curve goes into one to three D_g,
    so entries repeat and some are even; half the raw models live on the
    blow-up at a point p of the first two curves, so classes have odd
    exceptional coefficients.  Many are parity-broken."""
    rng = random.Random(seed)
    for i in range(count):
        r = rng.randint(1, 4)
        n = rng.randint(1, 5)
        comps = [(f"c{j}", rng.randint(1, 4), {"p": 1} if j < 2 else {}) for j in range(n)]
        plane = plane_cover(r, comps, {}, marked=[("p", None)])
        base = pull_back(plane, "p") if i % 2 else plane
        branch = {}
        for comp in base.components:
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(list(group.nonzero_elements(r)))
                branch.setdefault(g, []).append((comp.cid, rng.randint(1, 3)))
        raw = replace(base, branch=tuple(branch.items()))
        yield raw
        yield normalize_mod.normalize(raw)
        yield resolve_within(raw, 20).cover


def test_check_parity_matches_per_character_reference():
    def parity_outcome(function, model):
        try:
            function(model)
        except ParityError as exc:
            return exc.character, str(exc)
        return None

    models = broken = 0
    for model in _parity_models(8128, 400):
        expected = parity_outcome(per_character_building_data, model)
        assert parity_outcome(cov.check_parity, model) == expected, model
        models += 1
        broken += expected is not None
    assert models == 1200 and broken >= 300


def _report_parity(record):
    """The character of the ParityError that ``invariant_report`` raises on
    a hand-built result with this record, checking its text; None when it
    raises none."""
    try:
        invariant_report(ResolveResult(record, (), 0, (), None))
    except ParityError as exc:
        chi = exc.character
        assert str(exc) == f"branch data sum for character {chi} is not divisible by two"
        return chi
    except CoverError:
        pass
    return None


def test_parity_sweep_matches_the_model_reference():
    # the one sweep, over a model's odd entries and over the [D_g] sums that
    # invariant_report builds from a record's curves and carriers, against
    # the sweep as it was on a built model: raw models with repeated, even
    # and cancelling entries, their normalized and resolved models, and the
    # resolved records of the 440 chi models
    from test_invariants import reference_chi_models

    odd = 0
    for model in _parity_models(8128, 400):
        expected = reference_odd_character(model)
        assert model._odd_character == expected, model
        assert _report_parity(cov.to_record(model)) == expected, model
        odd += expected is not None
    assert odd >= 300
    for result in reference_chi_models():
        assert _report_parity(result.record) is reference_odd_character(result.cover) is None


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
    other = lattice.PLANE.blow_up(Center("z"))
    hh = Character((1, 1))
    building[hh] = DivisorClass(other, building[hh].coeffs)
    with pytest.raises(DimensionError):
        check_prod_relations(model, building)


def test_component_validation():
    with pytest.raises(DomainError):
        plane_cover(2, [("A", -1, {})], {"10": [("A", 1)]})
    with pytest.raises(DomainError):
        # a degree-0 plane component is not an exceptional class
        cov.CurveComponent("A", DivisorClass.from_support(lattice.PLANE, {}))


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
    # a marked point, a center, a curve and an exceptional curve: a document
    # names points and curves alike
    for name in ("y", "x", "conic", "E_x"):
        with pytest.raises(DomainError, match="already in use"):
            add_marked_points(model, [("a", None, None), (name, None, None)])
        with pytest.raises(DomainError, match="already in use"):
            cov.mark_points(cov.to_record(model), [(name, None, {"conic": 1})])
    with pytest.raises(DomainError):
        add_marked_points(model, [("a", None, None), ("a", None, None)])
    with pytest.raises(DanglingReferenceError):
        add_marked_points(model, [("a", None, {"conic": 1}), ("b", None, {"nope": 1})])
    with pytest.raises(DanglingReferenceError):
        add_marked_points(model, [("a", "nowhere", None)])
    lines = plane_cover(2, [("aux1", 1, {}), ("aux3", 1, {})], {"11": [("aux1", 1), ("aux3", 1)]})
    assert cov.fresh_names(cov.to_record(lines), "aux", 2) == ["aux2", "aux4"]


def _mark_or_error(record, points, one_by_one):
    try:
        if not one_by_one:
            return cov.mark_points(record, points)
        for point in points:
            record = cov.mark_points(record, [point])
        return record
    except CoverError as exc:
        return type(exc), str(exc)


def test_mark_points_in_one_call_equals_one_call_per_point():
    # 300 new points on the conic, every other one infinitely near x (so on
    # E_x too): one call gives the record of 300 one-point calls and leaves
    # the record it is given as it was
    record = cov.to_record(pull_back(load_cover("prop51"), "x"))
    before = {cid: list(at) for cid, at in record.mults.items()}
    points = [(f"p{i}", "x" if i % 2 else None, {"conic": 1}) for i in range(300)]
    batched = _mark_or_error(record, points, one_by_one=False)
    assert batched == _mark_or_error(record, points, one_by_one=True)
    assert record.mults == before
    assert len(batched.mults["conic"]) == len(before["conic"]) + 300
    assert len(batched.mults["E_x"]) == len(before["E_x"]) + 150
    # a bad point midway raises the error the one-point calls raise
    for bad in (("p7", None, {"conic": 1}), ("x", None, None), ("q", None, {"nope": 1})):
        calls = [*points[:150], bad, *points[150:]]
        got = _mark_or_error(record, calls, one_by_one=False)
        assert isinstance(got, tuple)
        assert got == _mark_or_error(record, calls, one_by_one=True)
        assert record.mults == before


def test_indexed_lookups_agree_with_scans_and_keep_their_errors():
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        model = load_cover(path.stem)
        for m in model.marked:
            ripe = point_is_ripe(model, m.name)
            pulled = total_transform_pull_back(model, m.name) if ripe else model
            for c in pulled.components:
                assert pulled.component(c.cid) is c
            for m2 in pulled.marked:
                assert pulled.marked_point(m2.name) is m2
            for slot, center in enumerate(pulled.surface.centers, start=1):
                assert pulled.surface.index_of(center.name) == slot
                assert pulled.surface.has_center(center.name)
                assert pulled.surface.center(center.name) is center
    model = total_transform_pull_back(load_cover("prop51"), "x")
    with pytest.raises(DanglingReferenceError, match="no component named 'nope'"):
        model.component("nope")
    with pytest.raises(DanglingReferenceError, match="no marked point named 'x'"):
        model.marked_point("x")
    with pytest.raises(DanglingReferenceError, match="no center named 'y'"):
        model.surface.index_of("y")
    with pytest.raises(DanglingReferenceError, match="no center named 'y'"):
        model.surface.center("y")
    assert not model.surface.has_center("y")
    # a curve whose D_g cancel has no carrier: the pair search asks to normalize
    lines = [("A", 1, {}), ("B", 1, {})]
    twice = plane_cover(2, lines, {"10": [("A", 2), ("B", 1)], "01": [("B", 1)]})
    with pytest.raises(InconsistencyError, match="component 'A' is not reduced/uniquely"):
        normalize_mod.singular_residual_pairs(cov.to_record(twice))


def test_a_blown_up_marked_point_is_its_center():
    model = load_cover("prop51")
    assert pull_back(model, "x").surface.center("x") is model.marked_point("x")


def models_pulled_back(monkeypatch, run):
    """Every model that ``pull_back`` reads or returns while
    ``run(pull_back)`` runs, a crossing round's model with its crossing
    points marked, and every model that a quadratic move reads or returns.
    ``run`` resolves with ``reference_stepwise_resolve``, which builds the
    model of every round, and passes it the recording ``pull_back``."""
    seen = []

    def recording(cover, *points):
        out = pull_back(cover, *points)
        seen.extend((cover, out))
        return out

    def recording_move(cover, *based):
        moved, record = quadratic_move(cover, *based)
        seen.extend((cover, moved))
        return moved, record

    monkeypatch.setattr(classify_mod, "quadratic_move", recording_move)
    run(recording)
    monkeypatch.undo()
    return seen


def stepwise(model, **kwargs):
    """A runner for ``models_pulled_back``: the step-by-step resolve of ``model``."""
    return lambda pull: reference_stepwise_resolve(model, pull_back=pull, **kwargs)


def assert_index_matches_scan(model):
    # the record's indexes, one implementation each, against scans of the model
    record = cov.to_record(model)
    through = cov.curves_through(record.mults.items())
    children = cov.children_by_parent(record.marked)
    points = [m.name for m in model.marked] + list(model.surface.names) + ["nowhere"]
    for point in points:
        at = [(model.component(cid), m) for cid, m in through.get(point, ())]
        assert at == scan_components_at(model, point)
        assert tuple(children.get(point, ())) == scan_children_of_point(model, point)


def test_incidence_index_matches_scan_along_fixture_resolutions(monkeypatch):
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        model = load_cover(path.stem)
        trail = models_pulled_back(monkeypatch, stepwise(model))
        for each in [model, *trail]:
            assert_index_matches_scan(each)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_incidence_index_matches_scan_on_census_patterns(monkeypatch, r):
    patterns = [model for _, model in census_mod._candidates(r, 7)]

    def run(pull):
        # the census, each row resolved step by step
        resolve_stepwise = functools.partial(reference_stepwise_resolve, pull_back=pull)
        monkeypatch.setattr(census_mod, "resolve", resolve_stepwise)
        census_mod.census(r, 7)

    pulled = models_pulled_back(monkeypatch, run)
    assert pulled
    for model in patterns + pulled:
        assert_index_matches_scan(model)


def test_incidence_index_matches_scan_on_random_covers(monkeypatch):
    rng = random.Random(8080)
    for _ in range(40):
        model = random_valid_cover(rng)
        trail = models_pulled_back(monkeypatch, stepwise(model, budget=20))
        for each in [model, *trail]:
            assert_index_matches_scan(each)


# -- construction checks against the plain reference ---------------------------------

#: one of each invalid kind a raw model can carry; several may be applied at
#: once, so the reference also pins which check fires first
_FAULTS = (
    "duplicate id",
    "dangling parent",
    "marked/center collision",
    "wrong surface",
    "unknown mult point",
    "wrong-rank element",
    "zero element",
    "unknown branch cid",
    "unknown pencil",
    "bad rank",
    "repeated marked name",
    "cyclic parents",
)


def _raw_model(rng: random.Random, faults=()):
    """Raw ``CoverModel`` arguments: components, buckets and points in random
    order, repeated g and cid, coefficients that may sum to zero or below,
    classes on the surface or on an equal copy of it; then ``faults``."""
    r = rng.randint(1, 4)
    centers = rng.choice(((), (Center("e1"),), (Center("e1"), Center("e2", "e1"))))
    surface, twin = BlownPlane(centers), BlownPlane(tuple(centers))
    parents = [None, "p", *(c.name for c in centers)]
    marked = [Center("p"), Center("q", "p"), Center("s", rng.choice(parents))]
    comps = []
    for i in range(rng.randint(1, 5)):
        coeffs = (rng.randint(1, 4), *(-rng.randint(0, 1) for _ in centers))
        points = rng.sample(["p", "q", "s"], rng.randint(0, 3))
        mults = tuple((name, rng.randint(1, 3)) for name in points)
        cls = DivisorClass(rng.choice((surface, twin)), coeffs)
        comps.append(CurveComponent(f"c{i}", cls, mults=mults))
    if len(centers) == 2 and rng.random() < 0.5:
        comps.append(CurveComponent("E_e1", DivisorClass(surface, (0, 1, -1)), exceptional_of="e1"))
    elements = list(group.nonzero_elements(r))
    branch = [
        (rng.choice(elements), [(rng.choice(comps).cid, rng.randint(-2, 3)) for _ in range(n)])
        for n in rng.choices(range(5), k=rng.randint(0, 8))
    ]
    pencil = rng.choice((None, "p", "s", *(c.name for c in centers)))
    rng.shuffle(comps)
    rng.shuffle(marked)
    line = DivisorClass(surface, (1,) + (0,) * len(centers))
    rank = r
    for fault in faults:
        if fault == "duplicate id":
            comps.append(replace(comps[0], mults=()))
        elif fault == "dangling parent":
            marked.append(Center("t", "nowhere"))
        elif fault == "marked/center collision":
            marked.append(Center(centers[0].name if centers else "e0"))
            surface = surface if centers else BlownPlane((Center("e0"),))
        elif fault == "wrong surface":
            comps.append(CurveComponent("w", DivisorClass(BlownPlane((Center("x9"),)), (1, 0))))
        elif fault == "unknown mult point":
            comps.append(CurveComponent("u", line, mults=(("nowhere", 1),)))
        elif fault == "wrong-rank element":
            branch.append((GroupElement._of(r % 4 + 1, 1), [(comps[0].cid, 1)]))
        elif fault == "zero element":
            branch.append((group.zero(r), [(comps[0].cid, 1)]))
        elif fault == "unknown branch cid":
            branch.append((elements[0], [("ghost", 1)]))
        elif fault == "unknown pencil":
            pencil = "nowhere"
        elif fault == "bad rank":
            rank = rng.choice((0, 5))
        elif fault == "repeated marked name":
            marked.append(Center("q", rng.choice((None, "p"))))
        elif fault == "cyclic parents":
            marked += [Center("u", rng.choice(("u", "v"))), Center("v", "u")]
    return rank, surface, tuple(comps), tuple(branch), tuple(marked), pencil


def _fields_or_error(build, *args):
    try:
        made = build(*args)
    except CoverError as exc:
        return type(exc), str(exc)
    return made if isinstance(made, tuple) else (made.components, made.branch, made.marked)


def test_cover_model_keeps_every_check_of_the_reference():
    messages = []
    for seed in range(1500):
        rng = random.Random(seed)
        faults = () if seed % 3 == 0 else rng.sample(_FAULTS, rng.choice((1, 1, 1, 2, 3)))
        args = _raw_model(rng, faults)
        got = _fields_or_error(CoverModel, *args)
        assert got == _fields_or_error(reference_cover_fields, *args), (seed, faults)
        if isinstance(got[0], type):
            messages.append(got[1])
        else:
            model = CoverModel(*args)
            assert (model.r, model.surface, model.pencil) == (args[0], args[1], args[5])
            assert all(g is GroupElement._of(g.r, g.mask) for g, _ in model.branch)
    for part in (
        "cover rank must be between",
        "component ids must be unique",
        "marked point names collide",
        "marked point 't' has unknown parent",
        "component 'w' lives on the wrong surface",
        "component 'u' declares a multiplicity at unknown point",
        "branch element 1 has wrong rank",
        "branch data are indexed by nonzero group elements",
        "branch references unknown component 'ghost'",
        "pencil point 'nowhere' is not a known point",
        "marked point names must be unique",
        "the parents of marked point 'u' form a cycle",
    ):
        assert any(message.startswith(part) for message in messages), part


@pytest.mark.parametrize("fault", _FAULTS)
def test_each_invalid_kind_raises_the_reference_error(fault):
    for seed in range(40):
        args = _raw_model(random.Random(seed), (fault,))
        want = _fields_or_error(reference_cover_fields, *args)
        assert isinstance(want[0], type), (seed, fault)
        assert _fields_or_error(CoverModel, *args) == want, (seed, fault)


def test_curve_component_keeps_every_check_of_the_reference():
    surface = BlownPlane((Center("e1"), Center("e2", "e1")))
    classes = [
        DivisorClass(surface, coeffs)
        for coeffs in ((2, -1, 0), (0, 1, -1), (0, -1, 1), (-1, 0, 0), (0, 0, 0), (1, 0, 0))
    ]
    errors = set()
    for seed in range(600):
        rng = random.Random(seed)
        names = rng.choices("pqs", k=rng.randint(0, 4))
        mults = tuple((name, rng.choice((1, 1, 2, 3, 0, -1))) for name in names)
        cls = rng.choice(classes)
        got = _fields_or_error(lambda *a: (CurveComponent(*a).mults,), "c", cls, True, mults)
        want = _fields_or_error(lambda *a: (reference_component_mults(*a),), "c", cls, mults)
        assert got == want, seed
        if isinstance(got[0], type):
            errors.add(got[1])
    assert len(errors) == 4, sorted(errors)


#: Rules that ``plane_cover`` checks, each broken by one kind of raw input.
_PLANE_FAULTS = (
    "mult above degree",
    "mult equal to degree",
    "proximity at two parents",
    "genus",
    "bezout on two pairs",
    "near pencil",
    "duplicate cid",
    "cid is a point name",
    "unwritable name",
)
_PLANE_POINTS = (("p", None), ("q", None), ("s", None), ("p1", "p"), ("p2", "p"), ("q1", "q"))


def _raw_plane_input(rng: random.Random, faults=()):
    """Raw ``plane_cover`` arguments: curves of degree 1..4 with random
    multiplicities at three plane points and three points near two of them,
    in random declaration order, some declared reducible; then ``faults``.
    Curves may break the genus or Bezout rule, and a branch key or cid may be
    wrong, without a fault."""
    r = rng.randint(1, 4)
    marked = list(_PLANE_POINTS)
    rng.shuffle(marked)
    names = [f"c{n}" for n in rng.sample(range(20), 9)]
    components = []
    for cid in names[: rng.randint(1, 5)]:
        degree = rng.randint(1, 4)
        points = rng.sample("pqs", rng.randint(0, 3))
        mults = {point: rng.randint(1, max(1, degree - 1)) for point in points}
        for child, parent in (("p1", "p"), ("q1", "q")):
            if parent in mults and rng.random() < 0.5:
                mults[child] = 1
        components.append((cid, degree, mults))
    reducible = {cid for cid, _, _ in components if rng.random() < 0.2}
    pencil = rng.choice((None, "p", "s"))
    for fault in faults:
        n = rng.randrange(len(components))
        cid, degree, mults = components[n]
        if fault == "mult above degree":
            mults[rng.choice("pqs")] = degree + rng.randint(1, 2)
        elif fault == "mult equal to degree":
            degree = max(degree, 2)
            mults[rng.choice("pqs")] = degree
            reducible.discard(cid)
        elif fault == "proximity at two parents":
            degree = 5
            mults.update(p=1, p1=1, p2=1, q=1, q1=2)
        elif fault == "genus":
            degree = 3
            mults.update(p=2, q=2)
            reducible.discard(cid)
        elif fault == "bezout on two pairs":
            a, b, c, d = names[5:]
            components += [(a, 1, {"p": 1, "q": 1}), (b, 1, {"p": 1, "q": 1})]
            components += [(c, 1, {"q": 1, "s": 1}), (d, 1, {"s": 1, "q": 1})]
        elif fault == "near pencil":
            pencil = rng.choice(("p1", "p2", "q1"))
        elif fault == "duplicate cid":
            components.append((cid, rng.randint(1, 3), {"s": 1} if rng.random() < 0.5 else {}))
        elif fault == "cid is a point name":
            cid = rng.choice([name for name, _ in marked])
        elif fault == "unwritable name":
            bad, where = rng.choice(("a b", "1x", "E p", "p\nq")), rng.randrange(3)
            if where == 0:
                cid = bad
            elif where == 1:
                marked[rng.randrange(len(marked))] = (bad, None)
            else:
                pencil = bad
        components[n] = (cid, degree, mults)
    cids = [cid for cid, _, _ in components] + ["ghost"] * (rng.random() < 0.05)
    keys = [format(g, f"0{r}b") for g in range(1, 1 << r)] + ["0" * r] * (rng.random() < 0.05)
    branch = {
        key: [(rng.choice(cids), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        for key in rng.sample(keys, rng.randint(1, len(keys)))
    }
    return r, components, branch, marked, pencil, sorted(reducible)


def _model_or_error(build, args):
    try:
        return build(*args)
    except CoverError as exc:
        return type(exc), str(exc)


def test_plane_cover_keeps_every_check_of_the_reference():
    rules = {
        "cannot have multiplicity": 0,
        "declare it reducible": 0,
        "at the points infinitely near it": 0,
        "above its arithmetic genus": 0,
        "(Bezout)": 0,
        "is infinitely near": 0,
        "component ids must be unique": 0,
        "is also the name of a marked point": 0,
        "cannot be written in a document": 0,
        "valid": 0,
    }
    for seed in range(1500):
        rng = random.Random(seed)
        faults = () if seed % 4 == 0 else rng.sample(_PLANE_FAULTS, rng.choice((1, 1, 2, 3)))
        args = _raw_plane_input(rng, faults)
        got = _model_or_error(plane_cover, args)
        assert got == _model_or_error(reference_plane_cover, args), (seed, faults)
        message = "valid" if isinstance(got, CoverModel) else got[1]
        for rule in rules:
            rules[rule] += rule in message
    assert all(rules.values()), rules


@pytest.mark.parametrize("fault", _PLANE_FAULTS)
def test_each_broken_plane_rule_raises_the_reference_error(fault):
    for seed in range(60):
        args = _raw_plane_input(random.Random(seed), (fault,))
        want = _model_or_error(reference_plane_cover, args)
        assert isinstance(want[0], type), (seed, fault)
        assert _model_or_error(plane_cover, args) == want, (seed, fault)


def _workload_documents():
    """The fixtures, 1,000 seeded ``random_docs`` documents (4-13 curves,
    ``*2`` entries, a point near another) and every distinct document of
    the outputs digest, in that order."""
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH_DIR))
    try:
        from outputs_digest import calls
        from workloads import BROKEN_EVERY, DOC_SIZES, random_document
    finally:
        sys.path[:] = saved
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    for seed in range(1000):
        size, broken = DOC_SIZES[seed % len(DOC_SIZES)], seed % BROKEN_EVERY == 0
        texts.append(random_document(random.Random(f"build/{seed}"), size, broken))
    for _, argv, stdin in calls():
        if argv[1:2] == ["--input"]:  # not census, nor a usage error or help
            texts.append(stdin if stdin is not None else Path(argv[2]).read_text(encoding="utf-8"))
    return list(dict.fromkeys(texts))


def test_to_cover_equals_the_reference_on_workload_documents(monkeypatch):
    # the build the benchmark times, on the documents it times: the same
    # model or the same error as the reference builder, and no dense class
    dense = []
    init = DivisorClass.__init__

    def counting(cls, surface, coeffs):
        dense.append(coeffs)
        init(cls, surface, coeffs)

    monkeypatch.setattr(DivisorClass, "__init__", counting)
    texts = _workload_documents()
    assert len(texts) == 12 + 1000 + 741 - 12
    built = errors = 0
    for text in texts:
        try:
            doc = config.parse(text)
        except ConfigError:
            continue
        dense.clear()
        got = _model_or_error(doc.to_cover, ())
        assert dense == []
        args = (
            doc.r,
            [(c.name, c.degree, c.mults) for c in doc.components],
            doc.branch,
            doc.centers,
            doc.pencil,
            [c.name for c in doc.components if not c.irreducible],
        )
        assert got == _model_or_error(reference_plane_cover, args), text
        built += isinstance(got, CoverModel)
        errors += not isinstance(got, CoverModel)
    assert built >= 1400 and errors >= 20, (built, errors)
