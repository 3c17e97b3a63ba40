import functools
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from planecover import census as census_mod
from planecover import config, group, lattice
from planecover.classify import classify, cremona_reduce
from planecover.cover import add_marked_point, check_cover, plane_cover, to_record
from planecover.errors import (
    CoverError,
    DomainError,
    InconsistencyError,
    NonTerminationError,
    ParityError,
)
from planecover.invariants import (
    InvariantReport,
    bicanonical_pullback,
    canonical_square,
    invariant_report,
    riemann_hurwitz_genus,
)
from planecover.normalize import ResolveResult, normalize, pull_back, resolve

from conftest import (
    FIXTURE_DIR,
    PROPOSITION_FIXTURES,
    fixture_text,
    load_cover,
    per_character_chi,
    reference_bicanonical_pullback,
    reference_canonical_square,
    reference_invariant_report,
    resolve_within,
    scan_inertia,
    smooth_chi,
)


def test_chi_two_lines_and_cubic():
    assert smooth_chi(load_cover("prop53")) == 1


def test_chi_five_lines():
    assert smooth_chi(load_cover("prop59")) == 1


def test_chi_resolved_triple_points():
    result = resolve(load_cover("prop55"))
    assert invariant_report(result).chi == 1


def test_k2_three_general_lines():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 1, {})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
    )
    assert canonical_square(model) == 9
    assert smooth_chi(model) == 1


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
    assert invariant_report(resolve(model)).rationality_verdict == "rational"

    result = resolve(load_cover("prop51"))
    cls = bicanonical_pullback(result.cover)
    assert cls == -2 * lattice.exceptional(result.cover.surface, "y")
    assert invariant_report(result).rationality_verdict == "rational"

    assert str(bicanonical_pullback(load_cover("prop59"))) == "-H"
    assert invariant_report(resolve(load_cover("prop59"))).rationality_verdict == "rational"


def test_invariant_report_serialization():
    report = invariant_report(resolve(load_cover("prop53")))
    text = report.serialize()
    assert "chi = 1" in text
    assert "k2 = 1" in text
    assert "bicanonical = -H" in text
    assert "verdict = rational" in text


def test_classical_double_plane_anchors():
    # independent textbook values: the double plane branched on a smooth
    # sextic is a K3 surface, on a smooth quartic a degree-2 Del Pezzo
    sextic = plane_cover(1, [("B", 6, {})], {"1": [("B", 1)]})
    assert smooth_chi(sextic) == 2
    assert canonical_square(sextic) == 0
    quartic = plane_cover(1, [("B", 4, {})], {"1": [("B", 1)]})
    assert smooth_chi(quartic) == 1
    assert canonical_square(quartic) == 2
    conic = plane_cover(1, [("B", 2, {})], {"1": [("B", 1)]})
    assert smooth_chi(conic) == 1
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
    # the boundary 2g - 2 = -2: one sheet over P^1, unramified
    assert riemann_hurwitz_genus(1, 0, []) == 0


def test_riemann_hurwitz_validation():
    with pytest.raises(InconsistencyError):
        riemann_hurwitz_genus(2, 0, [(2, 1)])  # odd total
    with pytest.raises(InconsistencyError):
        riemann_hurwitz_genus(3, 0, [])  # 2g-2 = -6 unrealizable
    with pytest.raises(DomainError):
        riemann_hurwitz_genus(0, 0, [])
    with pytest.raises(DomainError):
        riemann_hurwitz_genus(2, 0, [(1, 2)])
    with pytest.raises(DomainError):
        riemann_hurwitz_genus(2, -1, [])  # negative base genus


def test_chi_invariant_under_extra_blow_ups():
    rng = random.Random(424242)
    for name in PROPOSITION_FIXTURES:
        result = resolve(load_cover(name))
        chi = invariant_report(result).chi
        # blow up a fresh point away from the branch curve
        off = normalize(pull_back(result.cover, "extra_point"))
        assert smooth_chi(off) == chi
        # blow up a general point on a random branch component, then
        # resolve the node this creates over the new crossing
        comp = rng.choice(result.cover.components)
        marked = add_marked_point(result.cover, "extra_on_curve", mults={comp.cid: 1})
        assert invariant_report(resolve(marked)).chi == chi


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
    result = resolve(load_cover(name))
    report = invariant_report(result)
    assert report.k_squared == canonical_square(result.cover)
    assert report.bicanonical_pullback == bicanonical_pullback(result.cover)
    assert report.chi == per_character_chi(result.cover)
    assert report.surface_centers == result.cover.surface.names


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
    report = invariant_report(result)
    assert (report.chi, report.k_squared, result.rounds, result.cover.surface.rank) == expected


def test_no_pair_search_after_resolve(monkeypatch):
    # resolve searches the pairs once, after its marked rounds, and counts
    # its crossing rounds from that search; the invariants read its result
    # and search no pair again
    import planecover.normalize as normalize_mod

    search = normalize_mod.singular_residual_pairs
    calls = []

    def counting(cover):
        calls.append(cover)
        return search(cover)

    monkeypatch.setattr(normalize_mod, "singular_residual_pairs", counting)
    table = census_mod.census(4, 7)
    assert (len(table.rows), len(calls)) == (30, 30)
    calls.clear()
    result = resolve(line_arrangement(12))
    assert (result.rounds, len(calls)) == (2, 1)
    invariant_report(result)
    assert len(calls) == 1


# Closed forms, a second method for the r=2 arrangements (Hirzebruch 1983,
# via the bidouble-cover formulas of Catanese 1984 and Pardini 1991).  For
# K^2 = (2K + sum D_g)^2: on the plane 2K + sum D_g = (3k - 6)H; a blown-up
# triple point of three distinct inertias drops its exceptional curve and adds
# -E (square -1); a crossing of two same-inertia lines adds 0; a k-fold point
# of k same-inertia lines, k even, adds (2 - k)E.
@pytest.mark.parametrize(
    "k",
    [*range(4, 17), *(pytest.param(k, marks=pytest.mark.slow) for k in (24, 32, 48, 64, 96))],
)
def test_line_arrangement_closed_forms(k):
    result = resolve(line_arrangement(k))
    report = invariant_report(result)
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
    report = invariant_report(result)
    k_squared = (3 * k - 6) ** 2 - 3 * (k - 2) ** 2 - k**2
    assert (report.chi, report.k_squared) == (chi, k_squared)
    assert (result.rounds, result.cover.surface.rank) == (1, 4 + k**2)


# -- chi and K^2 checked a second way -----------------------------------------
# Noether's formula 12 chi = K^2 + e(S) on the smooth cover, with the
# topological Euler number e(S) counted from the branch curve D of the smooth
# model Y: over Y - D the cover has 2^r sheets, over the smooth points of D
# 2^(r-1), over its N nodes 2^(r-2).  The components of a smooth model are
# smooth and cross transversally, so e(C) = -C.(C + K) and N = sum C_i.C_j.


def noether_euler_number(cover):
    assert cover.r >= 2  # every model checked here; 2^(r-2) is then an integer
    k = lattice.canonical(cover.surface)
    classes = [c.cls for c in cover.components]
    nodes = sum(lattice.intersect(a, b) for a, b in itertools.combinations(classes, 2))
    e_y = cover.surface.rank + 2
    e_d = sum(-lattice.intersect(c, c + k) for c in classes) - nodes
    return 2**cover.r * (e_y - e_d) + 2 ** (cover.r - 1) * (e_d - nodes) + 2 ** (cover.r - 2) * nodes


def assert_noether(result):
    cover = result.cover
    chi = invariant_report(result).chi
    assert 12 * chi == canonical_square(cover) + noether_euler_number(cover)


#: resolve marks one crossing point per same-inertia pair per round, so a
#: degree-7 curve with a 6-fold point at the pencil point, which crosses the
#: exceptional curve 6 times, needs 7 rounds against the budget of 6
ROUND_BUDGET = pytest.mark.xfail(
    strict=True,
    raises=NonTerminationError,
    reason="resolve needs 7 rounds: one crossing of a same-inertia pair is marked per round",
)


@functools.lru_cache(maxsize=None)
def census_candidates(r):
    return dict(census_mod._candidates(r, 7))


def census_params():
    for r in (2, 3, 4):
        for name in census_candidates(r):
            marks = [ROUND_BUDGET] if name.endswith("odd curve d=7 mult=6") else []
            yield pytest.param(r, name, marks=marks, id=f"r{r}: {name}")


FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.cfg"))


def assert_chi_checked_a_second_way(model):
    """Noether on the resolved model, and chi unchanged by Cremona reduction."""
    resolved = resolve(model)
    assert_noether(resolved)
    reduced, _ = cremona_reduce(model)
    assert invariant_report(resolved).chi == invariant_report(resolve(reduced)).chi


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_chi_checked_a_second_way_on_fixtures(name):
    assert_chi_checked_a_second_way(load_cover(name))


@pytest.mark.parametrize("r, name", census_params())
def test_chi_checked_a_second_way_on_census_patterns(r, name):
    assert_chi_checked_a_second_way(census_candidates(r)[name])


@pytest.mark.parametrize("k", range(4, 13))
def test_noether_on_line_arrangements(k):
    assert_noether(resolve(line_arrangement(k)))


@functools.lru_cache(maxsize=None)
def reference_chi_models():
    """440 resolved models: the fixtures, the census patterns r = 2..4, d <= 7,
    line arrangements k = 4..16, Ceva arrangements k = 4..10, 300 seeded
    valid covers and the double planes branched on curves of degree 2..8."""
    from test_cover import random_valid_cover

    models = [load_cover(name) for name in FIXTURE_NAMES]
    models += [model for r in (2, 3, 4) for model in census_candidates(r).values()]
    models += [line_arrangement(k) for k in range(4, 17)]
    models += [ceva_arrangement(k) for k in range(4, 11)]
    rng = random.Random(1729)
    models += [random_valid_cover(rng) for _ in range(300)]
    models += [plane_cover(1, [("B", d, {})], {"1": [("B", 1)]}) for d in (2, 4, 6, 8)]
    # a round per crossing of a same-inertia pair: 6 rounds do not finish them all
    return tuple(resolve_within(model, 20) for model in models)


def test_closed_form_chi_matches_per_character_reference():
    def outcome(function, argument):
        try:
            return function(argument)
        except CoverError as exc:
            return type(exc), str(exc)

    results = reference_chi_models()
    assert len(results) == 440
    values = set()
    for result in results:
        expected = outcome(per_character_chi, result.cover)
        assert outcome(lambda res: invariant_report(res).chi, result) == expected, result.cover
        values.add(expected)
    # every model here is valid, and the values are not all one
    assert all(isinstance(chi, int) for chi in values) and len(values) > 10


def report_outcome(report, resolved):
    """The report, or the class, message and character (a ParityError's,
    else None) of the error it raised."""
    try:
        return report(resolved)
    except CoverError as exc:
        return type(exc), str(exc), getattr(exc, "character", None)


def test_invariant_report_equals_the_reference():
    # the one-sweep report, which reads the resolved record, against the
    # copy built from lattice classes on the model ``cover`` builds, on the
    # fixtures, the census patterns, the line and Ceva arrangements, 300
    # seeded valid covers (a budget of 20 rounds) and four double planes; the
    # bicanonical class and K^2 of that model share the report's sweep
    results = reference_chi_models()
    for result in results:
        got = report_outcome(invariant_report, result)
        assert got == report_outcome(reference_invariant_report, result), result.cover
        assert isinstance(got, InvariantReport)
        cover = result.cover
        assert bicanonical_pullback(cover) == reference_bicanonical_pullback(cover), cover
        assert canonical_square(cover) == reference_canonical_square(cover), cover
    ranks = {result.cover.surface.rank for result in results}
    assert max(ranks) == 377 and len({r.cover.r for r in results}) == 4


def doctored(model):
    """A hand-built ``ResolveResult`` for ``model``: ``invariant_report``
    reads the record ``to_record`` makes of it, the reference reads the
    model itself (its ``cover``, as no round was taken)."""
    return ResolveResult(to_record(model), (), 0, (), model)


def with_shifted_class(result, cid, shift):
    """``doctored`` of the model of ``result`` with the class of component
    ``cid`` moved by ``shift``, a {slot: value} map; None when the moved
    class is not a component's."""
    cover = result.cover
    comp = cover.component(cid)
    support = dict(comp.cls.support)
    for slot, value in shift.items():
        support[slot] = support.get(slot, 0) + value
    try:
        moved = replace(comp, cls=lattice.DivisorClass.from_support(cover.surface, support))
        components = tuple(moved if c is comp else c for c in cover.components)
        return doctored(replace(cover, components=components))
    except CoverError:
        return None


def test_doctored_models_raise_the_errors_of_the_reference():
    # hand-built results that break the hypotheses of the report: a class
    # moved by an odd amount breaks parity; moved by an even amount at a slot
    # of a curve of the same inertia, it keeps parity but breaks Noether's
    # formula.  chi and K^2 are integral whenever parity holds (Riemann-Roch
    # on each L_chi), so their two checks are reached only by a model that
    # parity rejects first
    rng = random.Random(31)
    outcomes = Counter()
    # the fixtures, the census patterns and the small arrangements, resolved
    results = reference_chi_models()[:116]
    results += tuple(resolve(line_arrangement(k)) for k in (4, 5))
    results += tuple(resolve(ceva_arrangement(k)) for k in (4, 5))
    for result in results:
        cover = result.cover
        slots = range(cover.surface.rank)
        shifts = []
        for _ in range(2):
            cid = rng.choice(cover.components).cid
            shifts.append((cid, {rng.choice(slots): rng.choice((-3, -1, 1, 3))}))
        pairs = [
            (a, b)
            for a, b in itertools.permutations(cover.components, 2)
            if scan_inertia(cover, a.cid) is scan_inertia(cover, b.cid)
        ]
        for a, b in rng.sample(pairs, min(3, len(pairs))):
            shifts.append((a.cid, {rng.choice(list(b.cls.support)): rng.choice((-2, 2))}))
        for cid, shift in shifts:
            hand_built = with_shifted_class(result, cid, shift)
            if hand_built is None:
                continue
            got = report_outcome(invariant_report, hand_built)
            assert got == report_outcome(reference_invariant_report, hand_built), (cid, shift)
            outcomes[got[1].split(":")[0] if isinstance(got, tuple) else "report"] += 1
    assert outcomes["Noether's formula fails"] >= 60, outcomes
    assert sum(n for text, n in outcomes.items() if text.startswith("branch data sum")) >= 150


def test_noether_check_trips_on_a_doctored_class():
    # the conic of the resolved tacnode cover moved from 2H - Ex - Ey to
    # 2H + Ex - Ey: parity, chi and K^2 stay integral, but the classes no
    # longer describe a smooth branch curve (the conic and E_x = Ex - Ey, of
    # one inertia, now meet -2 times instead of 0)
    result = resolve(load_cover("prop51"))
    assert invariant_report(result).chi == 1
    cover = result.cover
    conic = cover.component("conic")
    doubled = 2 * lattice.exceptional(cover.surface, "x")
    components = tuple(
        replace(c, cls=c.cls + doubled) if c is conic else c for c in cover.components
    )
    moved_conic = doctored(replace(cover, components=components))
    assert per_character_chi(moved_conic.cover) == 0
    moved = moved_conic.cover.component("conic").cls
    assert lattice.intersect(moved, cover.component("E_x").cls) == -2
    with pytest.raises(InconsistencyError, match="Noether's formula fails"):
        invariant_report(moved_conic)
    expected = report_outcome(reference_invariant_report, moved_conic)
    assert report_outcome(invariant_report, moved_conic) == expected
    # moved by E_x alone, the conic breaks parity, which is checked first
    odd = with_shifted_class(result, "conic", {cover.surface.index_of("x"): 1})
    with pytest.raises(ParityError):
        invariant_report(odd)
    assert report_outcome(invariant_report, odd) == report_outcome(reference_invariant_report, odd)


# -- relabel invariance ---------------------------------------------------------
# An automorphism of (Z/2)^r only renames the group elements, so applied to
# the branch keys it must change no case, chi or K^2, before or after reduce.


def random_automorphism(rng, r):
    """The images of the r basis vectors under a random element of GL(r, F_2)."""
    while True:
        images = [group.GroupElement._of(r, rng.randrange(1, 1 << r)) for _ in range(r)]
        if group.rank(images, r) == r:
            return images


def apply(images, g):
    """The image of g under the automorphism that sends the basis vectors to ``images``."""
    return sum((e for bit, e in zip(g.bits, images) if bit), group.zero(len(images)))


def relabel_document(text, images):
    """The document with each ``[branch]`` key, the last section's, relabelled."""
    head, section, branch = text.partition("[branch]\n")
    assert section and "[" not in branch
    lines = []
    for line in branch.splitlines(keepends=True):
        key, equals, rest = line.partition(" = ")
        if equals:
            key = str(apply(images, group.GroupElement.parse(key)))
        lines.append(key + equals + rest)
    return head + section + "".join(lines)


def case_and_invariants(model):
    """(proposition, symbol, params), (chi, K^2) and chi after reduce; a
    step that raises gives its error class instead."""

    def outcome(step):
        try:
            return step()
        except CoverError as exc:
            return type(exc)

    def invariants(cover):
        report = invariant_report(resolve(cover))
        return report.chi, report.k_squared

    def case():
        label = classify(model)
        return label.proposition, label.symbol, label.params

    return (
        outcome(case),
        outcome(lambda: invariants(model)),
        outcome(lambda: invariants(cremona_reduce(model)[0])[0]),
    )


def test_relabel_invariance_on_fixtures_and_census_patterns():
    # the fixture documents and the documents of the census candidates, each
    # with its [branch] keys relabelled by five seeded elements of GL(r, F2)
    texts = [fixture_text(name) for name in FIXTURE_NAMES]
    for r in (2, 3, 4):
        texts += [config.write(m) for m in census_candidates(r).values()]
    assert len(texts) == 116
    rng = random.Random(2026)
    relabelings = renamed = 0
    for text in texts:
        model = config.parse(text)
        expected = case_and_invariants(model)
        assert isinstance(expected[0], tuple)  # every model here matches a family
        for _ in range(5):
            relabeled = relabel_document(text, random_automorphism(rng, model.r))
            assert case_and_invariants(config.parse(relabeled)) == expected, relabeled
            relabelings += 1
            renamed += relabeled != text
    assert relabelings == 580 and renamed >= 500


@functools.lru_cache(maxsize=None)
def crossing_results():
    """The results of ``resolve`` with a crossing round, on the fixtures,
    the census candidates and the line and Ceva arrangements of the tests
    here, which have many crossings: prop44_unreduced, the six pencil candidates with an odd
    curve of multiplicity d - 1, the line arrangements and the odd Ceva
    arrangements.  The d = 7 candidates with a 6-fold point take 7 rounds,
    so the budget is 20."""
    models = [load_cover(name) for name in FIXTURE_NAMES]
    models += [m for r in (2, 3, 4) for m in census_candidates(r).values()]
    models += [line_arrangement(k) for k in range(4, 17)]
    models += [ceva_arrangement(k) for k in range(4, 11)]
    results = (resolve_within(check_cover(normalize(model)), 20) for model in models)
    crossed = tuple(result for result in results if result.crossings)
    assert len(crossed) == 1 + 6 + 13 + 3
    return crossed


def test_the_record_before_the_crossing_round_gives_the_report():
    # blowing up a transversal crossing of two curves of one D_g changes no
    # number of the report (the exceptional curve leaves the branch, chi and
    # B = 2K + D stay), so the report, read on the record before the
    # crossing rounds, equals the reference report on the resolved model,
    # which has every crossing blown up; B lives on the resolved surface
    for result in crossing_results():
        report = invariant_report(result)
        assert report == reference_invariant_report(result)
        assert len(report.surface_centers) == len(result.record.centers) + len(result.crossings)
        assert report.bicanonical_pullback.surface == result.cover.surface


def test_noether_check_fails_without_the_crossing_term():
    # on the record before the crossing rounds, Noether's formula holds only
    # with the term 3 * 2^r per crossing: the same result with its crossings
    # dropped fails the check, so the check ties the report to the pair
    # search's residual counts
    for result in crossing_results():
        with pytest.raises(InconsistencyError, match="Noether's formula fails"):
            invariant_report(replace(result, crossings=()))
