import random
from collections import Counter

import pytest

from planecover import census as census_mod
from planecover import group, lattice
from planecover.classify import quadratic_move
from planecover.cover import (
    CoverModel,
    CurveComponent,
    add_marked_points,
    children_by_parent,
    curves_through,
    derive_building_data,
    mark_points,
    plane_cover,
    to_record,
)
from planecover.errors import (
    CoverError,
    DanglingReferenceError,
    DomainError,
    InconsistencyError,
    NonTerminationError,
    PreconditionError,
)
from planecover.group import Character, GroupElement
from planecover.normalize import (
    ResolveResult,
    blow_up,
    is_normalized,
    normalize,
    pull_back,
    resolve,
    singular_residual_pairs,
    singularity_over,
)

from conftest import (
    FIXTURE_DIR,
    dense_singular_residual_pairs,
    embed,
    load_cover,
    marked_total_transform_pull_back,
    normalize_by_moves,
    point_is_ripe,
    reference_cremona_reduce,
    reference_quadratic_move,
    reference_resolve,
    reference_singularity_over,
    reference_stepwise_resolve,
    resolve_within,
    resolved,
    singularity_reference,
    strict_transform,
    total_transform_pull_back,
)
from test_cover import random_valid_cover


def branch_ids(model):
    return {str(g): sorted(f"{cid}*{k}" for cid, k in entries) for g, entries in model.branch}


def test_pull_back_tacnode():
    model = total_transform_pull_back(load_cover("prop51"), "x")
    assert branch_ids(model) == {"10": ["E_x*2", "quartic*1"], "01": ["E_x*1", "conic*1"]}
    quartic = model.component("quartic")
    assert quartic.cls == lattice.DivisorClass(model.surface, (4, -2))
    # the new exceptional runs through the marked direction point
    assert model.component("E_x").mult_at("y") == 1


def test_pull_back_generic_point_adds_nothing():
    model = load_cover("prop53")
    pulled = pull_back(model, "fresh")
    assert all(not cid.startswith("E_") for _, entries in pulled.branch for cid, _ in entries)
    assert pulled.surface.rank == 2


def test_pull_back_triple_point():
    model = total_transform_pull_back(load_cover("prop55"), "xi")
    assert branch_ids(model)["010"] == ["E_xi*1", "lineA*1"]
    assert branch_ids(model)["011"] == ["E_xi*1", "lineC*1"]
    assert branch_ids(model)["100"] == ["E_xi*1", "conic*1"]


def test_step1_reduce_strips_even_parts():
    model = total_transform_pull_back(load_cover("prop51"), "x")
    before = derive_building_data(model)
    reduced = normalize(model)
    assert branch_ids(reduced) == {"10": ["quartic*1"], "01": ["E_x*1", "conic*1"]}
    after = derive_building_data(reduced)
    e = lattice.exceptional(model.surface, "x")
    for chi in group.characters(2):
        if group.pair(chi, GroupElement((1, 0))) == 1:
            assert after[chi] == before[chi] - e
        else:
            assert after[chi] == before[chi]
    # idempotence on already-reduced data
    assert normalize(reduced) == reduced


def test_step1_keeps_odd_copy():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 3, {})],
        {"10": [("A", 3)], "01": [("B", 1)]},
    )
    reduced = normalize(model)
    assert branch_ids(reduced)["10"] == ["A*1"]


def test_step2_moves_shared_component():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("shared", 1, {})],
        {"10": [("A", 1), ("shared", 1)], "11": [("B", 1), ("shared", 1)]},
    )
    moved = normalize(model)
    assert branch_ids(moved)["01"] == ["shared*1"]
    assert branch_ids(moved)["10"] == ["A*1"]
    assert branch_ids(moved)["11"] == ["B*1"]


def test_normalize_three_lines_through_point():
    # the exceptional appears once per line, then leaves the branch data
    model = normalize(pull_back(load_cover("prop42"), "p"))
    assert branch_ids(model) == {
        "10": ["lineA*1"],
        "01": ["lineB*1"],
        "11": ["lineC*1"],
    }
    fiber = lattice.DivisorClass(model.surface, (1, -1))
    for cid in ("lineA", "lineB", "lineC"):
        assert model.component(cid).cls == fiber


def test_normalize_eq_loi_trace():
    # excluded multiplicity profile (a, b-1, c-2) with a, b, c odd: the
    # exceptional enters D_10, D_01 and D_11 with multiplicities a, b-1, c-2,
    # and normalization leaves it in D_01 (10 + 11), i.e. the pencil point
    # stays a branch point
    a, b, c = 3, 3, 3
    model = plane_cover(
        2,
        [("A", a, {"p": a}), ("B", b, {"p": b - 1}), ("Cc", c, {"p": c - 2})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
        marked=[("p", None)],
        reducible=["A"],  # a cubic with a triple point is three lines
    )
    pulled = total_transform_pull_back(model, "p")
    carriers = {str(g): k for g, entries in pulled.branch for cid, k in entries if cid == "E_p"}
    assert carriers == {"10": 3, "01": 2, "11": 1}
    final = normalize(pulled)
    carriers = {str(g) for g, entries in final.branch for cid, _ in entries if cid == "E_p"}
    assert carriers == {"01"}


def test_building_data_on_blown_up_models():
    # odd-curve family, d=3: on the blow-up the fiber classes give
    # L_10 = L_01 = 2H - E and L_11 = H - E
    model = normalize(pull_back(load_cover("prop44"), "p"))
    building = derive_building_data(model)
    two = lattice.DivisorClass(model.surface, (2, -1))
    one = lattice.DivisorClass(model.surface, (1, -1))
    assert building[Character((1, 0))] == two
    assert building[Character((0, 1))] == two
    assert building[Character((1, 1))] == one
    # tacnode cover, fully resolved: 2H-E1-E2, H-E2, 3H-E1-2E2
    from planecover.normalize import resolve as _resolve

    resolved = _resolve(load_cover("prop51")).cover
    building = derive_building_data(resolved)
    s = resolved.surface
    assert building[Character((1, 0))] == lattice.DivisorClass(s, (2, -1, -1))
    assert building[Character((0, 1))] == lattice.DivisorClass(s, (1, 0, -1))
    assert building[Character((1, 1))] == lattice.DivisorClass(s, (3, -1, -2))


def test_normalize_prop55_new_assignments():
    model = load_cover("prop55")
    model = normalize(pull_back(pull_back(model, "xi"), "eta"))
    ids = branch_ids(model)
    assert ids["110"] == ["E_eta*1"]
    assert ids["101"] == ["E_xi*1"]


def test_normalize_is_idempotent_and_order_independent():
    rng = random.Random(99)
    for trial in range(200):
        r = rng.randint(2, 4)
        n = rng.randint(2, 6)
        comps = [(f"c{i}", rng.randint(1, 3), {}) for i in range(n)]
        branch = {}
        for i in range(n):
            for g in group.nonzero_elements(r):
                if rng.random() < 0.3:
                    branch.setdefault(str(g), []).append((f"c{i}", rng.randint(1, 3)))
        if not branch:
            branch = {"1" + "0" * (r - 1): [("c0", 1)]}
        model = plane_cover(r, comps, branch)
        base = normalize(model)
        assert normalize(base) == base
        for _ in range(3):
            assert normalize_by_moves(model, random.Random(rng.randint(0, 10**9))) == base
        # closed form: a component survives in the XOR of its carriers
        for i in range(n):
            cid = f"c{i}"
            xor = group.zero(r)
            for g, entries in model.branch:
                for name, k in entries:
                    if name == cid and k % 2:
                        xor = xor + g
            assigned = [g for g, entries in base.branch for name, _ in entries if name == cid]
            if xor.is_zero:
                assert assigned == []
            else:
                assert assigned == [xor]


def test_normalization_preserves_derivability():
    # each chi-sum changes by an even class in both steps, so building data
    # derive after normalization exactly when they derived before
    from planecover.errors import ParityError

    rng = random.Random(6021)
    for _ in range(100):
        r = rng.randint(2, 4)
        n = rng.randint(2, 5)
        comps = [(f"c{i}", rng.randint(1, 3), {}) for i in range(n)]
        branch = {}
        for i in range(n):
            for g in group.nonzero_elements(r):
                if rng.random() < 0.25:
                    branch.setdefault(str(g), []).append((f"c{i}", rng.randint(1, 2)))
        if not branch:
            continue
        model = plane_cover(r, comps, branch)
        try:
            before = derive_building_data(model)
            ok_before = True
        except ParityError:
            ok_before = False
        normalized = normalize(model)
        try:
            after = derive_building_data(normalized)
            ok_after = True
        except ParityError:
            ok_after = False
        assert ok_before == ok_after
        if ok_before:
            # the adjustment per character is half the even change of its sum
            assert set(before) == set(after)


def test_normalized_output_is_reduced_and_disjoint():
    model = normalize(pull_back(load_cover("prop51"), "x"))
    seen = {}
    for g, entries in model.branch:
        for cid, k in entries:
            assert k == 1
            assert cid not in seen
            seen[cid] = g


def test_is_smooth_over_examples():
    crossing = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1})],
        {"10": [("A", 1)], "01": [("B", 1)]},
        marked=[("p", None)],
    )
    assert singularity_over(to_record(crossing), "p") is None

    tacnode = load_cover("prop51")
    reason = singularity_over(to_record(tacnode), "x")
    assert "singular" in reason and "quartic" in reason

    triple = load_cover("prop55")
    assert "3 branch components" in singularity_over(to_record(triple), "xi")

    # a line tangent to a conic: two lines cannot share a direction (Bezout)
    tangent = plane_cover(
        2,
        [("A", 2, {"p": 1, "t": 1}), ("B", 1, {"p": 1, "t": 1})],
        {"10": [("A", 1)], "01": [("B", 1)]},
        marked=[("p", None), ("t", "p")],
    )
    assert "tangent" in singularity_over(to_record(tangent), "p")

    same_inertia = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("Cc", 1, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("Cc", 1)]},
        marked=[("p", None)],
    )
    assert "same inertia" in singularity_over(to_record(same_inertia), "p")


def test_incidence_record():
    # the tacnode x: both curves pass through x and share its direction y
    record = to_record(load_cover("prop51"))
    through = curves_through(record.mults.items())
    assert through["x"] == [("conic", 1), ("quartic", 2)]
    assert children_by_parent(record.marked)["x"] == ["y"]
    assert [cid for cid, _ in through["y"]] == ["conic", "quartic"]


def test_residual_same_inertia_detection():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 2, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("Cc", 1)]},
    )
    assert singular_residual_pairs(to_record(model)) == [("A", "B", 1)]
    assert singularity_reference(model) == "A and B cross with equal inertia off declared points"


def test_resolve_round_counts():
    assert resolve(load_cover("prop51")).rounds == 2
    assert resolve(load_cover("prop55")).rounds == 1
    assert resolve(load_cover("prop53")).rounds == 0
    assert resolve(load_cover("prop42")).rounds == 1


def test_resolve_trail_is_machine_readable():
    result = resolve(load_cover("prop51"))
    assert [rec.blown for rec in result.trail] == [("x",), ("y",)]
    first = result.trail[0]
    assert first.round == 1
    assert any(added for _, added, _ in first.diff)


def test_resolve_all_fixtures_within_six_rounds():
    from conftest import PROPOSITION_FIXTURES

    for name in PROPOSITION_FIXTURES:
        result = resolve(load_cover(name))
        assert result.rounds <= 6
        assert singularity_reference(result.cover) is None


def test_resolve_round_budget_error(monkeypatch):
    # prop51's tacnode takes two rounds: a budget of one ends in the error
    # the command line prints, naming the point of the second round
    import planecover.normalize as normalize_mod

    monkeypatch.setattr(normalize_mod, "MAX_ROUNDS", 1)
    with pytest.raises(NonTerminationError) as exc:
        resolve(load_cover("prop51"))
    message = str(exc.value)
    assert message.startswith("resolution did not finish within 1 rounds; still singular at ")
    assert [record.round for record in exc.value.trail] == [1]


def test_resolve_handles_residual_same_inertia_points():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 2, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("Cc", 1)]},
    )
    result = resolve(model)
    assert result.rounds == 1
    assert singularity_reference(result.cover) is None


def test_pull_back_classes_are_strict_transforms():
    # oracle: embed each class in the blown-up surface, then subtract m * E_point
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        cover = load_cover(path.stem)
        cases += [(cover, m.name) for m in cover.marked if point_is_ripe(cover, m.name)]
    cases.append((pull_back(load_cover("prop51"), "x"), "y"))  # infinitely near child
    for cover, point in cases:
        pulled = pull_back(cover, point)
        assert pulled.surface.names[-1] == point
        for comp in cover.components:
            embedded = embed(comp.cls, pulled.surface)
            expected = strict_transform(embedded, point, comp.mult_at(point))
            assert pulled.component(comp.cid).cls == expected
    assert cases[-1][0].component("E_x").mult_at("y") == 1


def test_pull_back_at_infinitely_near_points_examples():
    # a quartic with a tacnode at p in the direction q and a conic through
    # both: after blowing up p then q, the strict transform Ep - Eq of the
    # first exceptional curve is a (-2)-curve and Eq a (-1)-curve
    model = plane_cover(
        2,
        [("quartic", 4, {"p": 2, "q": 2}), ("conic", 2, {"p": 1, "q": 1})],
        {"10": [("quartic", 1)], "01": [("conic", 1)]},
        marked=[("p", None), ("q", "p")],
    )
    pulled = total_transform_pull_back(model, "p", "q")
    assert pulled == total_transform_pull_back(total_transform_pull_back(model, "p"), "q")
    classes = {c.cid: str(c.cls) for c in pulled.components}
    assert classes == {"quartic": "4H-2Ep-2Eq", "conic": "2H-Ep-Eq", "E_p": "Ep-Eq", "E_q": "Eq"}
    canonical = lattice.canonical(pulled.surface)
    for cid, square, k_degree in [("E_p", -2, 0), ("E_q", -1, -1)]:
        e = pulled.component(cid).cls
        assert (lattice.intersect(e, e), lattice.intersect(e, canonical)) == (square, k_degree)


def test_pull_back_strict_transform_examples():
    # the new coefficient is minus the multiplicity at the point, 0 off it
    model = plane_cover(
        1,
        [("quintic", 5, {"p": 3, "q": 1}), ("conic", 2, {"q": 1}), ("line", 1, {})],
        {"1": [("quintic", 1), ("conic", 1), ("line", 1)]},
        marked=[("p", None), ("q", None)],
    )
    once = pull_back(model, "p")
    assert {c.cid: str(c.cls) for c in once.components if c.exceptional_of is None} == {
        "quintic": "5H-3Ep", "conic": "2H", "line": "H",
    }
    twice = pull_back(model, "p", "q")
    assert str(twice.component("conic").cls) == "2H-Eq"
    assert str(twice.component("quintic").cls) == "5H-3Ep-Eq"
    # a multiplicity below 1 is not a point on the curve
    for m in (0, -1):
        with pytest.raises(DomainError):
            plane_cover(1, [("conic", 2, {"p": m})], {"1": [("conic", 1)]}, marked=[("p", None)])


def test_pull_back_requires_ripe_point():
    with pytest.raises(PreconditionError):
        pull_back(load_cover("prop51"), "y")


def test_pull_back_rejects_existing_center():
    from planecover.errors import DomainError

    model = pull_back(load_cover("prop51"), "x")
    with pytest.raises(DomainError):
        pull_back(model, "x")


def test_pull_back_batch_equals_successive_pull_backs():
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        cover = load_cover(path.stem)
        for a in (m.name for m in cover.marked if point_is_ripe(cover, m.name)):
            after = pull_back(cover, a)
            cases += [(cover, a, m.name) for m in after.marked if point_is_ripe(after, m.name)]
            cases.append((cover, a, "fresh"))
    assert (load_cover("prop51"), "x", "y") in cases  # a parent and its infinitely near child
    for cover, a, b in cases:
        assert pull_back(cover, a, b) == pull_back(pull_back(cover, a), b)
    batched = pull_back(load_cover("prop51"), "x", "y")
    assert batched.component("E_x").cls == lattice.DivisorClass(batched.surface, (0, 1, -1))
    # every point of prop55, blown up in one call and one at a time
    cover = load_cover("prop55")
    names = sorted(m.name for m in cover.marked) + ["fresh"]
    successive = cover
    for name in names:
        successive = pull_back(successive, name)
    assert pull_back(cover, *names) == successive


def test_pull_back_batch_rejects_bad_orders():
    from planecover.errors import DomainError

    cover = load_cover("prop51")
    with pytest.raises(DomainError):
        pull_back(cover, "x", "x")
    with pytest.raises(DomainError):
        pull_back(cover, "fresh", "fresh")
    with pytest.raises(PreconditionError):
        pull_back(cover, "y", "x")
    with pytest.raises(DomainError):
        pull_back(cover)


def test_pull_back_batch_exceptional_names_keep_serials():
    line = [("E_x", 1, {"x": 1, "x2": 1})]
    cover = plane_cover(2, line, {"10": [("E_x", 1)]}, marked=[("x", None), ("x2", None)])
    pulled = pull_back(cover, "x", "x2")
    assert [c.cid for c in pulled.components] == ["E_x", "E_x2", "E_x22"]
    assert pulled.component("E_x2").exceptional_of == "x"
    assert pulled == pull_back(pull_back(cover, "x"), "x2")


def test_resolve_blows_up_once_per_marked_round(monkeypatch):
    # a round at marked points is one blow_up on the record of the round
    # before; a crossing round is counted and blows nothing up, and its
    # points are the crossings of the result, in center order
    import planecover.normalize as normalize_mod
    from test_invariants import line_arrangement

    calls = []
    blow_up = normalize_mod.blow_up

    def spy(record, *points):
        calls.append(points)
        return blow_up(record, *points)

    monkeypatch.setattr(normalize_mod, "blow_up", spy)
    result = normalize_mod.resolve(line_arrangement(8))
    assert result.rounds == 2 and calls == [result.trail[0].blown]
    assert [name for name, _, _ in result.crossings] == list(result.trail[1].blown)
    assert len(result.crossings) == 3 * 28 and result.trail[1].diff == ()


def test_is_normalized_flag():
    assert is_normalized(load_cover("prop53"))
    assert not is_normalized(total_transform_pull_back(load_cover("prop51"), "x"))
    # oracle: the direct predicate agrees with running normalize to its fixpoint
    models = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        cover = load_cover(path.stem)
        models.append(cover)
        ripe = [m.name for m in cover.marked if point_is_ripe(cover, m.name)]
        models += [total_transform_pull_back(cover, name) for name in ripe]
    rng = random.Random(5150)
    models += [random_valid_cover(rng) for _ in range(50)]
    lines = [(name, 1, {}) for name in "ABCD"]
    models.append(plane_cover(2, lines, {"10": [("A", 1)], "01": [("B", 1)], "11": [("C", 1)]}))
    assert any(not is_normalized(c) for c in models)
    for c in models:
        assert is_normalized(c) == (normalize(c) == c)
        # a normalized model comes back as it is, not as a rebuilt copy
        assert is_normalized(c) == (normalize(c) is c)


def _pairs_or_error(search, cover):
    try:
        return search(cover)
    except InconsistencyError as exc:
        return str(exc)


def _resolve_round_models(cover):
    """The normalized input, and per round the marked model resolve blows up
    and the normalized result, up to the round budget, as the step-by-step
    reference builds them."""
    models = [normalize(cover)]

    def spy(current, *points):
        pulled = pull_back(current, *points)
        models.extend([current, pulled])
        return pulled

    try:
        reference_stepwise_resolve(cover, pull_back=spy)
    except NonTerminationError:
        pass  # two curves crossing more than MAX_ROUNDS times: one crossing per round
    return models


def test_sparse_pair_search_matches_dense_reference():
    from test_invariants import line_arrangement

    covers = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    rng = random.Random(4242)
    covers += [random_valid_cover(rng) for _ in range(50)]
    covers.append(line_arrangement(6))
    models = [m for cover in covers for m in _resolve_round_models(cover)]
    found = 0
    for model in models:
        expected = _pairs_or_error(dense_singular_residual_pairs, model)
        assert _pairs_or_error(singular_residual_pairs, to_record(model)) == expected
        found += bool(expected)
    assert found >= 300


def test_sparse_pair_search_matches_dense_reference_on_arrangements():
    # every round of the line and Ceva arrangements, up to the record after
    # the crossing round, on which resolve's last search proves smoothness
    from test_invariants import ceva_arrangement, line_arrangement

    def rounds_searched(cover):
        models = _resolve_round_models(cover)
        searched = [_pairs_or_error(singular_residual_pairs, to_record(m)) for m in models]
        assert searched == [_pairs_or_error(dense_singular_residual_pairs, m) for m in models]
        assert searched[-1] == []
        return searched

    for k in range(4, 17):
        # round 1 blows up the triple points; round 2 the 3 * C(k, 2) crossings
        assert len(rounds_searched(line_arrangement(k))[2]) == 3 * k * (k - 1) // 2
    for k in range(4, 11):
        rounds_searched(ceva_arrangement(k))
    # the same lines with ids that interleave the three inertia elements, so
    # that pairs of different elements alternate in id order
    for k in (5, 9, 12):
        comps = [(f"L{i}_{j}", 1, {f"t{i}": 1}) for j in range(3) for i in range(k)]
        branch = {g: [(f"L{i}_{j}", 1) for i in range(k)] for j, g in enumerate(("10", "01", "11"))}
        rounds_searched(plane_cover(2, comps, branch, marked=[(f"t{i}", None) for i in range(k)]))


def test_crossing_errors_come_in_the_order_of_the_checks():
    # ``ResolveResult.cover`` marks the crossings with ``mark_points``, which
    # claims each point whole, name first, before the next
    from test_invariants import line_arrangement

    record = to_record(normalize(line_arrangement(4)))
    lines = {"L0_0": 1, "L0_1": 1}
    cases = [
        ([("s1", lines), ("t0", lines)], DomainError, "'t0' is already in use"),
        ([("s1", lines), ("s1", lines)], DomainError, "'s1' is already in use"),
        ([("s1", {"nope": 1}), ("t0", lines)], DanglingReferenceError, r"\['nope'\]"),
        ([("t0", {"nope": 1}), ("s1", lines)], DomainError, "'t0' is already in use"),
    ]
    for crossings, error, message in cases:
        with pytest.raises(error, match=message):
            mark_points(record, [(name, None, at) for name, at in crossings])
    with pytest.raises(DomainError, match="at least one point"):
        blow_up(record)


def test_singularity_over_a_record_matches_the_model_reference():
    # every marked point, ripe or not, of every model the rounds go through
    from test_invariants import ceva_arrangement, line_arrangement

    covers = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    rng = random.Random(4242)
    covers += [random_valid_cover(rng) for _ in range(50)]
    covers += [line_arrangement(6), ceva_arrangement(4)]
    models = [m for cover in covers for m in _resolve_round_models(cover)]
    # seeded covers with random incidences at two plane points and a point
    # infinitely near one of them: tangencies and smooth points too
    for _ in range(200):
        model = random_valid_cover(rng)
        cids = [c.cid for c in model.components]

        def at():
            chosen = rng.sample(cids, rng.randint(0, min(3, len(cids))))
            return {cid: rng.choice([1, 1, 2]) for cid in chosen}

        models.append(add_marked_points(model, [("p", None, at()), ("q", "p", at()), ("s", None, at())]))
    reasons = Counter()
    for model in models:
        record = to_record(model)
        for m in model.marked:
            expected = reference_singularity_over(model, m.name)
            assert singularity_over(record, m.name) == expected
            kinds = ("is singular", "branch components", "tangent", "same inertia")
            reasons[next((k for k in kinds if k in (expected or "")), None)] += 1
    assert min(reasons.values()) >= 5 and len(reasons) == 5, reasons


def test_sparse_pair_search_reports_over_declared_pairs():
    lines = [(name, 1, {}) for name in ("A", "B", "C", "D")]
    model = plane_cover(2, lines, {"10": [("A", 1), ("D", 1)], "01": [("B", 1)], "11": [("C", 1)]})
    # B and C are declared through p and q, A and D through q and r: the first
    # pair in id order is reported, as by the dense loop, also once p or q is
    # a center and the pair shares an exceptional slot instead of a point
    over = add_marked_points(
        model,
        [
            ("p", None, {"C": 1, "B": 1}),
            ("q", None, {"B": 1, "C": 1, "A": 1, "D": 1}),
            ("r", None, {"D": 1, "A": 1}),
        ],
    )
    message = "declared multiplicities of A and D exceed their intersection number"
    for cover in (over, normalize(pull_back(over, "p")), normalize(pull_back(over, "q", "r"))):
        assert _pairs_or_error(dense_singular_residual_pairs, cover) == message
        with pytest.raises(InconsistencyError) as exc:
            singular_residual_pairs(to_record(cover))
        assert str(exc.value) == message


# -- pull_back against the normalized total transforms -------------------------


def _outcome(function, *args, **kwargs):
    """The result, or the error's class, message and trail (if it has one)."""
    try:
        return function(*args, **kwargs)
    except CoverError as exc:
        return type(exc), str(exc), getattr(exc, "trail", None)


def _pull_back_or_reference(cover, points, crossings):
    """``pull_back`` at the points and then at the crossings, on the model
    with the crossings marked (``add_marked_points``), and the reference."""

    def marked_pull_back():
        marks = [(name, None, mults) for name, mults in crossings]
        marked = add_marked_points(cover, marks) if crossings else cover
        return pull_back(marked, *points, *(name for name, _ in crossings))

    got = _outcome(marked_pull_back)
    return got, _outcome(marked_total_transform_pull_back, cover, *points, crossings=crossings)


def _plane_inputs():
    """The fixtures and the census candidates (r = 2..4, d <= 7)."""
    models = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    for r in (2, 3, 4):
        models += [model for _, model in census_mod._candidates(r, 7)]
    return models


def _resolve_inputs():
    """(model, budget): the plane inputs, seeded random covers, and line
    and Ceva arrangements."""
    from test_invariants import ceva_arrangement, line_arrangement

    rng = random.Random(4242)
    models = [(model, 6) for model in _plane_inputs()]
    models += [(random_valid_cover(rng), 20) for _ in range(50)]
    models += [(line_arrangement(k), 6) for k in range(4, 17)]
    models += [(ceva_arrangement(k), 6) for k in range(4, 11)]
    return models


def test_pull_back_equals_normalized_total_transform_along_resolve_and_moves(monkeypatch):
    # every round of the step-by-step resolve, on the inputs resolve gets:
    # pull_back must return normalize of the total transforms of the model
    # (a crossing round's with its crossing points marked), or raise the
    # same error; every
    # quadratic move that a step-by-step reference recipe makes must equal
    # the reference move built on pull_back (the engine chains its rounds
    # and its moves on records)
    import planecover.classify as classify_mod

    calls, moves = [], []

    def recording(cover, *points):
        calls.append((cover, points))
        return pull_back(cover, *points)

    def recording_move(cover, *based):
        moves.append((cover, based))
        return quadratic_move(cover, *based)

    monkeypatch.setattr(classify_mod, "quadratic_move", recording_move)
    for model, budget in _resolve_inputs():
        _outcome(reference_stepwise_resolve, model, budget, pull_back=recording)
    for model in _plane_inputs():
        _outcome(reference_cremona_reduce, model)
    monkeypatch.undo()
    crossing_rounds = 0
    for cover, points in calls:
        got, expected = _pull_back_or_reference(cover, points, ())
        assert got == expected
        assert is_normalized(got)
        crossing_rounds += points[0].startswith("sing")
    for cover, based in moves:
        got = _outcome(quadratic_move, cover, *based)
        assert got == _outcome(reference_quadratic_move, cover, *based)
        assert not isinstance(got[0], CoverModel) or is_normalized(got[0])
    assert len(moves) >= 40 and crossing_rounds >= 250 and len(calls) + len(moves) >= 450


def _random_pull_back_call(rng):
    """A model built without the plane checks, with branch entries repeated,
    in several D_g or in none, five marked points (y and y2 near x, z near
    y), and a random call: marked, fresh, repeated or unripe points, and
    crossings with new, used or repeated names, unknown components or
    multiplicity 0.  Components named like exceptional curves make the
    serial names of the exceptional curves matter."""
    r = rng.randint(1, 4)
    cids = [f"c{i}" for i in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        cids[0] = rng.choice(["E_x", "E_x2", "E_y"])
    marked = [lattice.Center("x"), lattice.Center("x2"), lattice.Center("y", "x")]
    marked += [lattice.Center("y2", "x"), lattice.Center("z", "y")]
    comps = []
    for cid in cids:
        at = {m.name: rng.randint(1, 2) for m in marked if rng.random() < 0.5}
        cls = lattice.DivisorClass(lattice.PLANE, (rng.randint(1, 4),))
        comps.append(CurveComponent(cid, cls, mults=tuple(at.items())))
    elements = list(group.nonzero_elements(r))
    branch = [
        (rng.choice(elements), [(cid, rng.randint(1, 3))])
        for cid in cids
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3]))
    ]
    cover = CoverModel(r, lattice.PLANE, tuple(comps), tuple(branch), tuple(marked))
    pool = ["x", "x2", "y2", "y", "z", "fresh", "x", "s1"]
    points = rng.sample(pool, rng.choice([0, 1, 2, 2, 3, 4, 5]))
    if rng.random() < 0.8:  # mostly parents first
        points.sort(key=pool.index)
    crossings = []
    for _ in range(rng.choice([0, 0, 1, 2])):
        name = rng.choice(["s1", "s2", "s3", "s4", "x", "fresh"])
        mults = {cid: rng.choice([1, 1, 2]) for cid in rng.sample(cids, rng.randint(1, len(cids)))}
        if rng.random() < 0.05:
            mults[rng.choice([cids[0], "nope"])] = 0
        crossings.append((name, mults))
    return cover, tuple(points), tuple(crossings)


def test_pull_back_equals_normalized_total_transform_on_random_calls():
    results = errors = 0
    for seed in range(2000):
        got, expected = _pull_back_or_reference(*_random_pull_back_call(random.Random(seed)))
        assert got == expected
        errors += isinstance(got, tuple)
        results += isinstance(got, CoverModel)
    assert results >= 550 and errors >= 1000
    # a curve that normalization drops still takes its name: E_x2 goes to x's
    # exceptional curve (E_x is a component), which cancels (two curves of 10
    # through x), so x2's exceptional curve is E_x22, as in the total transforms
    cover = plane_cover(
        2,
        [("E_x", 1, {"x": 1}), ("B", 1, {"x": 1}), ("C", 1, {"x2": 1})],
        {"10": [("E_x", 1), ("B", 1)], "01": [("C", 1)]},
        marked=[("x", None), ("x2", None)],
    )
    got, expected = _pull_back_or_reference(cover, ("x", "x2"), ())
    assert got == expected
    assert [c.cid for c in got.components] == ["B", "C", "E_x", "E_x22"]
    # the same through an incidence of a dropped curve: E_x cancels but passes
    # through y2, whose exceptional curve cancels too but takes E_y2, so the
    # exceptional curve of y (E_y is a component) is E_y3
    cover = plane_cover(
        2,
        [("A", 1, {"x": 1, "y": 1}), ("B", 1, {"x": 1}), ("E_y", 2, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("E_y", 1)]},
        marked=[("x", None), ("y", "x"), ("y2", "x")],
    )
    got, expected = _pull_back_or_reference(cover, ("x", "y2", "y"), ())
    assert got == expected
    assert [c.cid for c in got.components] == ["A", "B", "E_y", "E_y3"]


def test_resolve_matches_reference_loop():
    # the same cover, rounds and trail, or the same NonTerminationError and trail
    failures = 0
    for model, budget in _resolve_inputs():
        got = _outcome(resolve_within, model, budget)
        assert resolved(got) == resolved(_outcome(reference_resolve, model, budget))
        failures += isinstance(got, tuple)
    assert failures >= 2


def _stepwise_inputs():
    """(model, budget): the plane inputs and the arrangements of
    ``_resolve_inputs``, and 300 seeded random covers, each with a budget of
    6 and of 20 rounds."""
    rng = random.Random(6060)
    models = [(model, rounds) for model, rounds in _resolve_inputs() if rounds == 6]
    models += [(random_valid_cover(rng), rounds) for _ in range(300) for rounds in (6, 20)]
    return models


def test_resolve_matches_the_stepwise_reference():
    # the rounds chained on records, and the crossing rounds counted, give
    # the model, rounds and trail of the loop that built a model per round,
    # or the same NonTerminationError
    outcomes = Counter()
    for model, budget in _stepwise_inputs():
        got = _outcome(resolve_within, model, budget)
        assert resolved(got) == resolved(_outcome(reference_stepwise_resolve, model, budget))
        outcomes[got.rounds if isinstance(got, ResolveResult) else got[0]] += 1
    assert outcomes[NonTerminationError] >= 50
    assert all(outcomes[rounds] >= 20 for rounds in (0, 1, 2)), outcomes


def test_resolve_builds_no_model_and_its_cover_once(monkeypatch):
    # resolve returns the record before its crossing rounds and builds no
    # model; the first ``cover`` builds the resolved model by the validating
    # constructors, the second builds nothing, and with no round taken the
    # cover is the normalized input itself
    from test_invariants import line_arrangement

    builds = []
    post_init = CoverModel.__post_init__

    def counting(model):
        builds.append(model)
        post_init(model)

    inputs = [(normalize(model), rounds) for model, rounds in _stepwise_inputs()[::3]]
    inputs.append((line_arrangement(8), 6))
    monkeypatch.setattr(CoverModel, "__post_init__", counting)
    seen = Counter()
    for model, budget in inputs:
        builds.clear()
        got = _outcome(resolve_within, model, budget)
        assert builds == []
        if isinstance(got, ResolveResult):
            cover = got.cover
            assert builds == ([cover] if got.rounds else [])
            assert got.cover is cover and len(builds) == bool(got.rounds)
            if not got.rounds:
                assert cover is model
        seen[got.rounds if isinstance(got, ResolveResult) else "error"] += 1
    assert got.rounds == 2 and len(builds) == 1
    assert seen[0] >= 10 and seen[1] >= 10 and seen[2] >= 10 and seen["error"] >= 10, seen


def test_every_resolve_output_passes_the_reference_smoothness_check():
    # resolve decides smoothness alone, testing only ripe marked points; the
    # reference tests every marked point, ripe or not, then the crossings
    from test_invariants import ceva_arrangement, line_arrangement

    models = _plane_inputs()
    models += [line_arrangement(k) for k in range(4, 17)]
    models += [ceva_arrangement(k) for k in range(4, 11)]
    rng = random.Random(4242)
    models += [random_valid_cover(rng) for _ in range(200)]
    assert len(models) == 336
    for model in models:
        resolved = resolve_within(model, 30).cover
        assert singularity_reference(resolved) is None
        assert all(point_is_ripe(resolved, m.name) for m in resolved.marked)
