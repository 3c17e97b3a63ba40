import random

import pytest

from planecover import group, lattice
from planecover.cover import add_marked_points, derive_building_data, plane_cover
from planecover.errors import InconsistencyError, NonTerminationError, PreconditionError
from planecover.group import Character, GroupElement
from planecover.normalize import (
    incidence_at,
    is_normalized,
    is_smooth_over,
    normalize,
    pull_back,
    resolve,
    singular_residual_pairs,
    smoothness_report,
)

from conftest import FIXTURE_DIR, dense_singular_residual_pairs, load_cover, normalize_by_moves
from test_cover import random_valid_cover


def branch_ids(model):
    return {str(g): sorted(f"{cid}*{k}" for cid, k in entries) for g, entries in model.branch}


def test_pull_back_tacnode():
    model = pull_back(load_cover("prop51"), "x")
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
    model = pull_back(load_cover("prop55"), "xi")
    assert branch_ids(model)["010"] == ["E_xi*1", "lineA*1"]
    assert branch_ids(model)["011"] == ["E_xi*1", "lineC*1"]
    assert branch_ids(model)["100"] == ["E_xi*1", "conic*1"]


def test_step1_reduce_strips_even_parts():
    model = pull_back(load_cover("prop51"), "x")
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
    pulled = pull_back(model, "p")
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
    assert is_smooth_over(crossing, "p").smooth

    tacnode = load_cover("prop51")
    verdict = is_smooth_over(tacnode, "x")
    assert not verdict.smooth
    assert "singular" in verdict.reason and "quartic" in verdict.reason

    triple = load_cover("prop55")
    verdict = is_smooth_over(triple, "xi")
    assert not verdict.smooth
    assert "3 branch components" in verdict.reason

    # a line tangent to a conic: two lines cannot share a direction (Bezout)
    tangent = plane_cover(
        2,
        [("A", 2, {"p": 1, "t": 1}), ("B", 1, {"p": 1, "t": 1})],
        {"10": [("A", 1)], "01": [("B", 1)]},
        marked=[("p", None), ("t", "p")],
    )
    verdict = is_smooth_over(tangent, "p")
    assert not verdict.smooth and "tangent" in verdict.reason

    same_inertia = plane_cover(
        2,
        [("A", 1, {"p": 1}), ("B", 1, {"p": 1}), ("Cc", 1, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("Cc", 1)]},
        marked=[("p", None)],
    )
    verdict = is_smooth_over(same_inertia, "p")
    assert not verdict.smooth and "same inertia" in verdict.reason


def test_incidence_record():
    record = incidence_at(load_cover("prop51"), "x")
    assert record.entries == (("conic", 1), ("quartic", 2))
    assert record.tangencies == (("y", ("conic", "quartic")),)


def test_residual_same_inertia_detection():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 2, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("Cc", 1)]},
    )
    assert singular_residual_pairs(model) == [("A", "B")]
    assert not smoothness_report(model).smooth


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
        assert smoothness_report(result.cover).smooth


def test_resolve_round_budget_error():
    with pytest.raises(NonTerminationError):
        resolve(load_cover("prop51"), max_rounds=1)


def test_resolve_handles_residual_same_inertia_points():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("Cc", 2, {})],
        {"10": [("A", 1), ("B", 1)], "01": [("Cc", 1)]},
    )
    result = resolve(model)
    assert result.rounds == 1
    assert smoothness_report(result.cover).smooth


def test_pull_back_classes_are_strict_transforms():
    # oracle: embed each class in the blown-up surface, then subtract m * E_point
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        cover = load_cover(path.stem)
        cases += [(cover, m.name) for m in cover.marked if cover.point_is_ripe(m.name)]
    cases.append((pull_back(load_cover("prop51"), "x"), "y"))  # infinitely near child
    for cover, point in cases:
        pulled = pull_back(cover, point)
        assert pulled.surface.names[-1] == point
        for comp in cover.components:
            embedded = lattice.embed(comp.cls, pulled.surface)
            expected = lattice.strict_transform(embedded, point, comp.mult_at(point))
            assert pulled.component(comp.cid).cls == expected
    assert cases[-1][0].component("E_x").mult_at("y") == 1


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
        for a in (m.name for m in cover.marked if cover.point_is_ripe(m.name)):
            after = pull_back(cover, a)
            cases += [(cover, a, m.name) for m in after.marked if after.point_is_ripe(m.name)]
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


def test_resolve_pulls_back_once_per_round(monkeypatch):
    import planecover.normalize as normalize_mod
    from test_invariants import line_arrangement

    calls = []

    def spy(cover, *points):
        calls.append(points)
        return pull_back(cover, *points)

    monkeypatch.setattr(normalize_mod, "pull_back", spy)
    result = normalize_mod.resolve(line_arrangement(8))
    assert len(calls) == result.rounds == 2
    assert [record.blown for record in result.trail] == calls


def test_is_normalized_flag():
    assert is_normalized(load_cover("prop53"))
    assert not is_normalized(pull_back(load_cover("prop51"), "x"))
    # oracle: the direct predicate agrees with running normalize to its fixpoint
    models = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        cover = load_cover(path.stem)
        models.append(cover)
        models += [pull_back(cover, m.name) for m in cover.marked if cover.point_is_ripe(m.name)]
    rng = random.Random(5150)
    models += [random_valid_cover(rng) for _ in range(50)]
    lines = [(name, 1, {}) for name in "ABCD"]
    models.append(plane_cover(2, lines, {"10": [("A", 1)], "01": [("B", 1)], "11": [("C", 1)]}))
    assert any(not is_normalized(c) for c in models)
    for c in models:
        assert is_normalized(c) == (normalize(c) == c)


def _pairs_or_error(search, cover):
    try:
        return search(cover)
    except InconsistencyError as exc:
        return str(exc)


def _resolve_round_models(cover, monkeypatch):
    """The normalized input, and per round the marked model resolve blows up
    and the normalized result, up to the round budget."""
    import planecover.normalize as normalize_mod

    models = [normalize(cover)]

    def spy(current, *points):
        pulled = pull_back(current, *points)
        models.extend([current, normalize(pulled)])
        return pulled

    monkeypatch.setattr(normalize_mod, "pull_back", spy)
    try:
        normalize_mod.resolve(cover)
    except NonTerminationError:
        pass  # two curves crossing more than max_rounds times: one crossing per round
    monkeypatch.undo()
    return models


def test_sparse_pair_search_matches_dense_reference(monkeypatch):
    from test_invariants import line_arrangement

    covers = [load_cover(path.stem) for path in sorted(FIXTURE_DIR.glob("*.cfg"))]
    rng = random.Random(4242)
    covers += [random_valid_cover(rng) for _ in range(50)]
    covers.append(line_arrangement(6))
    models = [m for cover in covers for m in _resolve_round_models(cover, monkeypatch)]
    found = 0
    for model in models:
        expected = _pairs_or_error(dense_singular_residual_pairs, model)
        assert _pairs_or_error(singular_residual_pairs, model) == expected
        found += bool(expected)
    assert found >= 300


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
            singular_residual_pairs(cover)
        assert str(exc.value) == message
