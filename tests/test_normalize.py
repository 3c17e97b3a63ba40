import random

import pytest

from planecover import group, lattice
from planecover.cover import derive_building_data, plane_cover
from planecover.errors import NonTerminationError, PreconditionError
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
    step1_reduce,
    step2_disjoin,
)

from conftest import FIXTURE_DIR, load_cover
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
    reduced = step1_reduce(model)
    assert branch_ids(reduced) == {"10": ["quartic*1"], "01": ["E_x*1", "conic*1"]}
    after = derive_building_data(reduced)
    e = lattice.exceptional(model.surface, "x")
    for chi in group.characters(2):
        if group.pair(chi, GroupElement((1, 0))) == 1:
            assert after[chi] == before[chi] - e
        else:
            assert after[chi] == before[chi]
    # idempotence on already-reduced data
    assert step1_reduce(reduced) == reduced


def test_step1_keeps_odd_copy():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 3, {})],
        {"10": [("A", 3)], "01": [("B", 1)]},
    )
    reduced = step1_reduce(model)
    assert branch_ids(reduced)["10"] == ["A*1"]


def test_step2_moves_shared_component():
    model = plane_cover(
        2,
        [("A", 1, {}), ("B", 1, {}), ("shared", 1, {})],
        {"10": [("A", 1), ("shared", 1)], "11": [("B", 1), ("shared", 1)]},
    )
    moved = step2_disjoin(model)
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
    # excluded multiplicity profile (a, b-1, c-2) with a, b, c odd: after
    # step 1 the exceptional sits in both D_10 and D_11, and normalization
    # leaves it in D_01, i.e. the pencil point stays a branch point
    a, b, c = 3, 3, 3
    model = plane_cover(
        2,
        [("A", a, {"p": a}), ("B", b, {"p": b - 1}), ("Cc", c, {"p": c - 2})],
        {"10": [("A", 1)], "01": [("B", 1)], "11": [("Cc", 1)]},
        marked=[("p", None)],
    )
    pulled = step1_reduce(pull_back(model, "p"))
    carriers = {str(g) for g, entries in pulled.branch for cid, _ in entries if cid == "E_p"}
    assert carriers == {"10", "11"}
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
            shuffled = normalize(model, rng=random.Random(rng.randint(0, 10**9)))
            assert shuffled == base
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

    tangent = plane_cover(
        2,
        [("A", 1, {"p": 1, "t": 1}), ("B", 1, {"p": 1, "t": 1})],
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


def test_pull_back_requires_ripe_point():
    with pytest.raises(PreconditionError):
        pull_back(load_cover("prop51"), "y")


def test_pull_back_rejects_existing_center():
    from planecover.errors import DomainError

    model = pull_back(load_cover("prop51"), "x")
    with pytest.raises(DomainError):
        pull_back(model, "x")


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
