import hashlib
import json

import pytest

from weylgeom import charring
from weylgeom.charring import (
    FormalCharacter,
    adams,
    decompose,
    dominant_character,
    dominant_weights_below,
    e6_to_d5_levi,
    e6_to_f4_fold,
    e7_to_e6_levi,
    exterior_power,
    invariant_bilinear_type,
    irrep_character,
    levi_restriction,
    minuscule_check,
    power_series,
    symmetric_power,
    trivial_multiplicity,
    weyl_dimension,
)
from weylgeom.rootsystem import ConsistencyError, RefusedError, RootSystem


def rs(name):
    return RootSystem.named(name)


@pytest.mark.parametrize("name,lam,dim", [
    ("A2", (1, 1), 8),
    ("A4", (0, 1, 0, 0), 10),
    ("B4", (1, 0, 0, 0), 9),
    ("C3", (1, 0, 0), 6),
    ("D5", (1, 0, 0, 0, 0), 10),
    ("D5", (0, 0, 0, 0, 1), 16),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 1, 0, 0, 0, 0), 78),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0), 3875),
    ("F4", (0, 0, 0, 1), 26),
    ("G2", (1, 0), 7),
])
def test_weyl_dimension(name, lam, dim):
    assert weyl_dimension(rs(name), lam) == dim


def test_dominant_character_tables():
    a2 = rs("A2")
    assert dominant_character(a2, (1, 1)) == {(1, 1): 1, (0, 0): 2}
    g2 = rs("G2")
    assert dominant_character(g2, (1, 0)) == {(1, 0): 1, (0, 0): 1}
    f4 = rs("F4")
    assert dominant_character(f4, (0, 0, 0, 1)) == {(0, 0, 0, 1): 1, (0, 0, 0, 0): 2}
    e6 = rs("E6")
    assert dominant_character(e6, (1, 0, 0, 0, 0, 0)) == {(1, 0, 0, 0, 0, 0): 1}
    e8 = rs("E8")
    assert dominant_character(e8, (0,) * 7 + (1,)) == {(0,) * 7 + (1,): 1,
                                                       (0,) * 8: 8}


def test_e8_3875_multiplicities():
    e8 = rs("E8")
    lam = (1,) + (0,) * 7
    table = dominant_character(e8, lam)
    theta = (0,) * 7 + (1,)
    assert table == {lam: 1, theta: 7, (0,) * 8: 35}
    char = irrep_character(e8, lam)
    assert char.dimension() == 3875
    assert len(char.weights) == 2160 + 240 + 1


def test_saturated_closure_cross_check():
    # independent enumeration of dominant weights: saturate weight strings
    for name, lam in [("A2", (3, 1)), ("B2", (2, 1)), ("G2", (1, 1)),
                      ("C3", (1, 1, 0)), ("D4", (0, 1, 0, 0))]:
        system = rs(name)
        saturated = {tuple(lam)}
        frontier = [tuple(lam)]
        while frontier:
            w = frontier.pop()
            for i in range(1, system.rank + 1):
                c = w[i - 1]
                row = system.cartan[i - 1]
                for k in range(1, c + 1):
                    v = tuple(w[j] - k * row[j] for j in range(system.rank))
                    if v not in saturated:
                        saturated.add(v)
                        frontier.append(v)
        expected = {w for w in saturated if system.is_dominant(w)}
        assert dominant_weights_below(system, lam) == expected


@pytest.mark.parametrize("name,lam", [
    ("A3", (1, 0, 0)), ("A3", (0, 1, 0)), ("B3", (1, 0, 0)),
    ("C4", (1, 0, 0, 0)), ("D5", (1, 0, 0, 0, 0)), ("D5", (0, 0, 0, 0, 1)),
    ("E6", (1, 0, 0, 0, 0, 0)), ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ("F4", (0, 0, 0, 1)), ("G2", (1, 0)),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1)), ("E8", (1, 0, 0, 0, 0, 0, 0, 0)),
])
def test_character_dimension_matches_formula(name, lam):
    system = rs(name)
    assert irrep_character(system, lam).dimension() == weyl_dimension(system, lam)


def test_tensor_decompose_a2():
    a2 = rs("A2")
    v = irrep_character(a2, (1, 0))
    vbar = irrep_character(a2, (0, 1))
    assert decompose(a2, v * vbar) == {(1, 1): 1, (0, 0): 1}
    assert decompose(a2, v * v) == {(2, 0): 1, (0, 1): 1}


def test_decompose_peel_order_regression():
    # the dominant weights of V(0,5) include (2,1), which is lex-greater than
    # the highest weight; peeling must still find (0,5) first
    a2 = rs("A2")
    char = irrep_character(a2, (0, 5))
    assert decompose(a2, char) == {(0, 5): 1}


def test_decompose_g2_tensor_square():
    g2 = rs("G2")
    v = irrep_character(g2, (1, 0))
    square = v * v
    assert decompose(g2, square) == {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}
    assert decompose(g2, symmetric_power(v, 2)) == {(2, 0): 1, (0, 0): 1}
    assert decompose(g2, exterior_power(v, 2)) == {(0, 1): 1, (1, 0): 1}


def test_decompose_rejects_non_character():
    a2 = rs("A2")
    # removing one copy of the zero weight leaves a non-character
    broken = irrep_character(a2, (1, 1)) - FormalCharacter({(0, 0): 1})
    with pytest.raises(ConsistencyError):
        decompose(a2, broken)


def test_adams_and_powers():
    a2 = rs("A2")
    v = irrep_character(a2, (1, 0))
    assert adams(v, 2).dimension() == 3
    assert symmetric_power(v, 3).dimension() == 10
    assert exterior_power(v, 3).dimension() == 1
    assert decompose(a2, exterior_power(v, 2)) == {(0, 1): 1}
    assert decompose(a2, exterior_power(v, 3)) == {(0, 0): 1}
    a3 = rs("A3")
    w = irrep_character(a3, (1, 0, 0))
    for k, dim in [(0, 1), (1, 4), (2, 10), (3, 20), (4, 35)]:
        assert symmetric_power(w, k).dimension() == dim
    assert exterior_power(w, 2).dimension() == 6
    with pytest.raises(RefusedError):
        symmetric_power(w, 6)
    assert symmetric_power(w, 6, max_degree=6).dimension() == 84


def test_power_series_holds_every_degree():
    a3 = rs("A3")
    w = irrep_character(a3, (1, 0, 0))
    for alternating, power in ((False, symmetric_power),
                               (True, exterior_power)):
        series = power_series(w, 4, alternating)
        assert len(series) == 5
        assert series[0] == FormalCharacter.unit(3)
        for k in range(1, 5):
            assert series[k] == power(w, k)
    assert [c.dimension() for c in power_series(w, 4, True)] == [1, 4, 6, 4, 1]
    with pytest.raises(RefusedError):
        power_series(w, 6)


def test_sym_plus_alt_equals_square():
    e6 = rs("E6")
    v = irrep_character(e6, (1, 0, 0, 0, 0, 0))
    square = v * v
    total = symmetric_power(v, 2) + exterior_power(v, 2)
    assert total == square


def test_dual_highest_weight():
    assert rs("E6").dual_weight((1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert rs("D5").dual_weight((0, 0, 0, 0, 1)) == (0, 0, 0, 1, 0)
    assert rs("D4").dual_weight((0, 0, 0, 1)) == (0, 0, 0, 1)
    assert rs("A3").dual_weight((1, 0, 0)) == (0, 0, 1)


@pytest.mark.parametrize("name,lam,expected", [
    ("A1", (1,), "Skew"),
    ("A2", (1, 0), None),
    ("A3", (0, 1, 0), "Symmetric"),
    ("B3", (1, 0, 0), "Symmetric"),
    ("C3", (1, 0, 0), "Skew"),
    ("D4", (1, 0, 0, 0), "Symmetric"),
    ("D5", (0, 0, 0, 0, 1), None),
    ("E6", (1, 0, 0, 0, 0, 0), None),
    ("E7", (0, 0, 0, 0, 0, 0, 1), "Skew"),
    ("G2", (1, 0), "Symmetric"),
])
def test_invariant_bilinear_type(name, lam, expected):
    assert invariant_bilinear_type(rs(name), lam) == expected


@pytest.mark.parametrize("name,lam,expected", [
    ("A4", (1, 0, 0, 0), True),
    ("A4", (0, 0, 1, 0), True),
    ("B3", (1, 0, 0), False),
    ("B3", (0, 0, 1), True),
    ("C3", (1, 0, 0), True),
    ("C3", (0, 1, 0), False),
    ("D5", (1, 0, 0, 0, 0), True),
    ("D5", (0, 0, 0, 0, 1), True),
    ("E6", (1, 0, 0, 0, 0, 0), True),
    ("E7", (0, 0, 0, 0, 0, 0, 1), True),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), False),
    ("F4", (0, 0, 0, 1), False),
    ("G2", (1, 0), False),
])
def test_minuscule_check(name, lam, expected):
    assert minuscule_check(rs(name), lam) == expected


def test_trivial_multiplicity_small():
    a2 = rs("A2")
    v = irrep_character(a2, (1, 0))
    vbar = irrep_character(a2, (0, 1))
    assert trivial_multiplicity(a2, v * vbar) == 1
    assert trivial_multiplicity(a2, v * v) == 0
    assert trivial_multiplicity(a2, symmetric_power(v, 3)) == 0
    g2 = rs("G2")
    w = irrep_character(g2, (1, 0))
    assert trivial_multiplicity(g2, symmetric_power(w, 2)) == 1


def test_branching_e6_to_d5():
    rule = e6_to_d5_levi()
    out = rule.restrict_irrep((1, 0, 0, 0, 0, 0))
    assert out == {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 1}
    dims = sorted(weyl_dimension(rule.target, hw) * m for hw, m in out.items())
    assert dims == [1, 10, 16]


def test_branching_e6_to_f4():
    rule = e6_to_f4_fold()
    out = rule.restrict_irrep((1, 0, 0, 0, 0, 0))
    assert out == {(0, 0, 0, 1): 1, (0, 0, 0, 0): 1}


def test_branching_e7_to_e6():
    rule = e7_to_e6_levi()
    out = rule.restrict_irrep((0, 0, 0, 0, 0, 0, 1))
    assert out == {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1,
                   (0, 0, 0, 0, 0, 0): 2}
    # the two 27-dimensional pieces are dual to one another
    e6 = rs("E6")
    pieces = [hw for hw in out if weyl_dimension(e6, hw) == 27]
    assert e6.dual_weight(pieces[0]) == pieces[1]


def test_generic_levi_matches_named_rule():
    named = e7_to_e6_levi()
    generic = levi_restriction(rs("E7"), (1, 2, 3, 4, 5, 6))
    lam = (0, 0, 0, 0, 0, 0, 1)
    a = named.restrict_irrep(lam)
    b = generic.restrict_irrep(lam)
    dims_a = sorted(weyl_dimension(named.target, hw)
                    for hw, m in a.items() for _ in range(m))
    dims_b = sorted(weyl_dimension(generic.target, hw)
                    for hw, m in b.items() for _ in range(m))
    assert dims_a == dims_b == [1, 1, 27, 27]


def test_generic_levi_e6_drop_node6():
    rule = levi_restriction(rs("E6"), (1, 2, 3, 4, 5))
    out = rule.restrict_irrep((1, 0, 0, 0, 0, 0))
    dims = sorted(weyl_dimension(rule.target, hw) * m for hw, m in out.items())
    assert dims == [1, 10, 16]


def _use_store(monkeypatch, directory):
    """Swap in a fresh store on directory, with an empty memo."""
    store = charring.TableStore(str(directory))
    monkeypatch.setattr(charring, "STORE", store)
    return store


def _rewrite(path, rows):
    """Replace the table of a cache file, with a matching checksum."""
    data = json.loads(path.read_text())
    data["table"] = rows
    body = json.dumps(rows, sort_keys=True)
    data["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(json.dumps(data))


def _no_computing(monkeypatch):
    def refuse(rs, lam):
        raise AssertionError("table recomputed")
    monkeypatch.setattr(charring, "dominant_weights_below", refuse)


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    e6 = rs("E6")
    lam = (0, 1, 0, 0, 0, 0)
    _use_store(monkeypatch, cache)
    first = dominant_character(e6, lam)
    files = list(cache.glob("domchar-*.json"))
    assert len(files) == 1
    # a fresh store reads the file back without recomputing
    with monkeypatch.context() as m:
        _no_computing(m)
        _use_store(m, cache)
        assert dominant_character(e6, lam) == first
    # corrupt the payload; the loader must fall back to recomputing
    files[0].write_text(files[0].read_text().replace('"1"', '"2"', 1)[:-2] + "}")
    _use_store(monkeypatch, cache)
    second = dominant_character(e6, lam)
    assert first == second


def test_cache_validates_checksum(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    a2 = rs("A2")
    lam = (1, 1)
    _use_store(monkeypatch, cache)
    dominant_character(a2, lam)
    path = next(cache.glob("domchar-*.json"))
    data = json.loads(path.read_text())
    data["table"][0][1] = 999
    path.write_text(json.dumps(data))
    _use_store(monkeypatch, cache)
    assert dominant_character(a2, lam) == {(1, 1): 1, (0, 0): 2}


def test_cache_rejects_a_table_with_a_valid_checksum(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    a2 = rs("A2")
    _use_store(monkeypatch, cache)
    dominant_character(a2, (1, 0))
    path = next(cache.glob("domchar-*.json"))
    _rewrite(path, [[[1, 0], 5]])
    _use_store(monkeypatch, cache)
    assert irrep_character(a2, (1, 0)).dimension() == 3
    # the file was overwritten with the recomputed table
    assert json.loads(path.read_text())["table"] == [[[1, 0], 1]]


@pytest.mark.parametrize("rows", [
    [[[0, 0], 3], [[1, 1], 1]],                  # orbits add up to 9, not 8
    [[[0, 0], -4], [[1, 1], 2]],                 # adds up to 8: m(lam) != 1
    [[[0, 0], 2], [[1, -2], 1], [[1, 1], 1]],    # a weight that is not dominant
    [[[0, 0], 2]],                               # lam missing
    [[[0, 0, 0], 2], [[1, 1], 1]],               # a weight of the wrong rank
], ids=["dimension", "highest-weight", "dominance", "no-lam", "rank"])
def test_cache_rejects_impossible_tables(tmp_path, monkeypatch, rows):
    cache = tmp_path / "cache"
    a2 = rs("A2")
    _use_store(monkeypatch, cache)
    dominant_character(a2, (1, 1))
    path = next(cache.glob("domchar-*.json"))
    _rewrite(path, rows)
    _use_store(monkeypatch, cache)
    assert dominant_character(a2, (1, 1)) == {(1, 1): 1, (0, 0): 2}


def test_cache_write_survives_a_stale_temp_path(tmp_path, monkeypatch):
    # another writer's leftover at <file>.tmp must not block this one
    cache = tmp_path / "cache"
    e6 = rs("E6")
    lam = (1, 0, 0, 0, 0, 0)
    _use_store(monkeypatch, cache)
    want = dominant_character(e6, lam)
    path = next(cache.glob("domchar-*.json"))
    path.unlink()
    (cache / (path.name + ".tmp")).mkdir()
    _use_store(monkeypatch, cache)
    assert dominant_character(e6, lam) == want
    assert path.exists()
    with monkeypatch.context() as m:
        _no_computing(m)
        _use_store(m, cache)
        assert dominant_character(e6, lam) == want


def test_memo_is_keyed_by_cartan_matrix(monkeypatch):
    # a second RootSystem of the same matrix hits the memo
    store = charring.TableStore()
    monkeypatch.setattr(charring, "STORE", store)
    dominant_character(rs("B3"), (0, 0, 1))
    _no_computing(monkeypatch)
    assert dominant_character(rs("B3"), (0, 0, 1)) == {(0, 0, 1): 1}
    assert len(store.memo) == 1
