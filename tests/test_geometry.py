import itertools
import random

import pytest

from weylgeom import ConsistencyError, RefusedError, RootSystem, charring, geometry
from weylgeom.rootsystem import closure
from weylgeom.geometry import (
    ApartmentObject,
    Geometry,
    apartment_objects,
    barycenter,
    chamber_pairwise_incident,
    dimension_diagram,
    hasse_diagram,
    incidence,
    object_point,
    standard_chamber,
    translate_support,
)

from root_reference import pair_root, parent_node

W1 = (1, 0, 0, 0, 0, 0)
L3 = (-1, 0, 1, 0, 0, 0)
L4 = (0, 0, -1, 1, 0, 0)


def geom(name, beta):
    return Geometry(RootSystem.named(name), beta)


# dimension diagrams


def test_dimension_diagram_a4():
    assert dimension_diagram(geom("A4", 1)) == {1: 1, 2: 2, 3: 3, 4: 4}


def test_dimension_diagram_b4_c4():
    assert dimension_diagram(geom("B4", 1)) == {1: 1, 2: 2, 3: 3, 4: 4}
    assert dimension_diagram(geom("C4", 1)) == {1: 1, 2: 2, 3: 3, 4: 4}


def test_dimension_diagram_d5_vector():
    assert dimension_diagram(geom("D5", 1)) == {1: 1, 2: 2, 3: 3, 4: 5, 5: 5}


def test_dimension_diagram_e6():
    g = geom("E6", 1)
    assert dimension_diagram(g) == {1: 1, 3: 2, 4: 3, 5: 5, 6: 10, 2: 6}
    assert g.delta_space(6).levi_type == "D5"
    assert g.delta_space(2).levi_type == "A5"
    assert g.delta_space(1).levi_type is None


def test_dimension_diagram_e7():
    g = geom("E7", 7)
    assert dimension_diagram(g) == {7: 1, 6: 2, 5: 3, 4: 4, 3: 6, 1: 12, 2: 7}
    assert g.delta_space(1).levi_type == "D6"


def test_dimension_diagram_e8():
    g = geom("E8", 8)
    assert dimension_diagram(g) == {1: 14, 2: 8, 3: 7, 4: 5, 5: 4, 6: 3,
                                    7: 2, 8: 1}
    assert not g.minuscule


def test_dimension_diagram_f4():
    g = geom("F4", 4)
    assert dimension_diagram(g) == {4: 1, 3: 2, 2: 3, 1: 6}
    assert g.delta_space(1).levi_type == "C3"


def test_dimension_diagram_g2():
    assert dimension_diagram(geom("G2", 1)) == {1: 1, 2: 2}


def test_halfspin_dimensions():
    assert dimension_diagram(geom("D4", 4)) == {1: 4, 2: 2, 3: 4, 4: 1}
    assert dimension_diagram(geom("D5", 5)) == {1: 8, 2: 4, 3: 2, 4: 5, 5: 1}
    assert dimension_diagram(geom("D6", 6)) == {1: 16, 2: 8, 3: 4, 4: 2,
                                                5: 6, 6: 1}


def test_halfspin_general_pattern():
    # 2^(n-i-1) away from the fork, n at the other fork node, 1 at beta
    for n in range(4, 9):
        dd = dimension_diagram(geom("D%d" % n, n))
        for i in range(1, n - 1):
            assert dd[i] == 2 ** (n - i - 1)
        assert dd[n - 1] == n
        assert dd[n] == 1


# delta-space internals


def test_e6_standard_supports():
    g = geom("E6", 1)
    assert g.delta_space(1).support == {W1}
    assert g.delta_space(3).support == {W1, L3}
    assert g.delta_space(4).support == {W1, L3, L4}
    assert g.delta_space(2).support == {
        W1, L3, L4, (0, 1, 0, -1, 1, 0), (0, 1, 0, 0, -1, 1),
        (0, 1, 0, 0, 0, -1)}
    assert g.delta_space(5).support == {
        W1, L3, L4, (0, 1, 0, -1, 1, 0), (0, -1, 0, 0, 1, 0)}
    assert len(g.delta_space(6).support) == 10


def test_e6_lowest_weights():
    g = geom("E6", 1)
    assert g.delta_space(1).lowest_weight == W1
    assert g.delta_space(2).lowest_weight == (0, 1, 0, 0, 0, -1)
    assert g.delta_space(5).lowest_weight == (0, -1, 0, 0, 1, 0)


def test_support_size_matches_dimension_when_minuscule():
    for name, beta in (("A4", 1), ("C3", 1), ("D5", 1), ("D5", 5),
                       ("E6", 1), ("E7", 7)):
        g = geom(name, beta)
        assert g.minuscule
        for d in range(1, g.rs.rank + 1):
            sp = g.delta_space(d)
            assert len(sp.support) == sp.dimension


DELTA_DIMENSIONS = {"E7": {1: 12, 2: 7, 3: 6, 4: 4, 5: 3, 6: 2, 7: 1},
                    "E8": {1: 14, 2: 8, 3: 7, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}}


@pytest.mark.parametrize("name,beta", [("E7", 7), ("E8", 8)])
def test_delta_spaces_build_no_root_system(monkeypatch, name, beta):
    g = geom(name, beta)

    def forbidden(*args, **kwargs):
        raise AssertionError("root system built")
    monkeypatch.setattr(RootSystem, "__init__", forbidden)
    assert dimension_diagram(g) == DELTA_DIMENSIONS[name]


def test_bad_nodes_rejected():
    rs = RootSystem.named("A3")
    with pytest.raises(ValueError):
        Geometry(rs, 4)
    with pytest.raises(ValueError):
        Geometry(rs, 1).delta_space(0)


# Hasse diagrams


def test_hasse_e6_shape():
    rs = RootSystem.named("E6")
    nodes, edges = hasse_diagram(rs, (1, 0, 0, 0, 0, 0))
    assert len(nodes) == 27
    assert len(edges) == 36
    assert nodes[0] == W1
    assert nodes[1] == L3
    assert nodes[2] == L4
    assert nodes[3] == (0, 1, 0, -1, 1, 0)
    assert (W1, L3, 1) in edges
    assert (L3, L4, 3) in edges
    assert (L4, (0, 1, 0, -1, 1, 0), 4) in edges
    branch = {i for u, v, i in edges if u == (0, 1, 0, -1, 1, 0)}
    assert branch == {2, 5}


def test_hasse_e6_brute_recount():
    rs = RootSystem.named("E6")
    nodes, edges = hasse_diagram(rs, (1, 0, 0, 0, 0, 0))
    wts = set(nodes)
    brute = set()
    for u in wts:
        for i in range(1, 7):
            v = tuple(a - b for a, b in zip(u, rs.cartan[i - 1]))
            if v in wts:
                brute.add((u, v, i))
    assert brute == set(edges)


def test_hasse_d4_vector():
    rs = RootSystem.named("D4")
    nodes, edges = hasse_diagram(rs, (1, 0, 0, 0))
    assert len(nodes) == 8
    assert len(edges) == 8
    branch = {i for u, v, i in edges if u == (0, -1, 1, 1)}
    assert branch == {3, 4}


def test_hasse_e6_negated_twist_is_anti_automorphism():
    # The map w -> -phi(w), with phi the order-2 diagram symmetry, reverses
    # every edge and relabels it by phi.
    rs = RootSystem.named("E6")
    nodes, edges = hasse_diagram(rs, (1, 0, 0, 0, 0, 0))
    phi_idx = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}

    def phi_w(c):
        return (c[5], c[1], c[4], c[3], c[2], c[0])

    edge_set = set(edges)
    for u, v, i in edges:
        nu = tuple(-x for x in phi_w(u))
        nv = tuple(-x for x in phi_w(v))
        assert (nv, nu, phi_idx[i]) in edge_set
    image = {tuple(-x for x in phi_w(w)) for w in nodes}
    assert image == set(nodes)


# apartment objects and incidence


def _refuse_walk(self, top):
    raise AssertionError("orbit walked")


def _refuse_tables(self):
    raise AssertionError("reflection tables read")


def test_e8_node4_apartment_is_refused_before_the_walk(monkeypatch):
    # E8 beta = 8, delta = 4: 483,840 objects of 5 weights each; the walk
    # begins by reading the geometry's reflection tables
    g = geom("E8", 8)
    assert len(g.delta_space(4).support) == 5
    small = geom("A2", 1)

    monkeypatch.setattr(Geometry, "reflections", property(_refuse_tables))
    with pytest.raises(AssertionError, match="tables read"):
        apartment_objects(small, 1)
    with pytest.raises(RefusedError, match="2419200 weights"):
        apartment_objects(g, 4)


def test_e8_node4_geometry_is_refused_before_any_work(monkeypatch):
    # V(omega_4) of E8 has 6,899,079,264 weights
    e8 = RootSystem.named("E8")

    def refuse(seeds, step):
        raise AssertionError("closure called")
    monkeypatch.setattr(charring, "closure", refuse)
    monkeypatch.setattr(RootSystem, "orbit", _refuse_walk)
    with pytest.raises(RefusedError):
        Geometry(e8, 4)


def test_apartment_walk_reflects_only_to_fill_its_tables(monkeypatch):
    # E7 beta = 7, delta = 4: s_1..s_7 tabulated on the 56 weights of V,
    # then 10,080 objects each translated once from its parent
    g = geom("E7", 7)
    g.delta_space(4)
    calls = []
    reflect = RootSystem.reflect

    def counted(self, i, w):
        calls.append(i)
        return reflect(self, i, w)
    monkeypatch.setattr(RootSystem, "reflect", counted)
    assert len(apartment_objects(g, 4)) == 10_080
    assert len(calls) == 56 * 7


def _relabelled_e6():
    e6, p = RootSystem.named("E6"), (1, 4, 6, 2, 5, 3)
    return RootSystem([[e6.cartan[a - 1][b - 1] for b in p] for a in p])


@pytest.mark.parametrize("rs, beta", [
    (RootSystem.named("E7"), 7), (RootSystem.named("B4"), 1),
    (RootSystem.named("G2"), 2), (_relabelled_e6(), 1)],
    ids=["E7", "B4", "G2", "E6 relabelled"])
def test_reflection_tables_are_the_reflections(rs, beta):
    g = Geometry(rs, beta)
    assert len(g.reflections) == rs.rank
    for i in rs.nodes:
        assert g.reflections[i - 1] == {w: rs.reflect(i, w)
                                        for w in g.weights}, i


@pytest.mark.parametrize("name,beta", [("E6", 1), ("E7", 7), ("B4", 1)])
def test_reflection_tables_return_the_weights_themselves(name, beta):
    # each s_i w is the member of g.weights equal to it, not a new tuple,
    # so the apartment walk's table lookups find their keys by identity
    g = geom(name, beta)
    own = {w: w for w in g.weights}
    for i, table in enumerate(g.reflections, 1):
        assert all(v is own[v] for v in table.values()), i


def test_reflection_tables_are_built_once_per_geometry(monkeypatch):
    # the first walk fills the tables; every other delta only reads them
    g = geom("E7", 7)
    first = len(apartment_objects(g, 7))
    calls = []
    monkeypatch.setattr(RootSystem, "reflect",
                        lambda self, i, w: calls.append(i))
    counts = [len(apartment_objects(g, d)) for d in range(1, 7)]
    assert calls == []
    assert [first] + counts == [g.rs.orbit_size(g.rs.fundamental_weight(d))
                                for d in (7, 1, 2, 3, 4, 5, 6)]


def test_d3_geometry_answers_alike_under_every_name():
    # D3 with beta = 1 is A3 with beta = 2, and an unlabelled D3 Cartan
    # matrix classifies as A3; D3 node 1 is A3 node 2
    d3 = RootSystem.named("D3")
    unlabelled = RootSystem([list(row) for row in d3.cartan])
    assert unlabelled.label is None
    answers = [_answers(Geometry(d3, 1), (1, 2, 3)),
               _answers(geom("A3", 2), (2, 1, 3)),
               _answers(Geometry(unlabelled, 1), (1, 2, 3))]
    assert answers == [[True] * 3] * 3


def test_a3_apartment_counts():
    g = geom("A3", 1)
    assert [len(apartment_objects(g, d)) for d in (1, 2, 3)] == [4, 6, 4]


def test_a3_matches_subset_oracle():
    # Supports of the translates of the standard spaces are exactly the
    # k-subsets of the 4 weights, and incidence is containment.
    g = geom("A3", 1)
    objs = {d: apartment_objects(g, d) for d in (1, 2, 3)}
    from itertools import combinations
    for d in (1, 2, 3):
        subsets = {frozenset(c) for c in combinations(g.weights, d)}
        assert {o.support for o in objs[d]} == subsets
    for da in (1, 2, 3):
        for db in (1, 2, 3):
            for a in objs[da]:
                for b in objs[db]:
                    got = incidence(g, a, b)
                    if da == db:
                        assert got == (a.support == b.support)
                    else:
                        want = (a.support <= b.support
                                or b.support <= a.support)
                        assert got == want


@pytest.mark.parametrize("name,beta", [("A3", 2), ("D4", 1), ("E6", 1)])
def test_apartment_is_the_weyl_orbit_of_the_standard_object(name, beta):
    g = geom(name, beta)
    rs = g.rs
    for delta in range(1, rs.rank + 1):
        supports = {o.support for o in apartment_objects(g, delta)}
        assert g.delta_space(delta).support in supports
        for i in range(1, rs.rank + 1):
            assert {translate_support(rs, i, s) for s in supports} == supports
        assert len(supports) == rs.orbit_size(rs.fundamental_weight(delta))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bn_vector_incidence_is_containment(n):
    # V(omega_1) of B_n has the zero weight and is not minuscule; its
    # objects are still the isotropic subsets of the 2n nonzero weights
    g = geom("B%d" % n, 1)
    objs = [o for d in range(1, n + 1) for o in apartment_objects(g, d)]
    pairs = 0
    for a, b in itertools.combinations(objs, 2):
        if a.delta != b.delta:
            pairs += 1
            assert incidence(g, a, b) == (a.support <= b.support
                                          or b.support <= a.support)
    assert pairs == {3: 216, 4: 2240, 5: 21520}[n]


def test_d4_fork_incidence():
    g = geom("D4", 1)
    s3 = g.delta_space(3).support
    s4 = g.delta_space(4).support
    assert len(s3 & s4) == 3
    a = ApartmentObject(3, s3)
    b = ApartmentObject(4, s4)
    assert incidence(g, a, b)
    # overlap of a 3-space with a 4-space is always odd; 1 means not incident
    sizes = set()
    for b2 in apartment_objects(g, 4):
        k = len(s3 & b2.support)
        sizes.add(k)
        assert incidence(g, a, b2) == (k == 3)
    assert sizes == {1, 3}


def test_d5_vector_chamber():
    g = geom("D5", 1)
    assert chamber_pairwise_incident(g)
    s4 = g.delta_space(4).support
    s5 = g.delta_space(5).support
    assert len(s4 & s5) == 4


def test_dn_halfspin_rule_coverage():
    # every chamber pair is decided, the pairs with 1 and 2 included
    g = geom("D6", 6)
    assert chamber_pairwise_incident(g)
    ch = {o.delta: o for o in standard_chamber(g)}
    answers = {incidence(g, ch[6], o) for o in apartment_objects(g, 1)}
    assert answers == {True, False}


def test_e7_cross_type_incidence():
    g = geom("E7", 7)
    assert chamber_pairwise_incident(g)
    ch = {o.delta: o for o in standard_chamber(g)}
    assert incidence(g, ch[1], ch[2])
    assert incidence(g, ch[3], ch[3])
    assert not all(incidence(g, ch[7], o) for o in apartment_objects(g, 1))


def test_e6_chamber_pairwise_incident():
    g = geom("E6", 1)
    assert chamber_pairwise_incident(g)
    ch = {o.delta: o for o in standard_chamber(g)}
    assert len(ch[2].support & ch[5].support) == 4
    assert len(ch[2].support & ch[6].support) == 5


def test_e6_translated_chamber_stays_incident():
    g = geom("E6", 1)
    ch = standard_chamber(g)
    for word in ((2,), (1, 3), (4, 2, 5, 1), (6, 5, 4, 3, 1, 2)):
        moved = []
        for o in ch:
            s = o.support
            for i in reversed(word):
                s = translate_support(g.rs, i, s)
            moved.append(ApartmentObject(o.delta, s))
        for i, a in enumerate(moved):
            for b in moved[i + 1:]:
                assert incidence(g, a, b)


def test_e6_non_incident_pair_exists():
    g = geom("E6", 1)
    objs2 = apartment_objects(g, 2)
    objs5 = apartment_objects(g, 5)
    hits = 0
    misses = 0
    for a in objs2[:40]:
        for b in objs5[:40]:
            if incidence(g, a, b):
                hits += 1
            else:
                misses += 1
    assert hits > 0 and misses > 0


def test_e6_point_objects_are_singletons():
    g = geom("E6", 1)
    pts = apartment_objects(g, 1)
    assert len(pts) == 27
    assert {next(iter(o.support)) for o in pts} == g.weights


def _relabelled(name, perm):
    """The named system renumbered so that new node i is old node
    perm[i-1]."""
    c = RootSystem.named(name).cartan
    n = len(c)
    return RootSystem([[c[perm[i] - 1][perm[j] - 1] for j in range(n)]
                       for i in range(n)])


def test_relabelled_e6_chambers_are_incident():
    # every renumbering that keeps node 1 keeps the standard chamber incident
    for rest in itertools.permutations(range(2, 7)):
        g = Geometry(_relabelled("E6", (1,) + rest), 1)
        assert chamber_pairwise_incident(g), rest


def _answers(g, nodes):
    """Incidence of the standard chamber over all pairs of nodes, in the
    given node order."""
    ch = {o.delta: o for o in standard_chamber(g)}
    return [incidence(g, ch[a], ch[b])
            for a, b in itertools.combinations(nodes, 2)]


@pytest.mark.parametrize("name", ["A%d" % n for n in range(1, 9)]
                         + ["D%d" % n for n in range(4, 9)])
def test_relabelled_chambers_match_named(name):
    rng = random.Random(name)
    n = int(name[1:])
    betas = range(1, n + 1) if name[0] == "A" else (1, n - 1, n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relabelled = _relabelled(name, perm)
    inverse = {old: new + 1 for new, old in enumerate(perm)}
    for beta in betas:
        named = _answers(geom(name, beta), range(1, n + 1))
        moved = _answers(Geometry(relabelled, inverse[beta]),
                         [inverse[d] for d in range(1, n + 1)])
        assert moved == named, beta


# the chamber test against the rule catalog it replaced, and against counts


def _catalog_incidence(g, sigma, a, b):
    """Incidence by the rules stated family by family, or None where none
    applies.  The rules read nodes in the family's own numbering, with beta
    sent to its smallest node by the diagram automorphism sigma; A3 with
    beta = 2 is D3 with beta = 1, whose fork nodes are A3's 1 and 3."""
    rs = g.rs
    beta, da, db = (sigma[i - 1] for i in (g.beta, a.delta, b.delta))
    label, n, pair = rs.label, rs.rank, {da, db}
    meet = len(a.support & b.support)
    if (label[0] == "D" and beta == 1 and pair == {n - 1, n}
            or label == "A3" and beta == 2 and pair == {1, 3}):
        return meet == n - 1
    if label == "E6" and pair in ({2, 5}, {2, 6}):
        return meet == (4 if 5 in pair else 5)

    def contains(d):
        # E6 contains by components; elsewhere beta's component after
        # deleting d must be of type A with beta at an end
        if label == "E6":
            return True
        comp = rs.delta_component(beta, d)
        return (bool(comp) and rs.restricted(comp)[0].classify()[0] == "A"
                and sum(j in comp for j in rs.neighbors(beta)) <= 1)

    ca, cb = rs.delta_component(beta, da), rs.delta_component(beta, db)
    if ca >= cb and contains(da):
        return a.support >= b.support
    if cb >= ca and contains(db):
        return b.support >= a.support
    return None


CATALOG_CASES = ([("A%d" % n, beta) for n in (3, 4, 5)
                  for beta in range(1, n + 1)]
                 + [("D%d" % n, beta) for n in (4, 5, 6)
                    for beta in (1, n - 1, n)]
                 + [("E6", 1), ("E6", 6)])


def _standard_and_all(g, one_way=False, most=None):
    """(standard delta_a object, delta_b, every delta_b object) for every
    pair of different types; incidence is W-invariant and W is transitive
    on each type, so these pairs meet every orbit of pairs.  With one_way,
    each pair of types comes once, on the side with fewer objects; with
    most, only types of at most that many objects take part."""
    rs = g.rs
    chamber = {o.delta: o for o in standard_chamber(g)}
    size = {d: rs.orbit_size(rs.fundamental_weight(d)) for d in chamber}
    objects = {}
    for da, db in itertools.permutations(chamber, 2):
        if one_way and (size[db], db) > (size[da], da):
            continue
        if most is not None and max(size[da], size[db]) > most:
            continue
        if db not in objects:
            objects[db] = apartment_objects(g, db)
        yield chamber[da], db, objects[db]


@pytest.mark.parametrize("name,beta", CATALOG_CASES,
                         ids=["%s-%d" % c for c in CATALOG_CASES])
def test_chamber_test_agrees_with_the_catalog(name, beta):
    g = geom(name, beta)
    n = g.rs.rank
    sigma = min(g.rs.diagram_automorphisms(), key=lambda p: p[beta - 1])
    decided = undecided = 0
    for a, _, objects in _standard_and_all(g):
        for b in objects:
            want = _catalog_incidence(g, sigma, a, b)
            if want is None:
                undecided += 1
            else:
                decided += 1
                assert incidence(g, a, b) == want, (a.delta, b.delta)
    assert decided
    # the catalog is complete where beta is an end of A_n, in D_n with
    # beta = 1, and in A3, D4 and E6
    if name in ("A3", "D4", "E6") or beta == 1 or name[0] == "A" and beta == n:
        assert undecided == 0


# V(omega_beta) not minuscule: each has the zero weight, of multiplicity
# above 1 except in B_n and G2 with beta = 1
NON_MINUSCULE = [("B3", 1), ("B4", 1), ("B5", 1), ("C3", 2), ("C4", 2),
                 ("D4", 2), ("E6", 2), ("F4", 1), ("F4", 4), ("G2", 1),
                 ("G2", 2)]
PARABOLIC_CASES = (CATALOG_CASES + [("E7", 7)] + NON_MINUSCULE
                   + [("E7", 1), ("E8", 8)])


@pytest.mark.parametrize("name,beta", PARABOLIC_CASES,
                         ids=["%s-%d" % c for c in PARABOLIC_CASES])
def test_incident_objects_count_parabolic_cosets(name, beta):
    # the type-b objects on the standard type-a object are the cosets of
    # W_{S-{a,b}} in W_{S-{a}}; the index is |W.(w_a+w_b)| / |W.w_a|.  E7
    # has 17,642 objects, so there each pair of types is counted one way;
    # E8 has 881,760, so there only types of at most 2,160 objects count
    g = geom(name, beta)
    rs = g.rs
    for a, db, objects in _standard_and_all(
            g, one_way=name in ("E7", "E8"),
            most=2160 if name == "E8" else None):
        wa, wb = rs.fundamental_weight(a.delta), rs.fundamental_weight(db)
        both = tuple(x + y for x, y in zip(wa, wb))
        want = rs.orbit_size(both) // rs.orbit_size(wa)
        assert sum(incidence(g, a, b) for b in objects) == want, (a.delta, db)


def _dominant_pair_incidence(g, a, b):
    """incidence by the earlier rule, as an oracle: the norm of x + y
    against that of the sum of the dominant forms of x and y, each reduced
    by dominant_rep."""
    if a.delta == b.delta:
        return a.support == b.support
    rs = g.rs
    x, y = barycenter(a.support), barycenter(b.support)
    xd, yd = rs.dominant_rep(x), rs.dominant_rep(y)
    return (rs.scaled_norm2(tuple(p + q for p, q in zip(x, y)))
            == rs.scaled_norm2(tuple(p + q for p, q in zip(xd, yd))))


ORACLE_CASES = [("A4", 1), ("B4", 1), ("C4", 1), ("D5", 1), ("D4", 2),
                ("E6", 1), ("F4", 4), ("G2", 1), ("G2", 2), ("B3", 2)]


@pytest.mark.parametrize("name,beta", ORACLE_CASES,
                         ids=["%s-%d" % c for c in ORACLE_CASES])
def test_incidence_agrees_with_the_dominant_pair_rule(name, beta):
    # seeded samples of cross-type pairs, with the standard object of the
    # first type in half of them so that incident pairs come up
    g = geom(name, beta)
    rng = random.Random("%s-%d" % (name, beta))
    objs = {d: apartment_objects(g, d) for d in range(1, g.rs.rank + 1)}
    seen = set()
    for da, db in itertools.permutations(objs, 2):
        for k in range(100):
            a = objs[da][0] if k % 2 else rng.choice(objs[da])
            b = rng.choice(objs[db])
            want = _dominant_pair_incidence(g, a, b)
            assert incidence(g, a, b) == want, (da, db)
            seen.add(want)
    assert seen == {True, False}


def test_incidence_reduces_no_barycenter(monkeypatch):
    g = geom("E6", 1)
    objs = [o for d in (1, 2, 6) for o in apartment_objects(g, d)]
    pairs = [(a, b) for a in objs for b in objs if a.delta != b.delta]
    want = [_dominant_pair_incidence(g, a, b) for a, b in pairs]
    assert True in want and False in want

    def forbidden(self, w):
        raise AssertionError("dominant_rep called")

    monkeypatch.setattr(RootSystem, "dominant_rep", forbidden)
    assert [incidence(g, a, b) for a, b in pairs] == want


MINUSCULE = ([("A%d" % n, beta) for n in range(1, 9)
              for beta in range(1, n + 1)]
             + [("B%d" % n, n) for n in range(2, 9)]
             + [("C%d" % n, 1) for n in range(2, 9)]
             + [("D%d" % n, beta) for n in range(3, 9)
                for beta in (1, n - 1, n)]
             + [("E6", 1), ("E6", 6), ("E7", 7)])


SMALL = [(name, beta) for name in (
    ["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"])
    for beta in range(1, int(name[1:]) + 1)
    if charring.weyl_dimension(RootSystem.named(name),
                               RootSystem.named(name).fundamental_weight(beta))
    <= 1000]


@pytest.mark.parametrize("name,beta", SMALL,
                         ids=["%s-%d" % c for c in SMALL])
def test_standard_barycenter_lies_on_the_omega_delta_ray(name, beta):
    g = geom(name, beta)
    for delta in range(1, g.rs.rank + 1):
        x = barycenter(g.delta_space(delta).support)
        c = x[delta - 1]
        assert c > 0 and x == tuple(c * v for v in
                                    g.rs.fundamental_weight(delta)), delta


def test_barycenter_off_the_ray_is_refused(monkeypatch):
    monkeypatch.setattr(geometry, "barycenter", lambda support: (1, 1, 0))
    for name in ("A3", "B3"):
        with pytest.raises(ConsistencyError, match="omega_delta ray"):
            geom(name, 1).delta_space(2)


@pytest.mark.parametrize("name,beta", SMALL,
                         ids=["%s-%d" % c for c in SMALL])
def test_standard_chamber_is_pairwise_incident(name, beta):
    assert chamber_pairwise_incident(geom(name, beta))


# the barycenter walk against the support walk it replaced


def _support_walk(g, delta):
    """(delta, support, level) of every apartment object, walked as before:
    breadth-first on the supports themselves, each weight of each support
    reflected by every s_i."""
    rs = g.rs
    levels = closure([g.delta_space(delta).support], lambda s: (
        translate_support(rs, i, s) for i in range(1, rs.rank + 1)))
    objs = [(delta, s, level) for s, level in levels.items()]
    objs.sort(key=lambda o: (o[2], sorted(o[1], reverse=True)))
    return objs


def _negative_roots(rs, x):
    """#{alpha > 0 : (x, alpha) < 0}: for the barycenter x of an object, the
    length of the shortest Weyl element carrying the standard object to it
    (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7)."""
    return sum(1 for q in rs.positive_roots if pair_root(rs, x, q) < 0)


WALK_CASES = ([(name, beta, range(1, int(name[1:]) + 1))
               for name, beta in MINUSCULE if int(name[1:]) <= 6]
              + [(name, beta, range(1, int(name[1:]) + 1))
                 for name, beta in NON_MINUSCULE]
              + [("E7", 7, (1, 2, 6, 7))])


@pytest.mark.parametrize("name,beta,deltas", WALK_CASES,
                         ids=["%s-%d" % c[:2] for c in WALK_CASES])
def test_barycenter_walk_matches_the_support_walk(name, beta, deltas):
    g = geom(name, beta)
    for delta in deltas:
        walk = _support_walk(g, delta)
        levels = [_negative_roots(g.rs, barycenter(s)) for _, s, _ in walk]
        assert levels == [level for _, _, level in walk], delta
        _assert_walk_order(g, delta, {s: level for _, s, level in walk})


def _assert_walk_order(g, delta, levels):
    """apartment_objects(g, delta) in walk order against an oracle walk's
    {support: level}: the same objects, none twice, the standard one first,
    and the oracle's levels never decreasing along the walk."""
    objs = apartment_objects(g, delta)
    got = [o.support for o in objs]
    assert {o.delta for o in objs} == {delta}, delta
    assert len(set(got)) == len(got) and set(got) == set(levels), delta
    assert got[0] == g.delta_space(delta).support, delta
    walked = [levels[s] for s in got]
    assert walked == sorted(walked), delta


@pytest.mark.parametrize("name,beta,deltas", WALK_CASES,
                         ids=["%s-%d" % c[:2] for c in WALK_CASES])
def test_apartment_barycenters_are_distinct_and_fill_the_orbit(name, beta,
                                                              deltas):
    g = geom(name, beta)
    rs = g.rs
    for delta in deltas:
        objs = apartment_objects(g, delta)
        centers = {barycenter(o.support) for o in objs}
        assert (len(centers) == len(objs)
                == rs.orbit_size(rs.fundamental_weight(delta))), delta


@pytest.mark.parametrize("name,beta,deltas", WALK_CASES,
                         ids=["%s-%d" % c[:2] for c in WALK_CASES])
def test_object_point_names_every_apartment_object(name, beta, deltas):
    # one seeded swap per object: a weight of it for one outside it gives
    # None, unless the swapped support is itself an object
    g = geom(name, beta)
    rs = g.rs
    rng = random.Random("%s-%d" % (name, beta))
    weights = sorted(g.weights)
    for delta in deltas:
        c = g.delta_space(delta).barycenter[delta - 1]
        objs = [o.support for o in apartment_objects(g, delta)]
        points = {s: object_point(g, delta, s) for s in objs}
        for s, u in points.items():
            assert barycenter(s) == tuple(c * x for x in u), delta
            assert rs.dominant_rep(u) == rs.fundamental_weight(delta), delta
            out = rng.choice([w for w in weights if w not in s])
            swapped = s - {rng.choice(sorted(s))} | {out}
            assert object_point(g, delta, swapped) == points.get(swapped)


@pytest.mark.parametrize("name,beta", [("E6", 1), ("D4", 2), ("F4", 4),
                                       ("G2", 2)])
def test_every_swap_of_a_standard_weight_is_an_object_or_none(name, beta):
    # each weight of the standard support swapped for each weight outside
    # it: object_point gives the swapped object's point, or None for the
    # swaps that are no object, which every type of more than one weight has;
    # the zero weight adds nothing to a barycenter but one to the size
    g = geom(name, beta)
    zero = g.rs.zero()
    for delta in range(1, g.rs.rank + 1):
        std = g.delta_space(delta).support
        if zero in g.weights - std:
            assert object_point(g, delta, std | {zero}) is None, delta
        points = {o.support: object_point(g, delta, o.support)
                  for o in apartment_objects(g, delta)}
        misses = 0
        for w in std:
            for out in g.weights - std:
                swapped = std - {w} | {out}
                misses += swapped not in points
                assert object_point(g, delta, swapped) == points.get(swapped)
        assert misses or len(std) == 1, delta


def test_object_point_refuses_a_non_weight_and_a_delta_off_the_diagram():
    for name in ("E6", "G2"):
        g = geom(name, 1)
        n = g.rs.rank
        std = g.delta_space(1).support
        with pytest.raises(ValueError, match=r"^\(9, 9(, 9)*\) is not a "
                           "weight here$"):
            object_point(g, 1, std | {(9,) * n})
        for delta in (0, n + 1, 1.5):
            with pytest.raises(ValueError,
                               match="^node %r out of range$" % delta):
                object_point(g, delta, std)


# the walk on weight positions against the dict-table walk it replaced


def _dict_table_walk(g, delta):
    """apartment_objects as it was before supports travelled as tuples of
    weight positions: s_i tabulated as a dict on the weights, and supports
    carried as frozensets and sorted by (level, sorted(support,
    reverse=True)); each object comes with its level."""
    rs = g.rs
    std = g.delta_space(delta).support
    tables = {i: {w: rs.reflect(i, w) for w in g.weights}
              for i in range(1, rs.rank + 1)}
    top = barycenter(std)
    supports, levels = {top: std}, {top: 0}
    for y in rs.orbit(top)[1:]:
        i = parent_node(y)
        x = rs.reflect(i, y)
        t = tables[i]
        supports[y] = frozenset([t[w] for w in supports[x]])
        levels[y] = levels[x] + 1
    order = sorted(levels, key=lambda x: (levels[x],
                                          sorted(supports[x], reverse=True)))
    return [(ApartmentObject(delta, supports[x]), levels[x]) for x in order]


# E6 renumbered so that its node 1 is node 4: beta = 4 there is the 27
RELABELLED_E6 = (2, 6, 5, 1, 3, 4)
TABLE_WALK_CASES = WALK_CASES + [("E7", 7, (3, 4, 5)), ("D8", 1, range(1, 9)),
                                 ("E6 relabelled", 4, range(1, 7))]
TABLE_WALK_IDS = (["%s-%d" % c[:2] for c in WALK_CASES]
                  + ["E7-7 deltas 3-5", "D8-1", "E6 relabelled-4"])


@pytest.mark.parametrize("name,beta,deltas", TABLE_WALK_CASES,
                         ids=TABLE_WALK_IDS)
def test_position_walk_is_the_dict_table_walk(name, beta, deltas):
    if name == "E6 relabelled":
        assert RELABELLED_E6[beta - 1] == 1
        g = Geometry(_relabelled("E6", RELABELLED_E6), beta)
        assert len(g.weights) == 27
    else:
        g = geom(name, beta)
    for delta in deltas:
        _assert_walk_order(g, delta, {o.support: level for o, level
                                      in _dict_table_walk(g, delta)})


# supports kept by walk position against the walk that kept them by point


def _point_keyed_walk(g, delta):
    """The supports of apartment_objects as they were while kept in a dict
    keyed by point: the parent of y = s_i x is read as x = s_i y, i the
    first negative coordinate of y, and its support reflected weight by
    weight; dict order is walk order."""
    rs = g.rs
    top = rs.fundamental_weight(delta)
    supports = {top: g.delta_space(delta).support}
    for y in rs.orbit(top)[1:]:
        i = parent_node(y)
        supports[y] = frozenset(rs.reflect(i, w)
                                for w in supports[rs.reflect(i, y)])
    return list(supports.values())


# F4 renumbered so that its node 4 is node 3: beta = 3 there is the 26
RELABELLED_F4 = (3, 1, 4, 2)
# A2 x B2 x A1, the middle block reversed
BLOCK_SUM = ((2, -1, 0, 0, 0), (-1, 2, 0, 0, 0), (0, 0, 2, -1, 0),
             (0, 0, -2, 2, 0), (0, 0, 0, 0, 2))
# after the relabelled E6 come five geometries whose apartments the
# benchmark walks, a relabelled F4 and every beta of a block sum, whose
# types are the nodes of beta's component
POINT_WALK_CASES = [("E7", 7), ("B4", 1), ("G2", 2), ("D5", 5), ("F4", 4),
                    ("E6 relabelled", 4), ("A5", 2), ("A6", 1), ("A8", 4),
                    ("D6", 1), ("D7", 7), ("F4 relabelled", 3)] + [
                        ("A2+B2+A1", beta) for beta in range(1, 6)]


def _point_walk_geometry(name, beta):
    """The geometry of a POINT_WALK_CASES entry and its types, the nodes of
    beta's component."""
    if name == "E6 relabelled":
        g = Geometry(_relabelled("E6", RELABELLED_E6), beta)
    elif name == "F4 relabelled":
        assert RELABELLED_F4[beta - 1] == 4
        g = Geometry(_relabelled("F4", RELABELLED_F4), beta)
        assert len(g.weights) == 25
    elif name == "A2+B2+A1":
        g = Geometry(RootSystem(BLOCK_SUM), beta)
    else:
        g = geom(name, beta)
    return g, sorted(g.rs.component_of(beta, ()))


@pytest.mark.parametrize("name,beta", POINT_WALK_CASES,
                         ids=["%s-%d" % c for c in POINT_WALK_CASES])
def test_position_walk_is_the_point_keyed_walk(name, beta):
    # apartment_objects walks packed points, and the reference walks
    # rs.orbit's tuples: equal supports in equal order
    g, deltas = _point_walk_geometry(name, beta)
    for delta in deltas:
        assert [o.support for o in apartment_objects(g, delta)] \
            == _point_keyed_walk(g, delta), delta


@pytest.mark.parametrize("name,beta", POINT_WALK_CASES,
                         ids=["%s-%d" % c for c in POINT_WALK_CASES])
def test_apartment_walk_visits_the_orbit_in_its_order(name, beta):
    # apartment_objects keeps its own walk of W.omega_delta, on packed
    # points; it must visit the points of rs.orbit in the same order
    g, deltas = _point_walk_geometry(name, beta)
    rs = g.rs
    for delta in deltas:
        assert [object_point(g, delta, o.support)
                for o in apartment_objects(g, delta)] \
            == rs.orbit(rs.fundamental_weight(delta)), delta


# the standard supports of the block sum, by (beta, delta), for every delta
# of beta's component
BLOCK_SUM_SUPPORTS = {
    (1, 1): {(1, 0, 0, 0, 0)}, (1, 2): {(1, 0, 0, 0, 0), (-1, 1, 0, 0, 0)},
    (2, 1): {(1, -1, 0, 0, 0), (0, 1, 0, 0, 0)}, (2, 2): {(0, 1, 0, 0, 0)},
    (3, 3): {(0, 0, 1, 0, 0)}, (3, 4): {(0, 0, 1, 0, 0), (0, 0, -1, 1, 0)},
    (4, 3): {(0, 0, 2, -1, 0), (0, 0, 0, 1, 0)}, (4, 4): {(0, 0, 0, 1, 0)},
    (5, 5): {(0, 0, 0, 0, 1)}}


@pytest.mark.parametrize("beta", range(1, 6))
def test_a_type_outside_the_component_of_beta_is_refused(beta):
    # A2+B2+A1: each delta of beta's component keeps its support, and every
    # other delta is refused by a ValueError naming delta and beta
    g = Geometry(RootSystem(BLOCK_SUM), beta)
    comp = g.rs.component_of(beta, ())
    assert comp == {d for b, d in BLOCK_SUM_SUPPORTS if b == beta}
    for delta in g.rs.nodes:
        if delta in comp:
            assert g.delta_space(delta).support \
                == BLOCK_SUM_SUPPORTS[beta, delta], delta
            continue
        message = ("^type %d is outside the component of beta = %d$"
                   % (delta, beta))
        for call in (g.delta_space, lambda d: apartment_objects(g, d),
                     lambda d: object_point(g, d, {g.hw})):
            with pytest.raises(ValueError, match=message):
                call(delta)
    # the whole diagram stops at the first node outside
    first = min(set(g.rs.nodes) - comp)
    with pytest.raises(ValueError, match="^type %d is outside" % first):
        dimension_diagram(g)


# the descent walk against the depth filter it replaced


def _depths(g):
    """{w: simple-root coordinates of hw - w} over the weights of V, read
    off cartan_inverse; each must be a nonnegative integer vector."""
    n, m = g.rs.cartan_inverse
    out = {}
    for w in g.weights:
        diff = [a - b for a, b in zip(g.hw, w)]
        q = tuple(sum(x * y for x, y in zip(diff, col)) for col in m)
        assert all(x >= 0 and x % n == 0 for x in q), w
        out[w] = tuple(x // n for x in q)
    return out


def _depth_support(g, depths, delta):
    """The weights w of V with hw - w supported on beta's component once
    delta is deleted."""
    comp = g.rs.delta_component(g.beta, delta)
    return frozenset(w for w, q in depths.items()
                     if all(x == 0 for i, x in enumerate(q, 1)
                            if i not in comp))


def _w0_image(rs, w, nodes):
    """w0_J(w) for J = nodes and w dominant on J: apply s_i, i in J, while
    some coordinate at J is positive."""
    while True:
        i = next((i for i in nodes if w[i - 1] > 0), None)
        if i is None:
            return w
        w = rs.reflect(i, w)


@pytest.mark.parametrize("name,beta", SMALL,
                         ids=["%s-%d" % c for c in SMALL])
def test_descent_matches_the_depth_filter(name, beta):
    g = geom(name, beta)
    rs = g.rs
    depths = _depths(g)
    for delta in range(1, rs.rank + 1):
        s = g.delta_space(delta)
        assert s.support == _depth_support(g, depths, delta), delta
        assert s.lowest_weight == _w0_image(rs, g.hw, s.component), delta
        # the dimension read off V's character against the Weyl formula
        # on the Levi, at omega_beta's position in the component
        if s.component:
            sub, nodes = rs.restricted(s.component)
            pos = nodes.index(beta) + 1
            assert s.dimension == charring.weyl_dimension(
                sub, sub.fundamental_weight(pos)), delta
        else:
            assert s.dimension == 1, delta
        assert len(s.support) <= s.dimension, delta
        if g.minuscule:
            assert len(s.support) == s.dimension, delta
    # over all nodes the descent reaches every weight, at its height
    levels = geometry.descent(rs, g.weights, g.hw, range(1, rs.rank + 1))
    assert levels == {w: sum(q) for w, q in depths.items()}


def _dense_descent(rs, weights, top, nodes):
    """descent with the whole Cartan row of alpha_i subtracted at each step:
    the reference for the sparse step of geometry.descent."""
    alphas = [rs.cartan[i - 1] for i in nodes]

    def step(w):
        for a in alphas:
            v = tuple([x - y for x, y in zip(w, a)])
            if v in weights:
                yield v

    return closure([tuple(top)], step)


DESCENTS = [("E6", 1), ("E7", 7), ("D8", 1), ("A8", 4), ("B4", 1)]


@pytest.mark.parametrize("name,beta", DESCENTS,
                         ids=["%s-%d" % c for c in DESCENTS])
def test_sparse_descent_is_the_dense_descent(name, beta):
    g = geom(name, beta)
    rs = g.rs
    comps = [rs.delta_component(beta, d) for d in rs.nodes] + [rs.nodes]
    for nodes in comps:
        got = geometry.descent(rs, g.weights, g.hw, nodes)
        want = _dense_descent(rs, g.weights, g.hw, nodes)
        assert list(got.items()) == list(want.items()), nodes


def test_hasse_refuses_a_weight_off_the_descent(monkeypatch):
    real = geometry.irrep_character

    def padded(rs, lam):
        # lam + alpha_1 lies above the highest weight
        top = tuple(a + b for a, b in zip(lam, rs.cartan[0]))
        return charring.FormalCharacter({**real(rs, lam).weights, top: 1})

    monkeypatch.setattr(geometry, "irrep_character", padded)
    with pytest.raises(ConsistencyError, match="not reached"):
        hasse_diagram(RootSystem.named("A2"), (1, 0))


@pytest.mark.parametrize("beta", [0, 4, -1, 1.5])
def test_geometry_refuses_a_beta_off_the_diagram(beta):
    with pytest.raises(ValueError, match="^node %r out of range$" % beta):
        geom("A3", beta)
