import itertools
import random

import pytest

from weylgeom import IncidenceRuleMissing, RefusedError, RootSystem
from weylgeom.geometry import (
    ApartmentObject,
    Geometry,
    apartment_objects,
    chamber_pairwise_incident,
    dimension_diagram,
    halfspin_dimensions,
    hasse_diagram,
    incidence,
    standard_chamber,
    translate_support,
)

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
    assert halfspin_dimensions(RootSystem.named("D4")) == {1: 4, 2: 2, 3: 4,
                                                           4: 1}
    assert halfspin_dimensions(RootSystem.named("D5")) == {1: 8, 2: 4, 3: 2,
                                                           4: 5, 5: 1}
    assert halfspin_dimensions(RootSystem.named("D6")) == {1: 16, 2: 8, 3: 4,
                                                           4: 2, 5: 6, 6: 1}


def test_halfspin_general_pattern():
    # 2^(n-i-1) away from the fork, n at the other fork node, 1 at beta
    for n in (4, 5, 6):
        dd = halfspin_dimensions(RootSystem.named("D%d" % n))
        for i in range(1, n - 1):
            assert dd[i] == 2 ** (n - i - 1)
        assert dd[n - 1] == n
        assert dd[n] == 1


def test_halfspin_rejects_non_d():
    with pytest.raises(ValueError):
        halfspin_dimensions(RootSystem.named("A4"))


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
            v = tuple(a - b for a, b in zip(u, rs.alpha_fw(i)))
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


def test_apartment_refuses_non_minuscule():
    for name, beta in (("B3", 1), ("F4", 4), ("G2", 1), ("E8", 8)):
        g = geom(name, beta)
        with pytest.raises(RefusedError):
            apartment_objects(g, 1)
        with pytest.raises(RefusedError):
            standard_chamber(g)


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


def test_a3_translation_words_act_correctly():
    g = geom("A3", 2)
    std = g.delta_space(2).support
    for o in apartment_objects(g, 2):
        s = std
        for i in reversed(o.word):
            s = translate_support(g.rs, i, s)
        assert s == o.support


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
    g = geom("D6", 6)
    ch = {o.delta: o for o in standard_chamber(g)}
    assert incidence(g, ch[6], ch[5])
    assert incidence(g, ch[6], ch[4])
    assert incidence(g, ch[6], ch[3])
    assert incidence(g, ch[5], ch[4])
    for other in (1, 2):
        with pytest.raises(IncidenceRuleMissing):
            incidence(g, ch[6], ch[other])


def test_e7_cross_type_rule_missing():
    g = geom("E7", 7)
    ch = {o.delta: o for o in standard_chamber(g)}
    with pytest.raises(IncidenceRuleMissing):
        incidence(g, ch[1], ch[2])
    assert incidence(g, ch[3], ch[3])


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
    given node order; None where no rule applies."""
    ch = {o.delta: o for o in standard_chamber(g)}
    out = []
    for a, b in itertools.combinations(nodes, 2):
        try:
            out.append(incidence(g, ch[a], ch[b]))
        except IncidenceRuleMissing:
            out.append(None)
    return out


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
