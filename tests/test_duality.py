import hashlib
import random

import pytest

from weylgeom import ConsistencyError, RootSystem
from weylgeom.charring import irrep_character, weyl_dimension
from weylgeom.duality import (
    E6Duality,
    Triality,
    chamber_automorphism_check,
    diagram_duality,
    e7_inner_ideal_check,
    e7_rank_one_check,
    wprime_orbits,
    zero_sum_triple_orbits,
)
from weylgeom import duality, geometry
from weylgeom.geometry import (Geometry, apartment_objects, barycenter,
                               translate_support)

W1 = (1, 0, 0, 0, 0, 0)
L3 = (-1, 0, 1, 0, 0, 0)
L4 = (0, 0, -1, 1, 0, 0)
LAM2 = (0, 1, 0, 0, 0, -1)
MINUS_W6 = (0, 0, 0, 0, 0, -1)

S2_FROZEN = frozenset({
    W1, L3, L4, (0, 1, 0, -1, 1, 0), (0, 1, 0, 0, -1, 1),
    (0, 1, 0, 0, 0, -1)})


@pytest.fixture(scope="module")
def dual():
    return E6Duality()


@pytest.fixture(scope="module")
def tri():
    return Triality()


# the order-2 duality of the 27-weight geometry


def test_phi_index_is_the_diagram_flip(dual, tri):
    assert [dual.PHI[i] for i in range(1, 7)] == [6, 2, 5, 4, 3, 1]
    for i in range(1, 7):
        assert dual.PHI[dual.PHI[i]] == i
    # read as node tuples, both maps are diagram automorphisms
    for obj in (dual, tri):
        perm = tuple(obj.PHI[i] for i in range(1, obj.rs.rank + 1))
        assert perm in obj.rs.diagram_automorphisms()


def test_phi_weight_maps_weights_to_dual_weights(dual):
    assert dual.phi_weight(W1) == (0, 0, 0, 0, 0, 1)
    for w in dual.weights:
        assert dual.phi_weight(dual.phi_weight(w)) == w
    image = {dual.phi_weight(w) for w in dual.weights}
    assert image == {tuple(-x for x in w) for w in dual.weights}


def test_phi_weight_twists_reflections(dual):
    for w in dual.weights:
        for i in range(1, 7):
            assert (dual.phi_weight(dual.rs.reflect(i, w))
                    == dual.rs.reflect(dual.PHI[i], dual.phi_weight(w)))


def test_hyperlines_have_ten_weights():
    # the hyperline of a point, psi({mu}), is {phi(mu + y) : y a weight}
    # cut down to the weights, ten of them
    dual = E6Duality()
    weights = irrep_character(dual.rs, W1).weights.keys()
    assert len(weights) == 27
    flip = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    for mu in weights:
        line = set()
        for y in weights:
            s = [a + b for a, b in zip(mu, y)]
            phi = tuple(s[flip[i] - 1] for i in range(1, 7))
            if phi in weights:
                line.add(phi)
        assert len(line) == 10
        assert dual.psi_support({mu}) == line


def test_hyperlines_are_one_table_built_once():
    # every hyperline is read off one table, which is all the duality
    # stores beside its geometry
    dual = E6Duality()
    sums = {dual.phi_weight(tuple(a + b for a, b in zip(W1, y)))
            for y in dual.weights}
    assert dual.psi_support({W1}) == sums & dual.weights
    table = vars(dual)["_hyperlines"]
    assert set(vars(dual)) == {"rs", "geometry", "weights", "_hyperlines"}
    assert table.keys() == dual.weights
    for mu in dual.weights:
        assert dual.psi_support({mu}) == table[mu]
    dual.psi_support(dual.geometry.delta_space(1).support)
    assert vars(dual)["_hyperlines"] is table


def test_standard_s2_support_frozen(dual):
    assert dual.geometry.delta_space(2).support == S2_FROZEN


def test_psi_standard_realizes_the_flip(dual):
    for delta in range(1, 7):
        out = dual.psi_standard(delta)
        assert out == dual.geometry.delta_space(dual.PHI[delta]).support


def test_psi_is_an_involution_on_standard_supports(dual):
    for delta in range(1, 7):
        s = dual.geometry.delta_space(delta).support
        assert dual.psi_support(dual.psi_support(s)) == s


def test_brace_closure_controls(dual):
    assert dual.brace_closed(dual.geometry.delta_space(2).support)
    s5 = dual.geometry.delta_space(5).support
    assert not dual.brace_closed(s5)
    assert not dual.brace_closed(frozenset(s5 | {MINUS_W6}))


def test_psi_on_intersections(dual):
    s2 = dual.geometry.delta_space(2).support
    s5 = dual.geometry.delta_space(5).support
    x = s2 & s5
    assert len(x) == 4
    assert dual.psi_support(x) == dual.geometry.delta_space(3).support
    y = frozenset(x | {(0, 1, 0, 0, -1, 1)})
    assert dual.psi_support(y) == frozenset({W1})
    assert dual.psi_support(dual.psi_support(x)) == s5
    assert dual.psi_support(dual.psi_support(x)) > x


def test_psi_rejects_empty(dual):
    with pytest.raises(ValueError):
        dual.psi_support(frozenset())


@pytest.mark.parametrize("size", [1, 4, 6, 7])
def test_psi_and_brace_closure_reject_a_non_weight(dual, size):
    # a non-weight is bad input, not a failed internal check: on every
    # branch, the 6-support one included
    s5 = dual.geometry.delta_space(5).support
    support = frozenset(sorted(S2_FROZEN | s5)[:size - 1] + [(0,) * 6])
    assert len(support) == size
    message = r"^\(0, 0, 0, 0, 0, 0\) is not a weight here$"
    for f in (dual.psi_support, dual.brace_closed):
        with pytest.raises(ValueError, match=message):
            f(support)


def _brace_escapes(weights, support, phis):
    """The brace relation as triple sums: is some x + y + z, with x in the
    support, y a weight and z in phis, a weight outside the support?"""
    for x in support:
        for y in weights:
            for z in phis:
                w = tuple(a + b + c for a, b, c in zip(x, y, z))
                if w in weights and w not in support:
                    return True
    return False


def _triple_sum_psi(dual, support):
    """psi_support spelled out: the common hyperline {phi(mu + y)} of the
    members, or at size 6 the nu whose phi-image keeps the support closed."""
    weights, phi = dual.weights, dual.phi_weight
    if len(support) != 6:
        out = weights
        for mu in support:
            out = out & {phi(tuple(a + b for a, b in zip(mu, y)))
                         for y in weights}
        return out
    return frozenset(nu for nu in weights
                     if not _brace_escapes(weights, support, (phi(nu),)))


def test_psi_and_brace_closure_match_the_triple_sum_definition():
    # one duality, and so one brace relation table, for every support; the
    # 6-objects come last, and bring closed 6-supports
    dual = E6Duality()
    objs = {o.support for d in range(1, 7)
            for o in apartment_objects(dual.geometry, d)}
    weights = sorted(dual.weights)
    rng = random.Random(19)
    supports = [frozenset(rng.sample(weights, size))
                for size in range(1, 11)
                for _ in range(2000 if size == 6 else 100)]
    # one weight of a 6-object swapped out: psi is then often nonempty
    six = sorted(sorted(s) for s in objs if len(s) == 6)
    for _ in range(400):
        s = rng.choice(six)
        out = rng.choice(s)
        supports.append(frozenset(s).difference([out]).union(
            [rng.choice([w for w in weights if w not in s])]))
    supports += [frozenset(s) for s in six]
    seen = {}
    for s in supports:
        psi = dual.psi_support(s)
        assert psi == _triple_sum_psi(dual, s), sorted(s)
        closed = not _brace_escapes(dual.weights, s,
                                    [dual.phi_weight(m) for m in s])
        assert dual.brace_closed(s) == closed, sorted(s)
        k = seen.setdefault(len(s), [0, 0, 0])
        k[0] += s not in objs
        k[1] += bool(psi)
        k[2] += closed
    assert seen[6][0] >= 2000
    # both answers occur at every size that has them
    assert all(seen[n][1] for n in range(1, 8))
    assert all(seen[n][2] for n in (1, 2, 6))
    assert seen[6][1] > 100


def test_psi_of_the_self_dual_type_sums_no_triples(monkeypatch):
    # psi, brace closure and the brace dimensions read the brace relation
    # table, one set per weight and phi-image
    dual = E6Duality()
    objs = [o.support for o in apartment_objects(dual.geometry, 2)]
    assert len(objs) == 72

    def forbidden(*args):
        raise AssertionError("summed triples")

    monkeypatch.setattr(duality, "triple_sums", forbidden)
    images = {s: dual.psi_support(s) for s in objs}
    assert all(images[images[s]] == s for s in objs)
    assert set(images.values()) == set(objs)
    assert sum(dual.brace_closed(s) for s in objs) == 24
    assert sorted(dual.dim_brace_vplus(my)[0] for my in dual.weights) \
        == [0] * 10 + [6] * 16 + [17]
    assert len(dual._reaches) == 27 * 27


def test_brace_relation_is_every_sum_shifted_by_a_weight(dual):
    # the table against weights & {x + z + y}, on every pair of a weight x
    # and a phi-image z
    phis = [dual.phi_weight(w) for w in dual.weights]
    assert len(dual._reaches) == 27 * 27
    for x in dual.weights:
        for z in phis:
            assert dual._reaches[x, z] == dual.weights & {
                tuple(a + b + c for a, b, c in zip(x, z, y))
                for y in dual.weights}, (x, z)


def test_brace_relation_refuses_a_phi_off_the_negatives():
    # the table reads each phi-image as the negative of a weight
    dual = E6Duality()
    dual.phi_weight = lambda c: c
    with pytest.raises(ConsistencyError, match="^phi does not send the "
                       "weights onto their negatives$"):
        dual._reaches


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# sha256 of the rows below, taken while the brace relation was keyed by
# the sum x + z and triality multiplied every pair out
PSI_E6_OBJECTS = ("2e03bd4440e481a2a56dac96908719f6"
                  "d2cc5760399b459e485960329b56a208")
TRIALITY_CUBED = ("a6ac4ef793a2b1bbc005484bbd3b4b59"
                  "8b1bf412bcfe3e4bdb32934ccaa61bcc")


def test_psi_on_every_e6_object_is_unchanged(dual):
    rows = []
    for delta in dual.rs.nodes:
        for o in apartment_objects(dual.geometry, delta):
            d2, image = dual.psi(delta, o.support)
            rows.append((delta, sorted(o.support), d2, sorted(image)))
    assert len(rows) == 27 + 72 + 216 + 720 + 216 + 27
    assert _digest(rows) == PSI_E6_OBJECTS


def test_triality_cubed_on_every_d4_object_is_unchanged(tri):
    rows = []
    for delta in tri.rs.nodes:
        for o in apartment_objects(tri.geometry, delta):
            d2, s = delta, o.support
            for _ in range(3):
                d2, s = tri.psi(d2, s)
                rows.append((d2, sorted(s)))
            assert (d2, s) == (delta, o.support)
    assert _digest(rows) == TRIALITY_CUBED


def test_wprime_orbit_sizes(dual):
    orbits = wprime_orbits(dual.rs, 6, dual.weights)
    assert [len(o) for o in orbits] == [1, 10, 16]
    assert orbits[0] == (MINUS_W6,)
    assert W1 in orbits[1]
    assert LAM2 in orbits[2]


def test_brace_dimensions(dual):
    hist = {}
    for my in sorted(dual.weights):
        k, supp = dual.dim_brace_vplus(my)
        hist[k] = hist.get(k, 0) + 1
        assert len(supp) == (k if k else 0)
    assert hist == {0: 10, 6: 16, 17: 1}


def test_brace_dimension_fixtures(dual):
    k, supp = dual.dim_brace_vplus(W1)
    assert (k, supp) == (0, frozenset())
    k, supp = dual.dim_brace_vplus(LAM2)
    assert k == 6
    assert supp == dual.geometry.delta_space(2).support
    k, supp = dual.dim_brace_vplus(MINUS_W6)
    assert k == 17
    assert W1 in supp


def test_verify_ln_all_types(dual):
    std = dual.geometry.delta_space
    for delta in range(1, 7):
        assert dual.ln_conditions(std(delta).support,
                                  std(dual.PHI[delta]).support) == (True, True)


def test_verify_ln_perturbation_control(dual):
    # widening the dual support to every weight must break both conditions
    a_ok, b_ok = dual.ln_conditions(dual.geometry.delta_space(1).support,
                                    dual.weights)
    assert not a_ok
    assert not b_ok


def test_e6_chamber_automorphism(dual):
    assert chamber_automorphism_check(dual.geometry, dual.psi)


# triality on the D4 vector weights

TABLE_FROZEN = [
    ("e1", (None, None, None, "e1", None, "e2", "e3", "f4")),
    ("e2", (None, None, "e1", None, "e2", None, "e4", "f3")),
    ("e3", (None, "e1", None, None, "e3", "e4", None, "f2")),
    ("e4", ("e1", None, None, None, "f4", "f3", "f2", None)),
    ("f4", (None, "e2", "e3", "e4", None, None, None, "f1")),
    ("f3", ("e2", None, "f4", "f3", None, None, "f1", None)),
    ("f2", ("e3", "f4", None, "f2", None, "f1", None, None)),
    ("f1", ("e4", "f3", "f2", None, "f1", None, None, None)),
]


def test_triality_table_matches_frozen(tri):
    rows = tri.table()
    assert len(rows) == 8 and all(len(r) == 8 for r in rows)
    for (label, want), got in zip(TABLE_FROZEN, rows):
        assert got == want, label


def test_triality_phi_weight_twists_reflections(tri):
    # the D4 twin of test_phi_weight_twists_reflections: the weight maps
    # intertwine s_i with s_PHI(i), and phi2_weight is phi_weight twice
    assert len(tri.weights) == 8
    for w in tri.weights:
        for i in tri.rs.nodes:
            assert (tri.phi_weight(tri.rs.reflect(i, w))
                    == tri.rs.reflect(tri.PHI[i], tri.phi_weight(w)))
        assert tri.phi2_weight(w) == tri.phi_weight(tri.phi_weight(w))


def test_triality_table_cell_fixtures(tri):
    rows = {lab: dict(zip(tri.LABELS, row))
            for lab, row in zip(tri.LABELS, tri.table())}
    assert rows["e1"]["e4"] == "e1"
    assert rows["e1"]["e1"] is None
    assert rows["f1"]["e1"] == "e4"


def test_trilinear_form(tri):
    assert tri.t_nonzero("e4", "e4", "e4")
    assert not tri.t_nonzero("e1", "e1", "e1")
    # pairing with the product: t(a,b,c) != 0 iff c* appears in a relabeled
    # product; spot-check a full row of the honest product
    for b in tri.LABELS:
        w = tri.star_weight(tri.label_weight["e1"], tri.label_weight[b])
        hits = [c for c in tri.LABELS if tri.t_nonzero("e1", b, c)]
        assert len(hits) <= 1
        if w is None:
            assert hits == []


def test_star_fixtures(tri):
    e1 = tri.label_weight["e1"]
    assert tri.star_support((e1,), tri.weights) \
        == tri.geometry.delta_space(3).support
    assert tri.star_support(tri.weights, (e1,)) \
        == tri.geometry.delta_space(4).support


def test_star_table_is_the_star_product(tri):
    assert len(tri._stars) == 64
    for u in tri.weights:
        for v in tri.weights:
            assert tri._stars[u, v] == tri.star_weight(u, v), (u, v)
            assert tri.star_support((u,), (v,)) \
                == frozenset([tri.star_weight(u, v)]) - {None}


def test_star_support_refuses_a_non_weight(tri):
    e1, off = tri.label_weight["e1"], (0, 0, 0, 0)
    for s1, s2 in (((e1,), (off,)), ((off,), tri.weights)):
        with pytest.raises(ValueError, match="is not a weight here"):
            tri.star_support(s1, s2)


def test_d4_standard_supports(tri):
    g = tri.geometry
    eps = [tri.label_weight["e%d" % i] for i in (1, 2, 3, 4)]
    f4 = tri.label_weight["f4"]
    assert g.delta_space(2).support == frozenset(eps[:2])
    assert g.delta_space(3).support == frozenset(eps[:3] + [f4])
    assert g.delta_space(4).support == frozenset(eps)


def test_triality_psi_cycles_the_chamber(tri):
    g = tri.geometry
    s1 = g.delta_space(1).support
    s3 = g.delta_space(3).support
    s4 = g.delta_space(4).support
    assert tri.psi(1, s1) == (3, s3)
    assert tri.psi(3, s3) == (4, s4)
    assert tri.psi(4, s4) == (1, s1)
    d2, img = tri.psi(2, g.delta_space(2).support)
    assert (d2, img) == (2, g.delta_space(2).support)


def test_triality_psi_cubed_is_identity_on_points(tri):
    for w in tri.weights:
        d, s = 1, frozenset((w,))
        for _ in range(3):
            d, s = tri.psi(d, s)
        assert (d, s) == (1, frozenset((w,)))


def test_triality_factor_tables_are_the_fork_objects():
    tri = Triality()
    for left, delta in ((True, 3), (False, 4)):
        objs = {o.support for o in apartment_objects(tri.geometry, delta)}
        assert {s for side, s in tri._factors if side == left} == objs
    assert all(len(ws) == 1 for ws in tri._factors.values())
    s3 = tri.geometry.delta_space(3).support
    s4 = tri.geometry.delta_space(4).support
    # a fork object of the other type is bad input, refused before the
    # factor tables are read
    with pytest.raises(ValueError, match="^not an object of type 3$"):
        tri.psi(3, s4)
    with pytest.raises(ValueError, match="^not an object of type 4$"):
        tri.psi(4, s3)


def test_psi_refuses_a_support_of_another_type(dual, tri):
    # each support is made of weights, but is no object of the type given
    e1 = tri.label_weight["e1"]
    s2 = dual.geometry.delta_space(2).support
    for psi, delta, support in ((dual.psi, 3, s2),
                                (tri.psi, 2, {e1}), (tri.psi, 3, {e1})):
        with pytest.raises(ValueError,
                           match="^not an object of type %d$" % delta):
            psi(delta, support)


def test_the_dualities_build_no_diagram_op(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a diagram_duality op was built")

    monkeypatch.setattr(duality, "diagram_duality", forbidden)
    dual, tri = E6Duality(), Triality()
    e1 = tri.label_weight["e1"]
    s2 = dual.geometry.delta_space(2).support
    for psi, delta, support in ((dual.psi, 3, s2),
                                (tri.psi, 2, {e1}), (tri.psi, 3, {e1})):
        with pytest.raises(ValueError,
                           match="^not an object of type %d$" % delta):
            psi(delta, support)
    assert dual.psi(1, dual.geometry.delta_space(1).support) == (
        6, dual.geometry.delta_space(6).support)
    g = tri.geometry
    assert tri.psi(1, g.delta_space(1).support) == (
        3, g.delta_space(3).support)


def test_psi_and_the_diagram_op_refuse_a_delta_off_the_diagram(dual, tri):
    for owner, deltas in ((dual, (0, 7)), (tri, (0, 5))):
        rank = owner.rs.rank
        op = diagram_duality(owner.geometry, tuple(range(1, rank + 1)))
        for f in (owner.psi, op):
            for delta in deltas:
                with pytest.raises(ValueError,
                                   match="^node %d out of range$" % delta):
                    f(delta, {owner.geometry.hw})


@pytest.mark.parametrize("delta", [1, 2, 3, 4])
def test_triality_psi_rejects_a_non_weight(tri, delta):
    message = r"^\(9, 9, 9, 9\) is not a weight here$"
    for support in ({(9, 9, 9, 9)}, {(9, 9, 9, 9), (1, 0, 0, 0)}):
        with pytest.raises(ValueError, match=message):
            tri.psi(delta, support)


def test_d4_chamber_automorphism(tri):
    assert tri.PHI == {1: 3, 2: 2, 3: 4, 4: 1}
    assert chamber_automorphism_check(tri.geometry, tri.psi)


def test_dn_swap_automorphism():
    # on the D_n vector weights the fork swap is the coordinate swap
    for name in ("D4", "D5"):
        g = Geometry(RootSystem.named(name), 1)
        n = g.rs.rank
        perm = tuple(range(1, n - 1)) + (n, n - 1)
        op = diagram_duality(g, perm)
        assert chamber_automorphism_check(g, op)

        def swap(w):
            return w[:n - 2] + (w[n - 1], w[n - 2])

        for d in range(1, n + 1):
            for o in apartment_objects(g, d):
                assert op(d, o.support) == (
                    perm[d - 1], frozenset(swap(w) for w in o.support))


# diagram dualities from barycenters


def _all_objects(g):
    return [o for d in range(1, g.rs.rank + 1)
            for o in apartment_objects(g, d)]


def _lookup_duality(g, perm, objs):
    """The same map found from every apartment object, objs being
    _all_objects(g), through a {(type, barycenter / c_type): support}
    dict, as an oracle."""
    rng = range(1, g.rs.rank + 1)
    scale = {d: barycenter(g.delta_space(d).support)[d - 1] for d in rng}

    def point(delta, support):
        return tuple(x // scale[delta] for x in barycenter(support))

    supports = {(o.delta, point(o.delta, o.support)): o.support for o in objs}

    def op(delta, support):
        u = point(delta, support)
        image = tuple(u[perm.index(i)] for i in rng)
        return perm[delta - 1], supports.get((perm[delta - 1], image))

    return op


def test_diagram_duality_is_the_e6_duality(dual):
    perm = tuple(dual.PHI[i] for i in range(1, 7))
    op = diagram_duality(dual.geometry, perm)
    objs = _all_objects(dual.geometry)
    assert len(objs) == 1278
    for o in objs:
        assert op(o.delta, o.support) == dual.psi(o.delta, o.support)


def test_diagram_duality_is_triality(tri):
    perm = tuple(tri.PHI[i] for i in range(1, 5))
    op = diagram_duality(tri.geometry, perm)
    objs = _all_objects(tri.geometry)
    assert len(objs) == 48
    for o in objs:
        assert op(o.delta, o.support) == tri.psi(o.delta, o.support)


# every geometry of A2-A8, D4-D8 and E6, each with a nontrivial diagram
# automorphism
EVERY_AUTOMORPHIC = [(name, beta) for name in (
    ["A%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(4, 9)]
    + ["E6"])
    for beta in range(1, int(name[1:]) + 1)]
AUTOMORPHIC = [(name, beta) for name, beta in EVERY_AUTOMORPHIC
               if weyl_dimension(RootSystem.named(name),
                                 RootSystem.named(name).fundamental_weight(
                                     beta)) <= 1000]


def _other_automorphisms(rs):
    identity = tuple(range(1, rs.rank + 1))
    return [p for p in rs.diagram_automorphisms() if p != identity]


@pytest.mark.parametrize("name,beta", AUTOMORPHIC,
                         ids=["%s-%d" % c for c in AUTOMORPHIC])
def test_diagram_duality_agrees_with_the_apartment_lookup(name, beta):
    g = Geometry(RootSystem.named(name), beta)
    objs = _all_objects(g)
    for perm in _other_automorphisms(g.rs):
        op, oracle = diagram_duality(g, perm), _lookup_duality(g, perm, objs)
        for o in objs:
            assert op(o.delta, o.support) == oracle(o.delta, o.support), perm


def test_diagram_duality_images_do_not_depend_on_the_order_asked():
    # op remembers the images along each reduction; a fresh op asked in
    # reverse order reaches those points from the other end
    g = Geometry(RootSystem.named("D8"), 3)
    objs = _all_objects(g)
    assert len(objs) == 5536
    perm = (1, 2, 3, 4, 5, 6, 8, 7)
    op, op2 = diagram_duality(g, perm), diagram_duality(g, perm)
    forward = [op(o.delta, o.support) for o in objs]
    backward = [op2(o.delta, o.support) for o in reversed(objs)]
    assert forward == backward[::-1]
    assert all(s is not None for _, s in forward)


def test_diagram_duality_gives_no_image_to_a_non_object(dual):
    # random supports of each type's size that are no object: a barycenter
    # c_delta does not divide once floored onto W.omega_delta, so the
    # images must be checked to be None, not only the floors
    g = dual.geometry
    op = diagram_duality(g, tuple(dual.PHI[i] for i in range(1, 7)))
    objs = {(o.delta, o.support) for o in _all_objects(g)}
    weights = sorted(g.weights)
    rng = random.Random(17)
    tried = floored = 0
    for d in range(1, 7):
        std = g.delta_space(d).support
        c = barycenter(std)[d - 1]
        for _ in range(3000):
            s = frozenset(rng.sample(weights, len(std)))
            if (d, s) in objs:
                continue
            tried += 1
            x = barycenter(s)
            floor = g.rs.dominant_rep(tuple(a // c for a in x))
            floored += (any(a % c for a in x)
                        and floor == g.rs.fundamental_weight(d))
            assert op(d, s) == (dual.PHI[d], None), (d, sorted(s))
    assert tried > 10_000 and floored > 100


def test_diagram_duality_rejects_a_non_weight(dual):
    # these two sum to the barycenter of the standard 3-object, which the
    # barycenter alone would take for it
    perm = tuple(dual.PHI[i] for i in range(1, 7))
    op = diagram_duality(dual.geometry, perm)
    support = {(4, 5, 6, 5, 5, 5), (-4, -5, -5, -5, -5, -5)}
    s3 = dual.geometry.delta_space(3).support
    assert barycenter(support) == barycenter(s3)
    for f in (op, dual.psi):
        with pytest.raises(ValueError, match="is not a weight here"):
            f(3, support)


def test_diagram_duality_gives_no_image_to_a_support_of_another_size(tri):
    # D4 beta = 2: the weight 0 adds nothing to a barycenter
    g = Geometry(tri.rs, 2)
    assert (0,) * 4 in g.weights
    perm = tuple(tri.PHI[i] for i in range(1, 5))
    op = diagram_duality(g, perm)
    for d in range(1, 5):
        for o in apartment_objects(g, d):
            assert op(d, o.support)[1] is not None
            if (0,) * 4 not in o.support:
                bigger = o.support | {(0,) * 4}
                assert op(d, bigger) == (perm[d - 1], None), d
            assert op(d, sorted(o.support)[1:]) == (perm[d - 1], None), d


@pytest.mark.parametrize("beta", [1, 2, 3])
def test_off_the_diagram_both_maps_miss_on_the_same_objects(beta):
    # nodes 1 and 2 of E6 have different neighbours
    g = Geometry(RootSystem.named("E6"), beta)
    perm = (2, 1, 3, 4, 5, 6)
    objs = _all_objects(g)
    op, oracle = diagram_duality(g, perm), _lookup_duality(g, perm, objs)
    images = [op(o.delta, o.support) for o in objs]
    assert images == [oracle(o.delta, o.support) for o in objs]
    assert any(s is None for _, s in images)
    assert any(s is not None for _, s in images)


@pytest.mark.parametrize("name,beta", EVERY_AUTOMORPHIC,
                         ids=["%s-%d" % c for c in EVERY_AUTOMORPHIC])
def test_every_diagram_automorphism_is_a_chamber_automorphism(name, beta):
    g = Geometry(RootSystem.named(name), beta)
    perms = _other_automorphisms(g.rs)
    assert perms
    for perm in perms:
        assert chamber_automorphism_check(g, diagram_duality(g, perm)), perm


def test_diagram_duality_walks_no_apartment(monkeypatch):
    g = Geometry(RootSystem.named("D8"), 4)
    for d in range(1, 9):
        g.delta_space(d)

    def forbidden(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(geometry, "apartment_objects", forbidden)
    monkeypatch.setattr(geometry, "closure", forbidden)
    monkeypatch.setattr(RootSystem, "orbit", forbidden)
    perm = (1, 2, 3, 4, 5, 6, 8, 7)
    assert chamber_automorphism_check(g, diagram_duality(g, perm))


def test_an_op_that_merges_types_is_no_automorphism(tri):
    g = tri.geometry
    # the rotation with types 1 and 3 both sent to 4, and the rotation with
    # type 3 sent outside the diagram
    merged = {1: 4, 2: 2, 3: 4, 4: 1}
    assert not chamber_automorphism_check(
        g, lambda d, s: (merged[d], tri.psi(d, s)[1]))
    assert not chamber_automorphism_check(
        g, lambda d, s: (5 if d == 3 else tri.PHI[d], tri.psi(d, s)[1]))


def test_a_standard_space_must_go_to_a_standard_space():
    # on A1 an op can commute with s_1 and still move the standard space:
    # (d, S) -> (d, s_1 S_std) is constant, so only the standard-space test
    # refuses it
    g = Geometry(RootSystem.named("A1"), 1)
    std = g.delta_space(1).support
    moved = translate_support(g.rs, 1, std)
    assert moved != std
    assert not chamber_automorphism_check(g, lambda d, s: (d, moved))
    assert chamber_automorphism_check(g, lambda d, s: (d, frozenset(s)))


def test_a_node_swap_off_the_diagram_is_no_automorphism(dual):
    # nodes 1 and 2 of E6 have different neighbours
    perm = (2, 1, 3, 4, 5, 6)
    assert perm not in dual.rs.diagram_automorphisms()
    assert not chamber_automorphism_check(
        dual.geometry, diagram_duality(dual.geometry, perm))


# orbit bookkeeping


def test_wprime_orbits_d4_halfspin():
    rs = RootSystem.named("D4")
    w3 = set(irrep_character(rs, (0, 0, 1, 0)).weights)
    orbits = wprime_orbits(rs, 4, w3)
    assert [len(o) for o in orbits] == [4, 4]
    tops = [(0, 0, 1, 0) in o for o in orbits]
    bots = [(0, 0, -1, 0) in o for o in orbits]
    assert tops.count(True) == 1 and bots.count(True) == 1
    assert tops != bots
    assert set(orbits[0]) | set(orbits[1]) == w3


def test_zero_sum_triples_e6():
    rs = RootSystem.named("E6")
    wts = set(irrep_character(rs, (1, 0, 0, 0, 0, 0)).weights)
    triples, orbits = zero_sum_triple_orbits(rs, wts, wts, wts)
    assert len(triples) == 270
    assert [len(o) for o in orbits] == [270]
    for a, b, c in triples:
        assert all(x + y + z == 0 for x, y, z in zip(a, b, c))


def test_zero_sum_triples_d4():
    rs = RootSystem.named("D4")
    w1 = set(irrep_character(rs, (1, 0, 0, 0)).weights)
    w3 = set(irrep_character(rs, (0, 0, 1, 0)).weights)
    w4 = set(irrep_character(rs, (0, 0, 0, 1)).weights)
    triples, orbits = zero_sum_triple_orbits(rs, w1, w3, w4)
    assert len(triples) == 32
    assert [len(o) for o in orbits] == [32]


def test_orbit_partitions_refuse_a_set_an_orbit_leaves():
    # D4's 8 vector weights minus the lowest: the W' orbit of the highest
    # weight, and the diagonal orbit of the zero-sum triples, leave the set
    rs = RootSystem.named("D4")
    wts = set(irrep_character(rs, (1, 0, 0, 0)).weights)
    cut = wts - {(-1, 0, 0, 0)}
    with pytest.raises(ConsistencyError, match="^an orbit left the given "
                                               "set$"):
        wprime_orbits(rs, 4, cut)
    w3 = set(irrep_character(rs, (0, 0, 1, 0)).weights)
    w4 = set(irrep_character(rs, (0, 0, 0, 1)).weights)
    with pytest.raises(ConsistencyError, match="^an orbit left the given "
                                               "set$"):
        zero_sum_triple_orbits(rs, cut, w3, w4)


# the 56-weight system


@pytest.fixture(scope="module")
def ge7():
    return Geometry(RootSystem.named("E7"), 7)


def test_e7_rank_one(ge7):
    assert e7_rank_one_check(ge7)


def test_e7_inner_ideals(ge7):
    for delta in range(1, 8):
        assert e7_inner_ideal_check(ge7, delta)


def test_e7_inner_ideal_control(ge7):
    # a set holding both extreme weights cannot be closed: their sum with
    # any third weight lands back in the weight set
    hw = ge7.hw
    loose = frozenset({hw, tuple(-x for x in hw)})

    class Fake:
        weights = ge7.weights

        class _Sp:
            def __init__(self, sup):
                self.support = sup

        def delta_space(self, d):
            return Fake._Sp(loose)

    assert not e7_inner_ideal_check(Fake(), 1)
