import itertools

import pytest

from weylgeom.charring import dominant_weights_below
from weylgeom.rootsystem import (
    ConsistencyError,
    RootSystem,
    closure,
    family_cartan,
    symmetrizer,
)

# every named system of rank at most 8
SYSTEMS = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
           + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(3, 9)]
           + ["E6", "E7", "E8", "F4", "G2"])


def test_family_cartan_fixtures():
    assert family_cartan("A", 2) == ((2, -1), (-1, 2))
    assert family_cartan("B", 2) == ((2, -2), (-1, 2))
    assert family_cartan("C", 2) == ((2, -1), (-2, 2))
    assert family_cartan("G", 2) == ((2, -1), (-3, 2))
    f4 = family_cartan("F", 4)
    assert f4[1][2] == -2 and f4[2][1] == -1
    e6 = family_cartan("E", 6)
    assert e6[0][2] == -1 and e6[1][3] == -1 and e6[0][1] == 0


def test_symmetrizer_tables():
    assert symmetrizer(family_cartan("B", 4)) == (2, 2, 2, 1)
    assert symmetrizer(family_cartan("C", 4)) == (1, 1, 1, 2)
    assert symmetrizer(family_cartan("F", 4)) == (2, 2, 1, 1)
    assert symmetrizer(family_cartan("G", 2)) == (1, 3)
    assert symmetrizer(family_cartan("E", 7)) == (1,) * 7


def test_named_parsing_and_ranges():
    assert RootSystem.named("e6").label == "E6"
    with pytest.raises(ValueError):
        RootSystem.named("E9")
    with pytest.raises(ValueError):
        RootSystem.named("D2")
    with pytest.raises(ValueError):
        RootSystem.named("H4")


@pytest.mark.parametrize("name,count", [
    ("A1", 1), ("A5", 15), ("B2", 4), ("B4", 16), ("C3", 9), ("C4", 16),
    ("D4", 12), ("D5", 20), ("E6", 36), ("E7", 63), ("E8", 120),
    ("F4", 24), ("G2", 6),
])
def test_positive_root_counts(name, count):
    assert len(RootSystem.named(name).positive_roots) == count


@pytest.mark.parametrize("name,simple,fw", [
    ("E6", (1, 2, 2, 3, 2, 1), (0, 1, 0, 0, 0, 0)),
    ("E7", (2, 2, 3, 4, 3, 2, 1), (1, 0, 0, 0, 0, 0, 0)),
    ("G2", (3, 2), (0, 1)),
    ("F4", (2, 3, 4, 2), (1, 0, 0, 0)),
    ("B3", (1, 2, 2), (0, 1, 0)),
    ("A3", (1, 1, 1), (1, 0, 1)),
])
def test_highest_root(name, simple, fw):
    rs = RootSystem.named(name)
    assert rs.highest_root == simple
    assert rs.root_fw(simple) == fw


def test_reflection_fixture():
    e6 = RootSystem.named("E6")
    assert e6.reflect(1, (1, 0, 0, 0, 0, 0)) == (-1, 0, 1, 0, 0, 0)
    # s_i is an involution
    w = (3, -1, 2, 0, 5, -2)
    for i in range(1, 7):
        assert e6.reflect(i, e6.reflect(i, w)) == w


@pytest.mark.parametrize("name,weight,size", [
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
    ("D4", (1, 0, 0, 0), 8),
    ("A2", (1, 1), 6),
    ("G2", (1, 0), 6),
    ("B3", (1, 0, 0), 6),
])
def test_orbit_sizes(name, weight, size):
    rs = RootSystem.named(name)
    orbit = rs.weyl_orbit(weight)
    assert len(orbit) == size
    assert rs.dominant_rep(weight) in orbit
    assert sorted(orbit, reverse=True) == orbit
    assert len(set(orbit)) == size


def test_dominant_and_antidominant():
    a2 = RootSystem.named("A2")
    assert a2.dominant_rep((-1, 2)) == (1, 1)
    assert a2.antidominant_rep((1, 1)) == (-1, -1)
    d4 = RootSystem.named("D4")
    for w in d4.weyl_orbit((1, 0, 0, 0)):
        assert d4.dominant_rep(w) == (1, 0, 0, 0)


@pytest.mark.parametrize("name,perm", [
    ("A2", (2, 1)),
    ("A3", (3, 2, 1)),
    ("D4", (1, 2, 3, 4)),
    ("D5", (1, 2, 3, 5, 4)),
    ("E6", (6, 2, 5, 4, 3, 1)),
    ("E7", (1, 2, 3, 4, 5, 6, 7)),
    ("B3", (1, 2, 3)),
])
def test_minus_w0(name, perm):
    assert RootSystem.named(name).minus_w0() == perm


def test_dual_weight():
    e6 = RootSystem.named("E6")
    assert e6.dual_weight((1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert e6.dual_weight((0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("name,order", [
    ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("B3", 48), ("D4", 192),
])
def test_weyl_order(name, order):
    # rho is regular, so its orbit is a regular orbit of W
    rs = RootSystem.named(name)
    assert len(rs.weyl_orbit(rs.rho)) == order


@pytest.mark.parametrize("name", [n for n in SYSTEMS if int(n[1:]) <= 4])
def test_orbit_size_matches_orbit(name):
    rs = RootSystem.named(name)
    for w in itertools.product((0, 1), repeat=rs.rank):
        assert rs.orbit_size(w) == len(rs.weyl_orbit(w)), w
    # a weight off the dominant chamber has the size of its dominant form
    w = rs.reflect(1, rs.rho)
    assert rs.orbit_size(w) == rs.orbit_size(rs.rho)


@pytest.mark.parametrize("name,order", [
    ("E6", 51840), ("E7", 2903040), ("E8", 696729600), ("F4", 1152),
    ("G2", 12),
])
def test_exceptional_weyl_group_orders(name, order):
    rs = RootSystem.named(name)
    assert rs.orbit_size(rs.rho) == order
    assert rs.orbit_size(rs.zero()) == 1


def _reflection_words(rs, w):
    return closure([w], lambda v: ((i, rs.reflect(i, v))
                                   for i in range(1, rs.rank + 1)))


def _act(rs, word, w):
    for i in reversed(word):
        w = rs.reflect(i, w)
    return w


def test_orbit_with_words():
    d4 = RootSystem.named("D4")
    words = _reflection_words(d4, (1, 0, 0, 0))
    assert len(words) == 8
    for weight, word in words.items():
        assert _act(d4, word, (1, 0, 0, 0)) == weight


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2", "D4"])
def test_closure_words_are_reduced(name):
    # on the regular orbit of rho a shortest word is a reduced word of the
    # element x with x(rho) = w, so its length is the number of positive
    # roots alpha with (w, alpha) < 0, and the longest has |positive roots|
    rs = RootSystem.named(name)
    words = _reflection_words(rs, rs.rho)
    for w, word in words.items():
        assert _act(rs, word, rs.rho) == w
        assert len(word) == sum(1 for q in rs.positive_roots
                                if rs.pair_root(w, q) < 0)
    assert max(len(word) for word in words.values()) == len(rs.positive_roots)


def test_closure_on_a_path():
    # 0 - 1 - 2 - 3 - 4 from two seeds; labels name the direction
    words = closure([0, 4], lambda i: [(d, i + d) for d in (1, -1)
                                       if 0 <= i + d <= 4])
    assert words == {0: (), 4: (), 1: (1,), 3: (-1,), 2: (1, 1)}


def test_delta_component_e6():
    e6 = RootSystem.named("E6")
    assert e6.delta_component(1, 1) == frozenset()
    assert e6.delta_component(1, 3) == {1}
    assert e6.delta_component(1, 4) == {1, 3}
    assert e6.delta_component(1, 5) == {1, 2, 3, 4}
    assert e6.delta_component(1, 2) == {1, 3, 4, 5, 6}
    assert e6.delta_component(1, 6) == {1, 2, 3, 4, 5}


def test_delta_component_e7():
    e7 = RootSystem.named("E7")
    assert e7.delta_component(7, 1) == {2, 3, 4, 5, 6, 7}
    assert e7.delta_component(7, 3) == {2, 4, 5, 6, 7}
    assert e7.delta_component(7, 6) == {7}


@pytest.mark.parametrize("name,nodes,label", [
    ("E6", (1, 2, 3, 4, 5), "D5"),
    ("E6", (1, 2, 3, 4), "A4"),
    ("E7", (2, 3, 4, 5, 6, 7), "D6"),
    ("F4", (3, 4), "A2"),
    ("F4", (2, 3), "B2"),
    ("B4", (1, 2, 3), "A3"),
    ("B4", (2, 3, 4), "B3"),
    ("C4", (2, 3, 4), "C3"),
    ("G2", (1,), "A1"),
    ("E8", (1, 2, 3, 4, 5, 6, 7), "E7"),
    ("D5", (2, 3, 4, 5), "D4"),
])
def test_classify_subdiagrams(name, nodes, label):
    rs = RootSystem.named(name)
    sub, order = rs.restricted(nodes)
    assert order == tuple(sorted(nodes))
    assert sub.classify() == label


@pytest.mark.parametrize("name,count", [
    ("A1", 1), ("A3", 2), ("D4", 6), ("D5", 2), ("E6", 2), ("E7", 1),
    ("B3", 1), ("C3", 1), ("F4", 1), ("G2", 1),
])
def test_diagram_automorphism_counts(name, count):
    assert len(RootSystem.named(name).diagram_automorphisms()) == count


def test_simple_coords():
    e6 = RootSystem.named("E6")
    theta = e6.root_fw(e6.highest_root)
    assert e6.simple_coords_int(theta) == (1, 2, 2, 3, 2, 1)
    # omega_1 is not in the E6 root lattice, but 3*omega_1 is
    n, _ = e6.cartan_inverse
    assert n == 3
    with pytest.raises(ConsistencyError):
        e6.simple_coords_int((1, 0, 0, 0, 0, 0))
    assert e6.simple_coords_int((3, 0, 0, 0, 0, 0)) == (4, 3, 5, 6, 4, 2)


@pytest.mark.parametrize("name", SYSTEMS)
def test_simple_coords_invert_root_fw(name):
    rs = RootSystem.named(name)
    for q in rs.positive_roots:
        assert rs.simple_coords_int(rs.root_fw(q)) == q
        assert rs.simple_coords_int(rs.root_fw([-x for x in q])) == \
            tuple(-x for x in q)


@pytest.mark.parametrize("name", SYSTEMS)
def test_scaled_norm_of_roots(name):
    rs = RootSystem.named(name)
    n, _ = rs.cartan_inverse
    for q in rs.positive_roots:
        assert rs.scaled_norm2(rs.root_fw(q)) == n * rs.root_norm2(q)


@pytest.mark.parametrize("name", SYSTEMS)
def test_off_lattice_weights_raise(name):
    # a dominant weight lies in the root lattice exactly when 0 is one of
    # the dominant weights below it, which needs no inverse matrix
    rs = RootSystem.named(name)
    n, _ = rs.cartan_inverse
    outside = 0
    for i in range(1, rs.rank + 1):
        w = rs.fundamental_weight(i)
        if rs.zero() in dominant_weights_below(rs, w):
            rs.simple_coords_int(w)
            continue
        outside += 1
        for v in (w, tuple(a + b for a, b in zip(w, rs.alpha_fw(i)))):
            with pytest.raises(ConsistencyError):
                rs.simple_coords_int(v)
        rs.simple_coords_int(tuple(n * x for x in w))
    # only E8, F4 and G2 have root lattice = weight lattice
    assert (outside == 0) == (name in ("E8", "F4", "G2")) == (n == 1)


def test_norms_and_pairings():
    g2 = RootSystem.named("G2")
    short = (1, 0)
    long_ = (0, 1)
    assert g2.root_norm2(short) == 2
    assert g2.root_norm2(long_) == 6
    b2 = RootSystem.named("B2")
    assert b2.root_norm2((0, 1)) == 2
    assert b2.root_norm2((1, 0)) == 4
    # (rho, rho) = 2 for A2, and n = 3
    a2 = RootSystem.named("A2")
    assert a2.cartan_inverse == (3, ((2, 1), (1, 2)))
    assert a2.scaled_norm2((1, 1)) == 6


def test_norm2_shift_diff_matches_scaled_norms():
    e6 = RootSystem.named("E6")
    n, _ = e6.cartan_inverse
    lam = (1, 0, 0, 0, 0, 0)
    theta = e6.root_fw(e6.highest_root)
    mu = tuple(a - b for a, b in zip(lam, theta))
    direct = e6.norm2_shift_diff(lam, mu)
    rho = e6.rho
    scaled = (e6.scaled_norm2(tuple(a + b for a, b in zip(lam, rho)))
              - e6.scaled_norm2(tuple(a + b for a, b in zip(mu, rho))))
    assert n * direct == scaled


def test_restricted_levi_dimension_data():
    # the sub root system inherits the parent's d values
    f4 = RootSystem.named("F4")
    sub, nodes = f4.restricted((1, 2))
    assert nodes == (1, 2)
    assert sub.d == (2, 2)
    assert sub.classify() == "A2"
