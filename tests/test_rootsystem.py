import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from weylgeom import charring, rootsystem
from weylgeom.charring import (
    dominant_weights_below,
    irrep_character,
    weyl_dimension,
)
from weylgeom.rootsystem import (
    MAX_WEIGHTS,
    ConsistencyError,
    RefusedError,
    RootSystem,
    closure,
    family_cartan,
    symmetrizer,
)

from root_reference import pair_root, root_fw, root_norm2

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
    # least integers on each component of C2 + G2
    c2g2 = [[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]]
    assert symmetrizer(c2g2) == (1, 2, 1, 3)


def test_symmetrizer_refuses_a_non_symmetrizable_matrix():
    with pytest.raises(ValueError, match="not symmetrizable"):
        RootSystem([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])


def test_symmetrizer_takes_the_least_integers():
    # d_1 = 1 forces (1, 3, 3/2); the least integers are (2, 6, 3).  A
    # chain with a triple and a double bond is not of finite type
    rs = RootSystem([[2, -1, 0], [-3, 2, -2], [0, -1, 2]])
    assert rs.d == (2, 6, 3)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not of finite type"):
        rs.positive_roots
    assert time.perf_counter() - start < 1


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


def test_positive_roots_are_read_off_the_root_rows():
    # root_rows is the one per-root table: positive_roots reads its q
    # column afresh and is not stored
    rs = RootSystem.named("F4")
    assert rs.positive_roots == [q for _, q, _, _, _ in rs.root_rows[0]]
    assert rs.positive_roots is not rs.positive_roots
    assert "positive_roots" not in vars(rs)


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
    assert root_fw(rs, simple) == fw


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
    r = RootSystem.named(name)
    for i in range(1, r.rank + 1):
        assert (r.dual_weight(r.fundamental_weight(i))
                == r.fundamental_weight(perm[i - 1]))


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


def _node_sets(rs, rng):
    """Every set of nodes up to rank 6; above it, twelve seeded ones."""
    nodes = range(1, rs.rank + 1)
    if rs.rank <= 6:
        return [J for r in range(rs.rank + 1)
                for J in itertools.combinations(nodes, r)]
    return [tuple(i for i in nodes if rng.random() < 0.5) for _ in range(12)]


@pytest.mark.parametrize("name", [n for n in SYSTEMS if int(n[1:]) <= 6]
                         + ["E7", "E8"])
def test_parabolic_orbits_of_roots(name):
    # W_J permutes the positive roots off J, and each W_J-orbit of roots
    # holds one J-dominant root alpha, of |W_J| / |W_J'| roots, J' the
    # nodes of J orthogonal to alpha: so the orbit sizes add up to |Phi+|
    # when the orbits inside J count half, and to |Phi| over all of Phi
    rs = RootSystem.named(name)
    rng = random.Random(name)
    assert rs.parabolic_order(()) == 1
    assert rs.parabolic_order(range(1, rs.rank + 1)) == rs.orbit_size(rs.rho)
    roots = [(q, fw) for _, q, fw, _, _ in rs.root_rows[0]]
    roots += [(tuple(-x for x in q), tuple(-x for x in fw))
              for q, fw in roots]
    for J in _node_sets(rs, rng):
        size = {fw: rs.parabolic_order(J) // rs.parabolic_order(
            [i for i in J if fw[i - 1] == 0])
            for _, fw in roots if all(fw[i - 1] >= 0 for i in J)}
        twice = 0
        for q, fw in roots[:len(rs.positive_roots)]:
            if fw in size:
                on_j = all(i in J for i, x in enumerate(q, 1) if x)
                twice += size[fw] if on_j else 2 * size[fw]
        assert twice == 2 * len(rs.positive_roots), J
        assert sum(size.values()) == len(roots), J
        if rs.rank <= 6:
            # the orbits themselves, walked by the simple reflections of J
            seen = set()
            for _, fw in roots:
                if fw not in seen:
                    orbit = closure([fw], lambda v: (rs.reflect(i, v)
                                                     for i in J))
                    seen.update(orbit)
                    tops = [v for v in orbit if v in size]
                    assert len(tops) == 1 and len(orbit) == size[tops[0]]


def _textbook_exponents(name):
    """Bourbaki, Lie IV-VI, Planches I-IX."""
    family, n = name[0], int(name[1:])
    if family == "A":
        return list(range(1, n + 1))
    if family in "BC":
        return list(range(1, 2 * n, 2))
    if family == "D":
        return sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])
    return {"E6": [1, 4, 5, 7, 8, 11], "E7": [1, 5, 7, 9, 11, 13, 17],
            "E8": [1, 7, 11, 13, 17, 19, 23, 29], "F4": [1, 5, 7, 11],
            "G2": [1, 5]}[name]


@pytest.mark.parametrize("name", SYSTEMS)
def test_exponents_are_the_textbook_ones(name):
    rs = RootSystem.named(name)
    assert list(rs.exponents) == _textbook_exponents(name)
    # they add up to the number of positive roots; |W| is prod (e_i + 1)
    assert sum(rs.exponents) == len(rs.positive_roots)
    assert rs.orbit_size(rs.rho) == math.prod(e + 1 for e in rs.exponents)


def _negative_roots(rs, w):
    """#{alpha > 0 : (w, alpha) < 0}, the length of the shortest x in W
    with w = x(w+) for w+ dominant (Humphreys, Reflection Groups and
    Coxeter Groups, 1.6-1.7)."""
    return sum(1 for q in rs.positive_roots if pair_root(rs, w, q) < 0)


def _reflection_levels(rs, w):
    return closure([w], lambda v: (rs.reflect(i, v)
                                   for i in range(1, rs.rank + 1)))


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2", "D4"])
def test_closure_words_are_reduced(name):
    # a closure level is the length of a reduced word: on the orbit of a
    # dominant weight, the level of w is the number of positive roots alpha
    # with (w, alpha) < 0; on the regular orbit of rho the longest level is
    # the number of positive roots
    rs = RootSystem.named(name)
    seeds = [rs.rho] + [rs.fundamental_weight(i)
                        for i in range(1, rs.rank + 1)]
    for seed in seeds:
        levels = _reflection_levels(rs, seed)
        assert len(levels) == rs.orbit_size(seed)
        for w, level in levels.items():
            assert level == _negative_roots(rs, w), (seed, w)
        # the tree walk reaches the same weights at the same levels
        assert _walk_levels(rs, seed) == levels
    levels = _reflection_levels(rs, rs.rho)
    assert max(levels.values()) == len(rs.positive_roots)


def _walk_levels(rs, top):
    # each parent is read back from its position among the weights walked
    levels, walked = {top: 0}, [top]
    for y, level, p, i in rs.orbit_steps(top):
        x = walked[p]
        assert y not in levels and levels[x] == level - 1
        assert y == rs.reflect(i, x)
        levels[y] = level
        walked.append(y)
    return levels


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poincare(rs):
    """W(q) = prod [e_i + 1]_q, coefficients from q^0 up."""
    p = [1]
    for e in rs.exponents:
        p = _poly_mul(p, [1] * (e + 1))
    return p


# every (system, delta) of rank <= 8 whose orbit W.omega_delta has at most
# 20,000 weights
LEVEL_CASES = [(name, delta) for name in SYSTEMS
               for delta in range(1, int(name[1:]) + 1)
               if RootSystem.named(name).orbit_size(
                   RootSystem.named(name).fundamental_weight(delta)) <= 20_000]


@pytest.mark.parametrize("name,delta", LEVEL_CASES,
                         ids=["%s-%d" % c for c in LEVEL_CASES])
def test_walk_levels_count_the_minimal_coset_representatives(name, delta):
    # the levels of W.omega_delta are the lengths of the minimal coset
    # representatives of W/W_J, J the nodes other than delta, so
    # sum q^level = W(q)/W_J(q) (Humphreys, Reflection Groups and Coxeter
    # Groups, 1.11 and 3.15); compared as sum q^level * W_J(q) = W(q)
    rs = RootSystem.named(name)
    counts = [1]
    for _, level, _, _ in rs.orbit_steps(rs.fundamental_weight(delta)):
        if level == len(counts):
            counts.append(0)
        counts[level] += 1
    rest = [i for i in range(1, rs.rank + 1) if i != delta]
    levi = _poincare(rs.restricted(rest)[0]) if rest else [1]
    assert _poly_mul(counts, levi) == _poincare(rs)


def test_level_cases_cover_the_small_orbits():
    # D3 = A3 counted under both names
    assert len(LEVEL_CASES) == 162
    assert ("E7", 4) in LEVEL_CASES and ("E8", 4) not in LEVEL_CASES


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "A4", "B4", "D4",
                                  "F4", "D5", "E6"])
def test_walk_does_not_depend_on_the_node_numbering(name):
    # node a of the relabelled system is node p[a] here; every weight and
    # its level come out the same, though the tree may differ
    rs = RootSystem.named(name)
    perms = list(itertools.permutations(range(rs.rank)))
    if len(perms) > 24:
        perms = random.Random(name).sample(perms, 24)
    tops = [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
    tops += [rs.rho] * (rs.orbit_size(rs.rho) <= 2000)
    for p in perms:
        other = RootSystem([[rs.cartan[a][b] for b in p] for a in p])
        for top in tops:
            moved = tuple(top[a] for a in p)
            back = {}
            for y, level in _walk_levels(other, moved).items():
                w = [0] * rs.rank
                for a, c in zip(p, y):
                    w[a] = c
                back[tuple(w)] = level
            assert back == _walk_levels(rs, top), (p, top)


def test_walking_an_orbit_reflects_nothing_and_repeats_nothing(monkeypatch):
    e7 = RootSystem.named("E7")
    top = e7.fundamental_weight(4)

    def refuse(self, i, w):
        raise AssertionError("reflect called")
    monkeypatch.setattr(RootSystem, "reflect", refuse)
    walked = [y for y, _, _, _ in e7.orbit_steps(top)]
    assert len(walked) == e7.orbit_size(top) - 1 == 10_079
    assert len(set(walked)) == len(walked) and top not in walked


@pytest.mark.parametrize("top,message", [
    ((-1, 1), r"^\(-1, 1\) is not dominant$"),
    ((1, 0, 0), r"^\(1, 0, 0\) is not a weight of rank 2$"),
    ((1.5, 0), r"^\(1\.5, 0\) is not a weight of rank 2$")])
def test_orbit_walk_refuses_a_top_that_is_no_dominant_weight(top, message):
    # each of these once walked: one step of a 3-point orbit, rank-3
    # tuples and floats
    with pytest.raises(ValueError, match=message):
        list(RootSystem.named("A2").orbit_steps(top))


def test_orbit_walk_checks_its_top_once(monkeypatch):
    e7 = RootSystem.named("E7")
    calls = []
    check = RootSystem.check_weight

    def counted(self, w, dominant=False):
        calls.append(dominant)
        return check(self, w, dominant)
    monkeypatch.setattr(RootSystem, "check_weight", counted)
    assert sum(1 for _ in e7.orbit_steps(e7.fundamental_weight(4))) == 10_079
    assert calls == [True]


def test_closure_on_a_path():
    # 0 - 1 - 2 - 3 - 4 from two seeds; reached in breadth-first order
    levels = closure([0, 4], lambda i: [i + d for d in (1, -1)
                                        if 0 <= i + d <= 4])
    assert levels == {0: 0, 4: 0, 1: 1, 3: 1, 2: 2}
    assert list(levels) == [0, 4, 1, 3, 2]


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


def _bond_classify(rs):
    """The classifier that classify replaced, kept as an oracle: it reads
    the label off bond orders, branch nodes and arm lengths.  It calls an
    n-cycle A_n, so cycles are left out of the comparison."""
    n = rs.rank
    if not rs.is_connected():
        raise ConsistencyError("classify needs a connected diagram")
    if n == 1:
        return "A1"
    bonds = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            b = rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1]
            if b:
                bonds[(i, j)] = b
    if any(b > 3 for b in bonds.values()):
        raise ConsistencyError("bond order above 3")
    if any(b == 3 for b in bonds.values()):
        if n != 2:
            raise ConsistencyError("triple bond outside rank 2")
        return "G2"
    degree = {i: len(rs.neighbors(i)) for i in range(1, n + 1)}
    doubles = [e for e, b in bonds.items() if b == 2]
    if doubles:
        if len(doubles) != 1 or any(deg > 2 for deg in degree.values()):
            raise ConsistencyError("not a finite diagram")
        if n == 2:
            return "B2"
        (i, j) = doubles[0]
        # C[i][j] == -2 means alpha_j is short
        short_end = j if rs.cartan[i - 1][j - 1] == -2 else i
        short_side = rs.component_of(short_end, set(doubles[0]) - {short_end})
        if n == 4 and len(short_side) == 2:
            return "F4"
        if len(short_side) == 1:
            return "B%d" % n
        if len(short_side) == n - 1:
            return "C%d" % n
        raise ConsistencyError("double bond not at an end")
    branch = [i for i, deg in degree.items() if deg > 2]
    if not branch:
        return "A%d" % n
    if len(branch) > 1 or degree[branch[0]] != 3:
        raise ConsistencyError("not a finite diagram")
    b = branch[0]
    arms = sorted(len(rs.component_of(k, {b})) for k in rs.neighbors(b))
    if arms[0] == 1 and arms[1] == 1:
        return "D%d" % n
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return "E%d" % n
    raise ConsistencyError("not a finite diagram")


def _renumbered(rs, perm):
    return RootSystem([[rs.cartan[i][j] for j in perm] for i in perm])


def _classify_cases():
    """Every connected subdiagram of every named system of rank <= 8, and
    five random renumberings of each system: 770 diagrams."""
    rng = random.Random(9)
    for name in SYSTEMS:
        rs = RootSystem.named(name)
        nodes = range(1, rs.rank + 1)
        for k in nodes:
            for sub in itertools.combinations(nodes, k):
                if rs.is_connected(sub):
                    yield rs.restricted(sub)[0]
        for _ in range(5):
            yield _renumbered(rs, rng.sample(range(rs.rank), rs.rank))


def test_classify_agrees_with_the_bond_classifier():
    cases = list(_classify_cases())
    assert len(cases) == 770
    wrong = [(rs.cartan, rs.classify(), _bond_classify(rs)) for rs in cases
             if rs.classify() != _bond_classify(rs)]
    assert not wrong
    # the family order decides the coinciding pairs A3 = D3 and B2 = C2
    for name, label in (("D3", "A3"), ("C2", "B2"), ("B2", "B2")):
        assert RootSystem.named(name).classify() == label


def _cycle(n):
    return [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", range(3, 9))
def test_classify_refuses_cycles(n):
    rs = RootSystem(_cycle(n))
    assert _bond_classify(rs) == "A%d" % n
    with pytest.raises(ConsistencyError):
        rs.classify()


def test_classify_refuses_disconnected_diagrams():
    with pytest.raises(ConsistencyError):
        RootSystem([[2, 0], [0, 2]]).classify()


# affine and hyperbolic Cartan matrices: none has a finite root system
# (Kac, Infinite-dimensional Lie Algebras, ch. 4)
NON_FINITE = {
    "A1~": [[2, -2], [-2, 2]],
    "A2~": _cycle(3),
    "C2~": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    "D4~": [[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1],
            [0, 0, 0, 2, -1], [-1, -1, -1, -1, 2]],
    "A7~": _cycle(8),
    "hyperbolic": [[2, -3], [-3, 2]],
}


@pytest.mark.parametrize("cartan", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_cartan_matrix_is_refused(cartan):
    rs = RootSystem(cartan)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not of finite type"):
        rs.positive_roots
    assert time.perf_counter() - start < 1
    with pytest.raises(ConsistencyError):
        rs.classify()
    if cartan != NON_FINITE["hyperbolic"]:
        # an affine Cartan matrix is singular
        with pytest.raises(ValueError, match="singular"):
            rs.cartan_inverse


def test_root_coefficients_stay_at_most_six():
    # the finite-type guard in positive_roots sits at E8's largest coefficient
    top = {name: max(map(max, RootSystem.named(name).positive_roots))
           for name in SYSTEMS}
    assert max(top.values()) == top["E8"] == 6


@pytest.mark.parametrize("name,count", [
    ("A1", 1), ("A3", 2), ("D4", 6), ("D5", 2), ("E6", 2), ("E7", 1),
    ("B3", 1), ("C3", 1), ("F4", 1), ("G2", 1),
])
def test_diagram_automorphism_counts(name, count):
    assert len(RootSystem.named(name).diagram_automorphisms()) == count


def _simple_coords(rs, fw):
    """Simple-root coordinates of a fw vector, read off cartan_inverse;
    ValueError off the root lattice."""
    n, m = rs.cartan_inverse
    out = []
    for col in m:
        q, r = divmod(sum(x * y for x, y in zip(fw, col)), n)
        if r:
            raise ValueError("%r is not in the root lattice" % (tuple(fw),))
        out.append(q)
    return tuple(out)


def test_simple_coords():
    e6 = RootSystem.named("E6")
    theta = root_fw(e6, e6.highest_root)
    assert _simple_coords(e6, theta) == (1, 2, 2, 3, 2, 1)
    # omega_1 is not in the E6 root lattice, but 3*omega_1 is
    n, _ = e6.cartan_inverse
    assert n == 3
    with pytest.raises(ValueError):
        _simple_coords(e6, (1, 0, 0, 0, 0, 0))
    assert _simple_coords(e6, (3, 0, 0, 0, 0, 0)) == (4, 3, 5, 6, 4, 2)


@pytest.mark.parametrize("name", SYSTEMS)
def test_simple_coords_invert_root_fw(name):
    rs = RootSystem.named(name)
    n, m = rs.cartan_inverse
    # C . (n*C^-1) == n*I, m[j] being column j of n*C^-1
    assert all(sum(c * x for c, x in zip(rs.cartan[i], m[j]))
               == (n if i == j else 0)
               for i in range(rs.rank) for j in range(rs.rank))
    for q in rs.positive_roots:
        assert _simple_coords(rs, root_fw(rs, q)) == q
        assert _simple_coords(rs, root_fw(rs, [-x for x in q])) == \
            tuple(-x for x in q)


@pytest.mark.parametrize("name", SYSTEMS)
def test_scaled_norm_of_roots(name):
    rs = RootSystem.named(name)
    n, _ = rs.cartan_inverse
    for q in rs.positive_roots:
        assert rs.scaled_norm2(root_fw(rs, q)) == n * root_norm2(rs, q)


@pytest.mark.parametrize("name", SYSTEMS)
def test_off_lattice_weights_raise(name):
    # omega_i is in the root lattice iff n divides omega_i . m[j] for every
    # j, iff 0 is one of the dominant weights below omega_i, which needs no
    # inverse matrix
    rs = RootSystem.named(name)
    n, m = rs.cartan_inverse
    outside = 0
    for i in range(1, rs.rank + 1):
        w = rs.fundamental_weight(i)
        in_lattice = all(col[i - 1] % n == 0 for col in m)
        assert in_lattice == (rs.zero() in dominant_weights_below(rs, w))
        if in_lattice:
            _simple_coords(rs, w)
            continue
        outside += 1
        for v in (w, tuple(a + b for a, b in zip(w, rs.cartan[i - 1]))):
            with pytest.raises(ValueError):
                _simple_coords(rs, v)
        _simple_coords(rs, tuple(n * x for x in w))
    # only E8, F4 and G2 have root lattice = weight lattice
    assert (outside == 0) == (name in ("E8", "F4", "G2")) == (n == 1)


def test_norms_and_pairings():
    g2 = RootSystem.named("G2")
    short = (1, 0)
    long_ = (0, 1)
    assert root_norm2(g2, short) == 2
    assert root_norm2(g2, long_) == 6
    b2 = RootSystem.named("B2")
    assert root_norm2(b2, (0, 1)) == 2
    assert root_norm2(b2, (1, 0)) == 4
    # (rho, rho) = 2 for A2, and n = 3
    a2 = RootSystem.named("A2")
    assert a2.cartan_inverse == (3, ((2, 1), (1, 2)))
    assert a2.scaled_norm2((1, 1)) == 6


def test_restricted_levi_dimension_data():
    # the sub root system reads the least d off its own Cartan matrix
    f4 = RootSystem.named("F4")
    sub, nodes = f4.restricted((1, 2))
    assert nodes == (1, 2)
    assert sub.d == (1, 1)
    assert sub.key == RootSystem.named("A2").key
    assert sub.classify() == "A2"


def _refuse_closure(seeds, step):
    raise AssertionError("closure called")


def _refuse_walk(self, top):
    raise AssertionError("orbit walked")


def test_regular_e8_orbit_is_refused_before_any_work(monkeypatch):
    e8 = RootSystem.named("E8")
    assert e8.orbit_size(e8.rho) == 696_729_600
    monkeypatch.setattr(RootSystem, "orbit_steps", _refuse_walk)
    with pytest.raises(RefusedError):
        e8.weyl_orbit(e8.rho)


def test_orbit_at_the_limit_is_built(monkeypatch):
    a2 = RootSystem.named("A2")
    monkeypatch.setattr(rootsystem, "MAX_WEIGHTS", 6)
    assert len(a2.weyl_orbit((1, 1))) == 6
    monkeypatch.setattr(rootsystem, "MAX_WEIGHTS", 5)
    with pytest.raises(RefusedError):
        a2.weyl_orbit((1, 1))


def test_cartan_matrix_at_the_limit_is_built(monkeypatch):
    # rank^2 entries at most MAX_WEIGHTS, checked before any row is made
    monkeypatch.setattr(rootsystem, "MAX_WEIGHTS", 16)
    assert RootSystem.named("D4").rank == 4
    for name in ("A5", "E6"):
        with pytest.raises(RefusedError, match="has %s entries, more than 16"
                           % (int(name[1]) ** 2)):
            RootSystem.named(name)
    with pytest.raises(ValueError, match="no system E100"):
        RootSystem.named("E100")


@pytest.mark.parametrize("name,node,dim,refused", [
    ("E7", 4, 365_750, False), ("E8", 2, 147_250, False),
    ("E8", 3, 6_696_000, True), ("E8", 4, 6_899_079_264, True),
    ("E8", 5, 146_325_270, True), ("E8", 6, 2_450_240, True),
])
def test_weight_limit_sits_between_the_largest_built_and_refused(
        monkeypatch, name, node, dim, refused):
    system = RootSystem.named(name)
    lam = system.fundamental_weight(node)
    assert weyl_dimension(system, lam) == dim
    assert (dim > MAX_WEIGHTS) == refused
    if refused:
        monkeypatch.setattr(charring, "closure", _refuse_closure)
        monkeypatch.setattr(RootSystem, "orbit_steps", _refuse_walk)
        with pytest.raises(RefusedError):
            irrep_character(system, lam)


# -- the integer linear algebra against the Fraction one it replaced ----------


def _fraction_symmetrizer(cartan):
    """symmetrizer in rational arithmetic, as the oracle."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)

        def step(i):
            for j in range(n):
                if j != i and cartan[i][j]:
                    val = d[i] * cartan[j][i] / cartan[i][j]
                    if d[j] is None:
                        d[j] = val
                    elif d[j] != val:
                        raise ValueError("Cartan matrix is not symmetrizable")
                    yield j

        comp = closure([start], step)
        lcm = math.lcm(*(d[i].denominator for i in comp))
        gcd = math.gcd(*(int(d[i] * lcm) for i in comp))
        for i in comp:
            d[i] = int(d[i] * lcm) // gcd
    return tuple(d)


def _fraction_cartan_inverse(cartan):
    """cartan_inverse by Gauss-Jordan over the rationals, as the oracle."""
    k = len(cartan)
    a = [[Fraction(cartan[i][j]) for j in range(k)] +
         [Fraction(1 if j == i else 0) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("Cartan matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    n = math.lcm(*(x.denominator for row in a for x in row[k:]))
    return n, tuple(tuple(int(a[i][k + j] * n) for i in range(k))
                    for j in range(k))


def _relabelled(cartan, perm):
    return [[cartan[p][q] for q in perm] for p in perm]


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


REDUCIBLE = {
    "A1+A1": _block_sum(family_cartan("A", 1), family_cartan("A", 1)),
    "C2+G2": _block_sum(family_cartan("C", 2), family_cartan("G", 2)),
    "G2+B3+A1": _block_sum(family_cartan("G", 2), family_cartan("B", 3),
                           family_cartan("A", 1)),
    "E6+D4": _block_sum(family_cartan("E", 6), family_cartan("D", 4)),
    "F4+C3": _block_sum(family_cartan("F", 4), family_cartan("C", 3)),
    # nonsingular, with a singular 2x2 leading minor: the elimination
    # has to swap rows
    "swap": [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
}


def _matrices():
    rng = random.Random(5)
    for name in SYSTEMS:
        cartan = RootSystem.named(name).cartan
        yield name, cartan
        for _ in range(2):
            perm = list(range(len(cartan)))
            rng.shuffle(perm)
            yield "%s%r" % (name, perm), _relabelled(cartan, perm)
    for name, cartan in REDUCIBLE.items():
        yield name, cartan
        perm = list(range(len(cartan)))[::-1]
        yield "%s reversed" % name, _relabelled(cartan, perm)


MATRICES = list(_matrices())


@pytest.mark.parametrize("cartan", [c for _, c in MATRICES],
                         ids=[n for n, _ in MATRICES])
def test_integer_linear_algebra_is_the_fraction_one(cartan):
    rs = RootSystem(cartan)
    assert symmetrizer(cartan) == rs.d == _fraction_symmetrizer(cartan)
    n, m = rs.cartan_inverse
    assert (n, m) == _fraction_cartan_inverse(cartan)
    assert math.gcd(n, *(x for col in m for x in col)) == 1


@pytest.mark.parametrize("cartan", [
    [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
    [[2, -1, -2], [-1, 2, -1], [-1, -1, 2]],
])
def test_integer_symmetrizer_refuses_as_the_fraction_one(cartan):
    for fn in (symmetrizer, _fraction_symmetrizer):
        with pytest.raises(ValueError, match="not symmetrizable"):
            fn(cartan)


@pytest.mark.parametrize("cartan", [c for n, c in NON_FINITE.items()
                                    if n != "hyperbolic"],
                         ids=[n for n in NON_FINITE if n != "hyperbolic"])
def test_integer_inverse_refuses_a_singular_matrix_as_the_fraction_one(cartan):
    for fn in (lambda c: RootSystem(c).cartan_inverse,
               _fraction_cartan_inverse):
        with pytest.raises(ValueError, match="singular"):
            fn(cartan)


# -- parsing names without re ------------------------------------------------

NAME_CASES = {
    "E6": "E6", " e6 ": "E6", "E 6": "E6", "\tg\n2 ": "G2", "a10": "A10",
    "D04": "D4", "E6x": None, "6": None, "": None, "Z3": None, "E": None,
    "E-6": None, "E+6": None, "E6 6": None, "EE6": None, "H4": None,
    " ": None, "E 6 ": "E6", "e\x0b7": "E7", "B2.": None,
    # non-ASCII: whitespace counts, as it did for \s; letters do not, nor
    # digits, which the CLI could not echo
    "E\u0666": None, "E\u00a06": "E6", "\u0395" "6": None,
}


@pytest.mark.parametrize("text,label", NAME_CASES.items(),
                         ids=[repr(t) for t in NAME_CASES])
def test_named_accepts_and_refuses(text, label):
    if label is None:
        with pytest.raises(ValueError, match="expected a family name"):
            RootSystem.named(text)
    else:
        assert RootSystem.named(text).label == label


def test_named_accepts_what_the_old_pattern_accepted():
    # every string of up to three characters from an alphabet that covers
    # each class the old pattern ([A-Ga-g])\s*(\d+) tells apart
    for size in range(4):
        for chars in itertools.product("Eeg H06 9\t\x1f-x", repeat=size):
            text = "".join(chars)
            m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", text.strip())
            try:
                got = RootSystem.named(text).label
            except ValueError as e:
                got = ("refused" if "expected a family name" in str(e)
                       else "out of range")
            if m is None:
                assert got == "refused", repr(text)
            elif got != "out of range":
                assert got == "%s%d" % (m.group(1).upper(), int(m.group(2)))


# the sparse orbit walk against the dense-row walk it replaced


def _dense_orbit_steps(rs, top):
    """orbit_steps as it was before it went sparse: every candidate s_i x
    is built from the whole of row i; the parent's walk position is looked
    up by its point."""
    position = {tuple(top): 0}
    frontier, level = [(tuple(top), rs.rank)], 0
    while frontier:
        level += 1
        new = []
        for x, f in frontier:
            for i, (c, row) in enumerate(zip(x, rs.cartan)):
                if c > 0 and (i < f or row[f]):
                    y = tuple([a - c * r for a, r in zip(x, row)])
                    if i < f or min(y[:i]) >= 0:
                        new.append((y, i))
                        position[y] = len(position)
                        yield y, level, position[x], i + 1
        frontier = new


def _sparse_walk_cases():
    for name, delta in LEVEL_CASES:
        rs = RootSystem.named(name)
        yield "%s-%d" % (name, delta), rs.cartan, rs.fundamental_weight(delta)
    for name in SYSTEMS:
        rs = RootSystem.named(name)
        if rs.orbit_size(rs.rho) <= 2000:
            yield "%s rho" % name, rs.cartan, rs.rho
    rng = random.Random(23)
    relabelled = []
    for name in ("B4", "C4", "F4", "G2"):
        cartan = RootSystem.named(name).cartan
        perms = list(itertools.permutations(range(len(cartan))))[1:]
        for perm in rng.sample(perms, min(2, len(perms))):
            relabelled.append(("%s%r" % (name, perm),
                               _relabelled(cartan, perm)))
    relabelled.append(("A2+B2 reversed+A1", _block_sum(
        family_cartan("A", 2), _relabelled(family_cartan("B", 2), [1, 0]),
        family_cartan("A", 1))))
    for name, cartan in relabelled:
        rs = RootSystem(cartan)
        tops = [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
        for top in tops + [rs.rho]:
            yield "%s %r" % (name, top), cartan, top


SPARSE_WALK_CASES = list(_sparse_walk_cases())


@pytest.mark.parametrize("cartan,top", [c[1:] for c in SPARSE_WALK_CASES],
                         ids=[c[0] for c in SPARSE_WALK_CASES])
def test_sparse_walk_is_the_dense_walk(cartan, top):
    rs = RootSystem(cartan)
    assert list(rs.orbit_steps(top)) == list(_dense_orbit_steps(rs, top))


def test_sparse_walk_cases_cover_the_named_shapes():
    # the level cases, 16 rho orbits, two relabellings each of B4, C4 and
    # F4 and the one of G2 at every fundamental weight and rho, and the
    # reducible system at its five fundamental weights and rho
    ids = [c[0] for c in SPARSE_WALK_CASES]
    assert len(ids) == len(set(ids)) == 162 + 16 + 3 * 2 * 5 + 3 + 6
    assert "E7-4" in ids and "F4 rho" in ids and "E6 rho" not in ids


# the root walk on fw coordinates against the dense root step it replaced


def _dense_positive_roots(rs):
    """positive_roots as it was before the walk carried fw coordinates:
    <q, alpha_i^vee> summed down column i of C for every i at every root."""
    n = rs.rank

    def step(q):
        for i in range(n):
            p = sum(q[k] * rs.cartan[k][i] for k in range(n))
            r = tuple(q[j] - (p if j == i else 0) for j in range(n))
            if all(x >= 0 for x in r):
                if r[i] > 6:
                    raise ValueError("Cartan matrix is not of finite type")
                yield r

    seeds = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return sorted(closure(seeds, step), key=lambda q: (sum(q), q))


ROOT_CASES = ([(name, RootSystem.named(name).cartan)
               for name in SYSTEMS + ["A30"]]
              + [("%s%r" % (name, perm),
                  _relabelled(RootSystem.named(name).cartan, perm))
                 for name, perm in [("E6", (5, 3, 1, 0, 4, 2)),
                                    ("F4", (2, 0, 3, 1)), ("G2", (1, 0)),
                                    ("B4", (3, 1, 0, 2))]])


@pytest.mark.parametrize("cartan", [c for _, c in ROOT_CASES],
                         ids=[n for n, _ in ROOT_CASES])
def test_root_walk_is_the_dense_root_step(cartan):
    rs = RootSystem(cartan)
    assert rs.positive_roots == _dense_positive_roots(RootSystem(cartan))
    assert [fw for _, _, fw, _, _ in rs.root_rows[0]] == [
        root_fw(rs, q) for q in rs.positive_roots]


def test_fundamental_weight_refuses_a_node_off_the_diagram():
    a3 = RootSystem.named("A3")
    assert a3.fundamental_weight(3) == (0, 0, 1)
    for i in (0, 4, -1, 1.5, None):
        with pytest.raises(ValueError, match=r"^node .* out of range$"):
            a3.fundamental_weight(i)


def _parabolic_order_by_filter(rs, nodes):
    """|W_J| from the roots supported on J, each root's support tested one
    coordinate at a time: the filter before the support bitmasks."""
    nodes = set(nodes)
    return math.prod((e + 1) ** m for e, m in rootsystem._exponents(
        [q for q in rs.positive_roots
         if all(i in nodes for i, x in enumerate(q, 1) if x)]).items())


def _relabelled_system(name, rng):
    """The named system renumbered by a seeded permutation p: node i of
    the copy is node p[i - 1] + 1 of the named system."""
    named = RootSystem.named(name)
    p = list(range(named.rank))
    rng.shuffle(p)
    return named, RootSystem([[named.cartan[a][b] for b in p] for a in p]), p


@pytest.mark.parametrize("name", SYSTEMS)
def test_parabolic_order_is_the_filtered_order_on_every_node_set(name):
    rs = RootSystem.named(name)
    for r in range(rs.rank + 1):
        for J in itertools.combinations(range(1, rs.rank + 1), r):
            assert rs.parabolic_order(J) == _parabolic_order_by_filter(rs, J), J


@pytest.mark.parametrize("name", ["E6", "F4", "G2", "B4"])
def test_parabolic_order_does_not_depend_on_the_node_numbering(name):
    named, other, p = _relabelled_system(name, random.Random(name))
    for r in range(other.rank + 1):
        for J in itertools.combinations(range(1, other.rank + 1), r):
            want = named.parabolic_order([p[i - 1] + 1 for i in J])
            assert other.parabolic_order(J) == want, J
            assert _parabolic_order_by_filter(other, J) == want, J


def test_parabolic_order_refuses_a_node_off_the_diagram():
    a3 = RootSystem.named("A3")
    assert a3.parabolic_order([1, 2, 3]) == 24
    # a node is an int: 1.0 and True are refused, as in fundamental_weight
    for nodes in ([0], [4], [1.5], [1.0], [True], [1, True], [1, 2, 4],
                  (i for i in (2, 0))):
        with pytest.raises(ValueError, match=r"^node .* out of range$"):
            a3.parabolic_order(nodes)


# the root rows against the one-root-at-a-time references


ROW_CASES = ([(name, RootSystem.named(name)) for name in SYSTEMS]
             + [("%s relabelled" % name,
                 _relabelled_system(name, random.Random(name))[1])
                for name in ("E6", "F4", "G2", "B4")])


@pytest.mark.parametrize("rs", [r for _, r in ROW_CASES],
                         ids=[n for n, _ in ROW_CASES])
def test_root_rows_are_the_reference_conversions(rs):
    # root_reference computes one root at a time from the
    # Cartan matrix and the symmetrizer; the rows carry their values
    rows, den = rs.root_rows
    rng = random.Random(repr(rs.cartan))
    xs = [tuple(rng.randint(-5, 5) for _ in range(rs.rank)) for _ in range(5)]
    assert [q for _, q, _, _, _ in rows] == rs.positive_roots
    for bits, q, fw, dq, norm2 in rows:
        assert bits == sum(1 << j for j, x in enumerate(q) if x), q
        assert fw == root_fw(rs, q), q
        for x in xs:
            assert sum(a * b for a, b in zip(dq, x)) == pair_root(rs, x, q), q
        assert norm2 == root_norm2(rs, q), q
    assert den == math.prod(pair_root(rs, rs.rho, q) for q in rs.positive_roots)
