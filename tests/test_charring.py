import collections
import itertools
import math
import random
import re

import pytest

from weylgeom import charring
from weylgeom.charring import (
    DEFAULT_MAX_POWER,
    BranchingRule,
    FormalCharacter,
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
    power_decompositions,
    power_series,
    symmetric_power,
    weyl_dimension,
)
from weylgeom.rootsystem import ConsistencyError, RefusedError, RootSystem

from root_reference import pair_root, root_fw


def rs(name):
    return RootSystem.named(name)


def trivial_multiplicity(rs, char):
    """Multiplicity of the trivial representation in a character."""
    return decompose(rs, char).get(rs.zero(), 0)


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
        expected = {w for w in saturated if min(w) >= 0}
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


def _repeated_max_peel(rs, char):
    """The repeated-max peel, as an oracle for decompose's single pass:
    take the maximal dominant weight under (|mu+rho|^2, mu) again after
    every subtraction."""
    total = char.dimension()
    dom = {w: m for w, m in char.items() if min(w) >= 0}
    out = {}
    while dom:
        mu = max(dom, key=lambda w: (
            rs.scaled_norm2(tuple(a + 1 for a in w)), w))
        mult = dom[mu]
        if mult < 0:
            raise ConsistencyError("not a character")
        out[mu] = mult
        for nu, m in dominant_character(rs, mu).items():
            left = dom.get(nu, 0) - mult * m
            if left:
                dom[nu] = left
            elif nu in dom:
                del dom[nu]
    if sum(m * weyl_dimension(rs, mu) for mu, m in out.items()) != total:
        raise ConsistencyError("decomposition does not add up")
    return out


def _branched_fundamentals():
    """(rule name, lam): every fundamental V(lam) of dimension <= 20,000
    of each named branching's source, 17 in all."""
    for name, make in charring.NAMED_BRANCHINGS.items():
        source = make().source
        for i in range(1, source.rank + 1):
            lam = source.fundamental_weight(i)
            if weyl_dimension(source, lam) <= 20_000:
                yield name, lam


BRANCHED = list(_branched_fundamentals())
SQUARED = [("E7", (0, 0, 0, 0, 0, 0, 1)), ("E6", (1, 0, 0, 0, 0, 1)),
           ("G2", (1, 1)), ("E8", (0, 0, 0, 0, 0, 0, 0, 1))]


def _assert_peels_agree(system, char):
    # equal dicts in equal order: constituents come out highest first
    assert list(decompose(system, char).items()) == list(
        _repeated_max_peel(system, char).items())


@pytest.mark.parametrize("rule,lam", BRANCHED)
def test_single_pass_restrictions_are_the_repeated_max_peel(rule, lam):
    rule = charring.NAMED_BRANCHINGS[rule]()
    _assert_peels_agree(rule.target, rule.restrict_character(
        irrep_character(rule.source, lam)))


@pytest.mark.parametrize("name,lam", SQUARED)
def test_single_pass_squares_are_the_repeated_max_peel(name, lam):
    v = irrep_character(rs(name), lam)
    _assert_peels_agree(rs(name), v * v)


def test_decompose_refuses_a_residue_left_over():
    # V(1,1) of A2 without both copies of the weight (0,0), plus (5,-7)
    # twice, still has dimension 8, so _checked alone would take it for
    # V(1,1): the residue -2 left at (0,0) must refuse it
    a2 = rs("A2")
    char = (irrep_character(a2, (1, 1))
            - FormalCharacter({(0, 0): 2}) + FormalCharacter({(5, -7): 2}))
    assert char.dimension() == 8
    assert charring._checked(a2, {(1, 1): 1}, 8, "V(1,1)") == {(1, 1): 1}
    with pytest.raises(ConsistencyError,
                       match=r"^not a character: -2 left at \(0, 0\)$"):
        decompose(a2, char)


def test_adams_and_powers():
    a2 = rs("A2")
    v = irrep_character(a2, (1, 0))
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


def test_power_series_holds_every_degree():
    a3 = rs("A3")
    w = irrep_character(a3, (1, 0, 0))
    for alternating, power in ((False, symmetric_power),
                               (True, exterior_power)):
        series = power_series(w, 4, alternating)
        assert len(series) == 5
        assert series[0] == FormalCharacter({(0, 0, 0): 1})
        for k in range(1, 5):
            assert series[k] == power(w, k)
    assert [c.dimension() for c in power_series(w, 4, True)] == [1, 4, 6, 4, 1]
    with pytest.raises(RefusedError):
        power_series(w, 6)


# -- the packed kernel against plain tuple arithmetic --------------------------


def _tuple_product(a, b):
    """The tensor product as a plain double loop over weight tuples."""
    out = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            key = tuple(x + y for x, y in zip(w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
    return {w: m for w, m in out.items() if m}


def _tuple_power_series(char, k, alternating):
    """Degrees 0..k of the Newton recursion, with _tuple_product."""
    rank = len(next(iter(char)))
    s = -1 if alternating else 1
    c = [{(0,) * rank: 1}]
    for d in range(1, k + 1):
        acc = {}
        for j in range(1, d + 1):
            pj = {tuple(j * x for x in w): s ** (j - 1) * m
                  for w, m in char.items()}
            for w, m in _tuple_product(pj, c[d - j]).items():
                acc[w] = acc.get(w, 0) + m
        assert all(m % d == 0 for m in acc.values())
        c.append({w: m // d for w, m in acc.items() if m})
    return c


def _random_character(rng, rank, bound, size):
    """A virtual character with negative multiplicities whose coordinates
    reach +bound and -bound in one position."""
    weights = {tuple(rng.randint(-bound, bound) for _ in range(rank)):
               rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(size)}
    i = rng.randrange(rank)
    for sign in (1, -1):
        w = [rng.randint(-bound, bound) for _ in range(rank)]
        w[i] = sign * bound
        weights[tuple(w)] = rng.choice((-1, 1, 3))
    return weights


# 2**41 makes every field wider than 40 bits
BOUNDS = (1, 7, 1000, 10 ** 6, 2 ** 41)


@pytest.mark.parametrize("rank", range(1, 9))
def test_packed_product_matches_tuples(rank):
    rng = random.Random(rank)
    for bound in BOUNDS:
        a = _random_character(rng, rank, bound, 25)
        b = _random_character(rng, rank, rng.choice(BOUNDS), 12)
        for x, y in ((a, b), (b, a), (a, a)):
            got = FormalCharacter(x) * FormalCharacter(y)
            assert got.weights == _tuple_product(x, y)


@pytest.mark.parametrize("rank", range(1, 9))
def test_packed_weights_round_trip(rank):
    # rank 1 has an empty low half; 2**41 makes every field wider than 40 bits
    rng = random.Random(200 + rank)
    for bound in BOUNDS:
        char = _random_character(rng, rank, bound, 40)
        width = charring._width(bound)
        got = charring._unpack(charring._pack(char, width), rank, width)
        assert list(got.items()) == list(char.items())


@pytest.mark.parametrize("rank", range(1, 9))
def test_packed_power_series_matches_tuples(rank):
    rng = random.Random(100 + rank)
    for bound in BOUNDS:
        char = _random_character(rng, rank, bound, 5)
        for k in (0, 4, DEFAULT_MAX_POWER):
            for alternating in (False, True):
                series = power_series(FormalCharacter(char), k, alternating)
                want = _tuple_power_series(char, k, alternating)
                assert [c.weights for c in series] == want


def _binomial(r, n):
    """C(r, n) for any integer r, as r(r-1)...(r-n+1)/n!."""
    num = 1
    for i in range(n):
        num *= r - i
    return num // math.factorial(n)


@pytest.mark.parametrize("m", [10 ** 6, -10 ** 6])
def test_powers_of_a_huge_multiplicity_in_closed_form(m):
    # V = m e^0 + e^w: S^d V = sum_n C(m+n-1, n) e^((d-n)w) and
    # Lambda^d V = C(m, d) e^0 + C(m, d-1) e^w, from one pass per weight
    # and not one per unit of m
    zero, w = (0, 0), (1, -1)
    v = FormalCharacter({zero: m, w: 1})
    sym, alt = power_series(v, 5), power_series(v, 5, True)
    for d in range(6):
        assert sym[d].weights == {
            (d - n, n - d): _binomial(m + n - 1, n) for n in range(d + 1)}
        want = {zero: _binomial(m, d)}
        if d:
            want[w] = _binomial(m, d - 1)
        assert alt[d].weights == want


def test_product_rank_mismatch_and_empty():
    a = FormalCharacter({(1, 0): 1, (0, -1): 2})
    with pytest.raises(ValueError):
        a * FormalCharacter({(1, 0, 0): 1})
    assert not a * FormalCharacter()
    assert not FormalCharacter() * a
    assert (a * FormalCharacter()).weights == {}


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


def _bilinear_type_by_squares(rs, lam):
    """The form's type read off where the invariant lives, S^2 V or
    Lambda^2 V, as the library computed it before the sign formula."""
    if rs.dual_weight(lam) != lam:
        return None
    char = irrep_character(rs, lam)
    sym = trivial_multiplicity(rs, symmetric_power(char, 2))
    alt = trivial_multiplicity(rs, exterior_power(char, 2))
    assert sym + alt == 1
    return "Symmetric" if sym else "Skew"


def _small_highest_weights(top_dim):
    """(system, lam) for every family of rank <= 8 and every nonzero lam
    with coordinates summing to at most 3 and dim V(lam) <= top_dim."""
    names = ["%s%d" % (family, n) for family, lo in zip("ABCD", (1, 2, 2, 3))
             for n in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2"]
    for system in map(RootSystem.named, names):
        for lam in itertools.product(range(4), repeat=system.rank):
            if 0 < sum(lam) <= 3 and weyl_dimension(system, lam) <= top_dim:
                yield system, lam


def test_bilinear_type_is_where_the_invariant_lives():
    kinds = collections.Counter()
    for system, lam in _small_highest_weights(400):
        want = _bilinear_type_by_squares(system, lam)
        assert invariant_bilinear_type(system, lam) == want, (system, lam)
        kinds[want] += 1
    # 372 weights, 200 of them self-dual, with both signs
    assert kinds == {None: 172, "Symmetric": 156, "Skew": 44}


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
    sym, ext = power_decompositions(g2, (1, 0), 2)
    assert [c.get(g2.zero(), 0) for c in sym] == [1, 0, 1]
    assert [c.get(g2.zero(), 0) for c in ext] == [1, 0, 0]


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
    # the coordinate map e7_to_e6_levi was written as before it became the
    # generic Levi restriction
    by_hand = BranchingRule("e7-levi-e6", rs("E7"), rs("E6"),
                            lambda w: w[:6])
    rule = e7_to_e6_levi()
    assert rule.target.key == by_hand.target.key
    for lam in ((0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2)):
        char = irrep_character(rule.source, lam)
        assert (rule.restrict_character(char)
                == by_hand.restrict_character(char))
        assert rule.restrict_irrep(lam) == by_hand.restrict_irrep(lam)


def test_generic_levi_e6_drop_node6():
    rule = levi_restriction(rs("E6"), (1, 2, 3, 4, 5))
    out = rule.restrict_irrep((1, 0, 0, 0, 0, 0))
    dims = sorted(weyl_dimension(rule.target, hw) * m for hw, m in out.items())
    assert dims == [1, 10, 16]


RESTRICTIONS = [e6_to_d5_levi, e6_to_f4_fold, e7_to_e6_levi,
                lambda: levi_restriction(rs("A3"), [1, 2])]


@pytest.mark.parametrize("make", RESTRICTIONS,
                         ids=["e6-levi-d5", "e6-fold-f4", "e7-levi-e6",
                              "A3 levi-12"])
def test_restriction_refuses_a_key_that_is_no_source_weight(make):
    # a weight of the target's rank, one too long and one with a float
    # coordinate; each was once restricted as if it were a weight
    rule = make()
    n = rule.source.rank
    good = rule.source.fundamental_weight(1)
    for bad in ((1,) + (0,) * (rule.target.rank - 1), (0,) * (n + 1),
                (1.5,) + (0,) * (n - 1)):
        char = FormalCharacter({good: 1, bad: 1})
        with pytest.raises(ValueError, match="^%s is not a weight of rank "
                           "%d$" % (re.escape(repr(bad)), n)):
            rule.restrict_character(char)
    assert rule.restrict_character(FormalCharacter({good: 2})).weights \
        == {rule._map(good): 2}


def _no_computing(monkeypatch):
    def refuse(*args):
        raise AssertionError("table recomputed")
    monkeypatch.setattr(charring, "dominant_weights_below", refuse)


def test_memo_is_keyed_by_cartan_matrix(monkeypatch):
    # a second RootSystem of the same matrix hits the memo
    tables = {}
    monkeypatch.setattr(charring, "TABLES", tables)
    dominant_character(rs("B3"), (0, 0, 1))
    _no_computing(monkeypatch)
    assert dominant_character(rs("B3"), (0, 0, 1)) == {(0, 0, 1): 1}
    assert list(tables) == [(rs("B3").key, (0, 0, 1))]


# -- the Klimyk recursion against the peeled powers -------------------------

ORACLE_SYSTEMS = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                  "D3", "D4", "F4", "G2")
ORACLE_CASES = [("E6", (1, 0, 0, 0, 0, 0), 3),
                ("E7", (0, 0, 0, 0, 0, 0, 1), 4)] + [
    (name, rs(name).fundamental_weight(i), 3)
    for name in ORACLE_SYSTEMS for i in range(1, rs(name).rank + 1)]


@pytest.mark.parametrize("name,lam,k", ORACLE_CASES)
def test_klimyk_powers_are_the_peeled_powers(name, lam, k):
    r = rs(name)
    char = irrep_character(r, lam)
    peeled = [[decompose(r, c) for c in power_series(char, k, alternating)]
              for alternating in (False, True)]
    assert list(power_decompositions(r, lam, k)) == peeled


def test_power_decompositions_at_degree_zero_and_below():
    # degree 0 is the trivial series, as symmetric_power(ch, 0) is; a
    # negative degree is refused as a negative power, not as k * lam
    a2 = rs("A2")
    assert power_decompositions(a2, (1, 0), 0) == ([{(0, 0): 1}],
                                                   [{(0, 0): 1}])
    with pytest.raises(ValueError, match="^negative power$"):
        power_decompositions(a2, (1, 0), -1)


def test_symmetric_power_refuses_an_empty_character_and_a_negative_degree():
    with pytest.raises(ValueError, match="^empty character$"):
        symmetric_power(FormalCharacter(), 2)
    with pytest.raises(ValueError, match="^negative power$"):
        symmetric_power(irrep_character(rs("A2"), (1, 0)), -1)


def test_klimyk_triple_is_the_peeled_triple():
    # V(w1) x V(w3) x V(w4) of D4 as two Klimyk products, never expanded
    d4 = rs("D4")
    lams = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    chars = [irrep_character(d4, lam) for lam in lams]
    dec = {lams[0]: 1}
    for char in chars[1:]:
        dec = charring._times(d4, dec, char.weights, {})
    dec = charring._checked(d4, dec, 8 ** 3, "the triple")
    assert dec == decompose(d4, chars[0] * chars[1] * chars[2])
    assert dec[d4.zero()] == 1


@pytest.mark.parametrize("k,call,extra,message", [
    (1, 1, {(0, 0): 1}, r"^S\^1 V is not a character of dimension 3$"),
    # 3 + 8 - 8 adds up to 3, but with a negative multiplicity
    (1, 1, {(0, 0): 8, (1, 1): -1}, r"^S\^1 V is not a character"),
    # the exterior series runs after the symmetric one
    (1, 2, {(0, 0): 1}, r"^Lambda\^1 V is not a character of dimension 3$"),
    (2, 2, {(2, 0): 1}, r"multiplicity 3 at \(2, 0\) not divisible by 2$"),
])
def test_klimyk_recursion_checks_its_arithmetic(monkeypatch, k, call, extra,
                                                message):
    # S^2 of V(1,0) of A2 is V(2,0); one product of the recursion is off
    calls = 0
    times = charring._times

    def perturbed(*args):
        nonlocal calls
        calls += 1
        out = times(*args)
        if calls == call:
            for hw, m in extra.items():
                out[hw] = out.get(hw, 0) + m
        return out

    monkeypatch.setattr(charring, "_times", perturbed)
    with pytest.raises(ConsistencyError, match=message):
        power_decompositions(rs("A2"), (1, 0), k)


def test_dominant_character_refuses_before_its_recursion(monkeypatch):
    # #dom(lam) * |positive roots| against the limit, counted on the one
    # walk the recursion takes anyway
    b3 = rs("B3")
    lam = (2, 1, 1)
    size = len(dominant_weights_below(b3, lam)) * 9
    walks = []
    below = charring.dominant_weights_below

    def walk(*args):
        walks.append(args)
        return below(*args)

    monkeypatch.setattr(charring, "dominant_weights_below", walk)
    monkeypatch.setattr(charring, "TABLES", {})
    monkeypatch.setattr(charring, "MAX_WEIGHTS", size - 1)
    with pytest.raises(RefusedError, match=r"below \(2, 1, 1\), at 9 steps "
                       "each, need more than %d$" % (size - 1)):
        dominant_character(b3, lam)
    monkeypatch.setattr(charring, "MAX_WEIGHTS", size)
    table = dominant_character(b3, lam)
    assert (sum(m * b3.orbit_size(mu) for mu, m in table.items())
            == weyl_dimension(b3, lam))
    assert len(walks) == 2


def _klimyk_cost(system, lam, k):
    """k * |wt V(lam)| * #dominant weights below k*lam: the Klimyk
    recursion's guard refuses above MAX_WEIGHTS."""
    weights = len(irrep_character(system, lam).weights)
    top = tuple(k * x for x in lam)
    return k * weights * len(dominant_weights_below(system, top))


@pytest.mark.parametrize("name,lam,k", [
    ("E7", (0, 0, 0, 0, 0, 0, 1), 3), ("G2", (0, 1), 3),
    ("D4", (1, 0, 0, 0), 3), ("A2", (1, 1), 3),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 2),
])
def test_power_size_count_is_exact(monkeypatch, name, lam, k):
    # the guard refuses exactly when k * |wt V| * #dom(k*lam) passes the
    # limit, and the last degree's Klimyk terms stay within that product
    # for each series
    r = RootSystem.named(name)
    cost = _klimyk_cost(r, lam, k)
    want = power_decompositions(r, lam, k)
    terms = []
    times = charring._times

    def counted(system, dec, weights, out):
        terms.append(len(dec) * len(weights))
        return times(system, dec, weights, out)

    monkeypatch.setattr(charring, "MAX_WEIGHTS", cost)
    monkeypatch.setattr(charring, "_times", counted)
    assert power_decompositions(r, lam, k - 1) == tuple(
        series[:k] for series in want)
    before = sum(terms)
    assert power_decompositions(r, lam, k) == want
    assert sum(terms) - 2 * before <= 2 * cost
    monkeypatch.setattr(charring, "MAX_WEIGHTS", cost - 1)
    with pytest.raises(RefusedError, match=r"the dominant weights below "
                       r"\(.*\), at %d steps each, need more than %d$"
                       % (cost // len(dominant_weights_below(
                           r, tuple(k * x for x in lam))), cost - 1)):
        power_decompositions(r, lam, k)


def test_power_size_guard_on_the_e8_adjoint():
    e8 = RootSystem.named("E8")
    adjoint = (0, 0, 0, 0, 0, 0, 0, 1)
    # 8 * 241 * 165 = 318,120 steps at degree 8; 1000 * 241 steps a weight
    # at degree 1000, so the walk stops after five of them
    assert _klimyk_cost(e8, adjoint, 8) == 318_120
    calls = 0
    covers = charring._covers

    def counted(system, w):
        nonlocal calls
        calls += 1
        return covers(system, w)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(charring, "_covers", counted)
        m.setattr(charring, "_times", _no_klimyk)
        with pytest.raises(RefusedError, match="at 241000 steps each, need "
                           "more than 1000000"):
            power_decompositions(e8, adjoint, 1000)
    assert calls == 4
    sym, ext = power_decompositions(e8, adjoint, 8)
    assert [c.get(e8.zero(), 0) for c in sym] == [1, 0, 1, 0, 1, 0, 1, 0, 2]
    assert [c.get(e8.zero(), 0) for c in ext] == [1, 0, 0, 1, 0, 0, 0, 0, 0]


def _no_klimyk(*args):
    raise AssertionError("Klimyk product called")


@pytest.mark.parametrize("name,lam", [
    ("A1", (1,)), ("A2", (1, 0)), ("A2", (1, 1)), ("B2", (1, 0)),
    ("G2", (1, 0)), ("C3", (0, 1, 0)), ("D4", (0, 0, 1, 0)),
])
def test_power_weight_counts_never_fall(name, lam):
    # mu -> mu + lam embeds the dominant weights below d*lam in those below
    # (d+1)*lam, so the guard need only count degree k; the weights of
    # V(d*lam) grow too
    r = rs(name)
    below = [dominant_weights_below(r, tuple(d * x for x in lam))
             for d in range(1, 7)]
    for low, high in zip(below, below[1:]):
        assert {tuple(a + b for a, b in zip(mu, lam)) for mu in low} <= high
    sizes = [sum(map(r.orbit_size, dom)) for dom in below]
    assert sizes == sorted(sizes)
    for d, size in enumerate(sizes, 1):
        if d <= 3:
            char = irrep_character(r, tuple(d * x for x in lam))
            assert len(char.weights) == size


def test_power_size_guard_stops_counting_at_the_limit(monkeypatch):
    # A1 at degree 10**6 costs 2 * 10**6 steps a weight: with a limit of
    # 10**9 the walk refuses at weight 501 of 500,001
    calls = 0
    covers = charring._covers

    def counted(system, w):
        nonlocal calls
        calls += 1
        assert calls <= 1_000, "the count ran past the limit"
        return covers(system, w)

    monkeypatch.setattr(charring, "_covers", counted)
    monkeypatch.setattr(charring, "_times", _no_klimyk)
    monkeypatch.setattr(charring, "MAX_WEIGHTS", 10**9)
    with pytest.raises(RefusedError, match=r"below \(1000000,\), at 2000000 "
                       "steps each, need more than 1000000000"):
        power_decompositions(rs("A1"), (1,), 10**6)
    assert calls == 500


# -- the orbit-folded recursion against the sum over every positive root ----


def _freudenthal_over_positive_roots(system, lam):
    """Freudenthal's formula as Humphreys states it (Introduction to Lie
    Algebras, 22.3): 2 * sum over every positive root alpha and k >= 1 of
    m(mu + k alpha) (mu + k alpha, alpha), each string walked until its
    weight has multiplicity 0, over |lam+rho|^2 - |mu+rho|^2."""
    n = system.cartan_inverse[0]
    norm = {mu: system.scaled_norm2(tuple(x + 1 for x in mu))
            for mu in dominant_weights_below(system, lam)}
    table = {lam: 1}
    for mu in sorted(norm.keys() - {lam}, key=lambda mu: -norm[mu]):
        total = 0
        for alpha in system.positive_roots:
            alpha_fw = root_fw(system, alpha)
            for k in itertools.count(1):
                nu = tuple(a + k * b for a, b in zip(mu, alpha_fw))
                m = table.get(system.dominant_rep(nu), 0)
                if not m:
                    break
                total += m * pair_root(system, nu, alpha)
        mult, rest = divmod(2 * n * total, norm[lam] - norm[mu])
        assert rest == 0 and mult > 0, (lam, mu)
        table[mu] = mult
    return table


COLD = [("E8", (0, 0, 0, 0, 0, 0, 0, 3)), ("E8", (2, 0, 0, 0, 0, 0, 0, 0)),
        ("E8", (0, 0, 0, 0, 0, 1, 0, 0)), ("E8", (1, 0, 0, 0, 0, 0, 0, 1)),
        ("E7", (0, 0, 0, 0, 0, 0, 3)), ("E7", (0, 0, 1, 0, 0, 0, 0)),
        ("E6", (1, 1, 0, 0, 0, 1)), ("F4", (1, 1, 0, 0)),
        ("D8", (1, 1, 0, 0, 0, 0, 0, 1)), ("A8", (1, 1, 0, 0, 0, 0, 1, 1))]
FAMILIES = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
            + ["C%d" % n for n in range(2, 9)]
            + ["D%d" % n for n in range(3, 9)]
            + ["E6", "E7", "E8", "F4", "G2"])
# A2 x B2 x A1, the middle block reversed
REDUCIBLE = ((2, -1, 0, 0, 0), (-1, 2, 0, 0, 0), (0, 0, 2, -1, 0),
             (0, 0, -2, 2, 0), (0, 0, 0, 0, 2))


def _sweep():
    """(name, Cartan matrix, highest weight): the fundamental weights of
    every family of rank <= 8 and two seeded small weights each, the
    benchmark's cold tables and a reducible system, each once, kept while
    the dimension is at most 5,000,000 and #dominant weights * |positive
    roots| at most 3,000."""
    rng = random.Random(21)
    cases = [(name, rs(name).cartan, lam) for name, lam in COLD]
    for name in FAMILIES:
        system = rs(name)
        lams = [system.fundamental_weight(i)
                for i in range(1, system.rank + 1)]
        lams += [tuple(rng.choice((0, 0, 0, 1, 2)) for _ in lams)
                 for _ in range(2)]
        cases += [(name, system.cartan, lam) for lam in lams]
    cases += [("A2+B2+A1", REDUCIBLE, lam) for lam in
              itertools.product((0, 1), (0, 2), (1, 0), (0, 1), (3,))]
    for name, cartan, lam in dict.fromkeys(cases):
        system = RootSystem(cartan)
        if weyl_dimension(system, lam) <= 5_000_000 and len(
                dominant_weights_below(system, lam)) * len(
                system.positive_roots) <= 3000:
            yield pytest.param(cartan, lam, id="%s%r" % (name, lam))


@pytest.mark.parametrize("cartan,lam", _sweep())
def test_orbit_sums_match_positive_root_sums(monkeypatch, cartan, lam):
    # on a relabelled copy, the new table is the positive-root table with
    # every weight relabelled
    perm = list(range(len(lam)))
    random.Random(repr(lam)).shuffle(perm)
    relabelled = RootSystem([[cartan[p][q] for q in perm] for p in perm])
    monkeypatch.setattr(charring, "TABLES", {})
    table = dominant_character(relabelled, tuple(lam[p] for p in perm))
    want = _freudenthal_over_positive_roots(RootSystem(cartan), lam)
    assert table == {tuple(mu[p] for p in perm): m for mu, m in want.items()}


@pytest.mark.parametrize("cartan,lam", [
    (rs("A2").cartan, (2, 1)), (rs("B3").cartan, (1, 0, 1)),
    (rs("G2").cartan, (1, 1)), (rs("F4").cartan, (0, 0, 1, 0)),
    (rs("E6").cartan, (1, 0, 0, 0, 0, 1)),
    # D5 with its nodes reversed
    ([row[::-1] for row in rs("D5").cartan[::-1]], (1, 0, 0, 1, 0)),
])
def test_no_weight_is_longer_than_the_highest(cartan, lam):
    # the premise of the recursion's cut-off: |nu|^2 <= |lam|^2 for every
    # weight nu of V(lam), with equality exactly on W.lam
    system = RootSystem(cartan)
    top = system.scaled_norm2(lam)
    orbit = set(system.weyl_orbit(lam))
    for w in irrep_character(system, lam).weights:
        assert system.scaled_norm2(w) <= top
        assert (system.scaled_norm2(w) == top) == (w in orbit), w


@pytest.mark.parametrize("name,lam", [
    ("B3", (1, 0, 1)), ("F4", (1, 1, 0, 0)), ("E7", (0, 0, 1, 0, 0, 0, 0)),
])
def test_strings_stop_at_the_norm_of_the_highest_weight(monkeypatch, name,
                                                        lam):
    # no weight longer than lam is carried to the dominant chamber
    system = rs(name)
    top = system.scaled_norm2(lam)
    asked = []
    dominate = system.dominant_rep

    def checked(w):
        asked.append(system.scaled_norm2(w))
        return dominate(w)

    monkeypatch.setattr(system, "dominant_rep", checked)
    monkeypatch.setattr(charring, "TABLES", {})
    dominant_character(system, lam)
    assert asked and max(asked) <= top


# every named system of rank at most 8
SYSTEMS = (["A%d" % n for n in range(1, 9)] + ["B%d" % n for n in range(2, 9)]
           + ["C%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(3, 9)]
           + ["E6", "E7", "E8", "F4", "G2"])


def _weyl_dimension_per_root(system, lam):
    """Weyl's dimension formula with the numerator and the denominator
    rebuilt per root from the symmetrizer, as before the root rows."""
    rho_shift = tuple(x + 1 for x in lam)
    num = den = 1
    for alpha in system.positive_roots:
        num *= sum(d * a * x for d, a, x in zip(system.d, alpha, rho_shift))
        den *= sum(d * a for d, a in zip(system.d, alpha))
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("name", SYSTEMS + ["E6 relabelled", "F4 relabelled",
                                            "G2 relabelled", "B4 relabelled"])
def test_weyl_dimension_is_the_per_root_formula(name):
    rng = random.Random(name)
    system = rs(name.split()[0])
    if name.endswith("relabelled"):
        p = list(range(system.rank))
        rng.shuffle(p)
        system = RootSystem([[system.cartan[a][b] for b in p] for a in p])
    weights = [system.zero(), system.rho]
    weights += [tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, 7)) for _ in range(
        system.rank)) for _ in range(30)]
    for lam in weights:
        assert weyl_dimension(system, lam) == _weyl_dimension_per_root(
            system, lam), lam


def test_formal_character_drops_zeros_and_copies_its_input():
    rng = random.Random(27)
    for trial in range(200):
        weights = {tuple(rng.randint(-2, 2) for _ in range(3)):
                   rng.choice((-3, -1, 0, 1, 2, 5) if trial % 2 else (-1, 1, 4))
                   for _ in range(rng.randint(0, 12))}
        char = FormalCharacter(weights)
        want = {w: m for w, m in weights.items() if m}
        assert char.weights == want and list(char.weights) == list(want)
        assert char == FormalCharacter(want)
        weights[(9, 9, 9)] = 1
        for w in list(weights)[:2]:
            weights[w] += 10
        assert char.weights == want
    assert FormalCharacter().weights == FormalCharacter({}).weights == {}
    assert FormalCharacter({(0, 1): 0}).weights == {}


class _Unreadable:
    """An iterable that fails when read."""

    def __iter__(self):
        raise AssertionError("positive_roots read")

    def __len__(self):
        raise AssertionError("positive_roots read")


def test_dimensions_orders_and_cached_decompositions_read_the_root_rows(
        monkeypatch):
    system = rs("E6")
    monkeypatch.setattr(charring, "TABLES", {})
    char = irrep_character(system, (1, 0, 0, 0, 0, 0)) * irrep_character(
        system, (0, 0, 0, 0, 0, 1))
    want = decompose(system, char)
    assert want == {(1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 0, 0): 1,
                    (0, 0, 0, 0, 0, 0): 1}
    orders = [system.parabolic_order(J) for J in ((), (1, 3), (2, 3, 4, 5))]
    monkeypatch.setattr(RootSystem, "positive_roots",
                        property(lambda self: _Unreadable()))
    assert decompose(system, char) == want
    assert weyl_dimension(system, (1, 0, 0, 0, 0, 1)) == 650
    assert [system.parabolic_order(J)
            for J in ((), (1, 3), (2, 3, 4, 5))] == orders == [1, 6, 192]
    assert invariant_bilinear_type(system, (0, 1, 0, 0, 0, 0)) == "Symmetric"


def test_no_reader_converts_a_root_one_at_a_time():
    # the library reads the root rows; the one-root conversions root_fw,
    # pair_root and root_norm2 live in the tests' root_reference only
    for name in ("root_fw", "pair_root", "root_norm2"):
        assert not hasattr(RootSystem, name), name


# malformed weights at the library entry points

ENTRY_POINTS = {
    "weyl_dimension": weyl_dimension,
    "dominant_weights_below": dominant_weights_below,
    "dominant_character": dominant_character,
    "irrep_character": irrep_character,
    "invariant_bilinear_type": invariant_bilinear_type,
    "orbit_size": lambda system, w: system.orbit_size(w),
    # checked too: zip would cut a long weight short
    "dual_weight": lambda system, w: system.dual_weight(w),
}
DOMINANT_ENTRY_POINTS = ("weyl_dimension", "dominant_weights_below",
                         "dominant_character", "irrep_character")


@pytest.mark.parametrize("weight", [
    (1,), (1, 0, 0), (1.0, 0), (0, 0.5), [2.0, 1], (1, True), ("1", 0),
], ids=["short", "long", "float", "half", "float-list", "bool", "str"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_refuse_a_malformed_weight(entry, weight, monkeypatch):
    monkeypatch.setattr(charring, "TABLES", {})
    with pytest.raises(ValueError, match="^%s is not a weight of rank 2$"
                       % re.escape(repr(tuple(weight)))):
        ENTRY_POINTS[entry](rs("A2"), weight)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_take_a_list_and_the_dominant_ones_refuse_the_rest(
        entry, monkeypatch):
    monkeypatch.setattr(charring, "TABLES", {})
    a2 = rs("A2")
    call = ENTRY_POINTS[entry]
    assert call(a2, [1, 1]) == call(a2, (1, 1))
    if entry in DOMINANT_ENTRY_POINTS:
        with pytest.raises(ValueError, match=r"^\(-1, 2\) is not dominant$"):
            call(a2, (-1, 2))
    else:
        call(a2, (-1, 2))


def test_dominant_character_checks_before_its_table_lookup(monkeypatch):
    a2 = rs("A2")
    monkeypatch.setattr(charring, "TABLES", {})
    assert dominant_character(a2, (1, 0)) == {(1, 0): 1}
    # (1.0, 0) == (1, 0) and hashes alike: only the check keeps it out of
    # the warm table
    assert (a2.key, (1.0, 0)) in charring.TABLES
    with pytest.raises(ValueError, match=r"^\(1\.0, 0\) is not a weight"):
        dominant_character(a2, (1.0, 0))


@pytest.mark.parametrize("cost", [0, -1, True, 1.5], ids=repr)
def test_dominant_weights_below_refuses_a_cost_that_is_no_positive_int(
        monkeypatch, cost):
    # before the walk, as check_node refuses a node: 0 would divide by zero,
    # -1 would be refused as a walk too large, and True would count as 1
    def walked(system, w):
        raise AssertionError("the walk took a step")

    monkeypatch.setattr(charring, "_covers", walked)
    with pytest.raises(ValueError, match=r"^cost %s is not a positive int$"
                       % re.escape(repr(cost))):
        dominant_weights_below(rs("A2"), (1, 1), cost)


def test_dominant_weights_below_takes_a_positive_int_cost():
    a2 = rs("A2")
    assert dominant_weights_below(a2, (1, 1), 1) == {(1, 1), (0, 0)}
    assert dominant_weights_below(a2, (1, 1), 500_000) == {(1, 1), (0, 0)}
    with pytest.raises(RefusedError):
        dominant_weights_below(a2, (1, 1), 500_001)


def test_a_malformed_weight_is_refused_before_the_walk(monkeypatch):
    def walked(system, w):
        raise AssertionError("the walk took a step")

    monkeypatch.setattr(charring, "_covers", walked)
    with pytest.raises(ValueError, match=r"^\(1,\) is not a weight of rank 2$"):
        dominant_weights_below(rs("A2"), (1,))
    with pytest.raises(AssertionError, match="took a step"):
        dominant_weights_below(rs("A2"), (1, 0))
