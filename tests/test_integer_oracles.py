"""The library's plain-integer products, gcd and binomials against the
math module, and its integer tables against values recorded while they
were still computed with math.prod, math.gcd and math.comb
(integer_reference.json: every named system of rank at most 8)."""

import json
import math
import pathlib
import random

import pytest

from weylgeom import rootsystem
from weylgeom.charring import power_decompositions, weyl_dimension
from weylgeom.rootsystem import RootSystem, symmetrizer

from root_reference import pair_root

REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "integer_reference.json").read_text())
SYSTEMS = sorted(REFERENCE)


def _lists(x):
    """Tuples to lists, all the way down, as json holds them."""
    return [_lists(y) for y in x] if isinstance(x, (tuple, list)) else x


def test_reference_covers_every_named_system_up_to_rank_8():
    want = {"%s%d" % (f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2),
                                          ("D", 3)) for r in range(lo, 9)}
    assert set(SYSTEMS) == want | {"E6", "E7", "E8", "F4", "G2"}


@pytest.mark.parametrize("seed", range(8))
def test_gcd_is_math_gcd(seed):
    rng = random.Random(seed)
    cases = [(), (0,), (0, 0), (-7,), (7,), (-12, 18), (12, -18, 0)]
    for _ in range(200):
        size = rng.randint(1, 6)
        cases.append(tuple(rng.choice([0, rng.randint(-60, 60),
                                       rng.randint(-10**12, 10**12)])
                           for _ in range(size)))
    for xs in cases:
        assert rootsystem._gcd(*xs) == math.gcd(*xs), xs


@pytest.mark.parametrize("name", SYSTEMS)
def test_weyl_dimension_is_math_prod(name):
    # parabolic_order and Weyl's denominator have their math.prod
    # references in test_rootsystem.py
    rs = RootSystem.named(name)
    rng = random.Random(name)
    weights = [rs.zero(), rs.rho] + [
        tuple(rng.choice([0, 0, 1, 2, 5]) for _ in rs.nodes)
        for _ in range(6)]
    den = math.prod(pair_root(rs, rs.rho, q) for q in rs.positive_roots)
    for lam in weights:
        shifted = tuple(x + 1 for x in lam)
        num = math.prod(pair_root(rs, shifted, q) for q in rs.positive_roots)
        assert weyl_dimension(rs, lam) == num // den, lam


@pytest.mark.parametrize("name,lam,k", [
    ("A1", (0,), 3), ("A1", (1,), 4), ("A2", (1, 0), 5), ("B2", (0, 1), 5),
    ("G2", (1, 0), 8), ("A3", (0, 1, 0), 7), ("D4", (1, 0, 0, 0), 4),
])
def test_power_dimensions_are_math_comb(name, lam, k):
    # n = 1 for the trivial module, and k past n for the exterior powers
    rs = RootSystem.named(name)
    n = weyl_dimension(rs, lam)
    sym, ext = power_decompositions(rs, lam, k)
    for d in range(k + 1):
        for dec, want in ((sym[d], math.comb(n + d - 1, d)),
                          (ext[d], math.comb(n, d))):
            assert sum(m * weyl_dimension(rs, hw)
                       for hw, m in dec.items()) == want, d


@pytest.mark.parametrize("name", SYSTEMS)
def test_integer_tables_match_the_recorded_values(name):
    ref = REFERENCE[name]
    rs = RootSystem.named(name)
    assert list(symmetrizer(rs.cartan)) == ref["d"]
    n, m = rs.cartan_inverse
    assert [n, _lists(m)] == ref["inv"]
    assert rs.parabolic_order(rs.nodes) == ref["order"]
    assert [rs.parabolic_order([j for j in rs.nodes if j != i])
            for i in rs.nodes] == ref["maximal"]
    fws = [rs.fundamental_weight(i) for i in rs.nodes]
    assert [weyl_dimension(rs, w) for w in fws] == ref["dims"]
    assert weyl_dimension(rs, rs.rho) == ref["rho"]
    sym, ext = power_decompositions(rs, fws[ref["node"] - 1], 2)
    assert [_lists(sorted(c.items())) for c in sym] == ref["sym"]
    assert [_lists(sorted(c.items())) for c in ext] == ref["ext"]
