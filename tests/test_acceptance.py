"""Acceptance suite: one test per headline claim, all exact-integer checks.

Each test drives the same check function the ``weylgeom verify`` command
runs, so a green run here matches a clean ``weylgeom verify all``.
"""

from weylgeom import cli


def test_01_dimension_diagrams():
    """Node-indexed dimension tables for A4, B4, C4, D5, E6, E7, E8, F4, G2."""
    out = cli.check_dimension_diagrams()
    assert out["E8 beta=8"]["8"] == 1 and out["E8 beta=8"]["1"] == 14
    assert out["E6 beta=1"]["2"] == 6 and out["E6 beta=1"]["6"] == 10
    assert out["F4 beta=4"]["1"] == 6


def test_02_standard_dimensions():
    """Standard representation dimensions, with E8 handled by formula only."""
    out = cli.check_standard_dimensions()
    assert out["E6:1"] == 27 and out["E7:7"] == 56 and out["E8:1"] == 3875


def test_03_e6_hasse():
    """Weight poset of the 27-dimensional representation: 27 nodes, 36 edges."""
    out = cli.check_e6_hasse()
    assert out == {"nodes": 27, "edges": 36}


def test_04_invariant_forms():
    """Cubic form on the 27, quartic on the 56, D4 triple product, form types."""
    out = cli.check_invariant_forms()
    assert out["e6_cubic"] == [0, 0, 1]
    assert out["bilinear"]["E7"] == "Skew"
    assert out["bilinear"]["E6"] is None


def test_05_branchings():
    """Named restriction rules split the standard representations correctly."""
    out = cli.check_branchings()
    assert out["e6-levi-d5"] == [1, 10, 16]
    assert out["e6-fold-f4"] == [1, 26]
    assert out["e7-levi-e6"] == [1, 1, 27, 27]


def test_06_orbits():
    """Parabolic orbit sizes and zero-sum triple counts."""
    out = cli.check_orbits()
    assert out["parabolic"] == [1, 10, 16]
    assert out["e6_triples"] == 270
    assert out["d4_triples"] == 32


def test_07_triality():
    """D4 multiplication table, chamber automorphism, order-three symmetry."""
    out = cli.check_triality()
    assert out["cells"] == 64
    assert out["cycle"] == {"1": 3, "2": 2, "3": 4, "4": 1}


def test_08_e6_duality():
    """Dual supports, brace closure, fixed-space dimensions 0, 6, and 17."""
    out = cli.check_e6_duality()
    assert out["brace_dimensions"] == {"0": 10, "6": 16, "17": 1}


def test_09_incidence():
    """Incidence across types, minuscule or not, and E7 ideal conditions."""
    out = cli.check_incidence()
    assert out["a3_counts"] == [4, 6, 4]
    assert out["d4_overlaps"] == [1, 3]


def test_10_properties():
    """Cross-checks: dimension formulas agree, duals involute, powers add up."""
    out = cli.check_properties()
    assert out["dimension_cases"] == 8
