"""Acceptance suite: one test per headline claim, all exact-integer checks.

Each test drives the same check function the ``weylgeom verify`` command
runs, so a green run here matches a clean ``weylgeom verify all``.  A check
asserts its facts itself and returns None; it raises CheckFailure or
ConsistencyError on the first fact that fails.
"""

import subprocess
import sys

from weylgeom import cli


def test_01_dimension_diagrams():
    """Node-indexed dimension tables for A4, B4, C4, D5, E6, E7, E8, F4, G2."""
    assert cli.check_dimension_diagrams() is None


def test_02_standard_dimensions():
    """Standard representation dimensions, with E8 handled by formula only."""
    assert cli.check_standard_dimensions() is None


def test_03_e6_hasse():
    """Weight poset of the 27-dimensional representation: 27 nodes, 36 edges."""
    assert cli.check_e6_hasse() is None


def test_04_invariant_forms():
    """Cubic form on the 27, quartic on the 56, D4 triple product, form types."""
    assert cli.check_invariant_forms() is None


def test_05_branchings():
    """Named restriction rules split the standard representations correctly."""
    assert cli.check_branchings() is None


def test_06_orbits():
    """Parabolic orbit sizes and zero-sum triple counts."""
    assert cli.check_orbits() is None


def test_07_triality():
    """D4 multiplication table, chamber automorphism, order-three symmetry."""
    assert cli.check_triality() is None


def test_08_e6_duality():
    """Dual supports, brace closure, fixed-space dimensions 0, 6, and 17."""
    assert cli.check_e6_duality() is None


def test_09_incidence():
    """Incidence across types, minuscule or not, and E7 ideal conditions."""
    assert cli.check_incidence() is None


def test_10_properties():
    """Cross-checks: dimension formulas agree, duals involute, powers add up."""
    assert cli.check_properties() is None


def test_verify_all_in_a_fresh_process():
    """The command itself: exit 0 and one PASS line per check, in order."""
    proc = subprocess.run([sys.executable, "-m", "weylgeom.cli", "verify",
                           "all"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "".join("PASS %s\n" % name
                                  for name, _ in cli.ACCEPTANCE_CHECKS)
    assert len(cli.ACCEPTANCE_CHECKS) == 10
