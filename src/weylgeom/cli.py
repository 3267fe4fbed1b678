"""Command line interface.

Subcommands expose the dimension diagrams, Hasse diagrams, orbits,
invariant multiplicities, branchings, incidence data, triality, and the
E6 duality, plus `verify`, which replays the acceptance checks in-process.

Output is deterministic: JSON is rendered with sorted keys and every list
has an explicit order.  Exit codes: 0 success, 1 internal consistency
failure, 2 usage error, 3 refused computation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import charring
from .charring import (
    NAMED_BRANCHINGS,
    exterior_power,
    irrep_character,
    minuscule_check,
    invariant_bilinear_type,
    power_series,
    symmetric_power,
    trivial_multiplicity,
    weyl_dimension,
)
from .duality import (
    E6Duality,
    Triality,
    chamber_automorphism_check,
    dn_swap_automorphism,
    e7_inner_ideal_check,
    e7_rank_one_check,
    wprime_orbits,
    zero_sum_triple_orbits,
)
from .geometry import (
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
from .rootsystem import ConsistencyError, IncidenceRuleMissing, RefusedError, RootSystem


class UsageError(Exception):
    pass


class CheckFailure(AssertionError):
    pass


def _expect(cond, msg):
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# acceptance checks; `verify` runs these and the acceptance tests call them


def check_dimension_diagrams():
    want = {
        ("A4", 1): {1: 1, 2: 2, 3: 3, 4: 4},
        ("B4", 1): {1: 1, 2: 2, 3: 3, 4: 4},
        ("C4", 1): {1: 1, 2: 2, 3: 3, 4: 4},
        ("D5", 1): {1: 1, 2: 2, 3: 3, 4: 5, 5: 5},
        ("E6", 1): {1: 1, 2: 6, 3: 2, 4: 3, 5: 5, 6: 10},
        ("E7", 7): {1: 12, 2: 7, 3: 6, 4: 4, 5: 3, 6: 2, 7: 1},
        ("E8", 8): {1: 14, 2: 8, 3: 7, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1},
        ("F4", 4): {1: 6, 2: 3, 3: 2, 4: 1},
        ("G2", 1): {1: 1, 2: 2},
        ("D4", 4): {1: 4, 2: 2, 3: 4, 4: 1},
        ("D5", 5): {1: 8, 2: 4, 3: 2, 4: 5, 5: 1},
        ("D6", 6): {1: 16, 2: 8, 3: 4, 4: 2, 5: 6, 6: 1},
    }
    out = {}
    for (name, beta), table in sorted(want.items()):
        got = dimension_diagram(Geometry(RootSystem.named(name), beta))
        _expect(got == table, "dimension diagram of %s with beta=%d: got %r"
                % (name, beta, got))
        out["%s beta=%d" % (name, beta)] = {str(k): v
                                            for k, v in sorted(got.items())}
    for n in (4, 5, 6):
        rs = RootSystem.named("D%d" % n)
        dd = halfspin_dimensions(rs)
        for i in range(1, n - 1):
            _expect(dd[i] == 2 ** (n - i - 1), "halfspin D%d node %d" % (n, i))
        _expect(dd[n - 1] == n and dd[n] == 1, "halfspin D%d fork" % n)
    return out


def check_standard_dimensions():
    cases = [("A4", 1, 5), ("B4", 1, 9), ("C4", 1, 8), ("D5", 1, 10),
             ("D4", 4, 8), ("E6", 1, 27), ("E7", 7, 56), ("F4", 4, 26),
             ("G2", 1, 7)]
    out = {}
    for name, idx, dim in cases:
        rs = RootSystem.named(name)
        lam = rs.fundamental_weight(idx)
        _expect(weyl_dimension(rs, lam) == dim,
                "dimension formula for %s node %d" % (name, idx))
        _expect(irrep_character(rs, lam).dimension() == dim,
                "character dimension for %s node %d" % (name, idx))
        out["%s:%d" % (name, idx)] = dim
    rs8 = RootSystem.named("E8")
    for idx, dim in ((8, 248), (1, 3875)):
        _expect(weyl_dimension(rs8, rs8.fundamental_weight(idx)) == dim,
                "dimension formula for E8 node %d" % idx)
        out["E8:%d" % idx] = dim
    return out


def check_e6_hasse():
    rs = RootSystem.named("E6")
    hw = (1, 0, 0, 0, 0, 0)
    nodes, edges = hasse_diagram(rs, hw)
    _expect(len(nodes) == 27, "27 weights")
    _expect(len(edges) == 36, "36 covers")
    wts = set(nodes)
    brute = set()
    for u in wts:
        for i in range(1, 7):
            v = tuple(a - b for a, b in zip(u, rs.alpha_fw(i)))
            if v in wts:
                brute.add((u, v, i))
    _expect(brute == set(edges), "brute edge recount")
    chain = [hw, (-1, 0, 1, 0, 0, 0), (0, 0, -1, 1, 0, 0), (0, 1, 0, -1, 1, 0)]
    _expect(nodes[:4] == chain, "top chain")
    for (u, v), i in zip(zip(chain, chain[1:]), (1, 3, 4)):
        _expect((u, v, i) in brute, "top chain label %d" % i)
    _expect({i for u, v, i in edges if u == chain[3]} == {2, 5},
            "first branch labels")
    dual = E6Duality()
    edge_set = set(edges)
    for u, v, i in edges:
        nu = tuple(-x for x in dual.phi_weight(u))
        nv = tuple(-x for x in dual.phi_weight(v))
        _expect((nv, nu, dual.phi_index(i)) in edge_set,
                "negated flip reverses edges")
    return {"nodes": len(nodes), "edges": len(edges)}


def check_invariant_forms():
    rs6 = RootSystem.named("E6")
    c27 = irrep_character(rs6, (1, 0, 0, 0, 0, 0))
    cubic = [trivial_multiplicity(rs6, symmetric_power(c27, k))
             for k in (1, 2, 3)]
    _expect(cubic == [0, 0, 1], "E6 cubic invariant: %r" % (cubic,))

    rs7 = RootSystem.named("E7")
    c56 = irrep_character(rs7, (0, 0, 0, 0, 0, 0, 1))
    _expect(trivial_multiplicity(rs7, exterior_power(c56, 2)) == 1,
            "E7 symplectic form")
    _expect(trivial_multiplicity(rs7, symmetric_power(c56, 2)) == 0,
            "E7 has no symmetric pairing")
    _expect(trivial_multiplicity(rs7, symmetric_power(c56, 4)) == 1,
            "E7 quartic invariant")

    rs4 = RootSystem.named("D4")
    triple = (irrep_character(rs4, (1, 0, 0, 0))
              * irrep_character(rs4, (0, 0, 1, 0))
              * irrep_character(rs4, (0, 0, 0, 1)))
    _expect(trivial_multiplicity(rs4, triple) == 1, "D4 triple pairing")

    kinds = {}
    for name, lam, want in (("D4", (1, 0, 0, 0), "Symmetric"),
                            ("D5", (1, 0, 0, 0, 0), "Symmetric"),
                            ("E7", (0, 0, 0, 0, 0, 0, 1), "Skew"),
                            ("E6", (1, 0, 0, 0, 0, 0), None)):
        got = invariant_bilinear_type(RootSystem.named(name), lam)
        _expect(got == want, "bilinear type of %s: %r" % (name, got))
        kinds[name] = got
    return {"e6_cubic": cubic, "bilinear": kinds}


def check_branchings():
    out = {}
    rule = NAMED_BRANCHINGS["e6-levi-d5"]()
    dec = rule.restrict_irrep((1, 0, 0, 0, 0, 0))
    _expect(dec == {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 1,
                    (0, 0, 0, 0, 0): 1}, "27 under the D5 Levi: %r" % (dec,))
    out["e6-levi-d5"] = sorted(weyl_dimension(rule.target, w)
                               for w, m in dec.items() for _ in range(m))
    _expect(out["e6-levi-d5"] == [1, 10, 16], "D5 Levi dimensions")

    rule = NAMED_BRANCHINGS["e6-fold-f4"]()
    dec = rule.restrict_irrep((1, 0, 0, 0, 0, 0))
    _expect(dec == {(0, 0, 0, 1): 1, (0, 0, 0, 0): 1},
            "27 under the fold: %r" % (dec,))
    out["e6-fold-f4"] = sorted(weyl_dimension(rule.target, w)
                               for w, m in dec.items() for _ in range(m))
    _expect(out["e6-fold-f4"] == [1, 26], "fold dimensions")

    rule = NAMED_BRANCHINGS["e7-levi-e6"]()
    dec = rule.restrict_irrep((0, 0, 0, 0, 0, 0, 1))
    _expect(dec == {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1,
                    (0, 0, 0, 0, 0, 0): 2}, "56 under the E6 Levi: %r"
            % (dec,))
    halves = [w for w in dec if any(w)]
    _expect(rule.target.dual_weight(halves[0]) == halves[1],
            "the two 27s are dual")
    out["e7-levi-e6"] = sorted(weyl_dimension(rule.target, w)
                               for w, m in dec.items() for _ in range(m))
    _expect(out["e7-levi-e6"] == [1, 1, 27, 27], "E6 Levi dimensions")
    return out


def check_orbits():
    rs = RootSystem.named("E6")
    wts = sorted(irrep_character(rs, (1, 0, 0, 0, 0, 0)).weights)
    orbits = wprime_orbits(rs, 6, wts)
    _expect([len(o) for o in orbits] == [1, 10, 16],
            "parabolic orbit sizes on the 27")
    _expect(orbits[0] == ((0, 0, 0, 0, 0, -1),), "lowest weight is alone")
    _expect((1, 0, 0, 0, 0, 0) in orbits[1], "highest weight sits in the 10")

    count = 0
    wset = set(wts)
    for a in wts:
        for b in wts:
            for c in wts:
                if all(x + y + z == 0 for x, y, z in zip(a, b, c)):
                    count += 1
    triples, torbits = zero_sum_triple_orbits(rs, wts, wts, wts)
    _expect(count == 270 and len(triples) == 270,
            "270 zero-sum triples on the 27")
    _expect([len(o) for o in torbits] == [270], "one orbit of triples")

    rs4 = RootSystem.named("D4")
    w1 = sorted(irrep_character(rs4, (1, 0, 0, 0)).weights)
    w3 = sorted(irrep_character(rs4, (0, 0, 1, 0)).weights)
    w4 = sorted(irrep_character(rs4, (0, 0, 0, 1)).weights)
    triples4, torbits4 = zero_sum_triple_orbits(rs4, w1, w3, w4)
    _expect(len(triples4) == 32, "32 mixed zero-sum triples on D4")
    _expect([len(o) for o in torbits4] == [32], "one orbit of D4 triples")
    return {"parabolic": [1, 10, 16], "e6_triples": 270, "d4_triples": 32}


TRIALITY_TABLE = (
    (None, None, None, "e1", None, "e2", "e3", "f4"),
    (None, None, "e1", None, "e2", None, "e4", "f3"),
    (None, "e1", None, None, "e3", "e4", None, "f2"),
    ("e1", None, None, None, "f4", "f3", "f2", None),
    (None, "e2", "e3", "e4", None, None, None, "f1"),
    ("e2", None, "f4", "f3", None, None, "f1", None),
    ("e3", "f4", None, "f2", None, "f1", None, None),
    ("e4", "f3", "f2", None, "f1", None, None, None),
)


def check_triality():
    tri = Triality()
    rows = tri.table()
    _expect(len(rows) == 8 and all(len(r) == 8 for r in rows), "8x8 table")
    for a, (got, want) in enumerate(zip(rows, TRIALITY_TABLE)):
        _expect(tuple(got) == want, "product table row %s" % tri.LABELS[a])
    _expect(tri.t_nonzero("e4", "e4", "e4"), "diagonal fork triple")

    g = tri.geometry
    s1 = g.delta_space(1).support
    s3 = g.delta_space(3).support
    s4 = g.delta_space(4).support
    _expect(tri.psi(1, s1) == (3, s3), "points go to 3-spaces")
    _expect(tri.psi(3, s3) == (4, s4), "3-spaces go to 4-spaces")
    _expect(tri.psi(4, s4) == (1, s1), "4-spaces go to points")
    s2 = g.delta_space(2).support
    _expect(tri.psi(2, s2) == (2, s2), "2-spaces stay put")
    for w in sorted(tri.weights):
        d, s = 1, frozenset((w,))
        for _ in range(3):
            d, s = tri.psi(d, s)
        _expect((d, s) == (1, frozenset((w,))), "third power is the identity")
    index_map, op = tri.psi_op()
    _expect(index_map == {1: 3, 2: 2, 3: 4, 4: 1}, "node rotation")
    _expect(chamber_automorphism_check(g, index_map, op),
            "triality is a chamber automorphism")
    return {"cells": 64, "cycle": {str(k): v for k, v in index_map.items()}}


def check_e6_duality():
    dual = E6Duality()
    for delta in range(1, 7):
        dual.psi_standard(delta)
        s = dual.standard_support(delta)
        _expect(dual.psi_support(dual.psi_support(s)) == s,
                "psi squared fixes type %d" % delta)

    s2 = dual.standard_support(2)
    s5 = dual.standard_support(5)
    x = s2 & s5
    _expect(len(x) == 4, "4-weight intersection")
    _expect(dual.psi_support(x) == dual.standard_support(3),
            "psi of the intersection")
    y = frozenset(x | {(0, 1, 0, 0, -1, 1)})
    _expect(dual.psi_support(y) == frozenset({(1, 0, 0, 0, 0, 0)}),
            "psi of the augmented set")
    _expect(dual.psi_support(dual.psi_support(x)) > x,
            "psi squared grows a non-closed set")

    hist = {}
    for my in sorted(dual.weights):
        k, _ = dual.dim_brace_vplus(my)
        hist[k] = hist.get(k, 0) + 1
    _expect(hist == {0: 10, 6: 16, 17: 1}, "brace dimensions: %r" % (hist,))
    k, supp = dual.dim_brace_vplus((0, 1, 0, 0, 0, -1))
    _expect(k == 6 and supp == s2, "brace support at the 16-orbit")

    for delta in range(1, 7):
        _expect(dual.verify_ln(delta), "vanishing pair for type %d" % delta)
    a_ok, b_ok = dual.ln_conditions(dual.standard_support(1), dual.weights)
    _expect(not a_ok and not b_ok, "perturbed vanishing must fail")

    index_map, op = dual.psi_op()
    _expect(chamber_automorphism_check(dual.geometry, index_map, op),
            "psi is a chamber automorphism")
    return {"brace_dimensions": {str(k): v for k, v in sorted(hist.items())}}


def check_incidence():
    from itertools import combinations

    g = Geometry(RootSystem.named("A3"), 1)
    objs = {d: apartment_objects(g, d) for d in (1, 2, 3)}
    _expect([len(objs[d]) for d in (1, 2, 3)] == [4, 6, 4],
            "A3 object counts")
    for d in (1, 2, 3):
        subsets = {frozenset(c) for c in combinations(g.weights, d)}
        _expect({o.support for o in objs[d]} == subsets,
                "A3 type %d objects are the %d-subsets" % (d, d))
    for da in (1, 2, 3):
        for db in (1, 2, 3):
            for a in objs[da]:
                for b in objs[db]:
                    want = (a.support == b.support if da == db
                            else a.support <= b.support
                            or b.support <= a.support)
                    _expect(incidence(g, a, b) == want, "A3 subset oracle")

    g4 = Geometry(RootSystem.named("D4"), 1)
    s3 = g4.delta_space(3).support
    a = ApartmentObject(3, s3)
    sizes = set()
    for b in apartment_objects(g4, 4):
        k = len(s3 & b.support)
        sizes.add(k)
        _expect(incidence(g4, a, b) == (k == 3), "D4 fork rule")
    _expect(sizes == {1, 3}, "D4 fork overlaps")

    for name, beta in (("A4", 1), ("C4", 1), ("D5", 1), ("E6", 1)):
        gg = Geometry(RootSystem.named(name), beta)
        _expect(chamber_pairwise_incident(gg),
                "%s standard chamber" % name)

    g6 = Geometry(RootSystem.named("E6"), 1)
    ch = {o.delta: o for o in standard_chamber(g6)}
    _expect(len(ch[2].support & ch[5].support) == 4, "E6 2-5 overlap")
    _expect(len(ch[2].support & ch[6].support) == 5, "E6 2-6 overlap")
    for word in ((2,), (1, 3), (4, 2, 5, 1), (6, 5, 4, 3, 1, 2)):
        moved = []
        for o in standard_chamber(g6):
            s = o.support
            for i in reversed(word):
                s = translate_support(g6.rs, i, s)
            moved.append(ApartmentObject(o.delta, s))
        for i, a in enumerate(moved):
            for b in moved[i + 1:]:
                _expect(incidence(g6, a, b), "translated chamber %r" % (word,))

    for name, beta in (("B4", 1), ("F4", 4), ("G2", 1), ("E8", 8)):
        try:
            standard_chamber(Geometry(RootSystem.named(name), beta))
        except RefusedError:
            pass
        else:
            raise CheckFailure("%s must refuse apartment objects" % name)

    g7 = Geometry(RootSystem.named("E7"), 7)
    ch7 = {o.delta: o for o in standard_chamber(g7)}
    try:
        incidence(g7, ch7[1], ch7[2])
    except IncidenceRuleMissing:
        pass
    else:
        raise CheckFailure("E7 cross-type incidence must be missing")
    _expect(e7_rank_one_check(g7), "E7 extreme weight pairing")
    for delta in range(1, 8):
        _expect(e7_inner_ideal_check(g7, delta),
                "E7 inner ideal for type %d" % delta)
    return {"a3_counts": [4, 6, 4], "d4_overlaps": [1, 3]}


def check_properties():
    dims = [("A2", (3, 1)), ("B2", (2, 1)), ("G2", (1, 1)), ("C3", (1, 1, 0)),
            ("D4", (0, 1, 0, 0)), ("F4", (1, 0, 0, 0)),
            ("E8", (0, 0, 0, 0, 0, 0, 0, 1)), ("E8", (1, 0, 0, 0, 0, 0, 0, 0))]
    seen = {}
    for name, lam in dims:
        rs = RootSystem.named(name)
        ch = irrep_character(rs, lam)
        want = weyl_dimension(rs, lam)
        _expect(ch.dimension() == want,
                "character of %s %r sums to %d" % (name, lam, want))
        seen["%s %r" % (name, lam)] = want

    for name, lam in (("A3", (1, 0, 0)), ("E6", (1, 0, 0, 0, 0, 0)),
                      ("D5", (0, 0, 0, 0, 1)), ("E7", (0, 0, 0, 0, 0, 0, 1)),
                      ("B3", (0, 0, 1))):
        rs = RootSystem.named(name)
        _expect(rs.dual_weight(rs.dual_weight(lam)) == lam,
                "dual of dual for %s" % name)

    for name, lam in (("E6", (1, 0, 0, 0, 0, 0)), ("A3", (0, 1, 0)),
                      ("G2", (1, 0))):
        rs = RootSystem.named(name)
        ch = irrep_character(rs, lam)
        _expect(symmetric_power(ch, 2) + exterior_power(ch, 2)
                == ch * ch, "square splits for %s" % name)

    for name in ("A3", "B3", "C3", "D4", "D5", "E6", "E7"):
        rs = RootSystem.named(name)
        for i in range(1, rs.rank + 1):
            lam = rs.fundamental_weight(i)
            if minuscule_check(rs, lam):
                ch = irrep_character(rs, lam)
                _expect(all(m == 1 for _, m in ch.items()),
                        "minuscule %s node %d is multiplicity free"
                        % (name, i))

    for n in (4, 5, 6):
        dd = halfspin_dimensions(RootSystem.named("D%d" % n))
        for i in range(1, n - 1):
            _expect(dd[i] == 2 ** (n - i - 1), "halfspin pattern D%d" % n)
    return {"dimension_cases": len(seen)}


ACCEPTANCE_CHECKS = (
    ("dimension-diagrams", check_dimension_diagrams),
    ("standard-dimensions", check_standard_dimensions),
    ("e6-hasse", check_e6_hasse),
    ("invariant-forms", check_invariant_forms),
    ("branchings", check_branchings),
    ("orbits", check_orbits),
    ("triality", check_triality),
    ("e6-duality", check_e6_duality),
    ("incidence", check_incidence),
    ("properties", check_properties),
)


# ---------------------------------------------------------------------------
# rendering


def render_weight(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def emit_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_ascii(payload, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)) and not _is_weight(v):
                lines.append(pad + str(k) + ":")
                lines.extend(emit_ascii(v, indent + 1))
            else:
                lines.append(pad + str(k) + ": " + _scalar(v))
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)) and not _is_weight(v):
                lines.append(pad + "-")
                lines.extend(emit_ascii(v, indent + 1))
            else:
                lines.append(pad + "- " + _scalar(v))
    else:
        lines.append(pad + _scalar(payload))
    return lines


def _is_weight(v):
    return isinstance(v, (list, tuple)) and v and all(isinstance(x, int)
                                                      for x in v)


def _scalar(v):
    if _is_weight(v):
        return render_weight(v)
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# subcommands


def default_beta(rs):
    label = rs.label or ""
    if label in ("E6",):
        return 1
    if label == "E7":
        return 7
    if label == "F4":
        return 4
    if label and label[0] in "ABCDG":
        return 1
    return None


def parse_weight(text, rank):
    try:
        w = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("weight must be comma-separated integers")
    if len(w) != rank:
        raise UsageError("weight needs %d coordinates" % rank)
    return w


def _system(name):
    try:
        return RootSystem.named(name)
    except ValueError as e:
        raise UsageError(str(e))


def _geometry(args):
    """The geometry named by args.system and args.beta, or its default."""
    rs = _system(args.system)
    beta = args.beta if args.beta is not None else default_beta(rs)
    if beta is None:
        raise UsageError("no default node for %s; pass --beta" % args.system)
    if not 1 <= beta <= rs.rank:
        raise UsageError("--beta must lie between 1 and %d" % rs.rank)
    return Geometry(rs, beta)


def cmd_dims(args):
    g = _geometry(args)
    rs, beta = g.rs, g.beta
    payload = {
        "system": args.system,
        "beta": beta,
        "minuscule": g.minuscule,
        "dimensions": {str(d): g.delta_space(d).dimension
                       for d in range(1, rs.rank + 1)},
        "levi_types": {str(d): g.delta_space(d).levi_type
                       for d in range(1, rs.rank + 1)},
        "support_sizes": {str(d): len(g.delta_space(d).support)
                          for d in range(1, rs.rank + 1)},
        "lowest_weights": {str(d): list(g.delta_space(d).lowest_weight)
                           for d in range(1, rs.rank + 1)},
    }
    return payload, None


def cmd_hasse(args):
    rs = _system(args.system)
    if not 1 <= args.index <= rs.rank:
        raise UsageError("index out of range")
    lam = rs.fundamental_weight(args.index)
    nodes, edges = hasse_diagram(rs, lam)
    payload = {
        "system": args.system,
        "weight": list(lam),
        "nodes": [list(w) for w in nodes],
        "edges": [[list(u), list(v), i] for u, v, i in edges],
    }
    dot = ["digraph hasse {"]
    for u, v, i in edges:
        dot.append('  "%s" -> "%s" [label=%d];'
                   % (render_weight(u), render_weight(v), i))
    dot.append("}")
    return payload, "\n".join(dot) + "\n"


def cmd_orbit(args):
    rs = _system(args.system)
    w = parse_weight(args.weight, rs.rank)
    orbit = rs.weyl_orbit(w)
    payload = {
        "system": args.system,
        "weight": list(w),
        "size": len(orbit),
        "orbit": [list(v) for v in orbit],
    }
    return payload, None


def cmd_invariants(args):
    rs = _system(args.system)
    w = parse_weight(args.weight, rs.rank)
    if not rs.is_dominant(w):
        raise UsageError("weight must be dominant")
    if args.max_degree < 1:
        raise UsageError("--max-degree must be at least 1")
    ch = irrep_character(rs, w)

    def trivial(alternating):
        series = power_series(ch, args.max_degree, alternating,
                              args.max_degree)
        return {str(k): trivial_multiplicity(rs, c)
                for k, c in enumerate(series) if k}

    payload = {
        "system": args.system,
        "weight": list(w),
        "dimension": ch.dimension(),
        "bilinear": invariant_bilinear_type(rs, w),
        "max_degree": args.max_degree,
        "symmetric_trivial": trivial(False),
        "exterior_trivial": trivial(True),
    }
    return payload, None


def cmd_branch(args):
    rule = NAMED_BRANCHINGS[args.rule]()
    if args.weight is not None:
        lam = parse_weight(args.weight, rule.source.rank)
        if not rule.source.is_dominant(lam):
            raise UsageError("weight must be dominant")
    else:
        lam = {"e6-levi-d5": (1, 0, 0, 0, 0, 0),
               "e6-fold-f4": (1, 0, 0, 0, 0, 0),
               "e7-levi-e6": (0, 0, 0, 0, 0, 0, 1)}[args.rule]
    dec = rule.restrict_irrep(lam)
    pieces = [{"weight": list(w), "multiplicity": m,
               "dimension": weyl_dimension(rule.target, w)}
              for w, m in sorted(dec.items(), reverse=True)]
    payload = {
        "rule": args.rule,
        "weight": list(lam),
        "decomposition": pieces,
        "dimension_check": sum(p["multiplicity"] * p["dimension"]
                               for p in pieces),
    }
    return payload, None


def cmd_incidence(args):
    g = _geometry(args)
    rs, beta = g.rs, g.beta
    chamber = {o.delta: o for o in standard_chamber(g)}
    pairs = []
    counts = {"incident": 0, "not_incident": 0, "no_rule": 0}
    for a in range(1, rs.rank + 1):
        for b in range(a + 1, rs.rank + 1):
            try:
                ok = incidence(g, chamber[a], chamber[b])
            except IncidenceRuleMissing:
                pairs.append({"a": a, "b": b, "incident": None})
                counts["no_rule"] += 1
            else:
                pairs.append({"a": a, "b": b, "incident": ok})
                counts["incident" if ok else "not_incident"] += 1
    payload = {
        "system": args.system,
        "beta": beta,
        "pairs": pairs,
        "counts": counts,
    }
    return payload, None


def cmd_triality(args):
    tri = Triality()
    if args.what == "table":
        rows = tri.table()
        payload = {
            "labels": list(tri.LABELS),
            "table": [[c for c in row] for row in rows],
        }
        width = max(len(a) for a in tri.LABELS)
        head = " " * (width + 1) + " ".join(a.rjust(2) for a in tri.LABELS)
        lines = [head]
        for a, row in zip(tri.LABELS, rows):
            lines.append(a.ljust(width + 1)
                         + " ".join((c or ".").rjust(2) for c in row))
        return payload, None, "\n".join(lines) + "\n"
    if args.what == "psi":
        g = tri.geometry
        spaces = []
        for d in range(1, 5):
            s = g.delta_space(d).support
            d2, img = tri.psi(d, s)
            spaces.append({
                "delta": d,
                "psi_delta": d2,
                "support": sorted([list(w) for w in s], reverse=True),
                "image": sorted([list(w) for w in img], reverse=True),
                "matches_standard": img == g.delta_space(d2).support,
            })
        payload = {"cycle": {str(k): v for k, v in tri.PHI.items()},
                   "spaces": spaces}
        return payload, None, None
    triples = []
    for a in tri.LABELS:
        for b in tri.LABELS:
            for c in tri.LABELS:
                if tri.t_nonzero(a, b, c):
                    triples.append([a, b, c])
    payload = {"count": len(triples), "triples": triples}
    return payload, None, None


def cmd_duality(args):
    dual = E6Duality()
    if args.what == "e6-chamber":
        spaces = []
        for d in range(1, 7):
            s = dual.standard_support(d)
            img = dual.psi_standard(d)
            spaces.append({
                "delta": d,
                "psi_delta": dual.phi_index(d),
                "size": len(s),
                "psi_size": len(img),
            })
        payload = {"index_map": {str(k): v for k, v in dual.PHI.items()},
                   "spaces": spaces}
    elif args.what == "e6-extra":
        s2 = dual.standard_support(2)
        s5 = dual.standard_support(5)
        x = s2 & s5
        y = frozenset(x | {(0, 1, 0, 0, -1, 1)})
        px = dual.psi_support(x)
        payload = {
            "x": sorted([list(w) for w in x], reverse=True),
            "psi_x": sorted([list(w) for w in px], reverse=True),
            "psi_x_is_standard_3": px == dual.standard_support(3),
            "psi_y": sorted([list(w) for w in dual.psi_support(y)],
                            reverse=True),
            "psi_psi_x_strictly_contains_x":
                dual.psi_support(px) > x,
        }
    elif args.what == "e6-brace-dims":
        hist = {}
        rows = []
        for my in sorted(dual.weights, reverse=True):
            k, supp = dual.dim_brace_vplus(my)
            hist[str(k)] = hist.get(str(k), 0) + 1
            rows.append({"weight": list(my), "dimension": k,
                         "support_size": len(supp)})
        payload = {"histogram": hist, "rows": rows}
    elif args.what == "e6-ln":
        payload = {str(d): dual.verify_ln(d) for d in range(1, 7)}
    else:
        tri = Triality()
        im6, op6 = dual.psi_op()
        im4, op4 = tri.psi_op()
        g5 = Geometry(RootSystem.named("D5"), 1)
        im5, op5 = dn_swap_automorphism(g5)
        payload = {
            "e6-psi": chamber_automorphism_check(dual.geometry, im6, op6),
            "d4-triality": chamber_automorphism_check(tri.geometry, im4, op4),
            "d5-chirality-swap": chamber_automorphism_check(g5, im5, op5),
        }
    return payload, None


def cmd_verify(args):
    names = [n for n, _ in ACCEPTANCE_CHECKS]
    wanted = names if args.name == "all" else [args.name]
    failed = 0
    for name, fn in ACCEPTANCE_CHECKS:
        if name not in wanted:
            continue
        try:
            fn()
        except (CheckFailure, ConsistencyError) as e:
            print("FAIL %s: %s" % (name, e))
            failed += 1
        else:
            print("PASS %s" % name)
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Reads comma-separated integer lists such as -1,0 as values, not as
    flags.  This sets a private attribute of argparse; subparsers inherit
    the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")


def build_parser():
    p = _Parser(
        prog="weylgeom",
        description="incidence geometry of standard representations")
    p.add_argument("--format", choices=("json", "ascii", "dot"),
                   default="json")
    p.add_argument("--cache-dir", default=os.environ.get("WEYLGEOM_CACHE"),
                   help="directory for the character disk cache "
                        "(default: $WEYLGEOM_CACHE)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("dims", help="dimension diagram of a geometry")
    q.add_argument("system")
    q.add_argument("--beta", type=int, default=None)

    q = sub.add_parser("hasse", help="weight Hasse diagram of V(omega_i)")
    q.add_argument("system")
    q.add_argument("index", type=int)

    q = sub.add_parser("orbit", help="Weyl orbit of a weight")
    q.add_argument("system")
    q.add_argument("weight")

    q = sub.add_parser("invariants",
                       help="trivial multiplicities in tensor powers")
    q.add_argument("system")
    q.add_argument("weight")
    q.add_argument("--max-degree", type=int, default=3)

    q = sub.add_parser("branch", help="restrict an irreducible character")
    q.add_argument("rule", choices=sorted(NAMED_BRANCHINGS))
    q.add_argument("--weight", default=None)

    q = sub.add_parser("incidence",
                       help="pairwise incidence of the standard chamber")
    q.add_argument("system")
    q.add_argument("--beta", type=int, default=None)

    q = sub.add_parser("triality", help="D4 triality data")
    q.add_argument("what", choices=("table", "psi", "triples"))

    q = sub.add_parser("duality", help="E6 duality data")
    q.add_argument("what", choices=("e6-chamber", "e6-extra",
                                    "e6-brace-dims", "e6-ln",
                                    "automorphisms"))

    q = sub.add_parser("verify", help="run the acceptance checks")
    q.add_argument("name", nargs="?", default="all",
                   choices=["all"] + [n for n, _ in ACCEPTANCE_CHECKS])
    return p


COMMANDS = {
    "dims": cmd_dims,
    "hasse": cmd_hasse,
    "orbit": cmd_orbit,
    "invariants": cmd_invariants,
    "branch": cmd_branch,
    "incidence": cmd_incidence,
    "triality": cmd_triality,
    "duality": cmd_duality,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cache_dir:
            try:
                charring.STORE = charring.TableStore(args.cache_dir)
            except OSError as e:
                raise UsageError("cache directory %s is not usable (%s)"
                                 % (args.cache_dir, e.strerror))
        if args.command == "verify":
            return cmd_verify(args)
        result = COMMANDS[args.command](args)
        payload, dot = result[0], result[1]
        ascii_override = result[2] if len(result) > 2 else None
        if args.format == "json":
            sys.stdout.write(emit_json(payload))
        elif args.format == "ascii":
            text = ascii_override or "\n".join(emit_ascii(payload)) + "\n"
            sys.stdout.write(text)
        else:
            if dot is None:
                raise UsageError("no dot rendering for this command")
            sys.stdout.write(dot)
        return 0
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RefusedError as e:
        print("refused: %s" % e, file=sys.stderr)
        return 3
    except ConsistencyError as e:
        print("inconsistent: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
