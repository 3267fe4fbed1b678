"""Command line interface.

Subcommands expose the dimension diagrams, Hasse diagrams, orbits,
invariant multiplicities, branchings, incidence data, triality, and the
E6 duality, plus `verify`, which replays the acceptance checks in-process.

Output is deterministic: JSON is rendered with sorted keys and every list
has an explicit order.  Exit codes: 0 success, 1 internal consistency
failure, 2 usage error, 3 refused computation.
"""

import sys

from .charring import (
    NAMED_BRANCHINGS,
    decompose,
    exterior_power,
    irrep_character,
    minuscule_check,
    invariant_bilinear_type,
    power_decompositions,
    symmetric_power,
    weyl_dimension,
)
from .geometry import (
    ApartmentObject,
    Geometry,
    apartment_objects,
    chamber_pairwise_incident,
    dimension_diagram,
    hasse_diagram,
    incidence,
    standard_chamber,
    translate_support,
)
from .rootsystem import ConsistencyError, RefusedError, RootSystem
# .duality is imported inside its users, so other commands start without it


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
        for i in rs.nodes:
            v = tuple(a - b for a, b in zip(u, rs.cartan[i - 1]))
            if v in wts:
                brute.add((u, v, i))
    _expect(brute == set(edges), "brute edge recount")
    chain = [hw, (-1, 0, 1, 0, 0, 0), (0, 0, -1, 1, 0, 0), (0, 1, 0, -1, 1, 0)]
    _expect(nodes[:4] == chain, "top chain")
    for (u, v), i in zip(zip(chain, chain[1:]), (1, 3, 4)):
        _expect((u, v, i) in brute, "top chain label %d" % i)
    _expect({i for u, v, i in edges if u == chain[3]} == {2, 5},
            "first branch labels")
    from .duality import E6Duality
    dual = E6Duality()
    edge_set = set(edges)
    for u, v, i in edges:
        nu = tuple(-x for x in dual.phi_weight(u))
        nv = tuple(-x for x in dual.phi_weight(v))
        _expect((nv, nu, dual.PHI[i]) in edge_set,
                "negated flip reverses edges")
    return {"nodes": len(nodes), "edges": len(edges)}


def check_invariant_forms():
    rs6 = RootSystem.named("E6")
    cubic = [c.get(rs6.zero(), 0) for c in
             power_decompositions(rs6, (1, 0, 0, 0, 0, 0), 3)[0][1:]]
    _expect(cubic == [0, 0, 1], "E6 cubic invariant: %r" % (cubic,))

    rs7 = RootSystem.named("E7")
    sym, ext = power_decompositions(rs7, (0, 0, 0, 0, 0, 0, 1), 4)
    _expect(ext[2].get(rs7.zero()) == 1, "E7 symplectic form")
    _expect(rs7.zero() not in sym[2], "E7 has no symmetric pairing")
    _expect(sym[4].get(rs7.zero()) == 1, "E7 quartic invariant")

    rs4 = RootSystem.named("D4")
    v, s, c = (irrep_character(rs4, lam)
               for lam in ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    triple = decompose(rs4, v * s * c)
    _expect(triple.get(rs4.zero()) == 1, "D4 triple pairing")

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
    from .duality import wprime_orbits, zero_sum_triple_orbits
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
    from .duality import Triality, chamber_automorphism_check
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
    _expect(tri.PHI == {1: 3, 2: 2, 3: 4, 4: 1}, "node rotation")
    _expect(chamber_automorphism_check(g, tri.psi),
            "triality is a chamber automorphism")
    return {"cells": 64, "cycle": {str(k): v for k, v in tri.PHI.items()}}


def check_e6_duality():
    from .duality import E6Duality, chamber_automorphism_check
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

    _expect(chamber_automorphism_check(dual.geometry, dual.psi),
            "psi is a chamber automorphism")
    return {"brace_dimensions": {str(k): v for k, v in sorted(hist.items())}}


def check_incidence():
    from .duality import e7_inner_ideal_check, e7_rank_one_check
    g = Geometry(RootSystem.named("A3"), 1)
    objs = {d: apartment_objects(g, d) for d in (1, 2, 3)}
    _expect([len(objs[d]) for d in (1, 2, 3)] == [4, 6, 4],
            "A3 object counts")
    subsets = [frozenset()]
    for w in g.weights:
        subsets += [s | {w} for s in subsets]
    for d in (1, 2, 3):
        _expect({o.support for o in objs[d]}
                == {s for s in subsets if len(s) == d},
                "A3 type %d objects are the %d-subsets" % (d, d))
    # B4's vector geometry has the zero weight; incidence is containment too
    for gg in (g, Geometry(RootSystem.named("B4"), 1)):
        objs = [o for d in gg.rs.nodes for o in apartment_objects(gg, d)]
        for a in objs:
            for b in objs:
                want = (a.support == b.support if a.delta == b.delta
                        else a.support <= b.support or b.support <= a.support)
                _expect(incidence(gg, a, b) == want,
                        "%s subset oracle" % gg.rs.label)

    g4 = Geometry(RootSystem.named("D4"), 1)
    s3 = g4.delta_space(3).support
    a = ApartmentObject(3, s3)
    sizes = set()
    for b in apartment_objects(g4, 4):
        k = len(s3 & b.support)
        sizes.add(k)
        _expect(incidence(g4, a, b) == (k == 3), "D4 fork rule")
    _expect(sizes == {1, 3}, "D4 fork overlaps")

    for name, beta in (("A4", 1), ("C4", 1), ("D5", 1), ("E6", 1), ("E7", 7),
                       ("B4", 1), ("F4", 4), ("G2", 1), ("E8", 8)):
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

    g7 = Geometry(RootSystem.named("E7"), 7)
    rs7 = g7.rs
    objs7 = {d: apartment_objects(g7, d) for d in range(1, 8)}
    for d, objs in objs7.items():
        _expect(len(objs) == rs7.orbit_size(rs7.fundamental_weight(d)),
                "E7 type-%d object count" % d)
    # type-b objects on the standard a-object: |W_{S-a}|/|W_{S-a-b}|, that is
    # E6/D5 = 27, D6/D5 = 12, C3/B2 = 6, A1 = 2 and D7/D6 = 14
    for name, beta, da, db, want in (
            ("E7", 7, 7, 1, 27), ("E7", 7, 1, 7, 12), ("F4", 4, 1, 4, 6),
            ("G2", 1, 1, 2, 2), ("E8", 8, 1, 8, 14)):
        gg = Geometry(RootSystem.named(name), beta)
        a = ApartmentObject(da, gg.delta_space(da).support)
        _expect(sum(incidence(gg, a, o) for o in apartment_objects(gg, db))
                == want, "%s type-%d objects on the standard %d-object"
                % (name, db, da))
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
        for i in rs.nodes:
            lam = rs.fundamental_weight(i)
            if minuscule_check(rs, lam):
                ch = irrep_character(rs, lam)
                _expect(all(m == 1 for _, m in ch.items()),
                        "minuscule %s node %d is multiplicity free"
                        % (name, i))
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
    """json.dumps(payload, sort_keys=True, indent=2) + "\\n" on str-keyed
    dicts, lists, tuples, ints, bools, None and strings json writes as they
    are (printable ASCII, no quote or backslash); anything else raises."""
    return _json(payload, "\n") + "\n"


def _json(v, newline):
    if v is None or isinstance(v, bool):
        return {None: "null", True: "true", False: "false"}[v]
    if type(v) is int:
        return str(v)
    if type(v) is str:
        if not (v.isascii() and v.isprintable()) or '"' in v or "\\" in v:
            raise ValueError("string %r needs escapes" % v)
        return '"%s"' % v
    inner = newline + "  "
    if isinstance(v, dict):
        if not all(type(k) is str for k in v):
            raise TypeError("dict keys must be strings")
        items = [inner + _json(k, inner) + ": " + _json(v[k], inner)
                 for k in sorted(v)]
        return "{" + ",".join(items) + newline + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        if v and all(type(x) is int for x in v):
            body = ("," + inner).join(map(str, v))
            return "[" + inner + body + newline + "]"
        items = [inner + _json(x, inner) for x in v]
        return "[" + ",".join(items) + newline + "]" if items else "[]"
    raise TypeError("cannot render %s as json" % type(v).__name__)


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
    """The node of the standard representation of a named system; E8 has
    none."""
    return {"E7": 7, "E8": None, "F4": 4}.get(rs.label, 1)


def parse_int(text):
    """An optional - and ASCII digits as an int; int() takes more."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError("%r is not an integer" % text)
    return int(text)


def parse_weight(text, rank):
    try:
        w = tuple(parse_int(x) for x in text.split(","))
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
        raise UsageError("no default node for %s; pass --beta" % rs.label)
    if beta not in rs.nodes:
        raise UsageError("--beta must lie between 1 and %d" % rs.rank)
    return Geometry(rs, beta)


def cmd_dims(args):
    g = _geometry(args)
    spaces = {str(d): g.delta_space(d) for d in g.rs.nodes}
    payload = {
        "system": g.rs.label,
        "beta": g.beta,
        "minuscule": g.minuscule,
        "dimensions": {d: s.dimension for d, s in spaces.items()},
        "levi_types": {d: s.levi_type for d, s in spaces.items()},
        "support_sizes": {d: len(s.support) for d, s in spaces.items()},
        "lowest_weights": {d: list(s.lowest_weight)
                           for d, s in spaces.items()},
    }
    return payload, {}


def cmd_hasse(args):
    rs = _system(args.system)
    if args.index not in rs.nodes:
        raise UsageError("index out of range")
    lam = rs.fundamental_weight(args.index)
    nodes, edges = hasse_diagram(rs, lam)
    payload = {
        "system": rs.label,
        "weight": list(lam),
        "nodes": [list(w) for w in nodes],
        "edges": [[list(u), list(v), i] for u, v, i in edges],
    }
    dot = ["digraph hasse {"]
    for u, v, i in edges:
        dot.append('  "%s" -> "%s" [label=%d];'
                   % (render_weight(u), render_weight(v), i))
    dot.append("}")
    return payload, {"dot": "\n".join(dot) + "\n"}


def cmd_orbit(args):
    rs = _system(args.system)
    w = parse_weight(args.weight, rs.rank)
    orbit = rs.weyl_orbit(w)
    payload = {
        "system": rs.label,
        "weight": list(w),
        "size": len(orbit),
        "orbit": [list(v) for v in orbit],
    }
    return payload, {}


def cmd_invariants(args):
    rs = _system(args.system)
    w = parse_weight(args.weight, rs.rank)
    if not rs.is_dominant(w):
        raise UsageError("weight must be dominant")
    if args.max_degree < 1:
        raise UsageError("--max-degree must be at least 1")

    sym, ext = ({str(k): c.get(rs.zero(), 0) for k, c in enumerate(s) if k}
                for s in power_decompositions(rs, w, args.max_degree))

    payload = {
        "system": rs.label,
        "weight": list(w),
        "dimension": weyl_dimension(rs, w),
        "bilinear": invariant_bilinear_type(rs, w),
        "max_degree": args.max_degree,
        "symmetric_trivial": sym,
        "exterior_trivial": ext,
    }
    return payload, {}


def cmd_branch(args):
    rule = NAMED_BRANCHINGS[args.rule]()
    if args.weight is not None:
        lam = parse_weight(args.weight, rule.source.rank)
        if not rule.source.is_dominant(lam):
            raise UsageError("weight must be dominant")
    else:
        lam = rule.source.fundamental_weight(default_beta(rule.source))
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
    return payload, {}


def cmd_incidence(args):
    g = _geometry(args)
    rs, beta = g.rs, g.beta
    chamber = {o.delta: o for o in standard_chamber(g)}
    pairs = []
    counts = {"incident": 0, "not_incident": 0}
    for a in rs.nodes:
        for b in rs.nodes[a:]:
            ok = incidence(g, chamber[a], chamber[b])
            pairs.append({"a": a, "b": b, "incident": ok})
            counts["incident" if ok else "not_incident"] += 1
    payload = {
        "system": rs.label,
        "beta": beta,
        "pairs": pairs,
        "counts": counts,
    }
    return payload, {}


def cmd_triality(args):
    from .duality import Triality
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
        return payload, {"ascii": "\n".join(lines) + "\n"}
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
        return payload, {}
    triples = []
    for a in tri.LABELS:
        for b in tri.LABELS:
            for c in tri.LABELS:
                if tri.t_nonzero(a, b, c):
                    triples.append([a, b, c])
    payload = {"count": len(triples), "triples": triples}
    return payload, {}


def cmd_duality(args):
    from .duality import (E6Duality, Triality, chamber_automorphism_check,
                          diagram_duality)
    dual = E6Duality()
    if args.what == "e6-chamber":
        spaces = []
        for d in range(1, 7):
            s = dual.standard_support(d)
            img = dual.psi_standard(d)
            spaces.append({
                "delta": d,
                "psi_delta": dual.PHI[d],
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
        g5 = Geometry(RootSystem.named("D5"), 1)
        payload = {
            "e6-psi": chamber_automorphism_check(dual.geometry, dual.psi),
            "d4-triality": chamber_automorphism_check(tri.geometry, tri.psi),
            "d5-chirality-swap": chamber_automorphism_check(
                g5, diagram_duality(g5, (1, 2, 3, 5, 4))),
        }
    return payload, {}


def cmd_verify(args):
    failed = 0
    for name, fn in ACCEPTANCE_CHECKS:
        if args.name not in ("all", name):
            continue
        try:
            fn()
        except (CheckFailure, ConsistencyError) as e:
            print("FAIL %s: %s" % (name, e))
            failed += 1
        else:
            print("PASS %s" % name)
    return 1 if failed else 0


# command: (positionals, specs, choices).  specs maps each option, and
# each positional that is not a required string, to (parser, default text);
# choices maps a name to its allowed values.  The entry None holds the
# global options, which come before the command; --cache-dir is accepted and
# ignored, as there is no disk cache.
SYNTAX = {
    None: ((), {"--format": (str, "json"), "--cache-dir": (str, None)},
           {"--format": ("json", "ascii", "dot")}),
    "dims": (("system",), {"--beta": (parse_int, None)}, {}),
    "hasse": (("system", "index"), {"index": (parse_int, None)}, {}),
    "orbit": (("system", "weight"), {}, {}),
    "invariants": (("system", "weight"), {"--max-degree": (parse_int, "3")},
                   {}),
    "branch": (("rule",), {"--weight": (str, None)},
               {"rule": tuple(sorted(NAMED_BRANCHINGS))}),
    "incidence": (("system",), {"--beta": (parse_int, None)}, {}),
    "triality": (("what",), {}, {"what": ("table", "psi", "triples")}),
    "duality": (("what",), {}, {"what": ("e6-chamber", "e6-extra",
                                         "e6-brace-dims", "e6-ln",
                                         "automorphisms")}),
    "verify": (("name",), {"name": (str, "all")},
               {"name": ("all",) + tuple(n for n, _ in ACCEPTANCE_CHECKS)}),
}


def usage():
    """The --help text, read off SYNTAX."""
    lines = []
    for command, (positionals, specs, choices) in SYNTAX.items():
        words = [command or "usage: weylgeom"]
        for name in dict.fromkeys((*positionals, *specs)):
            word = ("{%s}" % ",".join(choices[name]) if name in choices
                    else name.lstrip("-").upper())
            if name not in positionals:
                word = "[%s %s]" % (name, word)
            elif specs.get(name, (str, None))[1] is not None:
                word = "[%s]" % word
            words.append(word)
        lines.append(" ".join(words))
    return ("%s COMMAND ...\n\ncommands:\n  %s\n\n--cache-dir is accepted "
            "and ignored.  Options are named in full, as --opt VALUE or\n"
            "--opt=VALUE.  Exit codes: 0 success, 1 inconsistency, 2 usage "
            "error, 3 refused.\n" % (lines[0], "\n  ".join(lines[1:])))


class Args:
    """A parsed command line: command and one attribute per SYNTAX name."""


def parse_args(argv):
    """The command line as Args, or None when it asks for help; a line
    that does not fit SYNTAX raises UsageError.  The argument after an
    option is its value, whatever it looks like, so -1,0 can be a weight."""
    command, given = None, []
    values = {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        if arg.startswith("--"):
            name, eq, value = arg.partition("=")
            if name not in SYNTAX[command][1]:
                raise UsageError("%r is not an option of %s"
                                 % (name, command or "weylgeom"))
            values[name] = value if eq else next(args, None)
            if values[name] is None:
                raise UsageError("%s needs a value" % name)
        elif command is None:
            if arg not in SYNTAX:
                raise UsageError("unknown command %r; see --help" % arg)
            command = arg
        else:
            given.append(arg)
    if command is None:
        raise UsageError("no command given; see --help")
    positionals = SYNTAX[command][0]
    if len(given) > len(positionals):
        raise UsageError("unexpected argument %r" % given[len(positionals)])
    values.update(zip(positionals, given))
    out = Args()
    out.command = command
    for positionals, specs, choices in (SYNTAX[None], SYNTAX[command]):
        for name in dict.fromkeys((*positionals, *specs)):
            kind, default = specs.get(name, (str, None))
            value = values.get(name, default)
            if value is None and name in positionals:
                raise UsageError("%s needs a %s" % (command, name))
            try:
                value = value if value is None else kind(value)
            except ValueError:
                raise UsageError("%s must be an integer, got %r"
                                 % (name, value))
            if name in choices and value not in choices[name]:
                raise UsageError("%s must be one of %s; got %r"
                                 % (name, ", ".join(choices[name]), value))
            setattr(out, name.lstrip("-").replace("-", "_"), value)
    return out


# each returns (payload, renderings); renderings maps a --format name to the
# text printed instead of the generic rendering of payload
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(usage())
            return 0
        if args.command == "verify":
            return cmd_verify(args)
        payload, renderings = COMMANDS[args.command](args)
        if args.format in renderings:
            text = renderings[args.format]
        elif args.format == "json":
            text = emit_json(payload)
        elif args.format == "ascii":
            text = "\n".join(emit_ascii(payload)) + "\n"
        else:
            raise UsageError("no %s rendering for this command" % args.format)
        sys.stdout.write(text)
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
