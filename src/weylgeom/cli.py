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
    for (name, beta), table in sorted(want.items()):
        got = dimension_diagram(Geometry(RootSystem.named(name), beta))
        _expect(got == table, "dimension diagram of %s with beta=%d: got %r"
                % (name, beta, got))


def check_standard_dimensions():
    cases = [("A4", 1, 5), ("B4", 1, 9), ("C4", 1, 8), ("D5", 1, 10),
             ("D4", 4, 8), ("E6", 1, 27), ("E7", 7, 56), ("F4", 4, 26),
             ("G2", 1, 7)]
    for name, idx, dim in cases:
        rs = RootSystem.named(name)
        lam = rs.fundamental_weight(idx)
        _expect(weyl_dimension(rs, lam) == dim,
                "dimension formula for %s node %d" % (name, idx))
        _expect(irrep_character(rs, lam).dimension() == dim,
                "character dimension for %s node %d" % (name, idx))
    rs8 = RootSystem.named("E8")
    for idx, dim in ((8, 248), (1, 3875)):
        _expect(weyl_dimension(rs8, rs8.fundamental_weight(idx)) == dim,
                "dimension formula for E8 node %d" % idx)


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
    for u, v, i in edges:
        nu = tuple(-x for x in E6Duality.phi_weight(u))
        nv = tuple(-x for x in E6Duality.phi_weight(v))
        _expect((nv, nu, E6Duality.PHI[i]) in brute,
                "negated flip reverses edges")


def check_invariant_forms():
    e6 = invariants_payload(RootSystem.named("E6"), (1, 0, 0, 0, 0, 0), 3)
    _expect(e6["symmetric_trivial"] == {"1": 0, "2": 0, "3": 1},
            "E6 cubic invariant: %r" % (e6["symmetric_trivial"],))

    e7 = invariants_payload(RootSystem.named("E7"), (0, 0, 0, 0, 0, 0, 1), 4)
    _expect(e7["exterior_trivial"]["2"] == 1, "E7 symplectic form")
    _expect(e7["symmetric_trivial"]["2"] == 0, "E7 has no symmetric pairing")
    _expect(e7["symmetric_trivial"]["4"] == 1, "E7 quartic invariant")

    rs4 = RootSystem.named("D4")
    v, s, c = (irrep_character(rs4, lam)
               for lam in ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    triple = decompose(rs4, v * s * c)
    _expect(triple.get(rs4.zero()) == 1, "D4 triple pairing")

    for payload, want in (
            (invariants_payload(rs4, (1, 0, 0, 0), 1), "Symmetric"),
            (invariants_payload(RootSystem.named("D5"), (1, 0, 0, 0, 0), 1),
             "Symmetric"), (e7, "Skew"), (e6, None)):
        _expect(payload["bilinear"] == want, "bilinear type of %s: %r"
                % (payload["system"], payload["bilinear"]))


def check_branchings():
    for name, want, dims in (
            ("e6-levi-d5", {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 1,
                            (0, 0, 0, 0, 0): 1}, [1, 10, 16]),
            ("e6-fold-f4", {(0, 0, 0, 1): 1, (0, 0, 0, 0): 1}, [1, 26]),
            ("e7-levi-e6", {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1,
                            (0, 0, 0, 0, 0, 0): 2}, [1, 1, 27, 27])):
        rule = NAMED_BRANCHINGS[name]()
        lam = rule.source.fundamental_weight(default_beta(rule.source))
        pieces = branch_payload(name, rule, lam)["decomposition"]
        got = {tuple(p["weight"]): p["multiplicity"] for p in pieces}
        _expect(got == want, "%s of V%r: %r" % (name, lam, got))
        _expect(sorted(p["dimension"] for p in pieces
                       for _ in range(p["multiplicity"])) == dims,
                "%s dimensions" % name)
    # the last rule is E7's Levi E6: the two 27s in the 56 are dual
    halves = [w for w in got if any(w)]
    _expect(rule.target.dual_weight(halves[0]) == halves[1],
            "the two 27s are dual")


def check_orbits():
    from .duality import wprime_orbits, zero_sum_triple_orbits
    rs = RootSystem.named("E6")
    wts = sorted(irrep_character(rs, (1, 0, 0, 0, 0, 0)).weights)
    orbits = wprime_orbits(rs, 6, wts)
    _expect([len(o) for o in orbits] == [1, 10, 16],
            "parabolic orbit sizes on the 27")
    _expect(orbits[0] == ((0, 0, 0, 0, 0, -1),), "lowest weight is alone")
    _expect((1, 0, 0, 0, 0, 0) in orbits[1], "highest weight sits in the 10")

    count = sum(all(x + y + z == 0 for x, y, z in zip(a, b, c))
                for a in wts for b in wts for c in wts)
    triples, torbits = zero_sum_triple_orbits(rs, wts, wts, wts)
    _expect(count == 270 and len(triples) == 270,
            "270 zero-sum triples on the 27")
    _expect([len(o) for o in torbits] == [270], "one orbit of triples")

    rs4 = RootSystem.named("D4")
    triples4, torbits4 = zero_sum_triple_orbits(rs4, *(
        sorted(irrep_character(rs4, rs4.fundamental_weight(i)).weights)
        for i in (1, 3, 4)))
    _expect(len(triples4) == 32, "32 mixed zero-sum triples on D4")
    _expect([len(o) for o in torbits4] == [32], "one orbit of D4 triples")


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
    from .duality import E6Duality, Triality, zero_sum_triple_orbits
    tri = Triality()
    rows = TRIALITY["table"](tri)[0]["table"]
    _expect(rows == [list(r) for r in TRIALITY_TABLE],
            "8x8 product table: %r" % (rows,))

    psi = TRIALITY["psi"](tri)[0]
    _expect(psi["cycle"] == {"1": 3, "2": 2, "3": 4, "4": 1}, "node rotation")
    _expect([(s["delta"], s["psi_delta"], s["matches_standard"])
             for s in psi["spaces"]]
            == [(1, 3, True), (2, 2, True), (3, 4, True), (4, 1, True)],
            "psi takes 1-, 3- and 4-spaces round and keeps 2-spaces")
    for w in sorted(tri.weights):
        d, s = 1, frozenset((w,))
        for _ in range(3):
            d, s = tri.psi(d, s)
        _expect((d, s) == (1, frozenset((w,))), "third power is the identity")
    auto = DUALITY["automorphisms"](E6Duality())[0]
    _expect(all(auto.values()), "chamber automorphisms: %r" % auto)

    triples = TRIALITY["triples"](tri)[0]["triples"]
    _expect(["e4", "e4", "e4"] in triples, "diagonal fork triple")
    # (id, phi, phi^2) carries the labelled triples onto the zero-sum
    # triples of V(omega_1) x V(omega_3) x V(omega_4)
    lw, rs = tri.label_weight, tri.rs
    mapped = {(lw[a], tri.phi_weight(lw[b]), tri.phi2_weight(lw[c]))
              for a, b, c in triples}
    zero_sum, _ = zero_sum_triple_orbits(rs, *(
        irrep_character(rs, rs.fundamental_weight(i)).weights
        for i in (1, 3, 4)))
    _expect(len(triples) == 32 and mapped == set(zero_sum),
            "triples are the zero-sum triples")


def check_e6_duality():
    from .duality import E6Duality, chamber_automorphism_check
    dual = E6Duality()
    chamber = DUALITY["e6-chamber"](dual)[0]
    _expect([(s["psi_delta"], s["size"], s["psi_size"]) for s in
             chamber["spaces"]] == [(6, 1, 10), (2, 6, 6), (5, 2, 5),
                                    (4, 3, 3), (3, 5, 2), (1, 10, 1)],
            "psi of the standard spaces: %r" % (chamber["spaces"],))
    std = {d: dual.geometry.delta_space(d).support for d in dual.rs.nodes}
    for delta, s in std.items():
        _expect(dual.psi_support(dual.psi_support(s)) == s,
                "psi squared fixes type %d" % delta)

    extra = DUALITY["e6-extra"](dual)[0]
    _expect(len(extra["x"]) == 4, "4-weight intersection")
    _expect(extra["psi_x_is_standard_3"], "psi of the intersection")
    _expect(extra["psi_y"] == [[1, 0, 0, 0, 0, 0]], "psi of the augmented set")
    _expect(extra["psi_psi_x_strictly_contains_x"],
            "psi squared grows a non-closed set")

    brace = DUALITY["e6-brace-dims"](dual)[0]
    hist = brace["histogram"]
    _expect(hist == {"0": 10, "6": 16, "17": 1}, "brace dimensions: %r" % hist)
    mu = (0, 1, 0, 0, 0, -1)
    _expect({"weight": list(mu), "dimension": 6, "support_size": 6}
            in brace["rows"] and dual.dim_brace_vplus(mu)[1]
            == std[2], "brace support at the 16-orbit")

    ln = DUALITY["e6-ln"](dual)[0]
    _expect(all(ln.values()), "vanishing pairs: %r" % ln)
    a_ok, b_ok = dual.ln_conditions(std[1], dual.weights)
    _expect(not a_ok and not b_ok, "perturbed vanishing must fail")

    _expect(chamber_automorphism_check(dual.geometry, dual.psi),
            "psi is a chamber automorphism")


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


def check_properties():
    dims = [("A2", (3, 1)), ("B2", (2, 1)), ("G2", (1, 1)), ("C3", (1, 1, 0)),
            ("D4", (0, 1, 0, 0)), ("F4", (1, 0, 0, 0)),
            ("E8", (0, 0, 0, 0, 0, 0, 0, 1)), ("E8", (1, 0, 0, 0, 0, 0, 0, 0))]
    for name, lam in dims:
        rs = RootSystem.named(name)
        ch = irrep_character(rs, lam)
        want = weyl_dimension(rs, lam)
        _expect(ch.dimension() == want,
                "character of %s %r sums to %d" % (name, lam, want))

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
    if isinstance(payload, dict):
        items = [(str(k) + ":", payload[k]) for k in sorted(payload)]
    elif isinstance(payload, list):
        items = [("-", v) for v in payload]
    else:
        return [pad + _scalar(payload)]
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list)) and not _is_weight(v):
            lines.append(pad + head)
            lines.extend(emit_ascii(v, indent + 1))
        else:
            lines.append(pad + head + " " + _scalar(v))
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
    return {
        "system": g.rs.label,
        "beta": g.beta,
        "minuscule": g.minuscule,
        "dimensions": {d: s.dimension for d, s in spaces.items()},
        "levi_types": {d: s.levi_type for d, s in spaces.items()},
        "support_sizes": {d: len(s.support) for d, s in spaces.items()},
        "lowest_weights": {d: list(s.lowest_weight)
                           for d, s in spaces.items()},
    }, {}


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
    dot = "".join('  "%s" -> "%s" [label=%d];\n'
                  % (render_weight(u), render_weight(v), i)
                  for u, v, i in edges)
    return payload, {"dot": "digraph hasse {\n%s}\n" % dot}


def cmd_orbit(args):
    rs = _system(args.system)
    w = parse_weight(args.weight, rs.rank)
    orbit = rs.weyl_orbit(w)
    return {
        "system": rs.label,
        "weight": list(w),
        "size": len(orbit),
        "orbit": [list(v) for v in orbit],
    }, {}


def invariants_payload(rs, w, max_degree):
    sym, ext = ({str(k): c.get(rs.zero(), 0) for k, c in enumerate(s) if k}
                for s in power_decompositions(rs, w, max_degree))
    return {
        "system": rs.label,
        "weight": list(w),
        "dimension": weyl_dimension(rs, w),
        "bilinear": invariant_bilinear_type(rs, w),
        "max_degree": max_degree,
        "symmetric_trivial": sym,
        "exterior_trivial": ext,
    }


def cmd_invariants(args):
    rs = _system(args.system)
    w = parse_weight(args.weight, rs.rank)
    if min(w) < 0:
        raise UsageError("weight must be dominant")
    if args.max_degree < 1:
        raise UsageError("--max-degree must be at least 1")
    return invariants_payload(rs, w, args.max_degree), {}


def branch_payload(name, rule, lam):
    dec = rule.restrict_irrep(lam)
    pieces = [{"weight": list(w), "multiplicity": m,
               "dimension": weyl_dimension(rule.target, w)}
              for w, m in sorted(dec.items(), reverse=True)]
    return {
        "rule": name,
        "weight": list(lam),
        "decomposition": pieces,
        "dimension_check": sum(p["multiplicity"] * p["dimension"]
                               for p in pieces),
    }


def cmd_branch(args):
    rule = NAMED_BRANCHINGS[args.rule]()
    if args.weight is not None:
        lam = parse_weight(args.weight, rule.source.rank)
        if min(lam) < 0:
            raise UsageError("weight must be dominant")
    else:
        lam = rule.source.fundamental_weight(default_beta(rule.source))
    return branch_payload(args.rule, rule, lam), {}


def cmd_incidence(args):
    g = _geometry(args)
    chamber = {o.delta: o for o in standard_chamber(g)}
    pairs = [{"a": a, "b": b,
              "incident": incidence(g, chamber[a], chamber[b])}
             for a in g.rs.nodes for b in g.rs.nodes[a:]]
    n = sum(p["incident"] for p in pairs)
    return {
        "system": g.rs.label,
        "beta": g.beta,
        "pairs": pairs,
        "counts": {"incident": n, "not_incident": len(pairs) - n},
    }, {}


# one producer per `what` of triality and duality: each takes the Triality
# or E6Duality built, returns (payload, renderings), and is what verify reads


def _sorted_weights(support):
    return sorted([list(w) for w in support], reverse=True)


def triality_table(tri):
    rows = tri.table()
    width = max(len(a) for a in tri.LABELS)
    lines = [" " * (width + 1) + " ".join(a.rjust(2) for a in tri.LABELS)]
    for a, row in zip(tri.LABELS, rows):
        lines.append(a.ljust(width + 1)
                     + " ".join((c or ".").rjust(2) for c in row))
    return ({"labels": list(tri.LABELS), "table": [list(r) for r in rows]},
            {"ascii": "\n".join(lines) + "\n"})


def triality_psi(tri):
    g = tri.geometry
    spaces = []
    for d in g.rs.nodes:
        s = g.delta_space(d).support
        d2, img = tri.psi(d, s)
        spaces.append({
            "delta": d,
            "psi_delta": d2,
            "support": _sorted_weights(s),
            "image": _sorted_weights(img),
            "matches_standard": img == g.delta_space(d2).support,
        })
    return {"cycle": {str(k): v for k, v in tri.PHI.items()},
            "spaces": spaces}, {}


def triality_triples(tri):
    triples = [[a, b, c] for a in tri.LABELS for b in tri.LABELS
               for c in tri.LABELS if tri.t_nonzero(a, b, c)]
    return {"count": len(triples), "triples": triples}, {}


def duality_e6_chamber(dual):
    spaces = [{"delta": d, "psi_delta": dual.PHI[d],
               "size": len(dual.geometry.delta_space(d).support),
               "psi_size": len(dual.psi_standard(d))} for d in dual.rs.nodes]
    return {"index_map": {str(k): v for k, v in dual.PHI.items()},
            "spaces": spaces}, {}


def duality_e6_extra(dual):
    g = dual.geometry
    x = g.delta_space(2).support & g.delta_space(5).support
    px = dual.psi_support(x)
    return {
        "x": _sorted_weights(x),
        "psi_x": _sorted_weights(px),
        "psi_x_is_standard_3": px == g.delta_space(3).support,
        "psi_y": _sorted_weights(dual.psi_support(
            x | {(0, 1, 0, 0, -1, 1)})),
        "psi_psi_x_strictly_contains_x": dual.psi_support(px) > x,
    }, {}


def duality_e6_brace_dims(dual):
    hist, rows = {}, []
    for my in sorted(dual.weights, reverse=True):
        k, supp = dual.dim_brace_vplus(my)
        hist[str(k)] = hist.get(str(k), 0) + 1
        rows.append({"weight": list(my), "dimension": k,
                     "support_size": len(supp)})
    return {"histogram": hist, "rows": rows}, {}


def duality_e6_ln(dual):
    std = {d: dual.geometry.delta_space(d).support for d in dual.rs.nodes}
    return {str(d): all(dual.ln_conditions(std[d], std[dual.PHI[d]]))
            for d in std}, {}


def duality_automorphisms(dual):
    from .duality import Triality, chamber_automorphism_check, diagram_duality
    tri = Triality()
    g5 = Geometry(RootSystem.named("D5"), 1)
    return {
        "e6-psi": chamber_automorphism_check(dual.geometry, dual.psi),
        "d4-triality": chamber_automorphism_check(tri.geometry, tri.psi),
        "d5-chirality-swap": chamber_automorphism_check(
            g5, diagram_duality(g5, (1, 2, 3, 5, 4))),
    }, {}


TRIALITY = {"table": triality_table, "psi": triality_psi,
            "triples": triality_triples}
DUALITY = {"e6-chamber": duality_e6_chamber, "e6-extra": duality_e6_extra,
           "e6-brace-dims": duality_e6_brace_dims, "e6-ln": duality_e6_ln,
           "automorphisms": duality_automorphisms}


def cmd_triality(args):
    from .duality import Triality
    return TRIALITY[args.what](Triality())


def cmd_duality(args):
    from .duality import E6Duality
    return DUALITY[args.what](E6Duality())


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


# command: (function, positionals, specs, choices).  The function takes the
# parsed Args and returns (payload, renderings), renderings mapping a
# --format name to the text printed instead of the generic rendering of
# payload; cmd_verify prints PASS/FAIL lines and returns the exit code.  specs
# maps each option, and each positional that is not a required string, to
# (parser, default text); choices maps a name to its allowed values.  The
# entry None holds the global options, which come before the command;
# --cache-dir is accepted and ignored, as there is no disk cache.
SYNTAX = {
    None: (None, (), {"--format": (str, "json"), "--cache-dir": (str, None)},
           {"--format": ("json", "ascii", "dot")}),
    "dims": (cmd_dims, ("system",), {"--beta": (parse_int, None)}, {}),
    "hasse": (cmd_hasse, ("system", "index"), {"index": (parse_int, None)},
              {}),
    "orbit": (cmd_orbit, ("system", "weight"), {}, {}),
    "invariants": (cmd_invariants, ("system", "weight"),
                   {"--max-degree": (parse_int, "3")}, {}),
    "branch": (cmd_branch, ("rule",), {"--weight": (str, None)},
               {"rule": tuple(sorted(NAMED_BRANCHINGS))}),
    "incidence": (cmd_incidence, ("system",), {"--beta": (parse_int, None)},
                  {}),
    "triality": (cmd_triality, ("what",), {}, {"what": tuple(TRIALITY)}),
    "duality": (cmd_duality, ("what",), {}, {"what": tuple(DUALITY)}),
    "verify": (cmd_verify, ("name",), {"name": (str, "all")},
               {"name": ("all",) + tuple(n for n, _ in ACCEPTANCE_CHECKS)}),
}


def usage():
    """The --help text, read off SYNTAX."""
    lines = []
    for command, (_, positionals, specs, choices) in SYNTAX.items():
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
            if name not in SYNTAX[command][2]:
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
    positionals = SYNTAX[command][1]
    if len(given) > len(positionals):
        raise UsageError("unexpected argument %r" % given[len(positionals)])
    values.update(zip(positionals, given))
    out = Args()
    out.command = command
    for _, positionals, specs, choices in (SYNTAX[None], SYNTAX[command]):
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


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(usage())
            return 0
        result = SYNTAX[args.command][0](args)
        if args.command == "verify":
            return result
        payload, renderings = result
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
