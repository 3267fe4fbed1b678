"""Incidence geometry of a standard representation.

A geometry is a root system together with a distinguished fundamental weight
omega_beta.  Each node delta of the diagram yields a delta-space: the span of
the weights omega_beta - alpha where alpha runs over nonnegative combinations
of simple roots from the connected component of beta in the diagram with
delta deleted.  Apartment objects are Weyl translates of the standard spaces;
incidence between objects of different types follows containment where the
general containment criterion applies, plus the documented special pairs.
"""

from __future__ import annotations

from functools import cached_property

from .charring import irrep_character, minuscule_check, weyl_dimension
from .rootsystem import (
    ConsistencyError,
    IncidenceRuleMissing,
    RefusedError,
    RootSystem,
    cartan_isomorphisms,
    closure,
)


class Geometry:
    """A root system with a chosen standard representation V(omega_beta)."""

    def __init__(self, rs, beta):
        if not 1 <= beta <= rs.rank:
            raise ValueError("beta out of range")
        self.rs = rs
        self.beta = beta
        self.hw = rs.fundamental_weight(beta)
        self.char = irrep_character(rs, self.hw)
        self.weights = frozenset(self.char.weights)
        self.minuscule = minuscule_check(rs, self.hw)
        self._spaces = {}

    def __repr__(self):
        return "Geometry(%s, beta=%d)" % (self.rs.label or "custom", self.beta)

    def delta_space(self, delta):
        if delta not in self._spaces:
            self._spaces[delta] = DeltaSpace(self, delta)
        return self._spaces[delta]

    @cached_property
    def _named(self):
        """(named system, node map, beta there): the isomorphism onto the
        family's own numbering that sends beta to the smallest node."""
        named = RootSystem.named(self.rs.label or self.rs.classify())
        iso = min(cartan_isomorphisms(self.rs.cartan, named.cartan),
                  key=lambda p: p[self.beta - 1])
        return (named, {i + 1: j + 1 for i, j in enumerate(iso)},
                iso[self.beta - 1] + 1)

    def depth(self, w):
        """Coordinates of hw - w on the simple roots (nonnegative ints)."""
        diff = tuple(a - b for a, b in zip(self.hw, w))
        q = self.rs.simple_coords_int(diff)
        if any(x < 0 for x in q):
            raise ConsistencyError("weight above the highest weight")
        return q


class DeltaSpace:
    """The standard delta-space of a geometry."""

    def __init__(self, geometry, delta):
        rs = geometry.rs
        if not 1 <= delta <= rs.rank:
            raise ValueError("delta out of range")
        self.geometry = geometry
        self.delta = delta
        self.component = rs.delta_component(geometry.beta, delta)
        support = []
        for w in geometry.weights:
            q = geometry.depth(w)
            if all(q[i - 1] == 0 for i in range(1, rs.rank + 1)
                   if i not in self.component):
                support.append(w)
        self.support = frozenset(support)
        if self.component:
            sub, nodes = rs.restricted(self.component)
            pos = nodes.index(geometry.beta) + 1
            self.levi_type = sub.classify()
            self.dimension = weyl_dimension(sub, sub.fundamental_weight(pos))
        else:
            self.levi_type = None
            self.dimension = 1
        if geometry.minuscule and self.dimension != len(self.support):
            raise ConsistencyError("dimension and support size disagree")
        self.lowest_weight = self._lowest()

    def _lowest(self):
        rs = self.geometry.rs
        depths = {w: self.geometry.depth(w) for w in self.support}
        minimal = [w for w in self.support
                   if not any(v != w and all(a >= b for a, b in
                                             zip(depths[v], depths[w]))
                              for v in self.support)]
        if len(minimal) != 1:
            raise ConsistencyError("lowest weight is not unique")
        return minimal[0]

    def __repr__(self):
        return "DeltaSpace(delta=%d, dim=%d)" % (self.delta, self.dimension)


def dimension_diagram(geometry):
    """delta -> dim of the standard delta-space, for every node."""
    return {delta: geometry.delta_space(delta).dimension
            for delta in range(1, geometry.rs.rank + 1)}


def halfspin_dimensions(rs_dn):
    """Dimension diagram of a D_n system with beta = n (a fork node)."""
    label = rs_dn.classify()
    if not label.startswith("D"):
        raise ValueError("need a D-family system")
    return dimension_diagram(Geometry(rs_dn, rs_dn.rank))


def hasse_diagram(rs, lam):
    """Weights of V(lam) ordered by root-lattice descent.

    Returns (nodes, edges): nodes sorted by (depth, weight), edges are
    (upper, lower, i) with lower = upper - alpha_i, both weights of V(lam).
    """
    char = irrep_character(rs, tuple(lam))
    weights = set(char.weights)
    hw = tuple(lam)

    def depth(w):
        return sum(rs.simple_coords_int(tuple(a - b for a, b in zip(hw, w))))

    nodes = sorted(weights, key=lambda w: (depth(w), tuple(-x for x in w)))
    edges = []
    for u in nodes:
        for i in range(1, rs.rank + 1):
            v = tuple(a - b for a, b in zip(u, rs.alpha_fw(i)))
            if v in weights:
                edges.append((u, v, i))
    edges.sort(key=lambda e: (depth(e[0]), tuple(-x for x in e[0]), e[2]))
    return nodes, edges


class ApartmentObject:
    """A Weyl translate of a standard delta-space, tracked by support."""

    __slots__ = ("delta", "support", "word")

    def __init__(self, delta, support, word=()):
        self.delta = delta
        self.support = frozenset(support)
        self.word = tuple(word)

    def __eq__(self, other):
        return (isinstance(other, ApartmentObject)
                and self.delta == other.delta and self.support == other.support)

    def __hash__(self):
        return hash((self.delta, self.support))

    def __repr__(self):
        return "ApartmentObject(delta=%d, |support|=%d)" % (self.delta,
                                                            len(self.support))


def _require_minuscule(geometry):
    if not geometry.minuscule:
        raise RefusedError(
            "apartment objects are only defined for a multiplicity-free "
            "orbit representation; %r is not one" % (geometry,))


def translate_support(rs, i, support):
    return frozenset(rs.reflect(i, w) for w in support)


def apartment_objects(geometry, delta):
    """All Weyl translates of the standard delta-space, with words."""
    _require_minuscule(geometry)
    rs = geometry.rs
    words = closure([geometry.delta_space(delta).support], lambda s: (
        (i, translate_support(rs, i, s)) for i in range(1, rs.rank + 1)))
    objs = [ApartmentObject(delta, s, w) for s, w in words.items()]
    objs.sort(key=lambda o: (len(o.word), sorted(o.support, reverse=True)))
    return objs


def standard_chamber(geometry):
    _require_minuscule(geometry)
    return [ApartmentObject(d, geometry.delta_space(d).support)
            for d in range(1, geometry.rs.rank + 1)]


def _a_type_terminal(rs, beta, delta):
    """Does the containment criterion apply on the delta side: component of
    type A with beta at an end."""
    comp = rs.delta_component(beta, delta)
    if not comp:
        return False
    sub, _ = rs.restricted(comp)
    if sub.classify()[0] != "A":
        return False
    inside = [j for j in rs.neighbors(beta) if j in comp]
    return len(inside) <= 1


def incidence(geometry, a, b):
    """Incidence of two apartment objects.

    Same type: equality of supports.  Different types: containment where the
    general criterion applies, plus the special intersection-size rules of
    the simply-laced vector geometries.  The rules read node numbers in the
    family's own numbering, so types are translated there first; supports
    are compared as they are.  Raises IncidenceRuleMissing where no rule is
    stated.
    """
    _require_minuscule(geometry)
    if a.delta == b.delta:
        return a.support == b.support
    rs, node, beta = geometry._named
    da, db = node[a.delta], node[b.delta]
    label = rs.label
    pair = {da, db}

    if label == "E6" and beta == 1:
        if pair == {2, 5}:
            return len(a.support & b.support) == 4
        if pair == {2, 6}:
            return len(a.support & b.support) == 5
        ca = rs.delta_component(1, da)
        cb = rs.delta_component(1, db)
        if ca >= cb:
            return a.support >= b.support
        if cb >= ca:
            return b.support >= a.support
        raise ConsistencyError("unexpected component pair")

    if label == "E7" and beta == 7:
        raise IncidenceRuleMissing("no incidence rule for types %d, %d in %r"
                                   % (a.delta, b.delta, geometry))

    if label[0] == "D" and beta == 1 and pair == {rs.rank - 1, rs.rank}:
        return len(a.support & b.support) == rs.rank - 1

    ca = rs.delta_component(beta, da)
    cb = rs.delta_component(beta, db)
    if ca >= cb and _a_type_terminal(rs, beta, da):
        return a.support >= b.support
    if cb >= ca and _a_type_terminal(rs, beta, db):
        return b.support >= a.support
    raise IncidenceRuleMissing("no incidence rule for types %d, %d in %r"
                               % (a.delta, b.delta, geometry))


def chamber_pairwise_incident(geometry):
    """Check that the standard delta-spaces are pairwise incident."""
    chamber = standard_chamber(geometry)
    for i, a in enumerate(chamber):
        for b in chamber[i + 1:]:
            if not incidence(geometry, a, b):
                return False
    return True
