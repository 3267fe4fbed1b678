"""Incidence geometry of a standard representation.

A geometry is a root system together with a distinguished fundamental weight
omega_beta.  Each node delta of the diagram yields a delta-space: the sum of
the weight spaces of V(omega_beta) at omega_beta - alpha, alpha running over
nonnegative combinations of simple roots from the connected component of beta
in the diagram with delta deleted.  Apartment objects are Weyl translates of
the standard spaces, each known by its barycenter (object_point); two are
incident when some chamber holds both (Tits).
"""

from .charring import irrep_character, minuscule_check
from .rootsystem import (MAX_WEIGHTS, ConsistencyError, RefusedError,
                         cached_property, closure)


def descent(rs, weights, top, nodes):
    """{weight: level} for the weights reached from top by subtracting
    alpha_i, i in nodes, one at a time without leaving weights.  Each step
    lowers the height by one, so the level of w is the height of top - w.
    The weights of an irreducible module form a saturated set, and so do
    those of the Levi module its highest weight generates on a set of
    nodes: from the highest weight this reaches every one of them.
    """
    alphas = [[(j, r) for j, r in enumerate(rs.cartan[rs.check_node(i) - 1])
               if r] for i in nodes]

    def step(w):
        for a in alphas:
            v = list(w)
            for j, r in a:
                v[j] -= r
            v = tuple(v)
            if v in weights:
                yield v

    return closure([tuple(top)], step)


class Geometry:
    """A root system with a chosen standard representation V(omega_beta)."""

    def __init__(self, rs, beta):
        self.rs = rs
        self.beta = beta
        self.hw = rs.fundamental_weight(beta)
        self.char = irrep_character(rs, self.hw)
        self.weights = frozenset(self.char.weights)
        self.minuscule = minuscule_check(rs, self.hw)
        self._spaces = {}

    def __repr__(self):
        return "Geometry(%s, beta=%d)" % (self.rs.label or "custom", self.beta)

    @cached_property
    def reflections(self):
        """[{w: s_i w} for each node i] on V's weights, built on first read,
        each s_i w the member of weights equal to it: the apartment walks'
        lookups of the supports they build then hit by identity."""
        own = {w: w for w in self.weights}
        return [{w: own[self.rs.reflect(i, w)] for w in self.weights}
                for i in self.rs.nodes]

    def delta_space(self, delta):
        if self.rs.check_node(delta) not in self._spaces:
            self._spaces[delta] = DeltaSpace(self, delta)
        return self._spaces[delta]


class DeltaSpace:
    """The standard delta-space of a geometry, delta in beta's component;
    its dimension is the sum of V's multiplicities over its support."""

    def __init__(self, geometry, delta):
        rs = geometry.rs
        self.geometry = geometry
        self.delta = delta
        self.component = rs.delta_component(geometry.beta, delta)
        # delta lies in beta's component iff it is beta or borders component
        if delta != geometry.beta and not any(
                rs.cartan[delta - 1][j - 1] for j in self.component):
            raise ValueError("type %d is outside the component of beta = %d"
                             % (delta, geometry.beta))
        levels = descent(rs, geometry.weights, geometry.hw, self.component)
        self.support = frozenset(levels)
        self.dimension = sum(geometry.char.weights[w] for w in self.support)
        # object_point rests on this: the support sums to c*omega_delta
        x = self.barycenter = barycenter(self.support)
        if x[delta - 1] <= 0 or any(x[:delta - 1] + x[delta:]):
            raise ConsistencyError("barycenter of the standard support "
                                   "is not on the omega_delta ray")
        deepest = max(levels.values())
        lowest = [w for w, k in levels.items() if k == deepest]
        if len(lowest) != 1:
            raise ConsistencyError("lowest weight is not unique")
        self.lowest_weight = lowest[0]

    @cached_property
    def levi_type(self):
        """Family label of the diagram on the component, None when empty;
        computed on first read."""
        if not self.component:
            return None
        return self.geometry.rs.restricted(self.component)[0].classify()

    def __repr__(self):
        return "DeltaSpace(delta=%d, dim=%d)" % (self.delta, self.dimension)


def dimension_diagram(geometry):
    """delta -> dim of the standard delta-space, for every node."""
    return {d: geometry.delta_space(d).dimension for d in geometry.rs.nodes}


def hasse_diagram(rs, lam):
    """Weights of V(lam) ordered by root-lattice descent.

    Returns (nodes, edges): nodes sorted by (level, weight), the level of w
    being the height of lam - w; edges are (upper, lower, i), by upper in
    node order and then by i, with lower = upper - alpha_i, both weights
    of V(lam): the loops append them in that order.
    """
    weights = set(irrep_character(rs, tuple(lam)).weights)
    levels = descent(rs, weights, tuple(lam), rs.nodes)
    if len(levels) != len(weights):
        raise ConsistencyError("a weight is not reached from the highest "
                               "weight")
    nodes = sorted(weights, key=lambda w: (levels[w], tuple(-x for x in w)))
    edges = []
    for u in nodes:
        for i in rs.nodes:
            v = tuple(a - b for a, b in zip(u, rs.cartan[i - 1]))
            if v in weights:
                edges.append((u, v, i))
    return nodes, edges


class ApartmentObject:
    """A Weyl translate of a standard delta-space, tracked by support."""

    __slots__ = ("delta", "support")

    def __init__(self, delta, support):
        self.delta = delta
        self.support = frozenset(support)

    def __eq__(self, other):
        return (isinstance(other, ApartmentObject)
                and self.delta == other.delta and self.support == other.support)

    def __hash__(self):
        return hash((self.delta, self.support))

    def __repr__(self):
        return "ApartmentObject(delta=%d, |support|=%d)" % (self.delta,
                                                            len(self.support))


def translate_support(rs, i, support):
    i = rs.check_node(i)
    return frozenset(rs.reflect(i, w) for w in support)


def apartment_objects(geometry, delta):
    """All Weyl translates of the standard delta-space, by level, the
    standard object first, in the order of rs.orbit(omega_delta): both walk
    its tree by rs.moves.

    An object is fixed by its point u in W.omega_delta (see object_point),
    so objects and points correspond one to one, commuting with each s_i.
    The walk carries each point, packed into an int, with its support: the
    frozenset of its parent's under s_i, read off geometry.reflections.  An
    apartment of more than MAX_WEIGHTS weights is refused before the walk.
    """
    rs = geometry.rs
    std = geometry.delta_space(delta).support
    top = rs.fundamental_weight(delta)
    size = rs.orbit_size(top) * len(std)
    if size > MAX_WEIGHTS:
        raise RefusedError("apartment of %d weights, above the limit of %d"
                           % (size, MAX_WEIGHTS))
    tables = [t.__getitem__ for t in geometry.reflections]
    # u_j + 8 in bits 4j..4j+3: u_j pairs omega_delta with a coroot, so |u_j|
    # is a dual root coefficient, at most 6 (E8); orbit_size refused more
    shifts = range(0, 4 * rs.rank, 4)
    rows = [sum(r << k for r, k in zip(row, shifts)) for row in rs.cartan]
    signs = [sum(8 << k for k in shifts[:i]) for i in range(len(shifts) + 1)]
    moves, supports = rs.moves, [std]
    frontier = [(signs[-1] + (1 << shifts[delta - 1]), rs.rank, std)]
    while frontier:
        new = []
        for x, f, s in frontier:
            for i in moves[f]:
                c = (x >> shifts[i] & 15) - 8
                if c > 0:
                    y = x - c * rows[i]
                    if i < f or y & signs[i] == signs[i]:
                        t = frozenset(map(tables[i], s))
                        new.append((y, i, t))
                        supports.append(t)
        frontier = new
    return [ApartmentObject(delta, s) for s in supports]


def standard_chamber(geometry):
    return [ApartmentObject(d, geometry.delta_space(d).support)
            for d in geometry.rs.nodes]


def barycenter(support):
    """Sum of the weights of a support, in fw coordinates."""
    return tuple(map(sum, zip(*support)))


def _require_weights(weights, support):
    """support as a frozenset; ValueError if a member is not in weights."""
    support = frozenset(support)
    for w in support - weights:
        raise ValueError("%r is not a weight here" % (w,))
    return support


def object_point(geometry, delta, support):
    """u in W.omega_delta when support is a type-delta object, whose
    barycenter is then c_delta*u, c_delta > 0 the standard one's delta
    coordinate; else None.  A non-weight, or a delta that is no node, raises
    ValueError.  Exact, since the standard support S is the face of V's
    weights where (., omega_delta) is greatest: the stabilizer of omega_delta
    fixes S, and a support T of |S| weights summing to c_delta*w(omega_delta)
    has w^-1 T summing to S's sum, so pairing with omega_delta to |S| times
    the greatest value: w^-1 T = S, and T = w S is the object of point u.
    """
    space = geometry.delta_space(delta)
    support = _require_weights(geometry.weights, support)
    c, x = space.barycenter[delta - 1], barycenter(support)
    if len(support) != len(space.support) or any(a % c for a in x):
        return None
    u = tuple(a // c for a in x)
    rs = geometry.rs
    return u if rs.dominant_rep(u) == rs.fundamental_weight(delta) else None


def incidence(geometry, a, b):
    """Incidence of two apartment objects: equal supports for one type, and
    for two types, that some chamber holds both (Tits).  Why the norm test
    below decides that, for x and y the barycenters of the supports and x+
    = c_a*omega_a, y+ = c_b*omega_b those of the standard spaces:

    1. An object is fixed by its barycenter, in W.x+ (see object_point), so
       the objects of type a are the cosets of the stabilizer of omega_a.
    2. So two objects share a chamber iff x and y lie in one closed Weyl
       chamber.
    3. That holds iff (x, y) = (x+, y+).  Write x = w x+; (x, y) <= (x+, y+)
       always, and if the pairings are equal, y+ - w^-1 y is a sum of simple
       roots orthogonal to x+.  Some element of their Weyl group, which
       fixes x+, makes w^-1 y dominant, that is equal to y+.

    |x + y|^2 = |x|^2 + |y|^2 + 2(x, y), so step 3 compares two norms.  a
    and b must be objects: a support that is no object is not detected.
    """
    if a.delta == b.delta:
        return a.support == b.support
    norm2 = geometry.rs.scaled_norm2
    return (norm2(barycenter([barycenter(o.support) for o in (a, b)]))
            == norm2(barycenter([geometry.delta_space(o.delta).barycenter
                                 for o in (a, b)])))


def chamber_pairwise_incident(geometry):
    """Check that the standard delta-spaces are pairwise incident."""
    chamber = standard_chamber(geometry)
    return all(incidence(geometry, a, b)
               for i, a in enumerate(chamber) for b in chamber[i + 1:])
