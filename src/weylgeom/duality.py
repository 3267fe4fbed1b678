"""Dualities of the geometries.

Support-level symmetries, each expressed purely in terms of weight
arithmetic on a standard representation:

  * every diagram automorphism, on any geometry's objects (diagram_duality);
  * the order-2 duality of the 27-weight geometry (E6 with beta = 1),
    realized by intersecting hyperlines or by a brace-closure filter;
  * triality on the D4 vector weights, realized by an 8x8 partial product
    whose nonzero entries follow the two diagram rotations.

The last two are explicit constructions of maps the first one also gives.
All maps act on supports (finite sets of weights); every structural claim
is re-verified on the spot and a mismatch raises ConsistencyError.  Only
geometry.object_point decides whether a support is an object of a type.
"""

from .geometry import (Geometry, _require_weights, object_point,
                       translate_support)
from .rootsystem import ConsistencyError, RootSystem, cached_property, closure


def _require_object(geometry, delta, support):
    """support as a frozenset; ValueError unless a type-delta object."""
    support = frozenset(support)
    if object_point(geometry, delta, support) is None:
        raise ValueError("not an object of type %d" % delta)
    return support


def triple_sums(xs, ys, zs):
    """Every x + y + z over xs, ys and zs, lazily, so that all() and any()
    stop early; the E6 brace relation reads E6Duality._reaches instead."""
    return (tuple(a + b + c for a, b, c in zip(x, y, z))
            for x in xs for y in ys for z in zs)


def _orbit_partition(items, step, reverse=False):
    """The orbits of step on items, each a sorted tuple (descending when
    reverse), the list sorted by (size, first element); ConsistencyError
    when an orbit leaves items."""
    left = set(items)
    orbits = []
    while left:
        orbit = closure([next(iter(left))], step)
        if not orbit.keys() <= left:
            raise ConsistencyError("an orbit left the given set")
        left -= orbit.keys()
        orbits.append(tuple(sorted(orbit, reverse=reverse)))
    orbits.sort(key=lambda o: (len(o), o[0]))
    return orbits


def wprime_orbits(rs, removed, weights):
    """Orbits on `weights` of the reflections s_i with i != removed, each
    sorted descending."""
    removed = rs.check_node(removed)
    return _orbit_partition(weights, lambda w: (
        rs.reflect(i, w) for i in rs.nodes if i != removed), reverse=True)


def zero_sum_triple_orbits(rs, s1, s2, s3):
    """All (w1, w2, w3) in s1 x s2 x s3 with w1 + w2 + w3 = 0, sorted, plus
    their orbits under the diagonal Weyl action.  Returns (triples, orbits)."""
    set3 = set(s3)
    triples = []
    for a in s1:
        for b in s2:
            c = tuple(-x - y for x, y in zip(a, b))
            if c in set3:
                triples.append((a, b, c))
    triples.sort()
    return triples, _orbit_partition(triples, lambda t: (
        tuple(rs.reflect(i, w) for w in t) for i in rs.nodes))


def chamber_automorphism_check(geometry, op):
    """Check that op is a chamber automorphism.

    op(delta, support) -> (m(delta), support') must permute the types by
    m, send the standard delta-space to the standard m(delta)-space, and
    satisfy op(delta, s_i S) = s_{m(i)} op(delta, S).
    """
    rs = geometry.rs
    supp = {d: geometry.delta_space(d).support for d in rs.nodes}
    images = {d: op(d, supp[d]) for d in rs.nodes}
    index_map = {d: images[d][0] for d in rs.nodes}
    if sorted(index_map.values()) != list(rs.nodes):
        return False
    for d in rs.nodes:
        d2 = index_map[d]
        if images[d] != (d2, supp[d2]):
            return False
        for i in rs.nodes:
            want = translate_support(rs, index_map[i], supp[d2])
            if op(d, translate_support(rs, i, supp[d])) != (d2, want):
                return False
    return True


def diagram_duality(geometry, perm):
    """The op for chamber_automorphism_check induced by the diagram
    automorphism i -> perm[i - 1].  perm permutes fw coordinates and
    intertwines s_i with s_perm(i), so op sends the type-delta object of
    point u (object_point) to the type-perm(delta) object of point perm(u):
    the standard one translated back along the reflections, each at the
    first negative coordinate, that make perm(u) dominant, or None when that
    weight is not omega_perm(delta), as when perm is no automorphism, and
    when the support is no object; a perm of anything but the nodes is
    refused when op is made.  op keeps the image, a function of
    (perm(delta), perm(u)), for every point a reduction passes, so a later
    reduction stops at the first such point it reaches.
    """
    rs = geometry.rs
    if sorted(map(rs.check_node, perm)) != list(rs.nodes):
        raise ValueError("%r is not a permutation of the nodes" % (perm,))
    images = {}

    def op(delta, support):
        u, d2 = object_point(geometry, delta, support), perm[delta - 1]
        if u is None:
            return d2, None
        u = tuple(u[perm.index(i)] for i in rs.nodes)
        path = []
        while (d2, u) not in images and min(u) < 0:
            i = next(j for j, x in enumerate(u, 1) if x < 0)
            path.append((u, i))
            u = rs.reflect(i, u)
        if (d2, u) not in images:
            images[d2, u] = (geometry.delta_space(d2).support
                             if u == rs.fundamental_weight(d2) else None)
        image = images[d2, u]
        for v, i in reversed(path):
            if image is not None:
                image = translate_support(rs, i, image)
            images[d2, v] = image
        return d2, image

    return op


class E6Duality:
    """Order-2 duality on supports in the 27-weight geometry."""

    PHI = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}

    def __init__(self):
        self.rs = RootSystem.named("E6")
        self.geometry = Geometry(self.rs, 1)
        self.weights = self.geometry.weights

    @staticmethod
    def phi_weight(c):
        return (c[5], c[1], c[4], c[3], c[2], c[0])

    @cached_property
    def _hyperlines(self):
        """{mu: the weights phi(mu + y), y a weight} over the weights mu, in
        one pass: the hyperlines, 10 weights each, built on first read."""
        table = {}
        for mu in self.weights:
            h = table[mu] = self.weights.intersection(
                self.phi_weight(tuple([a + b for a, b in zip(mu, y)]))
                for y in self.weights)
            if len(h) != 10:
                raise ConsistencyError("hyperline of %r has size %d"
                                       % (mu, len(h)))
        return table

    @cached_property
    def _reaches(self):
        """{(x, z): the weights x + z + y, y a weight} over the weights x
        and the phi-images z: the brace relation, built on first read in one
        pass over the pairs of weights.  phi sends the weights onto their
        negatives, so each z is -y for a weight y, and the weights
        x + z + y' are the x' with x' - y' = x - y: the set at (x, -y) is
        the first weight of every pair of weights with difference x - y."""
        negs = {y: tuple([-a for a in y]) for y in self.weights}
        if set(negs.values()) != set(map(self.phi_weight, self.weights)):
            raise ConsistencyError("phi does not send the weights onto "
                                   "their negatives")
        diffs = {}
        for y, z in negs.items():
            for x in self.weights:
                diffs.setdefault(tuple([a - b for a, b in zip(x, y)]),
                                 []).append((x, z))
        table = {}
        for pairs in diffs.values():
            table.update(dict.fromkeys(pairs,
                                       frozenset([p[0] for p in pairs])))
        return table

    def _closed(self, support, phis):
        """Does every support weight + weight + phi-image that is a weight
        stay in the support?  Grouped as (x + z) + y, the weights reached
        from each x and z are one set of the brace relation."""
        reach = self._reaches
        return all(reach[x, z] <= support for x in support for z in phis)

    def brace_closed(self, support):
        """No brace built from two support weights escapes the support."""
        support = _require_weights(self.weights, support)
        return self._closed(support, [self.phi_weight(my) for my in support])

    def psi_support(self, support):
        """The dual support.

        Away from size 6 it is the common hyperline of the members; at the
        self-dual size the hyperlines are too generous and the brace-closure
        filter is used instead.
        """
        support = _require_weights(self.weights, support)
        if not support:
            raise ValueError("empty support")
        if len(support) != 6:
            return frozenset.intersection(*map(self._hyperlines.get, support))
        return frozenset(nu for nu in self.weights
                         if self._closed(support, (self.phi_weight(nu),)))

    def psi_standard(self, delta):
        s = self.geometry.delta_space(delta).support
        if delta == 2 and not self.brace_closed(s):
            raise ConsistencyError("standard 6-support is not brace-closed")
        out = self.psi_support(s)
        want = self.geometry.delta_space(self.PHI[delta]).support
        if out != want:
            raise ConsistencyError("psi of the standard %d-support is wrong"
                                   % delta)
        return out

    def psi(self, delta, support):
        """The duality on an apartment object of type delta."""
        support = _require_object(self.geometry, delta, support)
        return self.PHI[delta], self.psi_support(support)

    @cached_property
    def _orbits(self):
        return wprime_orbits(self.rs, 6, self.weights)

    def dim_brace_vplus(self, my):
        """Dimension of the brace image at the highest weight vector, as a
        function of the second slot's weight, together with the supporting
        weight set.  Constant on each orbit of the parabolic fixing the
        highest weight.

        The three orbits give 0 (certified constant; the support calculus
        alone shows no witness either way), exactly 6 (upper bound from the
        support count, lower bound from one-term certificates), and 17 (the
        support count; a matching certificate family is not attempted).
        """
        _require_weights(self.weights, (my,))
        hw = self.geometry.hw
        minus_om6 = tuple(-x for x in self.rs.fundamental_weight(6))
        orbit = next(o for o in self._orbits if my in o)
        if len(orbit) == 1:
            if my != minus_om6:
                raise ConsistencyError("unexpected singleton orbit")
            u = frozenset(w for w in self.weights
                          if self.phi_weight(tuple(a + b for a, b in
                                                   zip(hw, w)))
                          not in self.weights)
            if len(u) != 17 or hw not in u:
                raise ConsistencyError("lowest-weight brace support is off")
            return 17, u
        if hw in orbit:
            return 0, frozenset()
        pm = self.phi_weight(my)
        upper = self._reaches[hw, pm]
        if len(upper) != 6:
            raise ConsistencyError("expected a 6-element brace support")
        # f certifies lam = hw + f + phi(my) when its two terms disagree:
        # f + phi(my) = 0 (that is, lam = hw), against phi(hw + f) and lam
        # both being weights; neither term holds at any other lam
        certified = set()
        for f in self.weights:
            lam = tuple(a + b + c for a, b, c in zip(hw, f, pm))
            if (lam == hw) != (lam in self.weights and self.phi_weight(
                    tuple(a + b for a, b in zip(hw, f))) in self.weights):
                certified.add(lam)
        for lam in upper:
            if lam not in certified:
                raise ConsistencyError("no certificate at %r" % (lam,))
        return 6, upper

    def ln_conditions(self, s, t):
        """The two vanishing conditions for a dual pair of supports."""
        zero = (0,) * 6
        a_ok = True
        for mu in s:
            for nu in t:
                if tuple(x + y for x, y in
                         zip(mu, self.phi_weight(nu))) == zero:
                    a_ok = False
        b_ok = not any(w in self.weights for w in
                       triple_sums(t, t, [self.phi_weight(m2) for m2 in s]))
        return a_ok, b_ok


class Triality:
    """Triality on the D4 vector weights via an 8x8 partial product."""

    LABELS = ("e1", "e2", "e3", "e4", "f4", "f3", "f2", "f1")
    PHI = {1: 3, 2: 2, 3: 4, 4: 1}

    def __init__(self):
        self.rs = RootSystem.named("D4")
        self.geometry = Geometry(self.rs, 1)
        self.weights = self.geometry.weights
        eps = {1: (1, 0, 0, 0), 2: (-1, 1, 0, 0), 3: (0, -1, 1, 1),
               4: (0, 0, -1, 1)}
        self.label_weight = {}
        for i in (1, 2, 3, 4):
            self.label_weight["e%d" % i] = eps[i]
            self.label_weight["f%d" % i] = tuple(-x for x in eps[i])
        if set(self.label_weight.values()) != self.weights:
            raise ConsistencyError("labels do not cover the vector weights")
        self.weight_label = {w: a for a, w in self.label_weight.items()}

    @staticmethod
    def phi_weight(c):
        return (c[3], c[1], c[0], c[2])

    @staticmethod
    def phi2_weight(c):
        return (c[2], c[1], c[3], c[0])

    def star_weight(self, u, v):
        w = tuple(a + b for a, b in zip(self.phi_weight(u),
                                        self.phi2_weight(v)))
        return w if w in self.weights else None

    @cached_property
    def _stars(self):
        """{(u, v): star_weight(u, v)} over the 8x8 pairs of weights: the
        star product, built on first read."""
        return {(u, v): self.star_weight(u, v)
                for u in self.weights for v in self.weights}

    def star_support(self, s1, s2):
        """The weights u * v, u in s1 and v in s2, read off the star table;
        ValueError if a member of s1 or s2 is not a weight."""
        star = self._stars
        s1 = _require_weights(self.weights, s1)
        s2 = _require_weights(self.weights, s2)
        return frozenset([star[u, v] for u in s1 for v in s2]) - {None}

    def table(self):
        """The 8x8 product table in the printed layout: the column entry
        for the fork labels is transposed (e4 and f4 swap) relative to the
        weight actually multiplied."""
        swap = {"e4": "f4", "f4": "e4"}
        lw = self.label_weight
        rows = []
        for a in self.LABELS:
            # weight_label has no None, so a product off the weights is None
            rows.append(tuple(self.weight_label.get(self.star_weight(
                lw[a], lw[swap.get(b, b)])) for b in self.LABELS))
        return rows

    def t_nonzero(self, a, b, c):
        """Does the trilinear form pair these three labels?"""
        u = self.label_weight[a]
        v = self.phi_weight(self.label_weight[b])
        w = self.phi2_weight(self.label_weight[c])
        return all(x + y + z == 0 for x, y, z in zip(u, v, w))

    @cached_property
    def _factors(self):
        """{(True, w * V) and (False, V * w): the weights w giving it}."""
        out = {}
        for w in self.weights:
            for key in ((True, self.star_support((w,), self.weights)),
                        (False, self.star_support(self.weights, (w,)))):
                out[key] = out.get(key, ()) + (w,)
        return out

    def _unique_factor(self, support, left):
        hits = self._factors.get((left, support), ())
        if len(hits) != 1:
            raise ConsistencyError("%s factor is not unique"
                                   % ("left" if left else "right"))
        return hits[0]

    def psi(self, delta, support):
        """One triality step on an apartment object, following the node
        rotation 1 -> 3 -> 4 -> 1 (node 2 objects map to node 2)."""
        support = _require_object(self.geometry, delta, support)
        if delta == 1:
            return 3, self.star_support(support, self.weights)
        if delta == 3:
            a = self._unique_factor(support, True)
            return 4, self.star_support(self.weights, (a,))
        if delta == 4:
            a = self._unique_factor(support, False)
            return 1, frozenset((a,))
        right = self.star_support(self.weights, support)
        return 2, self.star_support(support, right)


def e7_rank_one_check(geometry):
    """In the 56-weight geometry, doubling the highest weight pairs with
    no weight except the opposite one."""
    hw = geometry.hw
    opposite = tuple(-x for x in hw)
    if opposite not in geometry.weights:
        raise ConsistencyError("lowest weight missing")
    for nu in geometry.weights:
        w = tuple(2 * a + b for a, b in zip(hw, nu))
        if (w in geometry.weights) != (nu == opposite):
            return False
    return True


def e7_inner_ideal_check(geometry, delta):
    """Sums of two support weights and any weight land back in the support
    whenever they land in the weight set at all."""
    s = geometry.delta_space(delta).support
    return all(w not in geometry.weights or w in s
               for w in triple_sums(s, s, geometry.weights))
