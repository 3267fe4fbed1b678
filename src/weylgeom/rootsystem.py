"""Root systems with exact integer weight arithmetic.

Conventions, fixed once and used by every other module:

* A weight is a tuple of ints: its coordinates on the fundamental weights.
* The Cartan matrix is stored in the row convention C[i][j] =
  <alpha_i, alpha_j^vee>.  Row i of C is therefore the i-th simple root
  written in fundamental-weight coordinates, and the simple reflection acts
  by s_i(w) = w - w[i] * row_i.
* Roots also travel in simple-root coordinates; fw = simple . C converts.
* The symmetrizer d (positive ints, short roots = 1) satisfies
  C[i][j] * d[j] == C[j][i] * d[i] and defines the invariant pairing
  (x, alpha) = sum_j d_j * alpha_j * x_j for x in fw coordinates and alpha
  in simple coordinates.

Simple root indices are 1-based in the public interface.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property


class ConsistencyError(Exception):
    """An exact invariant that should always hold failed."""


class RefusedError(Exception):
    """The computation is declined as out of supported scope."""


class IncidenceRuleMissing(RefusedError):
    """No incidence rule is known for this pair of object types."""


_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def _family_edges(family, n):
    """Edges as 1-based pairs; E uses the chain 1-3-4-...-n with 2 on 4."""
    if family in "ABC":
        return _path_edges(n)
    if family == "D":
        return _path_edges(n - 1) + [(n - 2, n)]
    if family == "E":
        return [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)]
    if family == "F":
        return _path_edges(4)
    if family == "G":
        return [(1, 2)]
    raise ValueError(family)


def family_cartan(family, rank):
    """Cartan matrix (row convention) of a named family."""
    lo, hi = _RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError("no system %s%d" % (family, rank))
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
    for i, j in _family_edges(family, rank):
        c[i - 1][j - 1] = -1
        c[j - 1][i - 1] = -1
    if family == "B":
        c[rank - 2][rank - 1] = -2
    elif family == "C":
        c[rank - 1][rank - 2] = -2
    elif family == "F":
        c[1][2] = -2
    elif family == "G":
        c[1][0] = -3
    return tuple(tuple(row) for row in c)


def symmetrizer(cartan):
    """Positive integer d with C[i][j]*d[j] == C[j][i]*d[i], minimal per
    connected component (short roots get 1)."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        comp = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or cartan[i][j] == 0:
                    continue
                val = d[i] * cartan[j][i] / cartan[i][j]
                if d[j] is None:
                    d[j] = val
                    stack.append(j)
                    comp.append(j)
                elif d[j] != val:
                    raise ConsistencyError("Cartan matrix is not symmetrizable")
        scale = min(d[i] for i in comp)
        for i in comp:
            d[i] = d[i] / scale
    out = []
    for x in d:
        if x.denominator != 1:
            raise ConsistencyError("non-integer symmetrizer")
        out.append(int(x))
    for i in range(n):
        for j in range(n):
            if cartan[i][j] * out[j] != cartan[j][i] * out[i]:
                raise ConsistencyError("symmetrizer identity failed")
    return tuple(out)


def closure(seeds, step):
    """Breadth-first closure of seeds under step.

    step(item) yields (label, next_item) pairs.  Returns {item: word} where
    word is the tuple of labels along a shortest path from a seed to item,
    last step first; seeds map to ().
    """
    words = dict.fromkeys(seeds, ())
    frontier = list(words)
    while frontier:
        new = []
        for item in frontier:
            word = words[item]
            for label, nxt in step(item):
                if nxt not in words:
                    words[nxt] = (label,) + word
                    new.append(nxt)
        frontier = new
    return words


def _weyl_order(roots):
    """Order of the Weyl group whose positive roots (simple coordinates)
    are given: the product of e+1 over the exponents e, which form the
    dual partition of the root counts by height (Kostant)."""
    count = {}
    for q in roots:
        count[sum(q)] = count.get(sum(q), 0) + 1
    order = 1
    for h, n in count.items():
        # n - count[h+1] exponents equal h
        order *= (h + 1) ** (n - count.get(h + 1, 0))
    return order


def cartan_isomorphisms(c1, c2):
    """All index bijections (0-based tuples) carrying c1 onto c2."""
    n = len(c1)
    if len(c2) != n:
        return

    def sig(c, i):
        return tuple(sorted((c[i][j], c[j][i]) for j in range(n) if j != i and c[i][j]))

    s1 = [sig(c1, i) for i in range(n)]
    s2 = [sig(c2, i) for i in range(n)]
    assign = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            yield tuple(assign)
            return
        for j in range(n):
            if used[j] or s1[i] != s2[j]:
                continue
            if all(c1[i][k] == c2[j][assign[k]] and c1[k][i] == c2[assign[k]][j]
                   for k in range(i)):
                assign[i] = j
                used[j] = True
                yield from extend(i + 1)
                used[j] = False
                assign[i] = None

    yield from extend(0)


class RootSystem:
    """A finite root system given by a Cartan matrix in the row convention."""

    def __init__(self, cartan, d=None, label=None):
        cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        n = len(cartan)
        if n == 0 or any(len(row) != n for row in cartan):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if cartan[i][i] != 2:
                raise ValueError("diagonal of a Cartan matrix is 2")
            for j in range(n):
                if i != j and cartan[i][j] > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
        self.cartan = cartan
        self.rank = n
        self.d = tuple(int(x) for x in d) if d is not None else symmetrizer(cartan)
        if len(self.d) != n or any(x <= 0 for x in self.d):
            raise ValueError("bad symmetrizer")
        for i in range(n):
            for j in range(n):
                if cartan[i][j] * self.d[j] != cartan[j][i] * self.d[i]:
                    raise ConsistencyError("symmetrizer identity failed")
        self.label = label
        self.key = json.dumps({"cartan": cartan, "d": self.d}, sort_keys=True)

    @classmethod
    def named(cls, name):
        m = re.fullmatch(r"([A-Ga-g])\s*(\d+)", name.strip())
        if not m:
            raise ValueError("expected a family name like E6 or D5, got %r" % name)
        family = m.group(1).upper()
        rank = int(m.group(2))
        return cls(family_cartan(family, rank), label="%s%d" % (family, rank))

    def __repr__(self):
        return "RootSystem(%s)" % (self.label or "rank %d" % self.rank)

    # -- basic weight arithmetic ------------------------------------------

    @property
    def rho(self):
        return (1,) * self.rank

    def zero(self):
        return (0,) * self.rank

    def fundamental_weight(self, i):
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def alpha_fw(self, i):
        """Simple root alpha_i in fundamental-weight coordinates."""
        return self.cartan[i - 1]

    def root_fw(self, simple):
        """Convert simple-root coordinates to fw coordinates."""
        return tuple(sum(simple[k] * self.cartan[k][j] for k in range(self.rank))
                     for j in range(self.rank))

    def reflect(self, i, w):
        c = w[i - 1]
        if c == 0:
            return tuple(w)
        return tuple([x - c * r for x, r in zip(w, self.cartan[i - 1])])

    def is_dominant(self, w):
        return all(x >= 0 for x in w)

    def dominant_rep(self, w):
        """The dominant weight in the Weyl orbit of w."""
        cur = tuple(w)
        while True:
            for i, x in enumerate(cur):
                if x < 0:
                    row = self.cartan[i]
                    cur = tuple(cur[j] - x * row[j] for j in range(self.rank))
                    break
            else:
                return cur

    def antidominant_rep(self, w):
        cur = tuple(w)
        while True:
            for i, x in enumerate(cur):
                if x > 0:
                    row = self.cartan[i]
                    cur = tuple(cur[j] - x * row[j] for j in range(self.rank))
                    break
            else:
                return cur

    def minus_w0(self):
        """The permutation p (1-based tuple) with -w0(omega_i) = omega_p[i]."""
        perm = []
        for i in range(1, self.rank + 1):
            img = tuple(-x for x in self.antidominant_rep(self.fundamental_weight(i)))
            ones = [j for j, x in enumerate(img) if x == 1]
            if sum(img) != 1 or len(ones) != 1:
                raise ConsistencyError("-w0 does not permute fundamental weights")
            perm.append(ones[0] + 1)
        return tuple(perm)

    def dual_weight(self, w):
        """-w0(w), the highest weight of the dual of V(w)."""
        return tuple(-x for x in self.antidominant_rep(w))

    def weyl_orbit(self, w):
        """Weyl orbit of w as a lex-descending sorted list of weights."""
        # s_i fixes v when v[i-1] == 0, so those steps are skipped
        return sorted(closure([tuple(w)], lambda v: (
            (i, self.reflect(i, v)) for i in range(1, self.rank + 1)
            if v[i - 1])), reverse=True)

    def orbit_size(self, w):
        """|W.w| = |W|/|W_J|, J the nodes where the dominant form of w
        vanishes; the positive roots of W_J are those supported on J."""
        mu = self.dominant_rep(w)
        return _weyl_order(self.positive_roots) // _weyl_order(
            [q for q in self.positive_roots
             if all(mu[i] == 0 for i, x in enumerate(q) if x)])

    # -- roots -------------------------------------------------------------

    @cached_property
    def positive_roots(self):
        """Positive roots in simple-root coordinates, sorted by (height, lex)."""
        n = self.rank

        def step(q):
            for i in range(n):
                # <beta, alpha_i^vee> = (q . C)_i
                p = sum(q[k] * self.cartan[k][i] for k in range(n))
                r = tuple(q[j] - (p if j == i else 0) for j in range(n))
                if all(x >= 0 for x in r):
                    yield i + 1, r

        seeds = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        return sorted(closure(seeds, step), key=lambda q: (sum(q), q))

    @cached_property
    def positive_roots_fw(self):
        return [self.root_fw(q) for q in self.positive_roots]

    @cached_property
    def highest_root(self):
        """Highest root in simple-root coordinates (connected systems only)."""
        if not self.is_connected():
            raise ConsistencyError("highest root needs a connected system")
        best = max(self.positive_roots, key=sum)
        for q in self.positive_roots:
            if any(q[j] > best[j] for j in range(self.rank)):
                raise ConsistencyError("no coefficientwise-highest root")
        return best

    def pair_root(self, x_fw, alpha_simple):
        """(x, alpha) for x in fw coordinates, alpha in simple coordinates."""
        return sum(self.d[j] * alpha_simple[j] * x_fw[j] for j in range(self.rank))

    def root_norm2(self, alpha_simple):
        return self.pair_root(self.root_fw(alpha_simple), alpha_simple)

    @cached_property
    def cartan_inverse(self):
        """C^-1 as an integer pair (n, m): n is the least positive int that
        makes n*C^-1 integral, and m[j] is column j of n*C^-1, so the j-th
        simple coordinate of a fw vector x is (x . m[j]) / n."""
        k = self.rank
        a = [[Fraction(self.cartan[i][j]) for j in range(k)] +
             [Fraction(1 if j == i else 0) for j in range(k)] for i in range(k)]
        for col in range(k):
            piv = next(r for r in range(col, k) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(k):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        n = math.lcm(*(x.denominator for row in a for x in row[k:]))
        return n, tuple(tuple(int(a[i][k + j] * n) for i in range(k))
                        for j in range(k))

    def simple_coords_int(self, fw):
        """Simple-root coordinates of a fw vector in the root lattice."""
        n, m = self.cartan_inverse
        out = []
        for col in m:
            q, r = divmod(sum(x * y for x, y in zip(fw, col)), n)
            if r:
                raise ConsistencyError("%r is not in the root lattice"
                                       % (tuple(fw),))
            out.append(q)
        return tuple(out)

    def scaled_norm2(self, fw):
        """n*(x, x) as an int, for x in fw coordinates and n the first entry
        of cartan_inverse; it orders weights as (x, x) does."""
        _, m = self.cartan_inverse
        return sum(d * x * sum(a * b for a, b in zip(fw, col))
                   for d, x, col in zip(self.d, fw, m))

    def norm2_shift_diff(self, lam, mu):
        """|lam+rho|^2 - |mu+rho|^2 as an exact int; needs lam-mu in the
        root lattice."""
        diff = tuple(a - b for a, b in zip(lam, mu))
        q = self.simple_coords_int(diff)
        s = tuple(a + b + 2 for a, b in zip(lam, mu))
        return self.pair_root(s, q)

    # -- diagram combinatorics ----------------------------------------------

    def neighbors(self, i):
        return [j + 1 for j in range(self.rank)
                if j != i - 1 and self.cartan[i - 1][j] != 0]

    def is_connected(self, nodes=None):
        nodes = set(nodes) if nodes is not None else set(range(1, self.rank + 1))
        if not nodes:
            return True
        start = next(iter(nodes))
        return closure([start], lambda i: (
            (j, j) for j in self.neighbors(i) if j in nodes)).keys() == nodes

    def component_of(self, node, removed):
        """Connected component of `node` in the diagram minus `removed`."""
        removed = set(removed)
        if node in removed:
            raise ValueError("node %d was removed" % node)
        return frozenset(closure([node], lambda i: (
            (j, j) for j in self.neighbors(i) if j not in removed)))

    def delta_component(self, beta, delta):
        """Component of beta after deleting delta; empty when delta == beta."""
        if not 1 <= beta <= self.rank or not 1 <= delta <= self.rank:
            raise ValueError("node out of range")
        if beta == delta:
            return frozenset()
        return self.component_of(beta, {delta})

    def restricted(self, nodes):
        """Sub root system on the given nodes (sorted); returns
        (RootSystem, node tuple)."""
        nodes = tuple(sorted(nodes))
        if not nodes:
            raise ValueError("empty node set")
        cartan = [[self.cartan[i - 1][j - 1] for j in nodes] for i in nodes]
        d = [self.d[i - 1] for i in nodes]
        return RootSystem(cartan, d=d), nodes

    def classify(self):
        """Family label of a connected diagram, e.g. 'D5'."""
        n = self.rank
        if not self.is_connected():
            raise ConsistencyError("classify needs a connected diagram")
        if n == 1:
            return "A1"
        bonds = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                b = self.cartan[i - 1][j - 1] * self.cartan[j - 1][i - 1]
                if b:
                    bonds[(i, j)] = b
        if any(b > 3 for b in bonds.values()):
            raise ConsistencyError("bond order above 3")
        if any(b == 3 for b in bonds.values()):
            if n != 2:
                raise ConsistencyError("triple bond outside rank 2")
            return "G2"
        degree = {i: len(self.neighbors(i)) for i in range(1, n + 1)}
        doubles = [e for e, b in bonds.items() if b == 2]
        if doubles:
            if len(doubles) != 1 or any(deg > 2 for deg in degree.values()):
                raise ConsistencyError("not a finite diagram")
            if n == 2:
                return "B2"
            (i, j) = doubles[0]
            # C[i][j] == -2 means alpha_j is short
            if self.cartan[i - 1][j - 1] == -2:
                short_end = j
            else:
                short_end = i
            short_side = self.component_of(short_end, set(doubles[0]) - {short_end})
            if n == 4 and len(short_side) == 2:
                return "F4"
            if len(short_side) == 1:
                return "B%d" % n
            if len(short_side) == n - 1:
                return "C%d" % n
            raise ConsistencyError("double bond not at an end")
        branch = [i for i, deg in degree.items() if deg > 2]
        if not branch:
            return "A%d" % n
        if len(branch) > 1 or degree[branch[0]] != 3:
            raise ConsistencyError("not a finite diagram")
        b = branch[0]
        arms = sorted(len(self.component_of(k, {b})) for k in self.neighbors(b))
        if arms[0] == 1 and arms[1] == 1:
            return "D%d" % n
        if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
            return "E%d" % n
        raise ConsistencyError("not a finite diagram")

    def diagram_automorphisms(self):
        """Cartan-preserving index permutations, sorted, as 1-based tuples."""
        perms = [tuple(x + 1 for x in p)
                 for p in cartan_isomorphisms(self.cartan, self.cartan)]
        return sorted(perms)
