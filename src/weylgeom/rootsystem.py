"""Root systems with exact integer weight arithmetic.

Conventions, fixed once and used by every other module:

* A weight is a tuple of ints: its coordinates on the fundamental weights.
* The Cartan matrix is stored in the row convention C[i][j] =
  <alpha_i, alpha_j^vee>.  Row i of C is therefore the i-th simple root
  written in fundamental-weight coordinates, and the simple reflection acts
  by s_i(w) = w - w[i] * row_i.
* Roots also travel in simple-root coordinates; fw = simple . C converts.
* The symmetrizer d, read off C (least positive ints on each component,
  short roots = 1), satisfies C[i][j] * d[j] == C[j][i] * d[i] and defines
  the invariant pairing (x, alpha) = sum_j d_j * alpha_j * x_j for x in fw
  coordinates and alpha in simple coordinates.

Nodes are 1-based: rs.nodes lists them and rs.check_node tests one.
"""


# the most weights one orbit or one irreducible character may hold; larger
# ones are refused up front from their exact size
MAX_WEIGHTS = 1_000_000


class ConsistencyError(Exception):
    """An exact invariant that should always hold failed."""


class RefusedError(Exception):
    """The computation is declined as out of supported scope."""


class IncidenceRuleMissing(RefusedError):
    """No incidence rule is known for this pair of object types.  The
    library no longer raises it: incidence is decided for every pair."""


_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class cached_property:
    """A property computed on first read and stored in the instance dict,
    where it shadows this non-data descriptor from then on."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


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
    if rank * rank > MAX_WEIGHTS:
        raise RefusedError("the Cartan matrix of %s%d has %d entries, more "
                           "than %d" % (family, rank, rank * rank, MAX_WEIGHTS))
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
    """Positive integers d with C[i][j]*d[j] == C[j][i]*d[i], the least on
    each connected component (in finite type, short roots get 1)."""
    n = len(cartan)
    # starting at the product of all entries makes every division exact
    top = 1
    for x in (x for row in cartan for x in row if x):
        top *= abs(x)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = top

        def step(i):
            for j in range(n):
                if j != i and cartan[i][j]:
                    if d[j] is None:
                        d[j] = d[i] * cartan[j][i] // cartan[i][j]
                    elif d[i] * cartan[j][i] != d[j] * cartan[i][j]:
                        raise ValueError("Cartan matrix is not symmetrizable")
                    yield j

        comp = closure([start], step)
        g = _gcd(*(d[i] for i in comp))
        for i in comp:
            d[i] //= g
    return tuple(d)


def _gcd(*xs):
    """gcd of the ints xs by Euclid, never negative (0 if all are 0)."""
    g = 0
    for x in map(abs, xs):
        while x:
            g, x = x, g % x
    return g


def closure(seeds, step):
    """Breadth-first closure of seeds under step.

    step(item) yields the next items.  Returns {item: level} in the order
    the search reaches the items, level being the number of steps from the
    nearest seed; seeds map to 0.
    """
    levels = dict.fromkeys(seeds, 0)
    frontier = list(levels)
    level = 0
    while frontier:
        level += 1
        new = []
        for item in frontier:
            for nxt in step(item):
                if nxt not in levels:
                    levels[nxt] = level
                    new.append(nxt)
        frontier = new
    return levels


def _exponents(roots):
    """{e: how many exponents equal e} for the Weyl group with these
    positive roots (simple coordinates): the dual partition of the root
    counts by height (Kostant), so n_h - n_(h+1) exponents equal h."""
    count = {}
    for q in roots:
        count[sum(q)] = count.get(sum(q), 0) + 1
    return {h: n - count.get(h + 1, 0) for h, n in count.items()}


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

    def __init__(self, cartan, label=None):
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
        self.nodes = range(1, self.rank + 1)
        self.d = symmetrizer(cartan)
        self.label = label
        self.key = repr((cartan, self.d))

    @classmethod
    def named(cls, name):
        """The system of a letter A-G and a rank: E6, " e6" or "E 6"."""
        text = name.strip()
        digits = text[1:].lstrip()
        if not (digits.isascii() and digits.isdecimal()
                and text[0] in "ABCDEFGabcdefg"):
            raise ValueError("expected a family name like E6 or D5, got %r" % name)
        family, rank = text[0].upper(), int(digits)
        return cls(family_cartan(family, rank), label="%s%d" % (family, rank))

    def __repr__(self):
        return "RootSystem(%s)" % (self.label or "rank %d" % self.rank)

    # -- basic weight arithmetic ------------------------------------------

    @property
    def rho(self):
        return (1,) * self.rank

    def zero(self):
        return (0,) * self.rank

    def check_node(self, i):
        """i when it is an int in nodes (bools refused); else ValueError."""
        if type(i) is not int or i not in self.nodes:
            raise ValueError("node %r out of range" % (i,))
        return i

    def fundamental_weight(self, i):
        i = self.check_node(i)
        return tuple(1 if j == i else 0 for j in self.nodes)

    def reflect(self, i, w):
        c = w[self.check_node(i) - 1]
        if c == 0:
            return tuple(w)
        return tuple([x - c * r for x, r in zip(w, self.cartan[i - 1])])

    def check_weight(self, w, dominant=False):
        """w as a tuple of rank ints (bools refused); ValueError naming w
        when it is none, or when dominant and a coordinate is negative."""
        w = tuple(w)
        if len(w) != self.rank or not all(type(x) is int for x in w):
            raise ValueError("%r is not a weight of rank %d" % (w, self.rank))
        if dominant and min(w) < 0:
            raise ValueError("%r is not dominant" % (w,))
        return w

    def dominant_rep(self, w):
        """The dominant weight in the Weyl orbit of w.  Unchecked, as
        dominant_character's inner step, on weights it has built."""
        cur = tuple(w)
        while True:
            for x, row in zip(cur, self.cartan):
                if x < 0:
                    cur = tuple([a - x * r for a, r in zip(cur, row)])
                    break
            else:
                return cur

    def dual_weight(self, w):
        """-w0(w), the highest weight of the dual of V(w)."""
        return self.dominant_rep(tuple(-x for x in self.check_weight(w)))

    def weyl_orbit(self, w):
        """Weyl orbit of w as a lex-descending sorted list of weights;
        refused above MAX_WEIGHTS before orbit_steps walks it."""
        size = self.orbit_size(w)
        if size > MAX_WEIGHTS:
            raise RefusedError("orbit of %d weights, above the limit of %d"
                               % (size, MAX_WEIGHTS))
        top = self.dominant_rep(w)
        return sorted([top] + [y for y, _, _, _ in self.orbit_steps(top)],
                      reverse=True)

    def orbit_steps(self, top):
        """Walk W.top, top a dominant weight (checked once, ValueError
        otherwise), as a tree, level by level: yield (y, level, p, i) with
        y = s_i x once for each y != top, x the parent at walk position p
        (top is 0, the k-th y yielded is k).  The parent of y is s_j y, j
        its first negative coordinate, and its level is
        #{alpha > 0 : (y, alpha) < 0}, the length of the shortest element
        carrying top to y (Humphreys, Reflection Groups and Coxeter Groups,
        1.6-1.10).  From x, whose first negative coordinate f is where its
        parent stepped, s_i x (x_i > 0) is kept when i is its first negative
        coordinate: at once when i < f, and never when s_i fixes x_f < 0,
        so moves[f] lists the i < f and the neighbours i > f of f.  s_i x
        differs from x only at i and at i's diagram neighbours."""
        n = self.rank
        links = [[(j, r) for j, r in enumerate(row) if r and j != i]
                 for i, row in enumerate(self.cartan)]
        moves = [list(range(f)) + [i for i in range(f + 1, n)
                                   if self.cartan[i][f]] for f in range(n + 1)]
        top = self.check_weight(top, dominant=True)
        frontier, level, pos = [(top, n, 0)], 0, 0
        while frontier:
            level += 1
            new = []
            for x, f, p in frontier:
                for i in moves[f]:
                    c = x[i]
                    if c > 0:
                        y = list(x)
                        y[i] = -c
                        for j, r in links[i]:
                            y[j] -= c * r
                        if i < f or min(y[:i]) >= 0:
                            y = tuple(y)
                            pos += 1
                            new.append((y, i, pos))
                            yield y, level, p, i + 1
            frontier = new

    def orbit_size(self, w):
        """|W.w| = |W|/|W_J|, J the zeros of the dominant form of w."""
        return self._order // self.parabolic_order(i for i, x in enumerate(
            self.dominant_rep(self.check_weight(w)), 1) if x == 0)

    def parabolic_order(self, nodes):
        """|W_J| for the nodes J: the product of the e + 1 over the
        exponents e of W_J, whose positive roots are those supported on J."""
        mask = sum(1 << (i - 1) for i in set(map(self.check_node, nodes)))
        order = 1
        for e, m in _exponents([q for bits, q, _, _, _ in self.root_rows[0]
                                if not bits & ~mask]).items():
            order *= (e + 1) ** m
        return order

    @cached_property
    def exponents(self):
        """The exponents e_i, ascending; |W| is the product of the e_i + 1
        and the basic invariants have degrees e_i + 1 (Chevalley)."""
        return tuple(sorted(e for e, m in _exponents(self.positive_roots)
                            .items() for _ in range(m)))

    @cached_property
    def _order(self):
        """|W|, computed once."""
        return self.parabolic_order(self.nodes)

    # -- roots -------------------------------------------------------------

    @property
    def positive_roots(self):
        """The q column of root_rows, read afresh: the positive roots."""
        return [q for _, q, _, _, _ in self.root_rows[0]]

    @cached_property
    def root_rows(self):
        """(rows, prod (rho, q)): a row (support bitmask, q, fw, d*q, |q|^2)
        per positive root q, sorted by (height, lex); (x, q) = sum(d*q . x)
        for x in fw.  The walk: s_j q = q - b_j*alpha_j, b the fw of q, is
        kept when q_j >= b_j, has fw b - b_j*row_j and keeps |q|^2, which is
        2*d_i at alpha_i.  No finite system has a coefficient above 6 (E8's
        highest root is (2,3,4,6,5,4,3,2)), so a larger one refuses an
        infinite root system."""
        rows = self.cartan
        fw = {tuple(int(i == j) for j in range(self.rank)): row
              for i, row in enumerate(rows)}
        norm2 = dict(zip(fw, (2 * d for d in self.d)))

        def step(q):
            b = fw[q]
            for j, (p, row) in enumerate(zip(b, rows)):
                if p and q[j] >= p:
                    r = q[:j] + (q[j] - p,) + q[j + 1:]
                    if r[j] > 6:
                        raise ValueError("Cartan matrix is not of finite type")
                    if r not in fw:
                        fw[r] = tuple([x - p * y for x, y in zip(b, row)])
                        norm2[r] = norm2[q]
                    yield r

        table = [(sum(1 << j for j, x in enumerate(q) if x), q, fw[q],
                  tuple(map(int.__mul__, self.d, q)), norm2[q])
                 for q in sorted(closure(list(fw), step),
                                 key=lambda q: (sum(q), q))]
        den = 1
        for row in table:
            den *= sum(row[3])
        return table, den

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

    @cached_property
    def cartan_inverse(self):
        """C^-1 as an integer pair (n, m): n is the least positive int that
        makes n*C^-1 integral, and m[j] is column j of n*C^-1, so the j-th
        simple coordinate of a fw vector x is (x . m[j]) / n; scaled_norm2
        reads it.  Fraction-free Gauss-Jordan (Bareiss) on [C | I] divides
        exactly by each previous pivot and ends at [det*I | det*C^-1]."""
        k = self.rank
        a = [list(self.cartan[i]) + [1 if j == i else 0 for j in range(k)]
             for i in range(k)]
        prev = 1
        for col in range(k):
            piv = next((r for r in range(col, k) if a[r][col]), None)
            if piv is None:
                raise ValueError("Cartan matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            p, top = a[col][col], a[col]
            for r in range(k):
                if r != col:
                    f = a[r][col]
                    a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
            prev = p
        det = a[0][0]
        n = abs(det) // _gcd(det, *(x for row in a for x in row[k:]))
        return n, tuple(tuple(a[i][k + j] * n // det for i in range(k))
                        for j in range(k))

    def scaled_norm2(self, fw):
        """n*(x, x) as an int, for x in fw coordinates and n the first entry
        of cartan_inverse; it orders weights as (x, x) does."""
        _, m = self.cartan_inverse
        return sum(d * x * sum(a * b for a, b in zip(fw, col))
                   for d, x, col in zip(self.d, fw, m))

    # -- diagram combinatorics ----------------------------------------------

    def neighbors(self, i):
        row = self.cartan[self.check_node(i) - 1]
        return [j for j in self.nodes if j != i and row[j - 1] != 0]

    def is_connected(self, nodes=None):
        nodes = set(self.nodes if nodes is None
                    else map(self.check_node, nodes))
        if not nodes:
            return True
        start = next(iter(nodes))
        return closure([start], lambda i: (
            j for j in self.neighbors(i) if j in nodes)).keys() == nodes

    def component_of(self, node, removed):
        """Connected component of `node` in the diagram minus `removed`."""
        removed = set(map(self.check_node, removed))
        if self.check_node(node) in removed:
            raise ValueError("node %d was removed" % node)
        return frozenset(closure([node], lambda i: (
            j for j in self.neighbors(i) if j not in removed)))

    def delta_component(self, beta, delta):
        """Component of beta after deleting delta; empty when delta == beta."""
        if self.check_node(beta) == self.check_node(delta):
            return frozenset()
        return self.component_of(beta, {delta})

    def restricted(self, nodes):
        """Sub root system on the given distinct nodes (sorted); returns
        (RootSystem, node tuple)."""
        nodes = tuple(sorted(map(self.check_node, nodes)))
        if not nodes:
            raise ValueError("empty node set")
        for a, b in zip(nodes, nodes[1:]):
            if a == b:
                raise ValueError("node %d repeated" % a)
        cartan = [[self.cartan[i - 1][j - 1] for j in nodes] for i in nodes]
        return RootSystem(cartan), nodes

    def classify(self):
        """Family label of the diagram, e.g. 'D5': the first family, in
        _RANK_RANGE order, whose Cartan matrix this one renumbers, so A3 = D3
        reads 'A3' and B2 = C2 reads 'B2'."""
        n = self.rank
        for family, (lo, hi) in _RANK_RANGE.items():
            if lo <= n and (hi is None or n <= hi) and next(
                    cartan_isomorphisms(family_cartan(family, n), self.cartan),
                    None) is not None:
                return "%s%d" % (family, n)
        raise ConsistencyError("not the diagram of a finite simple system")

    def diagram_automorphisms(self):
        """Cartan-preserving index permutations, sorted, as 1-based tuples."""
        perms = [tuple(x + 1 for x in p)
                 for p in cartan_isomorphisms(self.cartan, self.cartan)]
        return sorted(perms)
