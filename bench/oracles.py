"""Answers computed apart from weylgeom, used to check its outputs.

Everything here rests on textbook data (invariant degrees, dimensions of
standard and adjoint representations) and on the Cartan matrix given as
input; nothing imports weylgeom or stores a copy of its output.

Conventions match the library's inputs: a weight is a tuple of ints on the
fundamental weights, row i of the Cartan matrix is alpha_{i+1} in those
coordinates, and the simple reflection is s_i(w) = w - w[i] * row_i.
Node numbers are 1-based, Bourbaki order, E with the chain 1-3-4-...-n and
node 2 on node 4.
"""

from functools import lru_cache
from itertools import combinations
from fractions import Fraction
from math import comb, gcd

# degrees of the basic invariants; |W| is their product (Chevalley)
_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def degrees(family, n):
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))
    return _EXCEPTIONAL_DEGREES[(family, n)]


def weyl_order(family, n):
    out = 1
    for d in degrees(family, n):
        out *= d
    return out


def parse_name(name):
    return name[0], int(name[1:])


def cartan(name):
    """Cartan matrix of a named system in the row convention."""
    family, n = parse_name(name)
    edges = [(i, i + 1) for i in range(1, n)]
    if family == "D":
        edges = edges[:-1] + [(n - 2, n)]
    elif family == "E":
        edges = [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)]
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i - 1][j - 1] = c[j - 1][i - 1] = -1
    if family == "B":
        c[n - 2][n - 1] = -2
    elif family == "C":
        c[n - 1][n - 2] = -2
    elif family == "F":
        c[1][2] = -2
    elif family == "G":
        c[1][0] = -3
    return tuple(tuple(row) for row in c)


# -- standard and adjoint representations -------------------------------


def fundamental(n, i):
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def _wsum(*ws):
    return tuple(sum(c) for c in zip(*ws))


def standard_rep(family, n):
    """(highest weight, dimension) of the standard representation."""
    node, dim = {
        "A": (1, n + 1), "B": (1, 2 * n + 1), "C": (1, 2 * n),
        "D": (1, 2 * n), "E": ({6: 1, 7: 7, 8: 8}.get(n), {6: 27, 7: 56,
                                                          8: 248}.get(n)),
        "F": (4, 26), "G": (1, 7),
    }[family]
    return fundamental(n, node), dim


def adjoint_rep(family, n):
    """(highest weight, dimension) of the adjoint representation."""
    if family == "A":
        return _wsum(fundamental(n, 1), fundamental(n, n)), n * (n + 2)
    if family == "B":
        hw = (0, 2) if n == 2 else fundamental(n, 2)
        return hw, n * (2 * n + 1)
    if family == "C":
        return tuple(2 * x for x in fundamental(n, 1)), n * (2 * n + 1)
    if family == "D":
        return fundamental(n, 2), n * (2 * n - 1)
    node, dim = {("E", 6): (2, 78), ("E", 7): (1, 133), ("E", 8): (8, 248),
                 ("F", 4): (1, 52), ("G", 2): (2, 14)}[(family, n)]
    return fundamental(n, node), dim


def dual_fundamental(family, n, i):
    """The node j with V(omega_i)* = V(omega_j)."""
    if family == "A":
        return n + 1 - i
    if family == "D" and n % 2 and i >= n - 1:
        return 2 * n - 1 - i
    if family == "E" and n == 6:
        return {1: 6, 6: 1, 3: 5, 5: 3}.get(i, i)
    return i


def minuscule_dim(family, n, i):
    """Dimension of a minuscule V(omega_i), or None if not minuscule."""
    if family == "A":
        return comb(n + 1, i)
    if family == "B" and i == n:
        return 2 ** n
    if family == "C" and i == 1:
        return 2 * n
    if family == "D":
        if i == 1:
            return 2 * n
        if i >= n - 1:
            return 2 ** (n - 1)
    if (family, n, i) in (("E", 6, 1), ("E", 6, 6)):
        return 27
    if (family, n, i) == ("E", 7, 7):
        return 56
    return None


# -- power dimensions and invariants -------------------------------------


def power_dim(n, k, kind):
    return comb(n + k - 1, k) if kind == "sym" else comb(n, k)


def adjoint_sym_invariants(degs, k):
    """dim S^k(g)^g: coefficient of t^k in prod 1/(1 - t^d)."""
    coeff = [1] + [0] * k
    for d in degs:
        for j in range(d, k + 1):
            coeff[j] += coeff[j - d]
    return coeff[k]


def adjoint_ext_invariants(degs, k):
    """dim Lambda^k(g)^g: subsets of the primitive degrees 2d-1 summing
    to k (the invariants form an exterior algebra on them)."""
    prim = [2 * d - 1 for d in degs]
    return sum(1 for r in range(len(prim) + 1)
               for sub in combinations(prim, r) if sum(sub) == k)


# -- diagrams -------------------------------------------------------------


def _neighbours(cartan, nodes):
    return {i: [j for j in nodes if j != i and cartan[i - 1][j - 1]]
            for i in nodes}


def components(cartan, nodes):
    nodes = set(nodes)
    nb = _neighbours(cartan, nodes)
    out = []
    while nodes:
        stack = [nodes.pop()]
        comp = set(stack)
        while stack:
            for j in nb[stack.pop()]:
                if j not in comp:
                    comp.add(j)
                    nodes.discard(j)
                    stack.append(j)
        out.append(frozenset(comp))
    return out


def classify(cartan, comp):
    """(family, rank) of a connected set of nodes; B and C are not told
    apart (they share degrees)."""
    m = len(comp)
    nb = _neighbours(cartan, comp)
    bonds = [cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
             for i in comp for j in nb[i] if i < j]
    if 3 in bonds:
        return "G", 2
    if 2 in bonds:
        if m == 4 and all(len(nb[i]) <= 2 for i in comp):
            (i, j), = [(i, j) for i in comp for j in nb[i] if i < j
                       and cartan[i - 1][j - 1] * cartan[j - 1][i - 1] == 2]
            if len(nb[i]) == 2 and len(nb[j]) == 2:
                return "F", 4
        return "B", m
    branch = [i for i in comp if len(nb[i]) == 3]
    if not branch:
        return "A", m
    arms = sorted(len(c) for c in components(cartan, comp - {branch[0]}))
    if arms[:2] == [1, 1]:
        return "D", m
    return "E", m


def parabolic_order(cartan, nodes):
    """|W_J| for the parabolic subgroup on the given nodes."""
    out = 1
    for comp in components(cartan, nodes):
        out *= weyl_order(*classify(cartan, comp))
    return out


def orbit_size(cartan, mu):
    """|W . mu| = |W| / |W_mu| for a dominant weight mu."""
    n = len(cartan)
    full = parabolic_order(cartan, range(1, n + 1))
    return full // parabolic_order(cartan, [i + 1 for i in range(n)
                                            if mu[i] == 0])


def reflect(cartan, i, w):
    c = w[i]
    if not c:
        return w
    row = cartan[i]
    return tuple(a - c * r for a, r in zip(w, row))


def weyl_invariant(cartan, mults):
    """Every multiplicity is constant under every simple reflection."""
    n = len(cartan)
    for w, m in mults.items():
        for i in range(n):
            if w[i] and mults.get(reflect(cartan, i, w)) != m:
                return False
    return True


def symmetrizer(cartan):
    """Positive integers d with C[i][j] * d[j] == C[j][i] * d[i]."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[j][i] / cartan[i][j]
                    stack.append(j)
    scale = 1
    for x in d:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    return tuple(int(x * scale) for x in d)


def positive_roots(cartan):
    """Positive roots in simple-root coordinates: the simple roots closed
    under the simple reflections, keeping positive results."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for q in frontier:
            for i in range(n):
                p = sum(q[k] * cartan[k][i] for k in range(n))
                r = q[:i] + (q[i] - p,) + q[i + 1:]
                if r[i] >= 0 and r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return seen


@lru_cache(maxsize=None)
def _scaled_roots(cartan):
    d = symmetrizer(cartan)
    return tuple(tuple(c * dj for c, dj in zip(q, d))
                 for q in positive_roots(cartan))


def weyl_dim(cartan, lam):
    """Weyl's product formula: prod over positive roots of
    (lam + rho, alpha) / (rho, alpha)."""
    num = den = 1
    for a in _scaled_roots(tuple(map(tuple, cartan))):
        num *= sum(c * (x + 1) for c, x in zip(a, lam))
        den *= sum(a)
    return num // den


def dominant_sum_dim(cartan, table):
    """sum of m * |W mu| over a dominant-weight table."""
    return sum(m * orbit_size(cartan, mu) for mu, m in table.items())


def _path_order(cartan, comp):
    nb = _neighbours(cartan, comp)
    ends = [i for i in comp if len(nb[i]) <= 1]
    order = [min(ends)]
    while len(order) < len(comp):
        order.append(next(j for j in nb[order[-1]] if j not in order))
    return order


def delta_space_dim(cartan, beta, delta):
    """Closed-form dimension of the standard delta-space, where one is
    known: the Levi component of beta is simply laced of type A (any
    position, C(m+1, p)) or D (vector end 2m, spin ends 2^(m-1)).
    Returns None for other components."""
    n = len(cartan)
    if delta == beta:
        return 1
    comp = next(c for c in components(cartan, set(range(1, n + 1)) - {delta})
                if beta in c)
    nb = _neighbours(cartan, comp)
    if any(cartan[i - 1][j - 1] != -1 for i in comp for j in nb[i]):
        return None
    family, m = classify(cartan, comp)
    if family == "A":
        return comb(m + 1, _path_order(cartan, comp).index(beta) + 1)
    if family == "D":
        (b,) = [i for i in comp if len(nb[i]) == 3]
        arms = sorted(components(cartan, comp - {b}), key=len)
        if m == 4:
            return 8 if beta != b else None
        if beta in arms[0] or beta in arms[1]:
            return 2 ** (m - 1)
        if len(nb[beta]) == 1:
            return 2 * m
    return None


_G2_STD = {("sym", 1): 0, ("ext", 1): 0, ("sym", 2): 1, ("sym", 3): 0, ("sym", 4): 1,
           ("ext", 2): 0, ("ext", 3): 1, ("ext", 4): 1}


def power_trivial(name, rep, kind, k):
    """Trivial multiplicity in S^k or Lambda^k of a standard ('std',
    'std*', D4's 'spin') or adjoint ('adj') representation, or None where
    the benchmark knows no independent value.

    Adjoint: Chevalley's degrees.  Standard: the classical invariant
    theory of SL, SO and Sp; the centre of E6 (order 3) and of E7 and
    D4 (order 2) kills the degrees it does not divide; G2 on 7 and F4 on
    26 have invariant rings generated in degrees 2 (and 3)."""
    family, n = parse_name(name)
    if rep == "adj" or name == "E8":
        degs = degrees(family, n)
        return (adjoint_sym_invariants(degs, k) if kind == "sym"
                else adjoint_ext_invariants(degs, k))
    if name == "E6":
        if k % 3:
            return 0
        return 1 if kind == "sym" and k == 3 else None
    if name == "E7":
        if k % 2:
            return 0
        return {("ext", 2): 1, ("sym", 2): 0, ("sym", 4): 1}.get((kind, k))
    if family == "A":
        return 0 if kind == "sym" else int(k == n + 1)
    if family in "BD":
        dim = 2 * n + (family == "B")
        return int(k % 2 == 0) if kind == "sym" else int(k == dim)
    if family == "C":
        return 0 if kind == "sym" else int(k % 2 == 0 and k <= 2 * n)
    if family == "G":
        return _G2_STD[(kind, k)]
    if family == "F" and kind == "sym":
        return int(k >= 2)
    return None
