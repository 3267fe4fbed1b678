"""Characters of highest-weight representations, exactly.

Everything is integer arithmetic on weight dictionaries.  A formal character
is a finite Z-combination of weights (fw-coordinate int tuples).  Irreducible
characters come from Freudenthal's formula on dominant weights, summed over
the root orbits of each weight's stabiliser (Moody-Patera); decompose() peels
any character in one pass over its dominant weights, highest first.
"""

from .rootsystem import (
    MAX_WEIGHTS,
    ConsistencyError,
    RefusedError,
    RootSystem,
    closure,
)

DEFAULT_MAX_POWER = 5


class FormalCharacter:
    """A finite integer combination of weights.

    Supports negative multiplicities (virtual characters);
    decompose() reads only its dominant weights and its dimension.
    """

    __slots__ = ("weights",)

    def __init__(self, weights=None):
        """weights: {weight tuple: multiplicity}, copied; zeros dropped."""
        self.weights = dict(weights or ())
        if not all(self.weights.values()):
            self.weights = {w: m for w, m in self.weights.items() if m}

    def items(self):
        return self.weights.items()

    def dimension(self):
        return sum(self.weights.values())

    def __len__(self):
        return len(self.weights)

    def __eq__(self, other):
        return isinstance(other, FormalCharacter) and self.weights == other.weights

    def __bool__(self):
        return bool(self.weights)

    def __add__(self, other):
        out = dict(self.weights)
        for w, m in other.weights.items():
            out[w] = out.get(w, 0) + m
        return FormalCharacter(out)

    def __sub__(self, other):
        out = dict(self.weights)
        for w, m in other.weights.items():
            out[w] = out.get(w, 0) - m
        return FormalCharacter(out)

    def __mul__(self, other):
        """Tensor product of characters, convolved on packed weights."""
        a, b = self.weights, other.weights
        if not (a and b):
            return FormalCharacter()
        rank = len(next(iter(a)))
        if rank != len(next(iter(b))):
            raise ValueError("characters of different ranks")
        width = _width(_bound(a) + _bound(b))
        if len(a) > len(b):
            a, b = b, a
        a, b, out = _pack(a, width), _pack(b, width), {}
        get = out.get
        for k1, m1 in a.items():
            for k2, m2 in b.items():
                key = k1 + k2
                out[key] = get(key, 0) + m1 * m2
        return FormalCharacter(_unpack(out, rank, width))

    def __repr__(self):
        return "FormalCharacter(%d weights, dim %d)" % (len(self.weights),
                                                        self.dimension())


# -- packed weights -----------------------------------------------------------
#
# Products and power series run on weights packed into single ints: w becomes
# sum_i w_i * 2**(width*i).  The map is linear, so adding keys adds weights
# and j*key is the key of j*w.  A field of width bits holds the balanced
# digits -2**(width-1) .. 2**(width-1)-1, so a width taken from an exact bound
# on every coordinate a computation reaches decodes without loss.


def _bound(weights):
    """The largest |coordinate| of any weight."""
    return max((max(max(w), -min(w)) for w in weights), default=0)


def _width(bound):
    """Bits per field for coordinates in [-bound, bound]."""
    return (2 * bound + 1).bit_length()


def _pack(weights, width):
    """{weight tuple: m} as {int key: m}, in the same order."""
    out = {}
    for w, m in weights.items():
        key = 0
        for x in reversed(w):
            key = (key << width) + x
        out[key] = m
    return out


def _unpack(packed, rank, width):
    """{int key: m} as {weight tuple: m}, in the same order.  A key plus
    half a field in every field has plain digits; it splits into its low
    rank//2 fields and the rest, and each distinct half is decoded once."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    low = rank // 2
    shift = low * width
    lo_mask = (1 << shift) - 1
    bias = sum(half << (width * i) for i in range(rank))

    def decode(x, n):
        return tuple(((x >> (width * i)) & mask) - half for i in range(n))

    lows, highs = {}, {}
    out = {}
    for key, m in packed.items():
        key += bias
        a = key & lo_mask
        b = key >> shift
        if a not in lows:
            lows[a] = decode(a, low)
        if b not in highs:
            highs[b] = decode(b, rank - low)
        out[lows[a] + highs[b]] = m
    return out


# -- irreducible characters --------------------------------------------------


def weyl_dimension(rs, lam):
    """Dimension of V(lam): prod (lam+rho, alpha) over alpha > 0, rho = (1,
    ..., 1), divided by the system's prod (rho, alpha), checked exact."""
    rho_shift = tuple([x + 1 for x in rs.check_weight(lam, dominant=True)])
    rows, den = rs.root_rows
    num = 1
    for _, _, _, row, _ in rows:
        num *= sum(map(int.__mul__, row, rho_shift))
    if num % den:
        raise ConsistencyError("Weyl dimension is not an integer")
    return num // den


def _covers(rs, w):
    """The dominant weights w - alpha, alpha a positive root."""
    for _, _, alpha, _, _ in rs.root_rows[0]:
        v = tuple(map(int.__sub__, w, alpha))
        if min(v) >= 0:
            yield v


def dominant_weights_below(rs, lam, cost=1):
    """All dominant weights mu <= lam (coset of the root lattice), found by
    walking covers: subtract positive roots, keep dominant results.  The
    walk stops, refused, once their number times cost passes MAX_WEIGHTS."""
    lam = rs.check_weight(lam, dominant=True)
    budget = iter(range(MAX_WEIGHTS // cost))

    def step(w):
        if next(budget, None) is None:
            raise RefusedError("the dominant weights below %r, at %d steps "
                               "each, need more than %d"
                               % (lam, cost, MAX_WEIGHTS))
        return _covers(rs, w)

    return set(closure([lam], step))


# dominant_character's tables by (system key, weight), so a second
# RootSystem of the same Cartan matrix finds them too
TABLES = {}


def dominant_character(rs, lam):
    """Multiplicities of the dominant weights of V(lam) as a dict.

    Freudenthal's recursion over the dominant mu by decreasing |mu+rho|^2,
    its sum over positive roots folded onto orbits of W_J, the stabiliser
    of mu (J = {i : mu_i = 0}; Moody and Patera, Bull. AMS 7, 1982): an
    orbit off J is its J-dominant root alpha, counted |W_J|/|W_J'| times
    (J' = {i in J : alpha_i = 0}), and an orbit on J counts half.  A string
    stops once |mu + k alpha|^2 passes |lam|^2, as no weight of V(lam) does.
    Divisions are checked exact and multiplicities positive; refused up
    front when #dominant weights * |positive roots| passes MAX_WEIGHTS.
    """
    lam = rs.check_weight(lam, dominant=True)
    key = (rs.key, lam)
    if key in TABLES:
        return dict(TABLES[key])

    # n*|mu+rho|^2 for each dominant mu, n as in cartan_inverse
    rows = rs.root_rows[0]
    norms = {mu: rs.scaled_norm2(tuple(a + 1 for a in mu))
             for mu in dominant_weights_below(rs, lam, len(rows))}
    order = sorted(norms, key=lambda mu: (-norms[mu], tuple(-x for x in mu)))
    if order[0] != lam:
        raise ConsistencyError("highest weight is not maximal")

    orders, reps = {}, {}

    def size(nodes):
        if nodes not in orders:
            orders[nodes] = rs.parabolic_order(nodes)
        return orders[nodes]

    table = {lam: 1}
    n = rs.cartan_inverse[0]
    top = rs.scaled_norm2(lam)
    dominate = rs.dominant_rep
    for mu in order[1:]:
        J = tuple(i for i, x in enumerate(mu, 1) if x == 0)
        if J not in reps:
            reps[J] = [(alpha_fw, pairvec, norm2a, size(J) // size(
                tuple(i for i in J if alpha_fw[i - 1] == 0)))
                for _, _, alpha_fw, pairvec, norm2a in rows
                if all(alpha_fw[i - 1] >= 0 for i in J)]
        # mu + k alpha may be a weight while n*|mu + k alpha|^2 <= top
        room = (top - rs.scaled_norm2(mu)) // n
        num = 0
        for alpha_fw, pairvec, norm2a, orbit in reps[J]:
            base = sum(p * x for p, x in zip(pairvec, mu))
            weight = 2 * orbit if base else orbit  # base is 0 on J's roots
            nu, k = mu, 1
            while k * (2 * base + k * norm2a) <= room:
                nu = tuple(a + b for a, b in zip(nu, alpha_fw))
                m = table.get(dominate(nu), 0)
                if m == 0:
                    break
                num += weight * m * (base + k * norm2a)
                k += 1
        # den = n*(|lam+rho|^2 - |mu+rho|^2); num is doubled, so takes n
        den = norms[lam] - norms[mu]
        if den <= 0:
            raise ConsistencyError("norm ordering violated")
        if (n * num) % den:
            raise ConsistencyError("multiplicity recursion not exact")
        mult = n * num // den
        if mult <= 0:
            raise ConsistencyError("nonpositive multiplicity")
        table[mu] = mult

    TABLES[key] = table
    return dict(table)


def irrep_character(rs, lam):
    """Full character of V(lam): every Weyl orbit of every dominant weight;
    refused above MAX_WEIGHTS weights before anything is expanded."""
    dim = weyl_dimension(rs, lam)
    if dim > MAX_WEIGHTS:
        raise RefusedError("character of dimension %d, above the limit of %d"
                           % (dim, MAX_WEIGHTS))
    out = {}
    for mu, m in dominant_character(rs, lam).items():
        out[mu] = m
        for w, _, _, _ in rs.orbit_steps(mu):
            out[w] = m
    return FormalCharacter(out)


# -- tensor and plethysm ------------------------------------------------------


def power_series(char, k, alternating=False):
    """Characters of the symmetric powers of degrees 0..k, or of the
    exterior powers when alternating."""
    c, unpack = _packed_powers(char, k, alternating)
    return [unpack(cd) for cd in c]


def _packed_powers(char, k, alternating):
    """power_series packed, and the function that unpacks one degree, from
    prod_nu (1 + s t e^nu)^(s m_nu) to t^k, s = 1 if alternating else -1
    (Macdonald, Symmetric Functions, I.2): one falling pass per weight nu,
    of any m_nu, c_d += sum_{n<=d} C(s m_nu, n) s^n e^(n nu) c_(d-n).  Every
    weight of c_d is a sum of d <= k weights of char, so k times the bound
    of char bounds them all.  Degrees above DEFAULT_MAX_POWER are refused."""
    if not char.weights:
        raise ValueError("empty character")
    if k < 0:
        raise ValueError("negative power")
    if k > DEFAULT_MAX_POWER:
        raise RefusedError("degree %d above the configured maximum %d"
                           % (k, DEFAULT_MAX_POWER))
    rank = len(next(iter(char.weights)))
    width = _width(k * _bound(char.weights))
    s = 1 if alternating else -1
    c = [{0: 1}] + [{} for _ in range(k)]
    for nu, m in _pack(char.weights, width).items():
        terms, e = [], 1
        for n in range(1, k + 1):
            e = e * s * (s * m - n + 1) // n
            if not e:
                break
            terms.append((n * nu, e))
        for d in range(k, 0, -1):
            cd = c[d]
            get = cd.get
            for n, (shift, e) in enumerate(terms[:d], 1):
                for key, mult in c[d - n].items():
                    key += shift
                    cd[key] = get(key, 0) + e * mult
    return c, lambda cd: FormalCharacter(_unpack(cd, rank, width))


def symmetric_power(char, k):
    """Character of the k-th symmetric power; only c_k is unpacked."""
    c, unpack = _packed_powers(char, k, False)
    return unpack(c[k])


def exterior_power(char, k):
    """Character of the k-th exterior power; only c_k is unpacked."""
    c, unpack = _packed_powers(char, k, True)
    return unpack(c[k])


# -- decomposition ------------------------------------------------------------


def decompose(rs, char):
    """Write a character as a sum of irreducibles: dict hw -> multiplicity.

    One pass over the dominant weights by decreasing (|mu+rho|^2, mu), an
    order refining dominance, subtracting V(mu)'s dominant table for each
    nonzero residue.  Only the dominant weights and the total dimension are
    read: a residue left over, a negative multiplicity or a wrong dimension
    raises, but the other weights are not checked for W-invariance (one
    reflection per weight took the plethysm benchmark from 0.9 s to 1.2 s).
    """
    dom = {w: m for w, m in char.items() if min(w) >= 0}
    out = {}
    for mu in sorted(dom, key=lambda w: (
            rs.scaled_norm2(tuple(a + 1 for a in w)), w), reverse=True):
        mult = dom[mu]
        if mult:
            out[mu] = mult
            for nu, m in dominant_character(rs, mu).items():
                dom[nu] = dom.get(nu, 0) - mult * m
    for nu, m in dom.items():
        if m:
            raise ConsistencyError("not a character: %d left at %r" % (m, nu))
    return _checked(rs, out, char.dimension(), "the input")


def _dot_dominant(rs, v):
    """(det w, w(v) - rho) for v = mu + nu + rho and w taking v into the
    dominant chamber; None when v lies on a wall."""
    sign = 1
    while 0 not in v:
        for i, x in enumerate(v):
            if x < 0:
                v = tuple([a - x * r for a, r in zip(v, rs.cartan[i])])
                sign = -sign
                break
        else:
            return sign, tuple(a - 1 for a in v)
    return None


def _times(rs, dec, weights, out):
    """Add into out the decomposition of (sum of dec[mu] V(mu)) times the
    W-invariant character with weights {nu: m}, by Klimyk's formula
    V(mu) x chi = sum_nu chi(nu) det(w) V(w(mu+nu+rho) - rho) (Humphreys,
    Introduction to Lie Algebras, 24): the product's weights are never
    built."""
    shifted = [(tuple(x + 1 for x in nu), m) for nu, m in weights.items()]
    for mu, a in dec.items():
        for nu_rho, m in shifted:
            term = _dot_dominant(rs, tuple(map(int.__add__, mu, nu_rho)))
            if term:
                out[term[1]] = out.get(term[1], 0) + term[0] * a * m
    return out


def _checked(rs, dec, dim, what):
    """dec without its zero entries, once no multiplicity is negative and
    sum m*dim V(mu) is dim; what names dec in the error."""
    if any(m < 0 for m in dec.values()) or sum(
            m * weyl_dimension(rs, hw) for hw, m in dec.items()) != dim:
        raise ConsistencyError("%s is not a character of dimension %d"
                               % (what, dim))
    return {hw: m for hw, m in dec.items() if m}


def power_decompositions(rs, lam, k):
    """(symmetric, exterior): the decompositions {hw: mult} of S^d V(lam)
    and Lambda^d V(lam), d = 0..k, by Newton's recursion d*c_d = sum_j
    s^(j-1) psi^j V c_(d-j), psi^j V having the weights j*nu.  Degree k
    costs about k*|wt V| terms per dominant weight below k*lam, refused up
    front above MAX_WEIGHTS.  Degree 0 is the trivial series."""
    if k < 0:
        raise ValueError("negative power")
    lam = tuple(lam)
    wt = irrep_character(rs, lam).weights
    if k:
        dominant_weights_below(rs, tuple(k * x for x in lam), k * len(wt))
    n = sum(wt.values())
    series = []
    for s, name in ((1, "S^%d V"), (-1, "Lambda^%d V")):
        psi = [None] + [{tuple(j * x for x in nu): s ** (j - 1) * m
                         for nu, m in wt.items()} for j in range(1, k + 1)]
        c, dim = [{rs.zero(): 1}], 1
        for d in range(1, k + 1):
            acc = {}
            for j in range(1, d + 1):
                _times(rs, c[d - j], psi[j], acc)
            for hw, m in acc.items():
                if m % d:
                    raise ConsistencyError("multiplicity %d at %r not "
                                           "divisible by %d" % (m, hw, d))
            dim = dim * (n + s * (d - 1)) // d  # C(n + d - 1, d) or C(n, d)
            c.append(_checked(rs, {hw: m // d for hw, m in acc.items() if m},
                              dim, name % d))
        series.append(c)
    return tuple(series)


# -- structural predicates ----------------------------------------------------


def minuscule_check(rs, lam):
    """True when the Weyl orbit of lam is all of V(lam).

    Checked both ways: orbit size against the dimension formula, and every
    orbit coordinate in {-1, 0, 1}; the two criteria must agree.
    """
    orbit = rs.weyl_orbit(lam)
    by_size = len(orbit) == weyl_dimension(rs, tuple(lam))
    by_coords = all(all(x in (-1, 0, 1) for x in w) for w in orbit)
    if by_size != by_coords:
        raise ConsistencyError("minuscule criteria disagree at %r" % (tuple(lam),))
    return by_size


def invariant_bilinear_type(rs, lam):
    """None when V(lam) is not self-dual; otherwise 'Symmetric' or 'Skew',
    the sign of the invariant form being (-1)^<lam, 2 rho^vee> (Steinberg,
    Lectures on Chevalley Groups; Bourbaki, Lie VIII 7.5), where <lam,
    2 rho^vee> sums 2(lam, alpha)/(alpha, alpha) over the positive roots."""
    lam = rs.check_weight(lam)
    if rs.dual_weight(lam) != lam:
        return None
    height = sum(2 * sum(map(int.__mul__, dq, lam)) // norm2
                 for _, _, _, dq, norm2 in rs.root_rows[0])
    return "Skew" if height % 2 else "Symmetric"


# -- branching ----------------------------------------------------------------


class BranchingRule:
    """A weight-coordinate map from a source system to a target system."""

    def __init__(self, name, source, target, weight_map):
        self.name = name
        self.source = source
        self.target = target
        self._map = weight_map

    def restrict_character(self, char):
        """char over the target; ValueError at a key that is no weight of
        the source."""
        check = self.source.check_weight
        out = {}
        for w, m in char.items():
            key = self._map(check(w))
            out[key] = out.get(key, 0) + m
        return FormalCharacter(out)

    def restrict_irrep(self, lam):
        """Decomposition of V(lam) over the target: dict hw -> mult."""
        char = irrep_character(self.source, lam)
        return decompose(self.target, self.restrict_character(char))

    def __repr__(self):
        return "BranchingRule(%s)" % self.name


def e6_to_d5_levi():
    """Restriction to the rank-5 subsystem obtained by deleting node 6:
    drop the last coordinate and move the second to the end."""
    return BranchingRule(
        "e6-levi-d5",
        RootSystem.named("E6"),
        RootSystem.named("D5"),
        lambda w: (w[0], w[2], w[3], w[4], w[1]),
    )


def e6_to_f4_fold():
    """Restriction along the folding that identifies nodes 1/6 and 3/5."""
    return BranchingRule(
        "e6-fold-f4",
        RootSystem.named("E6"),
        RootSystem.named("F4"),
        lambda w: (w[1], w[3], w[2] + w[4], w[0] + w[5]),
    )


def e7_to_e6_levi():
    """Restriction to the rank-6 subsystem obtained by deleting node 7."""
    return levi_restriction(RootSystem.named("E7"), range(1, 7))


def levi_restriction(rs, keep):
    """Generic restriction to the sub root system on the kept nodes: select
    the kept fw coordinates in sorted node order."""
    target, nodes = rs.restricted(keep)
    idx = tuple(i - 1 for i in nodes)
    name = "levi-%s" % "".join(str(i) for i in nodes)
    return BranchingRule(name, rs, target, lambda w: tuple(w[i] for i in idx))


NAMED_BRANCHINGS = {
    "e6-levi-d5": e6_to_d5_levi,
    "e6-fold-f4": e6_to_f4_fold,
    "e7-levi-e6": e7_to_e6_levi,
}
