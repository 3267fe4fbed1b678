"""Characters of highest-weight representations, exactly.

Everything is integer arithmetic on weight dictionaries.  A formal character
is a finite Z-combination of weights (fw-coordinate int tuples); irreducible
characters come from the recursive multiplicity formula evaluated on dominant
weights only, and arbitrary characters are decomposed by peeling highest
weights in an order refining dominance.
"""

from __future__ import annotations

import hashlib
import json
import os

from .rootsystem import ConsistencyError, RefusedError, RootSystem, closure

DEFAULT_MAX_POWER = 5


class FormalCharacter:
    """A finite integer combination of weights.

    Supports negative multiplicities, so intermediate virtual characters in
    the power-sum recursions are fine; decompose() rejects non-characters.
    """

    __slots__ = ("weights",)

    def __init__(self, weights=None):
        data = {}
        if weights:
            for w, m in (weights.items() if hasattr(weights, "items") else weights):
                if m:
                    data[tuple(w)] = data.get(tuple(w), 0) + m
        self.weights = {w: m for w, m in data.items() if m}

    @classmethod
    def unit(cls, rank):
        return cls({(0,) * rank: 1})

    def items(self):
        return self.weights.items()

    def get(self, w, default=0):
        return self.weights.get(tuple(w), default)

    def support(self):
        return frozenset(self.weights)

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

    def scaled(self, k):
        return FormalCharacter({w: k * m for w, m in self.weights.items()})

    def __mul__(self, other):
        """Tensor product of characters."""
        a, b = self.weights, other.weights
        if a and b and len(next(iter(a))) != len(next(iter(b))):
            raise ValueError("characters of different ranks")
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for w1, m1 in a.items():
            for w2, m2 in b.items():
                key = tuple(x + y for x, y in zip(w1, w2))
                out[key] = out.get(key, 0) + m1 * m2
        return FormalCharacter(out)

    def divided(self, k):
        out = {}
        for w, m in self.weights.items():
            q, r = divmod(m, k)
            if r:
                raise ConsistencyError("multiplicity %d at %r not divisible by %d"
                                       % (m, w, k))
            out[w] = q
        return FormalCharacter(out)

    def __repr__(self):
        return "FormalCharacter(%d weights, dim %d)" % (len(self.weights),
                                                        self.dimension())


# -- irreducible characters --------------------------------------------------


def weyl_dimension(rs, lam):
    """Dimension of the irreducible with highest weight lam, by the product
    formula; exact integer division is asserted."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    rho_shift = tuple(x + 1 for x in lam)
    num = 1
    den = 1
    for alpha in rs.positive_roots:
        num *= rs.pair_root(rho_shift, alpha)
        den *= rs.pair_root(rs.rho, alpha)
    if num % den:
        raise ConsistencyError("Weyl dimension is not an integer")
    return num // den


def dominant_weights_below(rs, lam):
    """All dominant weights mu <= lam (coset of the root lattice), found by
    walking covers: subtract positive roots, keep dominant results."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError("need a dominant weight")

    def step(w):
        for k, alpha in enumerate(rs.positive_roots_fw):
            v = tuple(a - b for a, b in zip(w, alpha))
            if all(x >= 0 for x in v):
                yield k, v

    return set(closure([lam], step))


class TableStore:
    """Dominant character tables, memoized by (system key, weight) and, when
    a directory is given, kept there as one json file per table.  A file
    whose header, checksum or table does not hold up is a miss."""

    def __init__(self, directory=None):
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.memo = {}

    def _path(self, rs, lam):
        digest = hashlib.sha256((rs.key + repr(lam)).encode()).hexdigest()[:24]
        return os.path.join(self.directory, "domchar-%s.json" % digest)

    def get(self, rs, lam):
        """The stored table of V(lam), or None; do not mutate it."""
        key = (rs.key, lam)
        if key not in self.memo and self.directory:
            table = self._load(rs, lam)
            if table is not None:
                self.memo[key] = table
        return self.memo.get(key)

    def put(self, rs, lam, table):
        self.memo[(rs.key, lam)] = table
        if self.directory:
            rows = [[list(w), int(m)] for w, m in sorted(table.items())]
            path = self._path(rs, lam)
            # one temp file per process, so concurrent writers never share one
            tmp = "%s.%d.tmp" % (path, os.getpid())
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(_payload(rs, lam, rows), fh, sort_keys=True)
            os.replace(tmp, path)

    def _load(self, rs, lam):
        try:
            with open(self._path(rs, lam), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if data != _payload(rs, lam, data["table"]):
                return None
            table = {tuple(w): int(m) for w, m in data["table"]}
            return table if _valid(rs, lam, table) else None
        except (OSError, ValueError, KeyError, TypeError):
            return None


def _payload(rs, lam, rows):
    """The json file of a table, given as sorted [weight, multiplicity]
    rows."""
    body = json.dumps(rows, sort_keys=True)
    return {"format_version": 1, "system": rs.key, "weight": list(lam),
            "table": rows, "checksum": hashlib.sha256(body.encode()).hexdigest()}


def _valid(rs, lam, table):
    """A table can be V(lam)'s only if its weights are dominant, m(lam) = 1,
    every m > 0 and the orbits add up to the Weyl dimension."""
    if table.get(lam) != 1:
        return False
    if not all(len(mu) == rs.rank and rs.is_dominant(mu) and m > 0
               for mu, m in table.items()):
        return False
    return (sum(m * rs.orbit_size(mu) for mu, m in table.items())
            == weyl_dimension(rs, lam))


# the store dominant_character reads; the CLI swaps in a directory-backed one
STORE = TableStore()


def dominant_character(rs, lam):
    """Multiplicities of the dominant weights of V(lam) as a dict.

    The recursion runs over dominant weights in decreasing |mu+rho|^2 order;
    every division is checked to be exact and every multiplicity positive.
    """
    lam = tuple(lam)
    table = STORE.get(rs, lam)
    if table is not None:
        return dict(table)

    doms = dominant_weights_below(rs, lam)
    rho = rs.rho

    def shifted_norm(mu):
        return rs.scaled_norm2(tuple(a + b for a, b in zip(mu, rho)))

    order = sorted(doms, key=lambda mu: (-shifted_norm(mu), tuple(-x for x in mu)))
    if order[0] != lam:
        raise ConsistencyError("highest weight is not maximal")

    roots = [(alpha_fw,
              tuple(rs.d[j] * alpha[j] for j in range(rs.rank)),
              rs.root_norm2(alpha))
             for alpha, alpha_fw in zip(rs.positive_roots, rs.positive_roots_fw)]
    table = {lam: 1}
    dominate = rs.dominant_rep
    for mu in order[1:]:
        num = 0
        for alpha_fw, pairvec, norm2a in roots:
            base = sum(p * x for p, x in zip(pairvec, mu))
            nu = mu
            k = 1
            while True:
                nu = tuple(a + b for a, b in zip(nu, alpha_fw))
                m = table.get(dominate(nu), 0)
                if m == 0:
                    break
                num += m * (base + k * norm2a)
                k += 1
        den = rs.norm2_shift_diff(lam, mu)
        if den <= 0:
            raise ConsistencyError("norm ordering violated")
        if (2 * num) % den:
            raise ConsistencyError("multiplicity recursion not exact")
        mult = 2 * num // den
        if mult <= 0:
            raise ConsistencyError("nonpositive multiplicity")
        table[mu] = mult

    STORE.put(rs, lam, table)
    return dict(table)


def irrep_character(rs, lam):
    """Full character of V(lam): every Weyl orbit of every dominant weight."""
    out = {}
    for mu, m in dominant_character(rs, lam).items():
        for w in rs.weyl_orbit(mu):
            out[w] = m
    return FormalCharacter(out)


# -- tensor and plethysm ------------------------------------------------------


def adams(char, k):
    """Power-sum operation: each weight is scaled by k."""
    if k < 1:
        raise ValueError("k must be positive")
    return FormalCharacter({tuple(k * x for x in w): m for w, m in char.items()})


def _power_check(char, k, max_degree):
    if not char.weights:
        raise ValueError("empty character")
    if k < 0:
        raise ValueError("negative power")
    if k > max_degree:
        raise RefusedError("degree %d above the configured maximum %d"
                           % (k, max_degree))


def power_series(char, k, alternating=False, max_degree=DEFAULT_MAX_POWER):
    """Characters of the symmetric powers of degrees 0..k, or of the
    exterior powers when alternating, by the Newton recursion
    d*c_d = sum_{j=1}^{d} s^(j-1) p_j c_{d-j} with s = -1 if alternating
    else 1."""
    _power_check(char, k, max_degree)
    rank = len(next(iter(char.weights)))
    p = [None] + [adams(char, j) for j in range(1, k + 1)]
    c = [FormalCharacter.unit(rank)]
    for d in range(1, k + 1):
        acc = FormalCharacter()
        for j in range(1, d + 1):
            term = p[j] * c[d - j]
            acc = acc + (term.scaled(-1) if alternating and j % 2 == 0
                         else term)
        c.append(acc.divided(d))
    return c


def symmetric_power(char, k, max_degree=DEFAULT_MAX_POWER):
    """Character of the k-th symmetric power."""
    return power_series(char, k, max_degree=max_degree)[k]


def exterior_power(char, k, max_degree=DEFAULT_MAX_POWER):
    """Character of the k-th exterior power."""
    return power_series(char, k, True, max_degree)[k]


# -- decomposition ------------------------------------------------------------


def decompose(rs, char):
    """Write a character as a sum of irreducibles: dict hw -> multiplicity.

    Peels the maximal dominant weight under (|mu+rho|^2, lex), an order
    refining dominance, and subtracts dominant character tables.  Raises if
    the input is not a genuine character.
    """
    total = char.dimension()
    dom = {w: m for w, m in char.items() if rs.is_dominant(w)}
    rho = rs.rho
    norm_cache = {}

    def norm(mu):
        val = norm_cache.get(mu)
        if val is None:
            val = rs.scaled_norm2(tuple(a + b for a, b in zip(mu, rho)))
            norm_cache[mu] = val
        return val

    out = {}
    while dom:
        mu = max(dom, key=lambda w: (norm(w), w))
        mult = dom[mu]
        if mult < 0:
            raise ConsistencyError("not a character: multiplicity %d at %r"
                                   % (mult, mu))
        out[mu] = mult
        for nu, m in dominant_character(rs, mu).items():
            left = dom.get(nu, 0) - mult * m
            if left:
                dom[nu] = left
            elif nu in dom:
                del dom[nu]
    if sum(m * weyl_dimension(rs, mu) for mu, m in out.items()) != total:
        raise ConsistencyError("decomposition does not add up to the dimension")
    return out


def trivial_multiplicity(rs, char):
    """Multiplicity of the trivial representation in a character."""
    return decompose(rs, char).get(rs.zero(), 0)


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
    """None when V(lam) is not self-dual; otherwise 'Symmetric' or 'Skew'
    according to where the invariant form lives."""
    lam = tuple(lam)
    if rs.dual_weight(lam) != lam:
        return None
    char = irrep_character(rs, lam)
    sym = decompose(rs, symmetric_power(char, 2)).get(rs.zero(), 0)
    alt = decompose(rs, exterior_power(char, 2)).get(rs.zero(), 0)
    if sym + alt != 1:
        raise ConsistencyError("self-dual irreducible needs exactly one form")
    return "Symmetric" if sym else "Skew"


# -- branching ----------------------------------------------------------------


class BranchingRule:
    """A weight-coordinate map from a source system to a target system."""

    def __init__(self, name, source, target, weight_map):
        self.name = name
        self.source = source
        self.target = target
        self._map = weight_map

    def restrict_weight(self, w):
        return self._map(tuple(w))

    def restrict_character(self, char):
        out = {}
        for w, m in char.items():
            key = self._map(w)
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
    return BranchingRule(
        "e7-levi-e6",
        RootSystem.named("E7"),
        RootSystem.named("E6"),
        lambda w: w[:6],
    )


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
