"""Finite A-infinity algebras: checker, opposite, smash, dimension counts.

Operations are written mu^k(y_k, ..., y_1); tables are keyed by
(output label, input tuple in textual order), so key[1][0] is y_k.  The
Stasheff identity checked here is

    sum_{a,b} (-1)^star mu^{k-a+1}(y_k, ..., mu^a(y_{a+b}, ..., y_{b+1}),
                                   y_b, ..., y_1) = 0,
    star = i(y_1) + ... + i(y_b) - b,

with i the integer degree, entering all signs only through its parity.

Coefficient types just need ring arithmetic: plain Fractions for the
transferred models, and `Cyc` (a rational multiple of a root of unity,
stored as an exact exponent) for smash products with a finite group.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, lcm

from .lattice import canonical, fractional_grading, integer_grading, size
from .lattice import weight as lattice_weight

ZERO = Fraction(0)


class RequiresMinimal(ValueError):
    """Raised when an operation needs mu^1 = 0 but the algebra has one."""


class Inconsistent(ValueError):
    """Raised when sign normalization contradicts itself."""


@dataclass(frozen=True)
class Cyc:
    """An exact coefficient q * zeta^exp with zeta a primitive root of
    unity of the given order.  Sums are only formed between terms with
    equal exponents; anything else raises, loudly, instead of leaving
    exact arithmetic.  `check_stasheff` adds no Cyc terms: it splits each
    coefficient into (magnitude, exponent), keeps its totals per exponent
    and decides zero in Q(zeta) itself.
    """

    mag: Fraction
    exp: int
    order: int

    def __post_init__(self):
        object.__setattr__(self, "mag", Fraction(self.mag))
        object.__setattr__(self, "exp", self.exp % self.order if self.mag else 0)

    def __bool__(self):
        return bool(self.mag)

    def __neg__(self):
        return Cyc(-self.mag, self.exp, self.order)

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, Cyc) or other.order != self.order:
            return NotImplemented
        if not self.mag:
            return other
        if not other.mag:
            return self
        if self.exp != other.exp:
            raise ValueError(
                f"cannot add root-of-unity terms with exponents "
                f"{self.exp} and {other.exp}"
            )
        return Cyc(self.mag + other.mag, self.exp, self.order)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Cyc):
            if other.order != self.order:
                raise ValueError("mixed root-of-unity orders")
            return Cyc(self.mag * other.mag, self.exp + other.exp, self.order)
        return Cyc(self.mag * Fraction(other), self.exp, self.order)

    __rmul__ = __mul__


@dataclass
class FiniteAInftyAlgebra:
    """Structure constants of a finite A-infinity algebra.

    ops[k] maps (output label, input tuple) -> coefficient.  zdeg gives
    each label's integer degree; weight (canonical tuples) and qdeg are
    optional refinements used by smash products and the grading validator.
    """

    basis: list
    zdeg: dict
    ops: dict
    weight: dict = None
    qdeg: dict = None

    def dim(self):
        return len(self.basis)

    def validate_graded(self):
        """Weight additivity and Q-degree 2-k on every stored entry.

        Runs on integers: the weights' canonical tuples are summed as
        vectors, and the degrees are scaled by the lcm of their
        denominators.
        """
        if self.weight is None or self.qdeg is None:
            raise ValueError("algebra carries no weight/degree data")
        scale = lcm(*(q.denominator for q in self.qdeg.values()))
        qint = {x: q.numerator * (scale // q.denominator)
                for x, q in self.qdeg.items()}
        for k, table in self.ops.items():
            shift = (2 - k) * scale
            for (out, ins), coef in table.items():
                if not coef:
                    continue
                w = [sum(col) for col in zip(*(self.weight[x] for x in ins))]
                if canonical(w) != self.weight[out]:
                    raise ValueError(f"weight not additive on {ins} -> {out}")
                if qint[out] != sum(qint[x] for x in ins) + shift:
                    raise ValueError(f"degree of mu^{k} is not 2-{k} on {ins}")


def _tail_sign(zdeg, tail):
    """(-1)^star for a right tail, star = sum of (i(y) - 1)."""
    star = sum(zdeg[y] - 1 for y in tail)
    return -1 if star % 2 else 1


def _poly_divmod(num, den):
    """Quotient and remainder of num by the monic den (coefficients, constant first)."""
    num = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return quot, num[:len(den) - 1]


def _cyclotomic(m):
    """Integer coefficients, constant first, of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divmod(poly, _cyclotomic(d))[0]
    return poly


def _splitter(tables):
    """A map coef -> (magnitude, root-of-unity exponent) for the nonzero
    coefficients of the given tables, and the common denominator D it
    scales by.

    The magnitude is the int q * D for a coefficient q * zeta^exp (exp 0
    for a rational coefficient), so products of two coefficients are ints
    at scale D^2 and the hot loops build no Fraction or Cyc.
    """
    scale = lcm(*(
        (c.mag if isinstance(c, Cyc) else c).denominator
        for table in tables for c in table.values() if c
    ))

    def split(coef):
        mag, exp = (coef.mag, coef.exp) if isinstance(coef, Cyc) else (coef, 0)
        return mag.numerator * (scale // mag.denominator), exp

    return split, scale


def _indexed_arities(alg, max_arity):
    """The arities whose entries `_joined_terms` joins, ascending: those k
    with a nonzero entry and k + k_min - 1 <= max_arity, k_min the
    smallest arity with a nonzero entry."""
    arities = sorted(k for k, table in alg.ops.items() if any(table.values()))
    return [k for k in arities if k + arities[0] - 1 <= max_arity]


def _decode_key(key, labels, width, ebits):
    """(arity, input tuple, output label, exponent) of a packed identity
    key of `_joined_terms`."""
    exp = key & ((1 << ebits) - 1)
    key >>= ebits
    digit = (1 << width) - 1
    out = labels[key & digit]
    tup = []
    while key := key >> width:
        tup.append(labels[key & digit])
    tup.reverse()
    return len(tup), tuple(tup), out, exp


def _joined_terms(alg, max_arity, split, modulus):
    """The key layout (labels, width, ebits) and a generator of (leading
    label, totals) for every group of identities up to max_arity, one
    group at a time.

    A group holds the identities whose input tuple starts with one label.
    Its totals map the packed key of (arity, tuple, output, exponent) to
    the summed scaled magnitude of the group's terms, zero sums included;
    `_decode_key(key, labels, width, ebits)` unpacks a key.  A term
    mu^k_out(..., mu^k_in(inner), ...) with the inner product in slot p
    belongs to the group of the outer entry's first input when p >= 1,
    and to the group of inner[0] when p == 0.

    Keys are ints, so the join hashes no label tuples.  Every label of an
    indexed entry gets an id 1..L in first-seen order (labels[id] is the
    label), and a key holds, from its most significant end, one
    width-bit digit per input, one for the output, and the exponent
    modulo the modulus in ebits bits (none when the modulus is 1), where
    width = L.bit_length().  Digits are never 0, so the arity is read off
    the key's length.

    Each nonzero entry is one record (k, out, packed, span, tail, mag,
    exp, ins, signed0): out is the output's id, packed the input digits,
    span = width * k their bit length, tail the digits of ins[1:] and of
    the output followed by ebits zero bits, and signed0 the magnitude
    times the tail sign of slot 0.  An inner record lands in slot p of
    an outer one under the key (high << span_in | packed_in) << shift |
    low, plus the exponent, where shift = width * (k - p) + ebits, high
    is the outer digits left of the slot and low the last shift bits of
    the outer tail; at p == 0, high is empty and low the whole tail.
    The records sit in two indexes: first[id], the entries whose first
    input is that label, and by_out[id], the entries whose output is
    that label.  The group of lead walks first[lead] once: each entry is
    the outer factor of the entries in by_out[ins[p]] for its slots
    p >= 1, and the inner factor in slot 0 of the entries in first[out].
    Only the arities of `_indexed_arities` are indexed, in ascending
    order, so a composed arity above max_arity ends the scan of an index
    list and every visited pair is a term.  Groups come in the order
    their labels first lead an entry, so labels missing from alg.basis
    get their groups too.
    """
    arities = _indexed_arities(alg, max_arity)
    ids = {}
    for k in arities:
        for (out, ins), coef in alg.ops[k].items():
            if coef:
                for label in (out, *ins):
                    ids.setdefault(label, len(ids) + 1)
    labels = [None, *ids]
    width = len(ids).bit_length()
    ebits = (modulus - 1).bit_length()
    digit = (1 << width) - 1
    first, by_out = {}, [[] for _ in labels]
    for k in arities:
        for (out, ins), coef in alg.ops[k].items():
            if not coef:
                continue
            mag, exp = split(coef)
            packed = 0
            for x in ins:
                packed = packed << width | ids[x]
            out = ids[out]
            tail = ((packed & ((1 << width * (k - 1)) - 1)) << width | out) << ebits
            rec = (k, out, packed, width * k, tail, mag, exp, ins,
                   _tail_sign(alg.zdeg, ins[1:]) * mag)
            first.setdefault(packed >> width * (k - 1), []).append(rec)
            by_out[out].append(rec)

    def groups():
        for lead, recs in first.items():
            totals = defaultdict(int)
            for k, out, packed, _, tail, mag, exp, ins, _ in recs:
                room = max_arity - k + 1
                for p in range(1, k):
                    cut = width * (k - p)  # the digits of slots p..k-1
                    shift = cut + ebits
                    high, low = packed >> cut, tail & ((1 << shift) - 1)
                    signed = _tail_sign(alg.zdeg, ins[p + 1:]) * mag
                    slot = (packed >> cut - width) & digit
                    for k_in, _, inner, span, _, mag_in, exp_in, _, _ in by_out[slot]:
                        if k_in > room:
                            break
                        key = (high << span | inner) << shift | low
                        totals[key | (exp + exp_in) % modulus] += signed * mag_in
                for k_out, _, _, span, tail_out, _, exp_out, _, signed in first.get(out, ()):
                    if k_out > room:
                        break
                    key = packed << (span + ebits) | tail_out
                    totals[key | (exp_out + exp) % modulus] += signed * mag
            yield labels[lead], totals

    return (labels, width, ebits), groups()


def _total(by_exp, order, phi):
    """The value of an identity from its per-exponent magnitudes.

    Without roots of unity (order None) it is the plain sum.  Otherwise
    it is the tuple of nonzero Cyc terms, by ascending exponent, and it
    is empty exactly when sum_e by_exp[e] zeta^e vanishes in Q(zeta):
    the polynomial is reduced modulo phi, the cyclotomic polynomial of
    the order, so 1 + zeta + zeta^2 counts as zero for order 3.
    """
    if order is None:
        return by_exp.get(0, 0)
    terms = tuple(Cyc(c, e, order) for e, c in sorted(by_exp.items()))
    if len(terms) < 2:
        return terms
    poly = [0] * order
    for e, c in by_exp.items():
        poly[e] = c
    _, rem = _poly_divmod(poly, phi)
    return terms if any(rem) else ()


def check_stasheff(alg, max_arity):
    """Violated Stasheff identities up to the given composed arity.

    Returns a sorted list of (arity, input tuple, output label, total);
    empty means consistent.  The total is a Fraction for rational
    coefficients; for `Cyc` coefficients it is a tuple of Cyc terms with
    distinct exponents, and an identity counts as violated only when that
    sum is nonzero in the cyclotomic field.  Terms are summed as integer
    magnitudes per root-of-unity exponent (see `_splitter`), never as
    Fraction or Cyc values.  Stored entries are joined pairwise, which
    reaches every instance with at least one nonzero term, and only
    pairs whose composed arity is at most max_arity are visited.  The
    join looks pairs up in two indexes over one record per nonzero
    entry: the entries by first input and the entries by output.  The
    totals are keyed by one packed int per (identity, exponent), and a
    key is decoded to labels, and its total made a Fraction, only when
    the total is nonzero, so a consistent algebra costs neither.

    The identities are summed and decided in groups keyed by the first
    label of their input tuple (see `_joined_terms`), so the totals dict
    holds one group at a time: its memory is bounded by the largest
    group, not by the number of identities.
    """
    orders = {
        c.order for table in alg.ops.values() for c in table.values()
        if isinstance(c, Cyc)
    }
    if len(orders) > 1:
        raise ValueError("mixed root-of-unity orders")
    order = orders.pop() if orders else None
    phi = _cyclotomic(order) if order else None
    split, scale = _splitter(alg.ops[k] for k in _indexed_arities(alg, max_arity))
    unit = scale * scale
    keys, groups = _joined_terms(alg, max_arity, split, order or 1)
    violations = []
    for _, totals in groups:
        by_identity = {}
        for key, mag in totals.items():
            if mag:
                m, tup, out, exp = _decode_key(key, *keys)
                by_identity.setdefault((m, tup, out), {})[exp] = Fraction(mag, unit)
        del totals  # the generator then drops the group's last reference
        for (m, tup, out), by_exp in by_identity.items():
            total = _total(by_exp, order, phi)
            if total:
                violations.append((m, tup, out, total))
    violations.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    return violations


def opposite_sign(zdegs):
    """Parity of the reversal sign: 1 + k(k-1)/2 + (k+1) sum i + sum_{j<l} i_j i_l."""
    k = len(zdegs)
    total = sum(zdegs) % 2
    nodd = sum(1 for d in zdegs if d % 2)
    pairs = comb(nodd, 2) % 2
    return (1 + k * (k - 1) // 2 + (k + 1) * total + pairs) % 2


def opposite(alg):
    """The opposite algebra: arguments reversed, with the degree sign."""
    ops = {}
    for k, table in alg.ops.items():
        new = {}
        for (out, ins), coef in table.items():
            star = opposite_sign([alg.zdeg[x] for x in ins])
            new[(out, tuple(reversed(ins)))] = -coef if star else coef
        ops[k] = new
    return FiniteAInftyAlgebra(
        list(alg.basis), dict(alg.zdeg), ops,
        dict(alg.weight) if alg.weight else None,
        dict(alg.qdeg) if alg.qdeg else None,
    )


def supercommutativity_check(alg):
    """x.y = (-1)^{i(x)i(y)} y.x for the sign-dressed product
    x.y := (-1)^{i(x)} mu^2(x, y); mu^1 must vanish."""
    if any(alg.ops.get(1, {}).values()):
        raise RequiresMinimal("supercommutativity needs mu^1 = 0")
    table = alg.ops.get(2, {})
    mu2 = {}
    for (out, ins), coef in table.items():
        if coef:
            mu2.setdefault(ins, {})[out] = coef
    for x in alg.basis:
        ix = alg.zdeg[x] % 2
        for y in alg.basis:
            iy = alg.zdeg[y] % 2
            left = {
                out: -c if ix else c for out, c in mu2.get((x, y), {}).items()
            }
            flip = (ix * iy + iy) % 2
            right = {
                out: -c if flip else c for out, c in mu2.get((y, x), {}).items()
            }
            if left != right:
                return False
    return True


def _wedge_sign(x, y):
    """Sign of mu^2(x, y) = +-(x | y) in the graded wedge, x and y disjoint:
    the sign sorting the concatenation (x ascending, y ascending), times
    (-1)^{|y|} for the textual order."""
    inv = size(y)
    for i in range(x.bit_length()):
        if x >> i & 1:
            inv += size(y & ((1 << i) - 1))
    return -1 if inv % 2 else 1


def wedge_algebra(n):
    """The graded wedge on subsets of [n+2] with the textual-order sign:
    mu^2(y_2, y_1) = (-1)^{|y_1|} y_2 ^ y_1, no higher products."""
    n2 = n + 2
    basis = list(range(1 << n2))
    zdeg = {m: size(m) for m in basis}
    weight = {m: lattice_weight(m, n) for m in basis}
    qdeg = {m: fractional_grading(m, n) for m in basis}
    table = {}
    for x in basis:
        for y in basis:
            if x & y:
                continue
            table[(x | y, (x, y))] = Fraction(_wedge_sign(x, y))
    return FiniteAInftyAlgebra(basis, zdeg, {2: table}, weight, qdeg)


def exterior_normalize(alg, n):
    """Signs sigma_K rescaling the basis onto the graded wedge.

    Requires mu^1 = 0 and mu^2 supported on disjoint unions with
    coefficients +-1.  sigma is fixed to +1 on singletons, propagated by
    splitting off the smallest element, then verified on every disjoint
    pair; a contradiction raises Inconsistent.
    """
    if any(alg.ops.get(1, {}).values()):
        raise RequiresMinimal("normalization needs mu^1 = 0")
    a = {}
    for (out, ins), coef in alg.ops.get(2, {}).items():
        if not coef:
            continue
        x, y = ins
        if x & y or out != x | y:
            raise ValueError(f"mu^2 entry {ins} -> {out} is not a disjoint union")
        if coef not in (1, -1):
            raise ValueError(f"mu^2 coefficient {coef} is not a sign")
        a[(x, y)] = int(coef)

    sigma = {}
    if (0, 0) not in a:
        raise Inconsistent("no unit square entry to anchor sigma")
    sigma[0] = a[(0, 0)]
    n2 = n + 2
    for mask in sorted(range(1, 1 << n2), key=size):
        if size(mask) == 1:
            sigma[mask] = 1
            continue
        low = mask & -mask
        rest = mask ^ low
        if (rest, low) not in a:
            raise Inconsistent(f"missing product for split {rest}|{low}")
        sigma[mask] = a[(rest, low)] * sigma[rest] * sigma[low] * _wedge_sign(rest, low)
    for x in range(1 << n2):
        for y in range(1 << n2):
            if x & y:
                continue
            lhs = a.get((x, y))
            if lhs is None:
                raise Inconsistent(f"missing product entry for {x}, {y}")
            if lhs * sigma[x | y] != sigma[x] * sigma[y] * _wedge_sign(x, y):
                raise Inconsistent(f"sign clash on the pair {x}, {y}")
    return sigma


@dataclass(frozen=True)
class FiniteAbelianGroupData:
    """A finite abelian group of invariant factors with a map from the
    weight lattice: rho[j] is the image of e_{j+1}, as a tuple modulo
    the factors.  The images must sum to zero so rho kills the all-ones
    vector and descends to the quotient lattice.
    """

    factors: tuple
    rho: tuple

    def __post_init__(self):
        if not self.factors or any(f < 1 for f in self.factors):
            raise ValueError("invariant factors must be positive")
        for row in self.rho:
            if len(row) != len(self.factors):
                raise ValueError("rho row length does not match factors")
        sums = [sum(row[i] for row in self.rho) % f
                for i, f in enumerate(self.factors)]
        if any(sums):
            raise ValueError("rho does not kill the all-ones vector")

    @property
    def order(self):
        out = 1
        for f in self.factors:
            out *= f
        return out

    @property
    def modulus(self):
        return lcm(*self.factors)

    def characters(self):
        return list(product(*(range(f) for f in self.factors)))

    def apply(self, wrep):
        """rho of a weight representative, as a group element tuple."""
        return tuple(
            sum(x * self.rho[j][i] for j, x in enumerate(wrep)) % f
            for i, f in enumerate(self.factors)
        )

    def pair(self, chi, g):
        """Exponent of chi(g) as a power of a primitive modulus-th root."""
        m = self.modulus
        return sum(
            chi[i] * g[i] * (m // f) for i, f in enumerate(self.factors)
        ) % m


def smash(alg, grp):
    """The smash product with the character group of grp.

    Basis labels are (a, chi); the twisted products act on the argument
    to the right of each character, so the coefficient of an entry picks
    up chi_l(rho(w(a_j))) for every pair with chi_l textually left of
    a_j.  Coefficients are stored as exact root-of-unity terms.
    """
    if alg.weight is None:
        raise ValueError("smash needs an algebra with weights")
    for w in alg.weight.values():
        if len(w) != len(grp.rho):
            raise ValueError(
                f"rho has {len(grp.rho)} rows, weights have {len(w)} entries"
            )
    chars = grp.characters()
    m = grp.modulus
    nc = len(chars)
    slot = {chi: i for i, chi in enumerate(chars)}
    # add[i][j]: index of chars[i] + chars[j]
    add = [
        [slot[tuple((x + y) % f for x, y, f in zip(ci, cj, grp.factors))]
         for cj in chars]
        for ci in chars
    ]
    # twist[a][i]: exponent of chars[i](rho(w(a))), one row per distinct rho(w(a))
    rows = {}
    twist = {}
    for a in alg.basis:
        g = grp.apply(alg.weight[a])
        if g not in rows:
            rows[g] = [grp.pair(chi, g) for chi in chars]
        twist[a] = rows[g]
    basis = [(a, chi) for a in alg.basis for chi in chars]
    labels = {a: basis[j * nc:(j + 1) * nc] for j, a in enumerate(alg.basis)}
    zdeg = {(a, chi): alg.zdeg[a] for a, chi in basis}
    weight = {(a, chi): alg.weight[a] for a, chi in basis}
    qdeg = {(a, chi): alg.qdeg[a] for a, chi in basis} if alg.qdeg else None
    ops = {}
    for k, table in alg.ops.items():
        new = {}
        for (out, ins), coef in table.items():
            if not coef:
                continue
            # prefixes (labels, running character index, exponent), extended
            # slot by slot in lexicographic character order; the character
            # sum left of a slot twists it, and the zero character never does
            states = [((), 0, 0)]
            for a in ins:
                lab, tw = labels[a], twist[a]
                states = [
                    (prefix + (lab[c],), add[run][c], exp + tw[run])
                    for prefix, run, exp in states
                    for c in range(nc)
                ]
            cycs = [Cyc(coef, e, m) for e in range(m)]
            outs = labels[out]
            for prefix, run, exp in states:
                new[(outs[run], prefix)] = cycs[exp % m]
        ops[k] = new
    return FiniteAInftyAlgebra(basis, zdeg, ops, weight, qdeg)


def hkr_dim(n, r, t):
    """Dimension of the invariant Hochschild piece in total degree r and
    internal degree t.

    Counts pairs (a, K) with a = e_K + q*ones >= 0, |a| = s = r - t and
    (2s + n|K|)/(n+2) = r.  For each exterior degree j = |K| the
    multiplier q is pinned by |a| = j + q(n+2); q >= 0 contributes
    C(n+2, j) subsets and q = -1 only the full set.
    """
    s = r - t
    if s < 0:
        return 0
    num = r * (n + 2) - 2 * s
    j, rem = divmod(num, n)
    if rem or not 0 <= j <= n + 2:
        return 0
    q, rem = divmod(s - j, n + 2)
    if rem:
        return 0
    if q >= 0:
        return comb(n + 2, j)
    if q == -1 and j == n + 2:
        return 1
    return 0


def from_minimal_model(model):
    """Wrap transferred tables as a FiniteAInftyAlgebra on subset masks."""
    n = model.n
    n2 = n + 2
    basis = list(range(1 << n2))
    zdeg = {m: integer_grading(m, n) for m in basis}
    weight = {m: lattice_weight(m, n) for m in basis}
    qdeg = {m: fractional_grading(m, n) for m in basis}
    ops = {k: dict(table) for k, table in model.tables.items()}
    return FiniteAInftyAlgebra(basis, zdeg, ops, weight, qdeg)
