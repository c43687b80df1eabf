"""The graded operator algebra around the Koszul factorization of W.

W = z_1 ... z_(n+2) acts on R tensor Lambda(theta_1, ..., theta_(n+2))
through the odd operators theta_j (wedge) and dtheta_j (contraction),
with z coefficients.  A monomial z^a theta_S dtheta_T is normal ordered
(within each block generators appear in ascending index order) and
stored as one int: with N = n+2,

    a_1 | a_2 | ... | a_N | S | T

from the most significant end, one EXP_BITS-wide field per exponent
above the subset masks S and T, N bits each, in the low 2N bits (the
"low part"; the rest is the "high part").  `monomial` builds one from
(a, S, T) and `decode` takes it apart; the program itself never does.

The z_j are central, so `multiply_into`, the one product loop, adds the
two high parts as integers and looks the two low parts up once in the
Clifford table of `clifford_product` (signs +-1, memoised per N by
`clifford_table`).

Exponents never wrap.  `monomial` and `bigraded_basis` raise ValueError
for an exponent above FIELD_MAX.  A sum of two high parts whose field
overflows carries into the field above: a_i loses 2^EXP_BITS and a_(i-1)
gains 1 (or the int grows past a_1).  That changes the weight class of
the result, so it cannot alias any monomial of the piece the true
product belongs to, and looking it up in that piece's index raises
KeyError.  In the engine the lookup is not reached: the true product has
the overflowing exponent, so building the basis of its piece raises
ValueError first.

The curved differential is conjugation by

    delta = sum_j  z_j dtheta_j + a_j (W / z_j) theta_j,

whose square is W times the identity whenever the weights a_j sum to 1.
delta exists only as its table of terms (`delta_terms`, one per
configuration), scaled to integers by the lcm D of the denominators of
the a_j.  D * d depends on a monomial only through its low part up to a
shift of exponents, so `commutator_table(cfg)` keeps, per low part, the
merged nonzero terms of D * [delta, theta_S dtheta_T] as (offset,
coefficient) pairs, offsets taken from the monomial itself.  A column of
`differential_columns` is then {index[m + offset]: coefficient};
`scaled_differential` applies it to one {monomial: int} element.

Gradings: |z_j| = 2/(n+2), |theta_j| = -n/(n+2), |dtheta_j| = n/(n+2);
the M-weight of z^a theta_S dtheta_T is the class of a + e_S - e_T and
its parity is |S| + |T| mod 2.  A bigraded piece is keyed by (wrep,
qnum): a weight representative and the degree times n+2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .lattice import elements, size

EXP_BITS = 8
FIELD_MAX = (1 << EXP_BITS) - 1  # the largest exponent a field holds


class BadConfig(ValueError):
    """Raised for an inconsistent factorization configuration."""


@dataclass(frozen=True)
class MFConfig:
    """Dimension n plus the weights a_j of the Koszul factorization.

    The a_j may be arbitrary rationals with sum 1; the symmetric choice
    a_j = 1/(n+2) is the default.
    """

    n: int
    a: tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise BadConfig("n must be at least 1")
        if self.a is None:
            object.__setattr__(
                self, "a", (Fraction(1, self.n + 2),) * (self.n + 2)
            )
        else:
            a = tuple(Fraction(x) for x in self.a)
            if len(a) != self.n + 2:
                raise BadConfig(f"need {self.n + 2} weights, got {len(a)}")
            if sum(a) != 1:
                raise BadConfig("factorization weights must sum to 1")
            object.__setattr__(self, "a", a)
        object.__setattr__(self, "_hash", hash((self.n, self.a)))

    def __hash__(self):  # once: configs key caches; Fraction hashing is slow
        return self._hash

    @property
    def nvars(self):
        return self.n + 2


def _field_shift(i, nvars):
    """Bit position of the exponent field of z_(i+1)."""
    return 2 * nvars + EXP_BITS * (nvars - 1 - i)


def monomial(a, s, t):
    """z^a theta_S dtheta_T as a packed int; N = len(a)."""
    nvars = len(a)
    if s >> nvars or t >> nvars:
        raise ValueError(f"subset masks must lie below bit {nvars}")
    high = 0
    for x in a:
        if not 0 <= x <= FIELD_MAX:
            raise ValueError(f"exponent {x} outside [0, {FIELD_MAX}]")
        high = high << EXP_BITS | x
    return (high << nvars | s) << nvars | t


def decode(mono, nvars):
    """The (a, S, T) of a packed monomial in nvars variables."""
    field = (1 << nvars) - 1
    t = mono & field
    s = mono >> nvars & field
    high = mono >> 2 * nvars
    a = [(high >> EXP_BITS * (nvars - 1 - i)) & FIELD_MAX for i in range(nvars)]
    if high >> EXP_BITS * nvars:
        raise ValueError("exponent carried past a_1")
    return tuple(a), s, t


def _pairs_above(a, b):
    """#{(i, j) : i in A, j in B, i > j}: theta_A theta_B is (-1)^this
    times theta_(A u B) for disjoint A and B (the same for dthetas)."""
    count = 0
    while a:
        top = a.bit_length() - 1
        count += (b & ((1 << top) - 1)).bit_count()
        a ^= 1 << top
    return count


def clifford_product(low1, low2, nvars):
    """theta_S1 dtheta_T1 * theta_S2 dtheta_T2, normal ordered, on low parts.

    Returns a tuple of (low, sign) with distinct low parts and sign +-1.
    Moving dtheta_T1 past theta_S2 contracts a set U of T1 & S2:

        x1 x2 = sum_U  sign(U) theta_(S1 + S2-U) dtheta_(T1-U + T2),

    over the U with S1 & S2 <= U (the thetas of S1 and S2 - U must be
    distinct) and T1 & T2 <= U (likewise for the dthetas).  Applying
    dtheta_j for j in T1 descending, a contraction costs the thetas of S2
    below j and a pass costs those still in S2 plus the dthetas of T2
    below j; the thetas of S1 then pass those of S2 - U below them.
    The terms come in descending order of U, which is the order of
    that generator-by-generator expansion with the contraction first.
    """
    field = (1 << nvars) - 1
    s1, t1 = low1 >> nvars, low1 & field
    s2, t2 = low2 >> nvars, low2 & field
    forced = t1 & s2 & t2 | s1 & s2
    if t1 & t2 & ~s2 or forced & ~t1:
        return ()
    free = t1 & s2 & ~forced
    ns2 = s2.bit_count()
    out = []
    sub = free
    while True:  # every U = forced + a subset of free, descending
        u = forced | sub
        passed = t1 & ~u
        rest = s2 & ~u
        e = (_pairs_above(u, s2) + passed.bit_count() * ns2
             + _pairs_above(u, passed) + _pairs_above(passed, t2)
             + _pairs_above(s1, rest))
        out.append(((s1 | rest) << nvars | passed | t2, -1 if e & 1 else 1))
        if not sub:
            break
        sub = (sub - 1) & free
    return tuple(out)


@lru_cache(maxsize=16)
def clifford_table(nvars):
    """The product memo for nvars variables, at most 16 of them.

    Maps low1 << 2N | low2 to ((low - low2, sign), ...) from
    `clifford_product`, filled on first use by `_clifford_entry`; at
    most 16^N entries, and len() is its size.
    """
    return {}


@lru_cache(maxsize=16)
def _clifford_pool(nvars):
    """The distinct (offset, sign) pairs and entries of `clifford_table(nvars)`.

    The table's entries are made from these, so equal ones are stored
    once: at n=2 the table holds 10,004 entries (1,063 distinct) with
    6,884 pairs (622 distinct), and most offsets are ints outside
    CPython's small-int cache.
    """
    return {}


def _clifford_entry(l1, l2, nvars):
    """The `clifford_table` entry of two low parts, computed on a miss."""
    memo = clifford_table(nvars)
    key = l1 << 2 * nvars | l2
    terms = memo.get(key)
    if terms is None:
        terms = clifford_product(l1, l2, nvars)
        if terms:  # () is a single object already
            pool = _clifford_pool(nvars)
            terms = tuple([pool.setdefault(p, p) for p in
                           [(low - l2, sign) for low, sign in terms]])
            terms = pool.setdefault(terms, terms)
        memo[key] = terms
    return terms


def multiply_into(acc, factor, left, right, cfg):
    """acc += factor * left * right on {monomial: coef} dicts; keeps zeros.

    cfg only gives the number of variables, which fixes the layout.
    """
    nvars = cfg.nvars
    width = 2 * nvars
    lowmask = (1 << width) - 1
    memo = clifford_table(nvars)
    get = acc.get
    rows = [(m2, m2 & lowmask, c2) for m2, c2 in right.items()]
    for m1, c1 in left.items():
        c1 *= factor
        l1 = m1 & lowmask
        h1 = m1 - l1
        k1 = l1 << width
        for m2, l2, c2 in rows:
            terms = memo.get(k1 | l2)
            if terms is None:
                terms = _clifford_entry(l1, l2, nvars)
            base = h1 + m2
            c = c1 * c2
            for off, sign in terms:
                key = base + off
                acc[key] = get(key, 0) + (c if sign > 0 else -c)


@lru_cache(maxsize=16)
def delta_terms(cfg):
    """delta's terms on integers: (D, ((monomial, D * coefficient), ...)).

    D is the lcm of the denominators of the a_j (n+2 for the symmetric
    weights).  Term j contributes z_j dtheta_j (coefficient 1) and, when
    a_j is not zero, a_j (W/z_j) theta_j.  `commutator_table` reads this.
    """
    n2 = cfg.nvars
    scale = lcm(*(x.denominator for x in cfg.a))
    terms = []
    for j in range(n2):
        e_j = tuple(int(i == j) for i in range(n2))
        terms.append((monomial(e_j, 0, 1 << j), scale))
        if cfg.a[j]:
            w_over_zj = tuple(1 - x for x in e_j)
            terms.append((monomial(w_over_zj, 1 << j, 0), int(cfg.a[j] * scale)))
    return scale, tuple(terms)


@lru_cache(maxsize=16)
def commutator_table(cfg):
    """D * d by low part for one configuration, at most 16 of them.

    Maps a low part to ((offset, coefficient), ...): the terms of
    D * [delta, theta_S dtheta_T], merged, without zeros, in order of
    first appearance; the image of z^a theta_S dtheta_T at offset o is
    the monomial m + o.  Filled by `differential_columns` on first use;
    at most 4^N entries, and len() is its size.
    """
    return {}


def _commutator(low, cfg):
    """The `commutator_table` entry of one low part."""
    nvars = cfg.nvars
    lowmask = (1 << 2 * nvars) - 1
    odd = size(low) & 1
    out = {}
    for term, c in delta_terms(cfg)[1]:
        tlow = term & lowmask
        c_right = c if odd else -c  # -(-1)^|x| x * term
        # a table entry's offsets are taken from its right factor's low part
        for shift, entry, coef in (
            (term - tlow, _clifford_entry(tlow, low, nvars), c),  # term * x
            (term - low, _clifford_entry(low, tlow, nvars), c_right),  # x * term
        ):
            for off, sign in entry:
                key = shift + off
                out[key] = out.get(key, 0) + (coef if sign > 0 else -coef)
    return tuple((off, c) for off, c in out.items() if c)


def differential_columns(basis, index, cfg):
    """Columns of D * d on the listed monomials, as {index[image]: int}.

    index maps the monomials of the target piece to row indices; D is
    `delta_terms(cfg)[0]`.  Each column is read off `commutator_table`.
    """
    table = commutator_table(cfg)
    lowmask = (1 << 2 * cfg.nvars) - 1
    cols = []
    for m in basis:
        low = m & lowmask
        terms = table.get(low)
        if terms is None:
            terms = table[low] = _commutator(low, cfg)
        cols.append({index[m + off]: c for off, c in terms})
    return cols


def scaled_differential(x, cfg):
    """D * d(x) for x = {monomial: int}, as {monomial: int} without zeros.

    Runs `differential_columns` on the monomials of x with an index that
    gives each image monomial the next row on first lookup.
    """
    rows = defaultdict(lambda: len(rows))
    cols = differential_columns(list(x), rows, cfg)
    monos = list(rows)
    out = {}
    for c, col in zip(x.values(), cols):
        for r, v in col.items():
            out[monos[r]] = out.get(monos[r], 0) + c * v
    return {m: v for m, v in out.items() if v}


@lru_cache(maxsize=16)
def _pair_layout(nvars):
    """The (S, T) pairs for `bigraded_basis`, at most 16 layouts.

    Returns (groups, adjust).  groups lists, per d = |S| - |T|, the pairs
    in basis order as (S - T, T - S, offset), where a piece's monomial
    is offset plus the packed exponent vector common to the group.
    adjust[low] moves a monomial's low part to the pair's rank in basis
    order, so sorting on m + adjust[low] sorts by (a, S, T).
    """
    pairs = sorted(
        ((s, t) for s in range(1 << nvars) for t in range(1 << nvars)),
        key=lambda st: (elements(st[0]), elements(st[1])),
    )
    unit = [1 << _field_shift(i, nvars) for i in range(nvars)]
    adjust = [0] * (1 << 2 * nvars)
    groups = defaultdict(list)
    for rank, (s, t) in enumerate(pairs):
        low = s << nvars | t
        adjust[low] = rank - low
        off = low + sum(unit[i] * ((t >> i & 1) - (s >> i & 1))
                        for i in range(nvars))
        groups[size(s) - size(t)].append((s & ~t, t & ~s, off))
    return tuple((d, tuple(g)) for d, g in groups.items()), adjust


def bigraded_basis(wrep, qnum, cfg):
    """Ordered monomial basis of the piece (wrep, qnum).

    The piece key is the engine's: wrep is a weight representative, any
    translate by m(1, ..., 1) naming the same class and the same basis,
    and qnum is the rational cohomological degree times n+2, an int.
    Monomials are listed lexicographically on (a, S, T) with subsets
    compared as ascending element tuples, so the order is a reproducible
    contract.  Raises ValueError when an exponent of the piece exceeds
    FIELD_MAX.

    A monomial with |S| - |T| = d has a = wrep + m(1, ..., 1) - e_S + e_T,
    where m depends on d alone (and absorbs the translate), so the pairs
    are enumerated by d.
    """
    n = cfg.n
    n2 = cfg.nvars
    wsum = sum(wrep)
    groups, adjust = _pair_layout(n2)
    out = []
    for d, pairs in groups:
        two_abs = qnum + n * d
        if two_abs < 0 or two_abs % 2:
            continue
        m, rem = divmod(two_abs // 2 - wsum + d, n2)
        if rem:
            continue
        v = [w + m for w in wrep]
        if min(v) < -1:
            continue
        # a_i = v_i - s_i + t_i >= 0: i in T - S where v_i = -1, and
        # i not in S - T where v_i = 0
        zero = sum(1 << i for i, x in enumerate(v) if x == 0)
        neg = sum(1 << i for i, x in enumerate(v) if x == -1)
        if zero or neg:
            pairs = [p for p in pairs if not p[0] & zero and p[1] & neg == neg]
        if max(v) >= FIELD_MAX and any(
            x - (sns >> i & 1) + (tns >> i & 1) > FIELD_MAX
            for sns, tns, _ in pairs
            for i, x in enumerate(v)
        ):
            raise ValueError(f"an exponent of the piece exceeds {FIELD_MAX}")
        base = sum(x << _field_shift(i, n2) for i, x in enumerate(v))
        out.extend([base + off for _, _, off in pairs])
    lowmask = (1 << 2 * n2) - 1
    out.sort(key=lambda mono: mono + adjust[mono & lowmask])
    return out
