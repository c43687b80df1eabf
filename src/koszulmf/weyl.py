"""The graded operator algebra around the Koszul factorization of W.

W = z_1 ... z_(n+2) acts on R tensor Lambda(theta_1, ..., theta_(n+2))
through the odd operators theta_j (wedge) and dtheta_j (contraction),
with z coefficients.  A monomial is stored normal ordered as

    z^a theta_S dtheta_T   ->   (a, S, T)

with a a tuple of nonnegative ints and S, T subset masks; within each
block generators appear in ascending index order.  The z_j are central,
so `multiply_into`, the one product loop, multiplies two monomials by
one lookup in a mask-keyed Clifford table (`clifford_product`, signs
+-1) plus exponent addition.  The curved differential is conjugation by

    delta = sum_j  z_j dtheta_j + a_j (W / z_j) theta_j,

whose square is W times the identity whenever the weights a_j sum to 1.
delta exists only as its table of terms (`delta_terms`, one per
configuration), scaled to integers by the lcm D of the denominators of
the a_j.  `differential_columns` reads it to build a piece's columns of
D * d on integers; `scaled_differential` applies the same loop to one
{monomial: int} element.

Gradings: |z_j| = 2/(n+2), |theta_j| = -n/(n+2), |dtheta_j| = n/(n+2);
the M-weight of z^a theta_S dtheta_T is the class of a + e_S - e_T and
its parity is |S| + |T| mod 2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add

from .lattice import LatticeClass, elements, size


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


def mono_parity(mono):
    _, s, t = mono
    return (size(s) + size(t)) & 1


def mono_qdeg_num(mono, n):
    """Numerator of the Q-degree over n+2: 2|a| - n|S| + n|T|."""
    a, s, t = mono
    return 2 * sum(a) - n * size(s) + n * size(t)


def mono_weight(mono, n):
    a, s, t = mono
    vec = list(a)
    for i in range(n + 2):
        if s >> i & 1:
            vec[i] += 1
        if t >> i & 1:
            vec[i] -= 1
    return LatticeClass(vec)


def _insert_sign(mask, j):
    """Parity of moving a generator with index bit j past the smaller ones."""
    below = mask & ((1 << j) - 1)
    return -1 if size(below) & 1 else 1


def _accumulate(out, mono, coef):
    if not coef:
        return
    cur = out.get(mono)
    if cur is None:
        out[mono] = coef
    else:
        cur += coef
        if cur:
            out[mono] = cur
        else:
            del out[mono]


@lru_cache(maxsize=None)
def clifford_product(s1, t1, s2, t2):
    """theta_S1 dtheta_T1 * theta_S2 dtheta_T2, normal ordered, on masks.

    Returns a tuple of (S, T, sign) with distinct (S, T) and sign +-1.
    The word of the left factor is applied right to left: its dtheta
    block (descending), then its theta block (descending), using
    dtheta_j theta_S = (-1)^pos theta_{S-j} + (-1)^{|S|} theta_S dtheta_j.
    The key space has at most 2^(4(n+2)) entries, so the memo is bounded.
    """
    terms = {(s2, t2): 1}
    for j in reversed(elements(t1)):
        bit = 1 << (j - 1)
        nxt = {}
        for (s, t), c in terms.items():
            if s & bit:
                _accumulate(nxt, (s ^ bit, t), c * _insert_sign(s, j - 1))
            if not t & bit:
                c_pass = -c if size(s) & 1 else c
                _accumulate(nxt, (s, t | bit), c_pass * _insert_sign(t, j - 1))
        terms = nxt
    for j in reversed(elements(s1)):
        bit = 1 << (j - 1)
        nxt = {}
        for (s, t), c in terms.items():
            if not s & bit:
                _accumulate(nxt, (s | bit, t), c * _insert_sign(s, j - 1))
        terms = nxt
    return tuple((s, t, c) for (s, t), c in terms.items())


def multiply_into(acc, factor, left, right):
    """acc += factor * left * right on {monomial: coef} dicts; keeps zeros."""
    get = acc.get
    for (a1, s1, t1), c1 in left.items():
        c1 *= factor
        for (a2, s2, t2), c2 in right.items():
            a = tuple(map(add, a1, a2))
            c = c1 * c2
            for s, t, sign in clifford_product(s1, t1, s2, t2):
                key = (a, s, t)
                acc[key] = get(key, 0) + (c if sign > 0 else -c)


@lru_cache(maxsize=16)
def delta_terms(cfg):
    """delta's terms on integers: (D, ((shift, S, T, D * coefficient), ...)).

    D is the lcm of the denominators of the a_j (n+2 for the symmetric
    weights).  Term j contributes z_j dtheta_j (shift e_j, coefficient 1)
    and a_j (W/z_j) theta_j (shift 1 - e_j); a monomial times a term is
    one `clifford_product` lookup with the shift added to its exponents.
    `differential_columns` reads this table.
    """
    n2 = cfg.nvars
    scale = lcm(*(x.denominator for x in cfg.a))
    terms = []
    for j in range(n2):
        terms.append((tuple(int(i == j) for i in range(n2)), 0, 1 << j, scale))
        if cfg.a[j]:
            terms.append((
                tuple(int(i != j) for i in range(n2)),
                1 << j,
                0,
                int(cfg.a[j] * scale),
            ))
    return scale, tuple(terms)


def differential_columns(basis, index, cfg):
    """Columns of D * d on the listed monomials, as {index[image]: int}.

    index maps the monomials of the target piece to row indices; D is
    `delta_terms(cfg)[0]`.  Each column is the graded commutator of the
    monomial with delta's terms, summed on integers.
    """
    _, terms = delta_terms(cfg)
    cols = []
    for a, s, t in basis:
        odd = (size(s) + size(t)) & 1
        col = {}
        for shift, ds, dt, c in terms:
            b = tuple(map(add, a, shift))
            for s2, t2, sign in clifford_product(ds, dt, s, t):
                r = index[(b, s2, t2)]
                col[r] = col.get(r, 0) + (c if sign > 0 else -c)
            c_right = c if odd else -c  # -(-1)^|x| x * term
            for s2, t2, sign in clifford_product(s, t, ds, dt):
                r = index[(b, s2, t2)]
                col[r] = col.get(r, 0) + (c_right if sign > 0 else -c_right)
        cols.append({r: v for r, v in col.items() if v})
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


def bigraded_basis(wclass, qdeg, cfg):
    """Ordered monomial basis of the piece with weight wclass, degree qdeg.

    qdeg is the rational cohomological degree; qdeg*(n+2) must be an
    integer.  Monomials are listed lexicographically on (a, S, T) with
    subsets compared as ascending element tuples, so the order is a
    reproducible contract.
    """
    n = cfg.n
    n2 = cfg.nvars
    qnum = Fraction(qdeg) * (n + 2)
    if qnum.denominator != 1:
        raise ValueError(f"degree {qdeg} is not a multiple of 1/{n + 2}")
    qnum = int(qnum)
    wrep = wclass.rep
    wsum = sum(wrep)
    out = []
    for s in range(1 << n2):
        ssz = size(s)
        for t in range(1 << n2):
            tsz = size(t)
            two_abs = qnum + n * ssz - n * tsz
            if two_abs < 0 or two_abs % 2:
                continue
            abs_a = two_abs // 2
            base_sum = wsum - ssz + tsz
            m, rem = divmod(abs_a - base_sum, n2)
            if rem:
                continue
            a = []
            ok = True
            for i in range(n2):
                v = wrep[i] - (s >> i & 1) + (t >> i & 1) + m
                if v < 0:
                    ok = False
                    break
                a.append(v)
            if ok:
                out.append((tuple(a), s, t))
    out.sort(key=lambda mono: (mono[0], elements(mono[1]), elements(mono[2])))
    return out
