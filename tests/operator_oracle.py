"""Oracles for the packed integer operator path of `koszulmf`.

The program computes with {monomial: int} dicts keyed by packed ints
only (`multiply_into`, `delta_terms`, `differential_columns`, integer
`dbar_product`).  This module keeps what the tests check them against,
on monomials as (a, S, T) tuples (`weyl.decode` turns one into the
other; `packed` and `unpacked` convert whole dicts):

  * the tuple-keyed loops the packed ones replaced: `multiply_into` over
    a mask-keyed Clifford product, `differential_columns` with its fused
    graded-commutator loop over `delta_terms`, and the `bigraded_basis`
    enumeration over all (S, T) pairs followed by a sort;
  * the parity, Q-degree and weight of one packed monomial
    (`mono_parity`, `mono_qdeg_num`, `mono_weight`), read off its
    (a, S, T);

and the operator algebra, written from the formulas and not from the
program's tables:

  * the generator-by-generator product that the mask-keyed Clifford
    table replaced (`reference_multiply`), applying the word of the left
    factor to the right one generator at a time, right to left;
  * `OperatorElement`, finite Q-linear combinations of normal ordered
    monomials (a, S, T) with `Fraction` coefficients, multiplied by it;
  * delta = sum_j z_j dtheta_j + a_j (W/z_j) theta_j, W, the graded
    commutator d(x) = delta x - (-1)^|x| x delta, and the cocycle
    representatives dbar_j = dtheta_j - a_j (W/(z_j z_k)) theta_k with
    their ordered products.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add

from koszulmf.lattice import canonical, elements, size
from koszulmf.weyl import decode, monomial

F = Fraction


def packed(terms):
    """{(a, S, T): coef} -> {packed monomial: coef}."""
    return {monomial(*m): c for m, c in terms.items()}


def unpacked(terms, nvars):
    """{packed monomial: coef} -> {(a, S, T): coef}, in the same order."""
    return {decode(m, nvars): c for m, c in terms.items()}


def mono_parity(mono, n):
    return size(mono & ((1 << 2 * (n + 2)) - 1)) & 1


def mono_qdeg_num(mono, n):
    """Numerator of the Q-degree over n+2: 2|a| - n|S| + n|T|."""
    a, s, t = decode(mono, n + 2)
    return 2 * sum(a) - n * size(s) + n * size(t)


def mono_weight(mono, n):
    """Canonical tuple of the M-weight a + e_S - e_T."""
    a, s, t = decode(mono, n + 2)
    vec = list(a)
    for i in range(n + 2):
        if s >> i & 1:
            vec[i] += 1
        if t >> i & 1:
            vec[i] -= 1
    return canonical(vec)


class InhomogeneousParity(ValueError):
    """Raised when an operation needs a parity homogeneous element."""


def _insert_sign(mask, j):
    return -1 if size(mask & ((1 << j) - 1)) & 1 else 1


def _add_term(out, key, coef):
    cur = out.get(key, 0) + coef
    if cur:
        out[key] = cur
    else:
        out.pop(key, None)


@lru_cache(maxsize=None)
def _reference_masks(s1, t1, s2, t2):
    """theta_S1 dtheta_T1 * theta_S2 dtheta_T2 as ((S, T, sign), ...)."""
    terms = {(s2, t2): 1}
    for j in reversed(elements(t1)):
        bit = 1 << (j - 1)
        nxt = {}
        for (s, t), c in terms.items():
            if s & bit:
                # dtheta_j theta_S = (-1)^pos theta_{S-j} + (-1)^{|S|} theta_S dtheta_j
                _add_term(nxt, (s ^ bit, t), c * _insert_sign(s, j - 1))
            if not t & bit:
                c_pass = -c if size(s) & 1 else c
                _add_term(nxt, (s, t | bit), c_pass * _insert_sign(t, j - 1))
        terms = nxt
    for j in reversed(elements(s1)):
        bit = 1 << (j - 1)
        nxt = {}
        for (s, t), c in terms.items():
            if not s & bit:
                _add_term(nxt, (s | bit, t), c * _insert_sign(s, j - 1))
        terms = nxt
    return tuple((s, t, c) for (s, t), c in terms.items())


def reference_multiply(m1, c1, m2, c2):
    """Terms of (c1 m1) * (c2 m2) as {monomial: Fraction}."""
    (a1, s1, t1), (a2, s2, t2) = m1, m2
    a = tuple(x + y for x, y in zip(a1, a2))
    coef = F(c1) * F(c2)
    return {
        (a, s, t): coef * sign
        for s, t, sign in _reference_masks(s1, t1, s2, t2)
    }


def multiply_into(acc, factor, left, right):
    """acc += factor * left * right on tuple-keyed dicts; keeps zeros."""
    get = acc.get
    for (a1, s1, t1), c1 in left.items():
        c1 *= factor
        for (a2, s2, t2), c2 in right.items():
            a = tuple(map(add, a1, a2))
            c = c1 * c2
            for s, t, sign in _reference_masks(s1, t1, s2, t2):
                key = (a, s, t)
                acc[key] = get(key, 0) + (c if sign > 0 else -c)


@lru_cache(maxsize=16)
def delta_terms(cfg):
    """delta's terms as (D, ((shift, S, T, D * coefficient), ...))."""
    scale = lcm(*(x.denominator for x in cfg.a))
    return scale, tuple(
        (a, s, t, int(c * scale)) for (a, s, t), c in delta(cfg).terms.items()
    )


def differential_columns(basis, index, cfg):
    """Columns of D * d on tuple monomials, as {index[image]: int}."""
    _, terms = delta_terms(cfg)
    cols = []
    for a, s, t in basis:
        odd = (size(s) + size(t)) & 1
        col = {}
        for shift, ds, dt, c in terms:
            b = tuple(map(add, a, shift))
            for s2, t2, sign in _reference_masks(ds, dt, s, t):
                r = index[(b, s2, t2)]
                col[r] = col.get(r, 0) + (c if sign > 0 else -c)
            c_right = c if odd else -c  # -(-1)^|x| x * term
            for s2, t2, sign in _reference_masks(s, t, ds, dt):
                r = index[(b, s2, t2)]
                col[r] = col.get(r, 0) + (c_right if sign > 0 else -c_right)
        cols.append({r: v for r, v in col.items() if v})
    return cols


def bigraded_basis(wrep, qnum, cfg):
    """The tuple monomials of the piece (wrep, qnum), sorted on (a, S, T)
    with subsets compared as ascending element tuples."""
    n = cfg.n
    n2 = cfg.nvars
    wsum = sum(wrep)
    out = []
    for s in range(1 << n2):
        ssz = size(s)
        for t in range(1 << n2):
            tsz = size(t)
            two_abs = qnum + n * ssz - n * tsz
            if two_abs < 0 or two_abs % 2:
                continue
            m, rem = divmod(two_abs // 2 - (wsum - ssz + tsz), n2)
            if rem:
                continue
            a = tuple(
                wrep[i] - (s >> i & 1) + (t >> i & 1) + m for i in range(n2)
            )
            if min(a) >= 0:
                out.append((a, s, t))
    out.sort(key=lambda mono: (mono[0], elements(mono[1]), elements(mono[2])))
    return out


class OperatorElement:
    """A finite Q-linear combination of normal ordered monomials."""

    __slots__ = ("cfg", "terms")

    def __init__(self, cfg, terms=None):
        self.cfg = cfg
        self.terms = {}
        for mono, coef in (terms or {}).items():
            coef = F(coef)
            if coef:
                self.terms[mono] = coef

    @classmethod
    def unit(cls, cfg):
        return cls(cfg, {((0,) * cfg.nvars, 0, 0): 1})

    @classmethod
    def monomial(cls, cfg, a, smask, tmask, coef=1):
        return cls(cfg, {(tuple(a), smask, tmask): coef})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            _add_term(out, mono, coef)
        return OperatorElement(self.cfg, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        return OperatorElement(self.cfg, {m: a * c for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                for mono, coef in reference_multiply(m1, c1, m2, c2).items():
                    _add_term(out, mono, coef)
        return OperatorElement(self.cfg, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.cfg.n == other.cfg.n and self.terms == other.terms

    def parity(self):
        """Common parity of all terms; InhomogeneousParity when mixed."""
        parities = {(size(s) + size(t)) & 1 for _, s, t in self.terms}
        if len(parities) > 1:
            raise InhomogeneousParity("element mixes even and odd terms")
        return parities.pop() if parities else 0


@lru_cache(maxsize=16)
def delta(cfg):
    """The odd Koszul operator with delta^2 = W; callers must not mutate it."""
    n2 = cfg.nvars
    terms = {}
    for j in range(n2):
        terms[(tuple(int(i == j) for i in range(n2)), 0, 1 << j)] = 1
        terms[(tuple(int(i != j) for i in range(n2)), 1 << j, 0)] = cfg.a[j]
    return OperatorElement(cfg, terms)


def w_element(cfg):
    """W = z_1 ... z_(n+2) times the identity operator."""
    return OperatorElement.monomial(cfg, (1,) * cfg.nvars, 0, 0)


def differential(x, cfg):
    """d(x) = delta x - (-1)^|x| x delta for parity homogeneous x."""
    p = x.parity()
    d = delta(cfg)
    left = d * x
    right = x * d
    return left - right if p == 0 else left + right


def dbar(j, choice, cfg):
    """dtheta_j - a_j (W/(z_j z_k)) theta_k with k = choice.aux[j-1]."""
    n2 = cfg.nvars
    k = choice.aux[j - 1]
    lead = OperatorElement.monomial(cfg, (0,) * n2, 0, 1 << (j - 1))
    a = tuple(0 if i + 1 in (j, k) else 1 for i in range(n2))
    tail = OperatorElement.monomial(cfg, a, 1 << (k - 1), 0, cfg.a[j - 1])
    return lead - tail


def dbar_product(kmask, choice, cfg):
    """Ordered product of dbar_j over j in K ascending; 1 for K empty."""
    out = OperatorElement.unit(cfg)
    for j in elements(kmask):
        out = out * dbar(j, choice, cfg)
    return out
