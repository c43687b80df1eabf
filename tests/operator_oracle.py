"""Fraction oracle for the integer operator path of `koszulmf`.

The program computes with {monomial: int} dicts only (`multiply_into`,
`delta_terms`, `differential_columns`, integer `dbar_product`).  This
module keeps the operator algebra the tests check them against, written
from the formulas and not from the program's tables:

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

from koszulmf.lattice import elements, size
from koszulmf.weyl import mono_parity

F = Fraction


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
        parities = {mono_parity(m) for m in self.terms}
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
