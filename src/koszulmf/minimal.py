"""Minimal A-infinity model of the Koszul factorization endomorphism dga.

The operator dga (B, d) from `weyl` decomposes into finite bigraded
pieces, each keyed by (wrep, qnum): its weight's canonical tuple and its
rational degree times n+2, the key `weyl.bigraded_basis` takes.  Its
cohomology is an exterior algebra on n+2 odd generators, one per
variable; this module

  * builds explicit cocycle representatives dbar_j and their ordered
    products dbar_K,
  * contracts every piece it touches onto its cohomology, lazily, with
    one `linalg.Contraction` per piece, built from the piece's D * d
    columns in and out (the harmonic line is spanned by the dbar product
    of its exterior label; the contraction checks that it spans); a map
    into a piece already contracted is not eliminated again,
  * runs the homological-perturbation tree sum to transfer the product
    to A-infinity operations mu^k on the exterior basis {e_K}.  The
    tree sum runs on integer vectors over one denominator: each block
    is +-h(lambda), from the contraction's `split`, and mu^k is
    p(lambda), read off the piece's harmonic `functional`, the one
    source of p.  Only the coefficients of mu^k are `Fraction`s.

Conventions, frozen after calibrating against the arity <= 4 Stasheff
identities at n = 1:

  * mu^k(y_k, ..., y_1); input tuples are stored in textual order, so
    inputs[0] is y_k, the leftmost argument;
  * the tree sum is phrased with even "shifted" operators, so the
    recursion itself carries no Koszul signs.  All signs live in two
    constants: the two-slot product B2(v, u) = (-1)^{parity(u)} v*u and
    the homotopy step H = (-1)^{parity} h.

Subsets K of {1, ..., n+2} are passed as bitmasks (bit j-1 for index j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm

from .lattice import elements, homogeneity_defect, size
from .linalg import Contraction, homology_ranks
from .weyl import (
    MFConfig,
    bigraded_basis,
    delta_terms,
    differential_columns,
    monomial,
    multiply_into,
)

ZERO = Fraction(0)
_EMPTY = ({}, 1)  # the one zero block; never mutated


class BadChoice(ValueError):
    """Raised when an auxiliary index k(j) coincides with j, or when a
    choice does not have one index per variable."""


class ArityBound(ValueError):
    """Raised when a product arity falls outside the configured range."""


class PrematureProduct(ValueError):
    """Raised when an obstruction class is requested from a model with a
    nonzero product of arity strictly between 2 and n+2."""


@dataclass(frozen=True)
class CohomologyBasisChoice:
    """Auxiliary data fixing the cocycle representatives.

    aux[j-1] is the partner index k(j) != j appearing in dbar_j.  The
    representative for a subset K is always the product of the dbar_j
    with j ascending in K; that ordering is part of the contract and not
    configurable.
    """

    aux: tuple

    def __post_init__(self):
        for j, k in enumerate(self.aux, start=1):
            if not 1 <= k <= len(self.aux):
                raise BadChoice(
                    f"auxiliary index {k} out of range 1..{len(self.aux)} for a"
                    f" choice of {len(self.aux)} indices (one per variable)")
            if k == j:
                raise BadChoice(f"auxiliary index for {j} must differ from {j}")

    @classmethod
    @lru_cache(maxsize=16)
    def default(cls, n):
        """Smallest admissible partner: k(1) = 2 and k(j) = 1 otherwise;
        built once per n, not on every `minimal_mu(..., choice=None)`."""
        return cls(tuple(2 if j == 1 else 1 for j in range(1, n + 3)))


def dbar(j, choice, cfg):
    """Cocycle representative dtheta_j - a_j (W/(z_j z_k)) theta_k.

    Returned as content-reduced ({monomial: int}, den), den > 0: the
    factor scaled by D = `delta_terms(cfg)[0]`, without zero terms.
    """
    n2 = cfg.nvars
    if not 1 <= j <= n2:
        raise ValueError(f"index {j} out of range")
    k = choice.aux[j - 1]
    scale = delta_terms(cfg)[0]
    a = tuple(0 if i + 1 in (j, k) else 1 for i in range(n2))
    return _reduced({
        monomial((0,) * n2, 0, 1 << (j - 1)): scale,
        monomial(a, 1 << (k - 1), 0): -int(cfg.a[j - 1] * scale),
    }, scale)


def dbar_product(kmask, choice, cfg):
    """Ordered product of dbar_j over j in K ascending; 1 for K empty.

    Returned like `dbar`, as content-reduced ({monomial: int}, den).
    """
    terms, den = {monomial((0,) * cfg.nvars, 0, 0): 1}, 1
    for j in elements(kmask):
        factor, fden = dbar(j, choice, cfg)
        acc = {}
        multiply_into(acc, 1, terms, factor, cfg)
        terms, den = _reduced(acc, den * fden)
    return terms, den


def _reduced(terms, den):
    """{monomial: int} / den without zero terms, divided by its content."""
    terms = {m: c for m, c in terms.items() if c}
    g = gcd(den, *terms.values())
    return {m: c // g for m, c in terms.items()}, den // g


class _Engine:
    """Shared caches for one (cfg, choice): piece records and blocks."""

    def __init__(self, cfg, choice):
        self.cfg = cfg
        self.choice = choice
        self.n = cfg.n
        self.step = cfg.n + 2
        self.scale = delta_terms(cfg)[0]
        self._pieces = {}
        self._blocks = {}

    # -- bigraded piece plumbing --------------------------------------

    def exterior_label(self, key):
        """The unique K0 with (weight, degree) matching the piece, if any.

        wrep is the canonical representative (minimal entry 0), as
        `lambda_key` makes it.  The weight of K0 is the class of -e_K0,
        whose canonical representative is 0 on K0 and 1 off it; the empty
        and the full set both have the zero one, and the degree n |K0|
        tells them apart.
        """
        wrep, qnum = key
        if not qnum:
            return None if any(wrep) else 0
        if max(wrep) > 1:
            return None
        mask = sum(1 << i for i, x in enumerate(wrep) if not x)
        return mask if size(mask) * self.n == qnum else None

    def piece(self, key):
        """The piece's record (con, harm_mask, index, below).

        con is its contraction, harm_mask the K0 of its harmonic line (or
        None), index its row index {monomial: row} and below the basis of
        the piece one degree down, the rows of `split`'s h.  The bases
        and D * d columns the contraction is built from are not kept.

        The only choice is where this piece's basis, the rows of its
        D * d and the solver of that map come from.  When the piece one
        degree up has a record, they are its `below`, its index and its
        contraction's solver, which has eliminated the map already.
        Otherwise both bases are enumerated, and the contraction checks
        its rank by eliminating the map's columns off its own pivot rows
        and drops that solver.  The rest is shared.
        """
        hit = self._pieces.get(key)
        if hit is None:
            cfg = self.cfg
            wrep, qnum = key
            up = self._pieces.get((wrep, qnum + self.step))
            if up is None:
                basis, out = bigraded_basis(wrep, qnum, cfg), None
                above = bigraded_basis(wrep, qnum + self.step, cfg)
                rows = {m: i for i, m in enumerate(above)}
            else:
                up_con, _, rows, basis = up
                out = up_con.solver
            below = bigraded_basis(wrep, qnum - self.step, cfg)
            index = {m: i for i, m in enumerate(basis)}
            d_in = differential_columns(below, index, cfg)
            d_out = differential_columns(basis, rows, cfg)
            harm_mask = self.exterior_label(key)
            harmonic = []
            if harm_mask is not None:
                terms, den = self.block((harm_mask,))
                harmonic.append(({index[m]: c for m, c in terms.items()}, den))
            try:
                con = Contraction(d_in, d_out, harmonic, self.scale, out)
            except ValueError as exc:
                raise RuntimeError(f"piece {key}: {exc}") from exc
            hit = (con, harm_mask, index, below)
            self._pieces[key] = hit
        return hit

    def split(self, terms, den, key):
        """h(x) of x = {monomial: int} / den in the piece, as (h, pre_den).

        h is x's homotopy image one degree down in the distinguished
        complement, {monomial: int} over pre_den, content-reduced.  The
        component of x outside ker(d) is discarded, which is exactly what
        h does to it.
        """
        con, _, index, below = self.piece(key)
        pre, pre_den = con.split({index[m]: c for m, c in terms.items()}, den)
        return {below[src]: c for src, c in pre.items()}, pre_den

    # -- transfer tree sum --------------------------------------------

    def lambda_key(self, masks):
        """Piece of the raw tree sum lambda over this argument block.

        Its weight is the class of minus the masks' multiplicity vector c,
        represented by max(c) - c.
        """
        counts = [0] * self.step
        for mask in masks:
            while mask:
                low = mask & -mask
                counts[low.bit_length() - 1] += 1
                mask ^= low
        top = max(counts)
        return (
            tuple([top - c for c in counts]),
            self.n * sum(counts) - (len(masks) - 2) * self.step,
        )

    def block(self, masks):
        """Lambda_k of a contiguous argument block as (terms, den).

        terms is {monomial: int} and den > 0, with gcd(den, *terms) == 1;
        the block is i(e_K) for k = 1 and H(lambda_k) above.  Its parity
        is sum |K_i| + k - 1 (mod 2), read off the masks.
        """
        hit = self._blocks.get(masks)
        if hit is None:
            if len(masks) == 1:
                hit = dbar_product(masks[0], self.choice, self.cfg)
            else:
                lam, den = self.tree_sum(masks)
                hit = _EMPTY
                if lam:
                    key = self.lambda_key(masks)
                    pre, pre_den = self.split(lam, den, key)
                    if pre:
                        # H = (-1)^{parity(lambda)} h, and lambda has the
                        # opposite parity to the block
                        if not _parity(masks):
                            pre = {m: -c for m, c in pre.items()}
                        hit = (pre, pre_den)
            self._blocks[masks] = hit
        return hit

    def tree_sum(self, masks):
        """lambda_k = sum over splits of B2(Lambda(left), Lambda(right)).

        Returns (terms, den) with {monomial: int} terms and den the lcm of
        the products of the two blocks' denominators over the splits.
        """
        blocks = self._blocks
        cuts = []
        den = 1
        for cut in range(1, len(masks)):
            head = masks[:cut]
            left, lden = blocks.get(head) or self.block(head)
            if not left:
                continue
            tail = masks[cut:]
            right, rden = blocks.get(tail) or self.block(tail)
            if not right:
                continue
            cuts.append((left, right, lden * rden, _parity(tail)))
            den = lcm(den, lden * rden)
        acc = {}
        for left, right, pair_den, odd in cuts:
            f = den // pair_den
            if odd:  # B2(v, u) = (-1)^{parity(u)} v*u
                f = -f
            multiply_into(acc, f, left, right, self.cfg)
        return {m: c for m, c in acc.items() if c}, den

    def mu(self, masks):
        """The harmonic coefficient of lambda_k, as {K0: coef} or {}.

        On a piece with cohomology it is p(lambda), read off the
        contraction's `functional`.  A piece without cohomology has no p:
        the split still runs there, for its checks, and mu is {}.
        """
        lam, den = self.tree_sum(masks)
        if not lam:
            return {}
        key = self.lambda_key(masks)
        con, harm_mask, index, _ = self.piece(key)
        if harm_mask is None:
            self.split(lam, den, key)
            return {}
        row, rden = con.functional()
        num = 0
        for m, c in lam.items():
            f = row.get(index[m])
            if f:
                num += f * c
        return {harm_mask: Fraction(num, rden * den)} if num else {}


def _parity(masks):
    """Parity of a block over masks: sum |K_i| + k - 1 (mod 2)."""
    return (sum(map(int.bit_count, masks)) + len(masks) - 1) & 1


def _engine(cfg, choice):
    """The shared engine for (cfg, choice); None means the default choice."""
    if choice is None:
        choice = CohomologyBasisChoice.default(cfg.n)
    if len(choice.aux) != cfg.nvars:
        raise BadChoice(
            f"need {cfg.nvars} auxiliary indices, got {len(choice.aux)}"
        )
    return _cached_engine(cfg, choice)


@lru_cache(maxsize=16)
def _cached_engine(cfg, choice):
    """Engines by (cfg, choice), at most 16; cache_info() reports how many.

    An engine keeps its pieces and blocks between `minimal_mu` calls, and
    `build_minimal_model` empties them when it returns or raises; the
    engine itself stays, with its configuration and choice.
    """
    return _Engine(cfg, choice)


def cohomology_dim(wrep, qnum, cfg):
    """Rank of the cohomology of (B, d) in the piece (wrep, qnum), keyed
    as in `bigraded_basis`, from the pieces one degree below, at and
    above it and D * d between them."""
    bases = [bigraded_basis(wrep, qnum + i * cfg.nvars, cfg) for i in (-1, 0, 1)]
    maps = [differential_columns(src, {m: i for i, m in enumerate(dst)}, cfg)
            for src, dst in zip(bases, bases[1:])]
    return homology_ranks([len(b) for b in bases], maps)[1]


def minimal_mu(k, inputs, cfg, choice=None, arity_bound=None):
    """Transferred product mu^k on the exterior basis, as {K0: coefficient}.

    inputs are subset bitmasks in textual order (inputs[0] = y_k).  The
    result is supported on at most one K0: the weight and degree
    identities pin it down, and both are re-checked on every entry.
    """
    n = cfg.n
    bound = arity_bound if arity_bound is not None else 2 * n + 4
    if not 2 <= k <= bound:
        raise ArityBound(f"arity {k} outside [2, {bound}]")
    if len(inputs) != k:
        raise ValueError(f"expected {k} inputs, got {len(inputs)}")
    limit = 1 << cfg.nvars
    for mask in inputs:
        if not 0 <= mask < limit:
            raise ValueError(f"subset mask {mask} out of range")
    eng = _engine(cfg, choice)
    out = eng.mu(tuple(inputs))
    for k0 in out:
        q = homogeneity_defect(k0, inputs, n)
        if q is None or k != 2 + n * q:
            raise RuntimeError(
                f"entry {k0} violates the weight/degree identity at arity {k}"
            )
    return out


@dataclass
class MinimalModel:
    """Tabulated A-infinity products on the exterior basis.

    tables[k] maps (K0, inputs) -> coefficient, with inputs in textual
    order; absent keys are zero.  Only the listed arities were computed;
    other arities are zero on every tuple satisfying the weight identity
    for their forced defect q = (k-2)/n, which is how the tables are
    enumerated.
    """

    cfg: MFConfig
    choice: CohomologyBasisChoice
    tables: dict

    @property
    def n(self):
        return self.cfg.n


def admissible_tuples(n, k, q):
    """All K-tuples of length k whose multiplicity vector is e_K0 + q*1.

    These are exactly the tuples on which mu^k can be nonzero when
    k = 2 + n q; every other tuple is annihilated by the weight grading.
    Generated coordinate by coordinate (each index j lies in q or q+1 of
    the K_i, independently), so no scan over all (2^{n+2})^k tuples.
    """
    n2 = n + 2
    per_coord = []
    for _ in range(n2):
        opts = []
        for c in (q, q + 1):
            if 0 <= c <= k:
                opts.extend(combinations(range(k), c))
        per_coord.append(opts)
    out = []
    for pick in product(*per_coord):
        masks = [0] * k
        for j, rows in enumerate(pick):
            for i in rows:
                masks[i] |= 1 << j
        out.append(tuple(masks))
    return out


def build_minimal_model(cfg, choice=None, arities=None, arity_bound=None):
    """Tabulate mu^k over all weight-admissible tuples for each arity.

    By default only the graded arities k = 2 + n q up to n+2 are
    tabulated (the product and the versal arity); pass an explicit
    arities list for more.

    Every entry comes from one `minimal_mu` call per admissible tuple,
    on the shared engine of (cfg, choice).  When the build returns or
    raises it empties that engine's pieces and blocks: the tables hold
    all that the build needs of them.
    """
    n = cfg.n
    bound = arity_bound if arity_bound is not None else 2 * n + 4
    eng = _engine(cfg, choice)
    choice = eng.choice
    if arities is None:
        arities = [k for k in (2 + n * q for q in range(n + 1)) if k <= n + 2]
    tables = {}
    try:
        for k in sorted(set(arities)):
            if not 2 <= k <= bound:
                raise ArityBound(f"arity {k} outside [2, {bound}]")
            table = {}
            q, rem = divmod(k - 2, n)
            if rem == 0:
                for tup in admissible_tuples(n, k, q):
                    for k0, coef in minimal_mu(
                        k, tup, cfg, choice, arity_bound=bound
                    ).items():
                        table[(k0, tup)] = coef
            tables[k] = table
    finally:
        # what follows a build (Stasheff, reports) reuses their memory
        eng._pieces.clear()
        eng._blocks.clear()
    return MinimalModel(cfg, choice, tables)


def obstruction_class(model):
    """Coefficient of W in the deformation class: the e_empty coefficient
    of mu^{n+2} summed over all orderings of the n+2 singletons."""
    n = model.n
    for k, table in model.tables.items():
        if 2 < k < n + 2 and any(table.values()):
            raise PrematureProduct(
                f"model has a nonzero mu^{k} below the versal arity"
            )
    if n + 2 not in model.tables:
        raise ArityBound(f"model does not tabulate arity {n + 2}")
    return sum(permutation_table(model).values(), ZERO)


def permutation_table(model):
    """Per-ordering e_empty coefficients of mu^{n+2} on the singletons.

    Keys are tuples of 1-based indices in textual order.  Which single
    orderings are nonzero depends on the contraction; only the total is
    an invariant of the dga.
    """
    n = model.n
    table = model.tables.get(n + 2, {})
    out = {}
    for perm in permutations(range(1, n + 3)):
        masks = tuple(1 << (j - 1) for j in perm)
        coef = table.get((0, masks), ZERO)
        if coef:
            out[perm] = coef
    return out
