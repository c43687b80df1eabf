"""Exact linear algebra over Q for finite (co)chain complexes.

Ranks, kernels and homology are exact.  A matrix is a list of sparse
columns, one dict {row: int} per column; `compose` multiplies two of
them.  A map over Q is given by its columns times a common factor that
clears their denominators: `Contraction` takes that factor as `scale`,
and ranks and kernels do not depend on it.

There is one elimination kernel, `LinSolver`: incremental elimination
over integer columns in their given order, one `add` per column.  One
pass gives the independent columns and the canonical kernel;
`homology_ranks` is built on it.  It is fraction-free, and a stored
column's pivot is its largest row.  There is one contraction,
`Contraction`, the per-degree splitting of `minimal`'s transfer, built
and checked from the maps into and out of its degree.  It eliminates the
map into its degree and then its harmonic columns in one solver, which
the degree below can reuse as the map out of it, so a map shared by two
contracted degrees need not be eliminated twice.  Because pivots are
largest rows, that solver's pivot rows are the free columns of the map
out of the degree, so no kernel of that map is built.  Its `split`
reduces integer vectors by the same elimination and returns the homotopy
h only; the projection p is read off `functional`, one exact integer
row per harmonic column.  Every result is an integer vector over one
denominator: this module makes no `Fraction`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


class NotAComplex(ValueError):
    """Raised when consecutive maps do not compose to zero."""


def compose(outer, inner):
    """Columns of outer o inner; the rows of inner's columns index outer's columns."""
    out = []
    for col in inner:
        acc = {}
        for k, v in col.items():
            _axpy(acc, outer[k], v)
        out.append(acc)
    return out


def homology_ranks(dims, maps):
    """Homology dimensions of a bounded complex, one per degree.

    dims[i] is the dimension of the i-th space and maps[i], the map from
    space i to space i+1, is a list of dims[i] sparse columns with rows
    below dims[i+1].  Whether the index is a chain or cochain degree is
    up to the caller.  Raises ValueError on a shape mismatch and
    NotAComplex when consecutive maps fail to compose to zero.
    """
    if len(maps) != max(len(dims) - 1, 0):
        raise ValueError("need exactly len(dims)-1 maps")
    for i, m in enumerate(maps):
        if len(m) != dims[i] or any(
            not 0 <= r < dims[i + 1] for col in m for r in col
        ):
            raise ValueError(f"map {i} must have {dims[i]} columns "
                             f"with rows below {dims[i + 1]}")
    for i in range(len(maps) - 1):
        if any(compose(maps[i + 1], maps[i])):
            raise NotAComplex(f"d o d != 0 between degrees {i} and {i + 2}")
    ranks = [len(LinSolver(m).pivots) for m in maps]
    out = []
    for i, dim in enumerate(dims):
        r_out = ranks[i] if i < len(ranks) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        out.append(dim - r_out - r_in)
    return out


class LinSolver:
    """Exact incremental elimination over a list of sparse columns.

    Columns are taken in the given order, and `add` takes further ones
    after them.  Each one is reduced against the stored columns in the
    order they were stored, and is then stored itself; stored columns are
    never touched again.  A column that reduces to zero depends on the
    earlier ones, and its expression in them is kept as a kernel vector:
    1 at its own index, support otherwise on earlier independent columns.

    pivots lists the independent columns and kernel_ints maps each
    dependent column to its kernel vector, both in ascending order; a
    kernel vector is a primitive integer vector, positive at its own
    column.  Right-hand sides are reduced by `Contraction.split`, which
    runs the same elimination (`_eliminate`) on them.

    The columns are {row: int}, and `__init__` and `add` take them in the
    same units; each is copied without its zero entries.  The
    elimination is fraction-free.  A column u with entry x at the pivot
    row of a stored column v, whose entry there is p, becomes
    (p/g) u - (x/g) v with g = gcd(p, x), and its expression in the
    columns follows along.  A column is stored with its expression
    divided by their common content and signed so that its pivot entry,
    at its largest row, is positive.  Every vector is then a nonzero
    multiple of the one elimination over Q would store, so the pivots
    and the kernel's lines are exactly those of it, and no `Fraction` is
    made.  The pivots and the kernel do not depend on which nonzero row
    is a column's pivot, but `Contraction` does: it reads the free
    columns of the next map off the pivot rows, which are the largest
    rows of the vectors in the span only when each pivot is its column's
    largest row.  The largest row also leaves later D * d columns with
    fewer entries at stored pivot rows than the smallest did: a fresh n=2
    build applied 19,781 steps instead of 27,810 before the contraction
    relied on it.
    """

    __slots__ = ("pivots", "kernel_ints", "_ncols", "_steps", "_where")

    def __init__(self, columns):
        self.pivots = []
        self.kernel_ints = {}
        self._ncols = 0
        # (pivot row, reduced column, its expression in the columns)
        self._steps = []
        self._where = {}  # pivot row -> its step's position in _steps
        for col in columns:
            self.add(col)

    def add(self, col):
        """Reduce the next column, {row: int}, and store it.

        The column gets the next index.  Returns True when it is
        independent of the stored columns; a dependent one gets its kernel
        vector in kernel_ints instead.  col itself is not changed.
        """
        idx = self._ncols
        self._ncols += 1
        vec, expr = {r: v for r, v in col.items() if v}, {idx: 1}
        self._eliminate(vec, expr)
        if not vec:
            self.kernel_ints[idx] = _primitive(vec, expr, expr[idx])[1]
            return False
        prow = max(vec)
        vec, expr = _primitive(vec, expr, vec[prow])
        self._where[prow] = len(self._steps)
        self._steps.append((prow, vec, expr))
        self.pivots.append(idx)
        return True

    def _eliminate(self, vec, expr):
        """Reduce the integer vector vec against the stored columns, in place.

        expr follows every step with the stored expressions.  Returns the
        product m of the factors vec was multiplied by, so that m times
        (vec, expr) on entry equals (vec, expr) on return plus an integer
        combination of the stored (column, expression) pairs.

        A stored column is zero at every earlier pivot row, so a step can
        only put entries at later ones; a heap of the pending pivot rows'
        step numbers, each pushed when vec gets an entry at its row,
        visits exactly the steps a scan in storage order would act on, in
        that order.
        """
        steps = self._steps
        where = self._where
        todo = [where[r] for r in vec if r in where]
        heapify(todo)
        m = 1
        last = -1
        while todo:
            k = heappop(todo)
            if k == last:
                continue
            last = k
            prow, col, cexpr = steps[k]
            x = vec.get(prow)
            if not x:
                continue
            p = col[prow]
            if x % p:
                g = gcd(p, x)
                a = p // g
                m *= a
                for r in vec:
                    vec[r] *= a
                for i in expr:
                    expr[i] *= a
                b = x // g
            else:
                b = x // p
            # vec -= b * col and expr -= b * cexpr, as `_axpy` does
            for r, v in col.items():
                old = vec.get(r)
                if old is None:
                    vec[r] = -b * v
                    j = where.get(r)
                    if j is not None and j > k:
                        heappush(todo, j)
                elif old == b * v:
                    del vec[r]
                else:
                    vec[r] = old - b * v
            for i, v in cexpr.items():
                v = expr.get(i, 0) - b * v
                if v:
                    expr[i] = v
                else:
                    del expr[i]
        return m


class Contraction:
    """Contraction of one degree of a bounded cochain complex onto its cohomology.

    d_in and d_out are the columns of scale * d into and out of the
    degree, and harmonic its cohomology representatives, each given as
    integer terms over a denominator, ({row: int}, den).  A vector x is
    written as

        x = sum_a alpha_a harmonic_a + sum_j c_j d_in_j + complement

    with the complement spanned by the standard basis vectors at d_out's
    pivot columns and c_j = 0 at d_in's dependent columns.  p(x) is the
    list of the alpha_a, and functional(a) is the one place that computes
    it.  split(vec, den) takes x as an integer vector over den and returns
    (pre, pre_den): h(x) one degree down as pre / pre_den keyed by d_in
    column, pre[j] / pre_den = scale * c_j.  Then p i = 1,
    d h + h d = 1 - i p and h i = p h = h h = 0 hold by construction
    (Crainic, arXiv math/0403266); tests check them.

    All columns are {row: int}, and scale is the one factor between them
    and d.  One solver, `solver`, eliminates d_in and then the harmonic
    columns; with the harmonic columns last, d_in's pivots are those of
    d_in alone, and since the decomposition above is unique the order
    changes neither h nor p.  Its columns span ker(d_out), and every stored column's
    pivot is its largest row, so its pivot rows are the largest rows of
    the vectors of ker(d_out): exactly d_out's free columns.  So
    eliminating x in `solver` leaves a remainder on d_out's pivot
    columns, the complement, and no kernel of d_out is built or kept.
    The rank check is that identity: d_out's pivot columns are the rows
    that are not pivot rows of `solver`.  Without `out`, those columns of
    d_out are eliminated here, and all of them must be independent.  The
    degree one down, whose d_out is this d_in, may pass `solver` as its
    `out` instead: its pivots below len(d_out) are then compared.

    functional(a) gives alpha_a as one exact row: zero at d_out's pivot
    columns, zero on every d_in column and 1 on harmonic_a, so that
    alpha_a(x) = row . x for every x.  It is built once, on first use, by
    one back-substitution over the solver's stored steps.

    Raises ValueError when d_out d_in != 0, when a harmonic column is not
    a cocycle, when one depends on the others or on the image, when
    their number is not the cohomology's dimension, and when `out` has
    other pivots than d_out.
    """

    __slots__ = ("nharm", "scale", "solver", "_nin", "_hden", "_rows")

    def __init__(self, d_in, d_out, harmonic, scale, out=None):
        if any(compose(d_out, d_in)):
            raise ValueError("d_out o d_in != 0")
        if any(compose(d_out, [terms for terms, _ in harmonic])):
            raise ValueError("a harmonic column is not a cocycle")
        self.nharm = nharm = len(harmonic)
        self.scale = scale
        self._nin = len(d_in)
        self._hden = [den for _, den in harmonic]
        self.solver = solver = LinSolver(d_in)
        solver.kernel_ints.clear()  # d_in's kernel is not read
        for terms, _ in harmonic:
            if not solver.add(terms):
                raise ValueError("harmonic and image columns are dependent")
        free = solver._where  # pivot row -> step: d_out's free columns
        rest = [j for j in range(len(d_out)) if j not in free]
        if out is None:
            ok = len(LinSolver([d_out[j] for j in rest]).pivots) == len(rest)
        else:
            ok = [j for j in out.pivots if j < len(d_out)] == rest
        if not ok:
            hdim = (len(d_out) - len(LinSolver(d_out).pivots)
                    - len(solver.pivots) + nharm)
            if hdim != nharm:
                raise ValueError(
                    f"{nharm} harmonic columns for cohomology of rank {hdim}")
            raise ValueError("out's pivots are not those of d_out")
        self._rows = [None] * nharm  # functional(a), built on first use

    def functional(self, a=0):
        """alpha_a as (row, den): {column: int} / den, den > 0, content-reduced.

        On a cycle y = sum_k t_k vec_k of the stored steps, alpha_a(y) =
        sum_k t_k g_k with g_k = den_a * expr_k[nin + a]: harmonic_a was
        added as den_a * harmonic_a.  Each step is zero at every earlier
        pivot row, so L[i][k] = vec_k[prow_i] is lower triangular and
        t = L^-1 y at the pivot rows; alpha_a(y) = psi . y with
        L^T psi = g, solved by one pass over the steps in reverse.  psi
        lives on the pivot rows, and x and its cycle part agree there, so
        psi is the row.
        """
        hit = self._rows[a]
        if hit is None:
            hcol, hnum = self._nin + a, self._hden[a]
            psi, pden = {}, 1  # psi[prow] / pden
            for prow, vec, expr in reversed(self.solver._steps):
                s = hnum * expr.get(hcol, 0) * pden
                for r, v in vec.items():
                    if r in psi:  # only later steps' pivot rows are set
                        s -= v * psi[r]
                if s:
                    p = vec[prow]
                    g = p // gcd(s, p)
                    if g != 1:
                        pden *= g
                        for r in psi:
                            psi[r] *= g
                        s *= g
                    psi[prow] = s // p
            g = gcd(pden, *psi.values())
            hit = self._rows[a] = ({r: c // g for r, c in psi.items()}, pden // g)
        return hit

    def split(self, vec, den):
        """h(x) of the vector x = {index: int} / den, den > 0, as (pre, pre_den).

        pre is {d_in column: int} over pre_den > 0, with
        gcd(pre_den, *pre.values()) == 1.  x is eliminated in `solver`,
        and what remains lies on d_out's pivot columns, the complement,
        which h drops; so do the harmonic parts: p(x) is read off
        `functional`.
        """
        combo = {}
        m = self.solver._eliminate(dict(vec), combo) * den
        num = -self.scale
        nin = self._nin
        pre = {i: c * num for i, c in sorted(combo.items()) if i < nin}
        g = gcd(m, *pre.values())
        if g != 1:
            pre = {src: v // g for src, v in pre.items()}
        return pre, m // g


def _primitive(vec, expr, lead):
    """vec and expr divided by their common content, signed to make lead positive."""
    g = gcd(*vec.values(), *expr.values())
    if lead < 0:
        g = -g
    if g == 1:
        return vec, expr
    return {r: v // g for r, v in vec.items()}, {i: v // g for i, v in expr.items()}


def _axpy(target, source, factor):
    """target += factor * source for sparse dict vectors, dropping zeros."""
    for k, v in source.items():
        newv = target.get(k, 0) + factor * v
        if newv:
            target[k] = newv
        else:
            target.pop(k, None)
