"""Exact linear algebra over Q for finite (co)chain complexes.

Everything here works with `fractions.Fraction` coefficients, so ranks,
kernels and homology are exact.  Matrices are sparse (dict keyed by
(row, col)).

There is one elimination kernel, `LinSolver`: incremental elimination
over columns in their given order.  One pass gives the independent
columns, the canonical kernel and a solver for many right-hand sides;
`reduce` and `homology_ranks` are built on it.  There is one
contraction, `Contraction`, the per-degree splitting the transfer in
`minimal` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class NotAComplex(ValueError):
    """Raised when consecutive maps do not compose to zero."""


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q.

    Entries are stored as a dict {(row, col): Fraction} holding only
    nonzeros.  Construction copies and drops explicit zeros.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        cleaned = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) out of range")
                v = Fraction(v)
                if v:
                    cleaned[(r, c)] = v
        self.entries = cleaned

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rows_data):
        """Build from a list of row lists (dense input, e.g. in tests)."""
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        entries = {}
        for r, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(r, c)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def from_columns(cls, nrows, columns):
        """Build from a list of sparse columns (dict row -> value)."""
        entries = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                v = Fraction(v)
                if v:
                    entries[(r, c)] = v
        return cls(nrows, len(columns), entries)

    def get(self, r, c):
        return self.entries.get((r, c), ZERO)

    def column(self, c):
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self):
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, {})[c] = v
        other_rows = {}
        for (r, c), v in other.entries.items():
            other_rows.setdefault(r, {})[c] = v
        entries = {}
        for r, row in by_row.items():
            acc = {}
            for k, v in row.items():
                orow = other_rows.get(k)
                if not orow:
                    continue
                for c, w in orow.items():
                    acc[c] = acc.get(c, ZERO) + v * w
            for c, total in acc.items():
                if total:
                    entries[(r, c)] = total
        return SparseMatrix(self.rows, other.cols, entries)

    def __add__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        entries = dict(self.entries)
        for key, v in other.entries.items():
            entries[key] = entries.get(key, ZERO) + v
        return SparseMatrix(self.rows, self.cols, entries)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, a):
        a = Fraction(a)
        return SparseMatrix(
            self.rows, self.cols, {k: a * v for k, v in self.entries.items()}
        )

    def apply(self, vec):
        """Apply to a sparse vector (dict index -> Fraction)."""
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x:
                out[r] = out.get(r, ZERO) + v * x
        return {r: v for r, v in out.items() if v}

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def reduce(matrix):
    """Echelon data of a matrix: (rank, kernel_basis, pivot_columns).

    A thin wrapper over `LinSolver` on the columns.  The kernel basis has
    one vector per free column f, with entry 1 at f and support otherwise
    on the pivot columns before f; that vector is unique, so it is the
    one read off the reduced row echelon form.  Vectors are dense lists
    of Fractions, ordered by ascending free column.
    """
    solver = LinSolver(matrix.columns())
    kernel = []
    for vec in solver.kernel.values():
        dense = [ZERO] * matrix.cols
        for i, v in vec.items():
            dense[i] = v
        kernel.append(dense)
    return len(solver.pivots), kernel, solver.pivots


@dataclass
class ChainComplexPiece:
    """A bounded complex of Q-vector spaces.

    dims[i] is the dimension of the i-th space and maps[i] sends space i
    to space i+1 (so maps[i] has shape dims[i+1] x dims[i]).  Whether
    the index is a chain or cochain degree is up to the caller.
    """

    dims: list
    maps: list

    def __post_init__(self):
        if len(self.maps) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly len(dims)-1 maps")
        for i, m in enumerate(self.maps):
            if (m.rows, m.cols) != (self.dims[i + 1], self.dims[i]):
                raise ValueError(f"map {i} has shape {m.rows}x{m.cols}, "
                                 f"expected {self.dims[i + 1]}x{self.dims[i]}")

    def check_composes_to_zero(self):
        for i in range(len(self.maps) - 1):
            if not (self.maps[i + 1] * self.maps[i]).is_zero():
                raise NotAComplex(f"d o d != 0 between degrees {i} and {i + 2}")


def homology_ranks(piece):
    """Homology dimensions of a bounded complex, one per degree.

    Raises NotAComplex when consecutive maps fail to compose to zero.
    """
    piece.check_composes_to_zero()
    ranks = [reduce(m)[0] for m in piece.maps]
    out = []
    for i, dim in enumerate(piece.dims):
        r_out = ranks[i] if i < len(ranks) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        out.append(dim - r_out - r_in)
    return out


class LinSolver:
    """Exact incremental elimination over a fixed list of sparse columns.

    Columns are taken in the given order.  Each one is reduced against
    the stored columns in the order they were stored, and is then stored
    itself with a leading 1 at its pivot row; stored columns are never
    touched again.  A column that reduces to zero depends on the earlier
    ones, and its expression in them is kept as a kernel vector: 1 at
    its own index, support otherwise on earlier independent columns.

    pivots lists the independent columns and kernel maps each dependent
    column to its kernel vector, both in ascending order.  solve(rhs)
    walks the stored columns in the same order and returns
    (coefficients, ok): coefficients over the original columns, zero at
    the dependent ones, and ok False when rhs lies outside their span.
    """

    __slots__ = ("ncols", "pivots", "kernel", "_steps")

    def __init__(self, columns):
        self.ncols = len(columns)
        self.pivots = []
        self.kernel = {}
        # (pivot row, reduced column, its expression in the original columns)
        self._steps = []
        for idx, col in enumerate(columns):
            col = {r: Fraction(v) for r, v in col.items() if v}
            expr = {idx: ONE}
            for prow, stored, sexpr in self._steps:
                f = col.get(prow)
                if f:
                    _axpy(col, stored, -f)
                    _axpy(expr, sexpr, -f)
            if not col:
                self.kernel[idx] = expr
                continue
            prow = min(col)
            inv = ONE / col[prow]
            if inv != 1:
                col = {r: v * inv for r, v in col.items()}
                expr = {r: v * inv for r, v in expr.items()}
            self._steps.append((prow, col, expr))
            self.pivots.append(idx)

    def solve(self, rhs):
        vec = {r: Fraction(v) for r, v in rhs.items() if v}
        out = {}
        for prow, col, expr in self._steps:
            f = vec.get(prow)
            if f:
                _axpy(vec, col, -f)
                _axpy(out, expr, f)
        coefs = [ZERO] * self.ncols
        for i, v in out.items():
            coefs[i] = v
        return coefs, not vec


class Contraction:
    """Contraction of one degree of a bounded cochain complex onto its cohomology.

    The space splits as im(d_in) + harmonic + complement.  The complement
    is spanned by the standard basis vectors at the pivot columns of the
    outgoing map, so a vector x projects onto ker(d_out) along it as
    sum_f x_f kernel[f] over the free columns f.  That cycle is then
    written in the harmonic columns and the incoming image columns:

        x = sum_a alpha_a harmonic_a + sum_i c_i d(e_sources[i]) + complement

    split(x) returns (alpha, {sources[i]: c_i}): p(x) as a list of harmonic
    coefficients, and h(x) as a sparse vector one degree down.  The
    homotopy h inverts d from the complement one degree down onto the
    image and vanishes on the harmonic and complement parts, so the
    identities p i = 1, d h + h d = 1 - i p, h i = p h = h h = 0 hold by
    construction (Crainic, arXiv math/0403266); tests check them.

    Raises ValueError when the harmonic and image columns are dependent,
    and from split when the cycle part of x is outside their span.
    """

    __slots__ = ("kernel", "nharm", "sources", "_solver")

    def __init__(self, kernel, harmonic, image, sources):
        self.kernel = kernel
        self.nharm = len(harmonic)
        self.sources = list(sources)
        self._solver = LinSolver(list(harmonic) + list(image))
        if self._solver.kernel:
            raise ValueError("harmonic and image columns are dependent")

    def split(self, vec):
        cycle = {}
        for f, kvec in self.kernel.items():
            c = vec.get(f)
            if c:
                _axpy(cycle, kvec, c)
        coefs, ok = self._solver.solve(cycle)
        if not ok:
            raise ValueError("cycle failed to decompose")
        nharm = self.nharm
        pre = {src: c for src, c in zip(self.sources, coefs[nharm:]) if c}
        return coefs[:nharm], pre


def _axpy(target, source, factor):
    """target += factor * source for sparse dict vectors, dropping zeros."""
    for k, v in source.items():
        newv = target.get(k, ZERO) + factor * v
        if newv:
            target[k] = newv
        else:
            target.pop(k, None)
