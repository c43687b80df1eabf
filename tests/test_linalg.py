import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulmf.linalg import (
    ChainComplexPiece,
    Contraction,
    LinSolver,
    NotAComplex,
    SparseMatrix,
    homology_ranks,
    reduce,
)

F = Fraction
ZERO = F(0)
ONE = F(1)


def _rref_rows(row_dicts, ncols):
    """Reduced row echelon form of a list of sparse rows, in place.

    An independent row elimination, the reference that `reduce` (column
    elimination in `LinSolver`) is compared against.  Columns are
    scanned in ascending order and the first remaining row with a
    nonzero entry becomes the pivot.  Returns the pivot columns; row i
    (i < rank) ends normalized to a leading 1 at pivots[i] and fully
    back-eliminated.
    """
    pivots = []
    nrows = len(row_dicts)
    cur = 0
    for col in range(ncols):
        sel = None
        for r in range(cur, nrows):
            if row_dicts[r].get(col):
                sel = r
                break
        if sel is None:
            continue
        row_dicts[cur], row_dicts[sel] = row_dicts[sel], row_dicts[cur]
        piv = row_dicts[cur]
        inv = ONE / piv[col]
        if inv != 1:
            for k in list(piv):
                piv[k] *= inv
        for r in range(nrows):
            if r == cur:
                continue
            factor = row_dicts[r].get(col)
            if not factor:
                continue
            target = row_dicts[r]
            for k, v in piv.items():
                newv = target.get(k, ZERO) - factor * v
                if newv:
                    target[k] = newv
                else:
                    target.pop(k, None)
        pivots.append(col)
        cur += 1
        if cur == nrows:
            break
    return pivots


def _rref_reduce(matrix):
    """(rank, kernel, pivots) read off the RREF, in the format of reduce."""
    rows = matrix.row_dicts()
    pivots = _rref_rows(rows, matrix.cols)
    kernel = []
    for f in range(matrix.cols):
        if f in pivots:
            continue
        vec = [ZERO] * matrix.cols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            coef = rows[i].get(f)
            if coef:
                vec[p] = -coef
        kernel.append(vec)
    return len(pivots), kernel, pivots


def test_reduce_identity():
    rank, kernel, pivots = reduce(SparseMatrix.identity(3))
    assert rank == 3
    assert kernel == []
    assert pivots == [0, 1, 2]


def test_reduce_zero():
    rank, kernel, pivots = reduce(SparseMatrix.zero(2, 3))
    assert rank == 0
    assert pivots == []
    assert kernel == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_reduce_rank_one():
    m = SparseMatrix.from_rows([[1, 1], [1, 1]])
    rank, kernel, pivots = reduce(m)
    assert rank == 1
    assert pivots == [0]
    # Canonical RREF kernel vector: 1 at the free column, -R[0,free] at the pivot.
    assert kernel == [[F(-1), F(1)]]


def test_reduce_is_deterministic():
    m = SparseMatrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    first = reduce(m)
    second = reduce(m)
    assert first == second


def _random_matrix(rng, rows, cols, density=0.6):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = F(rng.randint(-3, 3))
    return SparseMatrix(rows, cols, entries)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_reduce_properties(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols)
    rank, kernel, pivots = reduce(m)
    assert rank == len(pivots) <= min(rows, cols)
    assert rank + len(kernel) == cols
    for vec in kernel:
        image = m.apply({i: v for i, v in enumerate(vec) if v})
        assert image == {}
    assert (rank, kernel, pivots) == _rref_reduce(m)


def test_reduce_matches_rref_on_all_small_sign_matrices():
    for values in product((-1, 0, 1), repeat=6):
        m = SparseMatrix.from_rows([values[:3], values[3:]])
        assert reduce(m) == _rref_reduce(m)


def _reference_axpy(target, source, factor):
    for k, v in source.items():
        newv = target.get(k, ZERO) + factor * v
        if newv:
            target[k] = newv
        else:
            target.pop(k, None)


def _reference_linsolver(columns):
    """`LinSolver` as it was before it went fraction-free: the oracle.

    The same forward-only elimination on `Fraction` columns, each stored
    column normalized to a leading 1.  Returns (pivots, kernel, solve).
    """
    pivots, kernel, steps = [], {}, []
    for idx, col in enumerate(columns):
        col = {r: Fraction(v) for r, v in col.items() if v}
        expr = {idx: ONE}
        for prow, stored, sexpr in steps:
            f = col.get(prow)
            if f:
                _reference_axpy(col, stored, -f)
                _reference_axpy(expr, sexpr, -f)
        if not col:
            kernel[idx] = expr
            continue
        prow = min(col)
        inv = ONE / col[prow]
        if inv != 1:
            col = {r: v * inv for r, v in col.items()}
            expr = {r: v * inv for r, v in expr.items()}
        steps.append((prow, col, expr))
        pivots.append(idx)

    def solve(rhs):
        vec = {r: Fraction(v) for r, v in rhs.items() if v}
        out = {}
        for prow, col, expr in steps:
            f = vec.get(prow)
            if f:
                _reference_axpy(vec, col, -f)
                _reference_axpy(out, expr, f)
        coefs = [ZERO] * len(columns)
        for i, v in out.items():
            coefs[i] = v
        return coefs, not vec

    return pivots, kernel, solve


def _assert_matches_reference(columns, rhs_list):
    solver = LinSolver(columns)
    pivots, kernel, solve = _reference_linsolver(columns)
    assert solver.pivots == pivots
    got = solver.kernel
    assert got == kernel
    assert all(type(v) is Fraction for vec in got.values() for v in vec.values())
    for rhs in rhs_list:
        coefs, ok = solver.solve(rhs)
        assert (coefs, ok) == solve(rhs)
        assert all(type(c) is Fraction for c in coefs)


def test_linsolver_matches_reference_on_all_small_sign_matrices():
    rhs_list = [
        {r: F(v) for r, v in enumerate(values) if v}
        for values in product((-1, 0, 1), repeat=2)
    ] + [{0: F(1, 2), 1: F(-2, 3)}]
    for values in product((-1, 0, 1), repeat=6):
        cols = [
            {r: F(values[3 * r + c]) for r in range(2) if values[3 * r + c]}
            for c in range(3)
        ]
        _assert_matches_reference(cols, rhs_list)


def _random_rational(rng):
    """Mostly small fractions over mixed denominators, sometimes a plain int."""
    if rng.random() < 0.3:
        return rng.randint(-5, 5)
    return F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 9)))


def _random_dependent_columns(rng, nrows, ncols):
    """Sparse rational columns, some of them combinations of earlier ones."""
    cols = []
    for _ in range(ncols):
        roll = rng.random()
        if cols and roll < 0.3:
            col = {}
            for src in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                _reference_axpy(col, src, F(_random_rational(rng)))
        elif roll < 0.35:
            col = {}
        else:
            col = {
                r: _random_rational(rng)
                for r in range(nrows)
                if rng.random() < 0.4
            }
        cols.append({r: v for r, v in col.items() if v})
    return cols


def _random_rhs(rng, cols, nrows):
    inside = {}
    for src in cols:
        if rng.random() < 0.5:
            _reference_axpy(inside, src, F(_random_rational(rng)))
    outside = {r: F(_random_rational(rng)) for r in range(nrows)}
    return [{}, inside, outside, {r: v for r, v in outside.items() if v}]


@pytest.mark.parametrize("seed", range(8))
def test_linsolver_matches_reference_on_random_rational_matrices(seed):
    rng = random.Random(seed)
    for _ in range(25):
        nrows = rng.randint(1, 9)
        cols = _random_dependent_columns(rng, nrows, rng.randint(1, 12))
        rhs_list = _random_rhs(rng, cols, nrows) + _random_rhs(rng, cols, nrows)
        _assert_matches_reference(cols, rhs_list)


def test_linsolver_stores_primitive_integer_columns():
    # the content of every stored column and kernel vector is divided out,
    # which keeps the integers from growing with the number of steps
    rng = random.Random(2024)
    for _ in range(60):
        solver = LinSolver(_random_dependent_columns(rng, 7, 10))
        for prow, col, expr in solver._steps:
            assert prow == min(col) and col[prow] > 0
            assert gcd(*col.values(), *expr.values()) == 1
            assert all(type(v) is int for v in (*col.values(), *expr.values()))
        for j, vec in solver.kernel_ints.items():
            assert vec[j] > 0 and gcd(*vec.values()) == 1
            assert all(type(v) is int for v in vec.values())


def test_linsolver_records_dependent_columns():
    cols = [{0: F(1)}, {0: F(2)}, {1: F(1)}, {0: F(1), 1: F(-3)}]
    solver = LinSolver(cols)
    assert solver.pivots == [0, 2]
    assert solver.kernel == {1: {1: F(1), 0: F(-2)}, 3: {3: F(1), 0: F(-1), 2: F(3)}}
    coefs, ok = solver.solve({0: F(5), 1: F(7)})
    assert ok
    assert coefs == [F(5), F(0), F(7), F(0)]


def test_homology_two_term_acyclic():
    piece = ChainComplexPiece([1, 1], [SparseMatrix.identity(1)])
    assert homology_ranks(piece) == [0, 0]


def test_homology_zero_differential():
    piece = ChainComplexPiece([2, 3], [SparseMatrix.zero(3, 2)])
    assert homology_ranks(piece) == [2, 3]


def test_homology_rejects_non_complex():
    d0 = SparseMatrix.identity(2)
    d1 = SparseMatrix.identity(2)
    piece = ChainComplexPiece([2, 2, 2], [d0, d1])
    with pytest.raises(NotAComplex):
        homology_ranks(piece)


def _random_complex(seed):
    """Three-term complex with d1 o d0 = 0 and rank(d0) = 2."""
    rng = random.Random(seed)
    while True:
        d0 = _random_matrix(rng, 4, 3, density=0.8)
        if reduce(d0)[0] == 2:
            break
    # Rows of d1 are combinations of the cokernel of d0.
    rank, coker, _ = reduce(d0.transpose())
    rows = []
    for _ in range(2):
        combo = [F(0)] * 4
        for vec in coker:
            c = F(rng.randint(-2, 2))
            combo = [a + c * b for a, b in zip(combo, vec)]
        rows.append(combo)
    d1 = SparseMatrix.from_rows(rows)
    return ChainComplexPiece([3, 4, 2], [d0, d1])


def contraction_parts(con, harmonic, dim, dim_below):
    """(i, p, h) of one degree as matrices, p and h read off split on unit vectors."""
    p_cols, h_cols = [], []
    for j in range(dim):
        alpha, pre = con.split({j: ONE})
        p_cols.append({a: c for a, c in enumerate(alpha) if c})
        h_cols.append(pre)
    return (
        SparseMatrix.from_columns(dim, harmonic),
        SparseMatrix.from_columns(len(harmonic), p_cols),
        SparseMatrix.from_columns(dim_below, h_cols),
    )


def assert_contraction_identities(d_in, d_out, below, mid, above):
    """The five identities at the middle of three consecutive degrees.

    d_in and d_out are the differentials into and out of the middle
    degree; below, mid and above are the (i, p, h) of the three degrees.
    Also checks that i and p are chain maps there.
    """
    i, p, h = mid
    assert p * i == SparseMatrix.identity(i.cols)
    assert d_in * h + above[2] * d_out == SparseMatrix.identity(i.rows) - i * p
    assert (h * i).is_zero()
    assert (below[1] * h).is_zero()
    assert (below[2] * h).is_zero()
    assert (d_out * i).is_zero()
    assert (p * d_in).is_zero()


def _pick_harmonic(image, kernel):
    """Kernel vectors that complete the image columns to a basis of the cycles."""
    solver = LinSolver(image + kernel)
    return [kernel[j - len(image)] for j in solver.pivots if j >= len(image)]


def _check_complex(piece):
    """Contract every degree of piece and check the identities; returns the
    (i, p, h) per degree, padded by a zero space at each end."""
    dims = [0] + piece.dims + [0]
    maps = (
        [SparseMatrix.zero(dims[1], 0)]
        + piece.maps
        + [SparseMatrix.zero(0, dims[-2])]
    )
    parts = []
    for k, dim in enumerate(dims):
        d_in = maps[k - 1] if k else SparseMatrix.zero(dim, 0)
        d_out = maps[k] if k < len(maps) else SparseMatrix.zero(0, dim)
        out = LinSolver(d_out.columns())
        inc = LinSolver(d_in.columns())
        image = [d_in.column(c) for c in inc.pivots]
        harmonic = _pick_harmonic(image, list(out.kernel.values()))
        con = Contraction(out.kernel, harmonic, image, inc.pivots, 1)
        parts.append(contraction_parts(con, harmonic, dim, d_in.cols))
    assert [i.cols for i, _, _ in parts] == [0] + homology_ranks(piece) + [0]
    for k in range(1, len(dims) - 1):
        assert_contraction_identities(
            maps[k - 1], maps[k], parts[k - 1], parts[k], parts[k + 1]
        )
    return parts[1:-1]


@pytest.mark.parametrize("seed", [7, 19, 101])
def test_contraction_five_identities(seed):
    _check_complex(_random_complex(seed))


def test_contraction_respects_known_homology():
    # 0 -> Q^2 --0--> Q^2 -> 0 has full homology in both spots.
    piece = ChainComplexPiece([2, 2], [SparseMatrix.zero(2, 2)])
    parts = _check_complex(piece)
    assert parts[0][0] == SparseMatrix.identity(2)


def test_contraction_rejects_dependent_columns():
    with pytest.raises(ValueError):
        Contraction({}, [{0: F(1)}], [{0: F(2)}], [0], 1)
    # a cycle e_1 outside the span of the image column e_0
    con = Contraction({1: {1: F(1)}}, [], [{0: F(1)}], [0], 1)
    with pytest.raises(ValueError):
        con.split({1: F(1)})


def test_linsolver_roundtrip():
    cols = [{0: F(1), 2: F(2)}, {1: F(3)}, {0: F(1), 1: F(1), 2: F(1)}]
    solver = LinSolver(cols)
    rhs = {0: F(3), 1: F(7), 2: F(5)}
    coefs, ok = solver.solve(rhs)
    assert ok
    rebuilt = {}
    for c, col in zip(coefs, cols):
        for r, v in col.items():
            rebuilt[r] = rebuilt.get(r, F(0)) + c * v
    assert {r: v for r, v in rebuilt.items() if v} == rhs


def test_linsolver_detects_inconsistency():
    solver = LinSolver([{0: F(1)}])
    coefs, ok = solver.solve({1: F(1)})
    assert not ok
