import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulmf.linalg import (
    Contraction,
    LinSolver,
    NotAComplex,
    _axpy,
    compose,
    homology_ranks,
)

F = Fraction
ZERO = F(0)
ONE = F(1)


def _rref_rows(row_dicts, ncols):
    """Reduced row echelon form of a list of sparse rows, in place.

    An independent row elimination, the reference that the column
    elimination in `LinSolver` is compared against.  Columns are
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


def _transpose(columns, nrows):
    """The rows of a column list, as a column list."""
    rows = [{} for _ in range(nrows)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            rows[r][c] = v
    return rows


def _identity(n):
    return [{j: 1} for j in range(n)]


def _add(*maps):
    """Sum of column lists with the same number of columns, zeros dropped."""
    out = []
    for cols in zip(*maps, strict=True):
        acc = {}
        for col in cols:
            for r, v in col.items():
                acc[r] = acc.get(r, 0) + v
        out.append({r: v for r, v in acc.items() if v})
    return out


def _kernel(solver):
    """The solver's kernel vectors as {index: Fraction}, scaled to 1 at
    their own column: the canonical kernel the references produce."""
    return {
        j: {i: F(v, vec[j]) for i, v in vec.items()}
        for j, vec in solver.kernel_ints.items()
    }


def _cleared(columns):
    """Sparse columns with `Fraction` or int values as (columns, scale):
    the columns times scale, the lcm of their denominators, as
    {row: int}.  linalg takes integer columns only; rank, kernel and
    pivots do not change, and `Contraction` takes scale as the factor
    between its columns and d."""
    scale = lcm(*(F(v).denominator for col in columns for v in col.values()))
    return [{r: int(v * scale) for r, v in col.items()} for col in columns], scale


def _int_vector(vec):
    """A sparse `Fraction` vector as ({index: int}, den), the input of
    `Contraction.split`."""
    (ivec,), den = _cleared([vec])
    return ivec, den


def _alpha(con, vec, den):
    """p(x) of x = {index: int} / den as a list of `Fraction`s, one per
    harmonic column, read off `Contraction.functional`."""
    alpha = []
    for a in range(con.nharm):
        row, rden = con.functional(a)
        alpha.append(F(sum(c * row.get(j, 0) for j, c in vec.items()), rden * den))
    return alpha


def _split(con, vec):
    """(alpha, h(x)) of a `Fraction` vector, both as Fractions: p(x) read
    off `functional` and h(x) off `Contraction.split`.

    Also checks the integer contract: h(x) comes back content-reduced
    over a positive denominator.
    """
    ivec, iden = _int_vector(vec)
    pre, den = con.split(ivec, iden)
    assert den > 0 and gcd(den, *pre.values()) == 1
    assert all(type(v) is int for v in pre.values())
    return _alpha(con, ivec, iden), {i: F(v, den) for i, v in pre.items()}


def _contract(d_in, d_out, harmonic, out=None):
    """`Contraction` of the rational maps d_in and d_out, each cleared of
    its denominators, with d_in's factor as scale and the harmonic
    columns given as vectors.  A solver passed as `out` was made from
    d_out cleared the same way, as the d_in of the degree above."""
    d_in, scale = _cleared(d_in)
    return Contraction(d_in, _cleared(d_out)[0],
                       [_int_vector(h) for h in harmonic], scale, out)


def _solve(columns, rhs):
    """(coefficients, ok) of rhs over the columns, through `Contraction.split`.

    The columns are d_in of a degree with a zero outgoing map, whose
    harmonic columns are unit vectors completing them to a basis.  split
    then returns the coefficients keyed by column, zero at the dependent
    ones, and a nonzero harmonic part (ok False, coefficients None)
    exactly when rhs is outside the span of the columns.
    """
    dim = 1 + max((r for col in [*columns, rhs] for r in col), default=-1)
    harmonic = _pick_harmonic(columns, _identity(dim))
    con = _contract(columns, [{}] * dim, harmonic)
    alpha, pre = _split(con, rhs)
    if any(alpha):
        return None, False
    coefs = [ZERO] * len(columns)
    for i, c in pre.items():
        coefs[i] = c
    return coefs, True


def _rref_reduce(columns, nrows):
    """(pivots, kernel) read off the RREF, in the format of LinSolver."""
    rows = _transpose(columns, nrows)
    pivots = _rref_rows(rows, len(columns))
    kernel = {}
    for f in range(len(columns)):
        if f not in pivots:
            # 1 at the free column, -R[i, f] at the i-th pivot
            kernel[f] = {f: ONE}
            for i, p in enumerate(pivots):
                if rows[i].get(f):
                    kernel[f][p] = -rows[i][f]
    return pivots, kernel


def test_reduce_identity():
    solver = LinSolver(_identity(3))
    assert _kernel(solver) == {}
    assert solver.pivots == [0, 1, 2]


def test_reduce_zero():
    solver = LinSolver([{}, {}, {}])
    assert solver.pivots == []
    assert _kernel(solver) == {0: {0: F(1)}, 1: {1: F(1)}, 2: {2: F(1)}}


def test_reduce_rank_one():
    solver = LinSolver([{0: 1, 1: 1}, {0: 1, 1: 1}])
    assert solver.pivots == [0]
    # Canonical RREF kernel vector: 1 at the free column, -R[0,free] at the pivot.
    assert _kernel(solver) == {1: {0: F(-1), 1: F(1)}}


def test_reduce_is_deterministic():
    m = _transpose([{1: 2, 2: 4}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 5}], 3)
    first, second = LinSolver(m), LinSolver(m)
    assert (first.pivots, _kernel(first)) == (second.pivots, _kernel(second))


def _random_matrix(rng, rows, cols, density=0.6):
    """Columns of a random rows x cols matrix over -3..3, drawn row by row."""
    columns = [{} for _ in range(cols)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                columns[c][r] = F(rng.randint(-3, 3))
    return columns


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_reduce_properties(rows, cols, seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rows, cols)
    solver = LinSolver(_cleared(m)[0])
    assert len(solver.pivots) <= min(rows, cols)
    assert len(solver.pivots) + len(solver.kernel_ints) == cols
    assert not any(compose(m, list(solver.kernel_ints.values())))
    assert (solver.pivots, _kernel(solver)) == _rref_reduce(m, rows)


def test_reduce_matches_rref_on_all_small_sign_matrices():
    for values in product((-1, 0, 1), repeat=6):
        m = [{r: values[3 * r + c] for r in range(2) if values[3 * r + c]}
             for c in range(3)]
        solver = LinSolver(m)
        assert (solver.pivots, _kernel(solver)) == _rref_reduce(m, 2)


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
    solver = LinSolver(_cleared(columns)[0])
    pivots, kernel, solve = _reference_linsolver(columns)
    assert solver.pivots == pivots
    assert _kernel(solver) == kernel
    for rhs in rhs_list:
        want, want_ok = solve(rhs)
        coefs, ok = _solve(columns, rhs)
        assert ok == want_ok
        if ok:
            assert coefs == want
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
        solver = LinSolver(_cleared(_random_dependent_columns(rng, 7, 10))[0])
        for prow, col, expr in solver._steps:
            assert prow == max(col) and col[prow] > 0
            assert gcd(*col.values(), *expr.values()) == 1
            assert all(type(v) is int for v in (*col.values(), *expr.values()))
        for j, vec in solver.kernel_ints.items():
            assert vec[j] > 0 and gcd(*vec.values()) == 1
            assert all(type(v) is int for v in vec.values())


def test_linsolver_records_dependent_columns():
    cols = [{0: F(1)}, {0: F(2)}, {1: F(1)}, {0: F(1), 1: F(-3)}]
    solver = LinSolver(_cleared(cols)[0])
    assert solver.pivots == [0, 2]
    assert _kernel(solver) == {
        1: {1: F(1), 0: F(-2)}, 3: {3: F(1), 0: F(-1), 2: F(3)}
    }
    coefs, ok = _solve(cols, {0: F(5), 1: F(7)})
    assert ok
    assert coefs == [F(5), F(0), F(7), F(0)]


def test_homology_two_term_acyclic():
    assert homology_ranks([1, 1], [_identity(1)]) == [0, 0]


def test_homology_zero_differential():
    assert homology_ranks([2, 3], [[{}, {}]]) == [2, 3]


def test_homology_rejects_non_complex():
    with pytest.raises(NotAComplex):
        homology_ranks([2, 2, 2], [_identity(2), _identity(2)])
    with pytest.raises(ValueError):
        homology_ranks([2, 1], [_identity(2)])  # a row outside the target


def _random_complex(seed, dims=(3, 4, 2), rank=2):
    """Three-term complex with d1 o d0 = 0 and rank(d0) = rank: (dims, maps)."""
    rng = random.Random(seed)
    lo, mid, hi = dims
    while True:
        d0 = _random_matrix(rng, mid, lo, density=0.8)
        if len(LinSolver(_cleared(d0)[0]).pivots) == rank:
            break
    # Rows of d1 are combinations of the cokernel of d0.
    coker = list(_kernel(LinSolver(_cleared(_transpose(d0, mid))[0])).values())
    rows = compose(coker, [
        {k: F(rng.randint(-2, 2)) for k in range(len(coker))} for _ in range(hi)
    ])
    return list(dims), [d0, _transpose(rows, mid)]


def contraction_parts(con, harmonic, dim):
    """(i, p, h) of one degree as column lists; p is read off functional,
    h off split."""
    p_cols, h_cols = [], []
    for j in range(dim):
        alpha, pre = _split(con, {j: ONE})
        p_cols.append({a: c for a, c in enumerate(alpha) if c})
        h_cols.append(pre)
    return harmonic, p_cols, h_cols


def assert_contraction_identities(d_in, d_out, below, mid, above):
    """The five identities at the middle of three consecutive degrees.

    d_in and d_out are the differentials into and out of the middle
    degree; below, mid and above are the (i, p, h) of the three degrees.
    Also checks that i and p are chain maps there.
    """
    i, p, h = mid
    assert compose(p, i) == _identity(len(i))
    dh_hd = _add(compose(d_in, h), compose(above[2], d_out))
    assert _add(dh_hd, compose(i, p)) == _identity(len(p))  # d h + h d = 1 - i p
    assert not any(compose(h, i))
    assert not any(compose(below[1], h))
    assert not any(compose(below[2], h))
    assert not any(compose(d_out, i))
    assert not any(compose(p, d_in))


def _pick_harmonic(image, kernel):
    """Kernel vectors completing the span of the image columns to the cycles."""
    solver = LinSolver(_cleared(image + kernel)[0])
    return [kernel[j - len(image)] for j in solver.pivots if j >= len(image)]


def _check_complex(dims, maps):
    """Contract every degree of the complex and check the identities; returns
    the (i, p, h) per degree, padded by a zero space at each end.

    The degrees are contracted from the top down, each reusing the solver
    of the one above for its outgoing map."""
    dims = [0] + dims + [0]
    maps = [[]] + maps + [[{}] * dims[-2]]
    parts = []
    out = None
    for k in reversed(range(len(dims))):
        d_in = maps[k - 1] if k else []
        d_out = maps[k] if k < len(maps) else [{}] * dims[k]
        kernel = list(_kernel(LinSolver(_cleared(d_out)[0])).values())
        harmonic = _pick_harmonic(d_in, kernel)
        con = _contract(d_in, d_out, harmonic, out)
        out = con.solver
        parts.insert(0, contraction_parts(con, harmonic, dims[k]))
    ranks = homology_ranks(dims[1:-1], [_cleared(m)[0] for m in maps[1:-1]])
    assert [len(i) for i, _, _ in parts] == [0] + ranks + [0]
    for k in range(1, len(dims) - 1):
        assert_contraction_identities(
            maps[k - 1], maps[k], parts[k - 1], parts[k], parts[k + 1]
        )
    return parts[1:-1]


@pytest.mark.parametrize("seed", [7, 19, 101])
def test_contraction_five_identities(seed):
    _check_complex(*_random_complex(seed))


def test_contraction_respects_known_homology():
    # 0 -> Q^2 --0--> Q^2 -> 0 has full homology in both spots.
    parts = _check_complex([2, 2], [[{}, {}]])
    assert parts[0][0] == _identity(2)


def test_contraction_rejects_dependent_columns():
    # (d_in, d_out, harmonic) of one degree, each breaking one invariant,
    # and the message naming it
    zero2 = [{}, {}]
    bad = [
        ([{0: 2}], [{}], [{0: F(1)}], "dependent"),  # in the image
        ([], [{}], [{0: F(1)}, {0: F(2)}], "dependent"),  # on each other
        # e_0 + e_1 is independent of e_0 but not of e_0 and e_1
        ([{0: 1}, {1: 1}], zero2, [{0: F(1), 1: F(1)}], "dependent"),
        ([], [{0: 1}, {}], [{0: F(1)}], "not a cocycle"),
        ([{0: 1}], zero2, [], "columns for cohomology of rank 1"),  # too few
        # d_out o d_in != 0: the cycle e_1 would be outside the span of
        # d_in's e_0, the one case in which split could not decompose it
        ([{0: 1}], [{0: 1}, {}], [], "d_out o d_in != 0"),
    ]
    for d_in, d_out, harmonic, match in bad:
        with pytest.raises(ValueError, match=match):
            _contract(d_in, d_out, harmonic)


@pytest.mark.parametrize("seed, dims, rank", [
    (7, (3, 4, 2), 2), (19, (3, 4, 2), 2), (5, (6, 14, 5), 6),
    (23, (9, 14, 3), 9), (31, (4, 12, 10), 4),
])
def test_functional_matches_split(seed, dims, rank):
    # alpha_a read off functional(a) equals the alpha_a of the two-solver
    # oracle's split on every unit vector and on random integer vectors
    # over a denominator, in every degree of a random complex (padded by a
    # zero space at each end)
    rng = random.Random(seed)
    dims, maps = _random_complex(seed, dims, rank)
    maps = [[]] + maps + [[{}] * dims[-1]]
    dims = [0] + dims + [0]
    nharm = 0
    for k, dim in enumerate(dims):
        d_in = maps[k - 1] if k else []
        d_out = maps[k] if k < len(maps) else [{}] * dim
        kernel = list(_kernel(LinSolver(_cleared(d_out)[0])).values())
        harmonic = _pick_harmonic(d_in, kernel)
        con = _contract(d_in, d_out, harmonic)
        oracle = TwoSolverContraction(d_in, d_out, harmonic, 1)
        nharm += con.nharm
        vecs = [({j: 1}, 1) for j in range(dim)] + [
            ({j: rng.randint(-9, 9) for j in range(dim)}, rng.randint(1, 12))
            for _ in range(10)
        ]
        for a in range(con.nharm):
            row, rden = con.functional(a)
            assert rden > 0 and gcd(rden, *row.values()) == 1
        for vec, den in vecs:
            assert _alpha(con, vec, den) == oracle.split(vec, den)[0]
        # built once: the row is kept with the contraction
        assert all(con.functional(a) is con.functional(a)
                   for a in range(con.nharm))
    ranks = homology_ranks(dims[1:-1], [_cleared(m)[0] for m in maps[1:-1]])
    assert nharm == sum(ranks)


class TwoSolverContraction:
    """`Contraction` as it was before its solver was shared: the oracle.

    Harmonic columns ({row: Fraction}) are eliminated first, then d_in, in
    one solver, and d_out in a second one for its kernel.  The first
    solver's columns are cleared together, and `_factor`, the lcm of their
    denominators, is where the elimination's units enter p and h.  Only
    the parts the comparison reads are kept: the kernel (`_cycles`,
    `_den`), split and the functional.  Its split returns
    (alpha, pre, pre_den): p(x) as `Fraction`s, read off the elimination,
    besides h(x).
    """

    def __init__(self, d_in, d_out, harmonic, scale):
        if any(compose(d_out, d_in)):
            raise ValueError("d_out o d_in != 0")
        if any(compose(d_out, harmonic)):
            raise ValueError("a harmonic column is not a cocycle")
        self.nharm = nharm = len(harmonic)
        self.scale = scale
        columns, self._factor = _cleared(list(harmonic) + list(d_in))
        self._solver = solver = LinSolver(columns)
        if any(min(vec) < nharm for vec in solver.kernel_ints.values()):
            raise ValueError("harmonic and image columns are dependent")
        out = LinSolver(_cleared(d_out)[0])
        hdim = len(d_out) - len(out.pivots) - (len(solver.pivots) - nharm)
        if hdim != nharm:
            raise ValueError(
                f"{nharm} harmonic columns for cohomology of rank {hdim}")
        kernel = out.kernel_ints
        self._den = den = lcm(*(vec[f] for f, vec in kernel.items()))
        self._cycles = {f: (vec, den // vec[f]) for f, vec in kernel.items()}

    def functional(self, a=0):
        solver = self._solver
        psi, pden = {}, 1
        for prow, vec, expr in reversed(solver._steps):
            s = self._factor * expr.get(a, 0) * pden
            for r, v in vec.items():
                if r in psi:
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
        row = {}
        for f, (kvec, mult) in self._cycles.items():
            c = sum(v * psi[r] for r, v in kvec.items() if r in psi)
            if c:
                row[f] = c * mult
        den = pden * self._den
        g = gcd(den, *row.values())
        return {f: c // g for f, c in row.items()}, den // g

    def split(self, vec, den):
        cycle = {}
        for f, c in vec.items():
            hit = self._cycles.get(f)
            if hit is not None and c:
                kvec, mult = hit
                _axpy(cycle, kvec, mult * c)
        combo = {}
        m = self._solver._eliminate(cycle, combo) * den * self._den
        if cycle:
            raise ValueError("cycle failed to decompose")
        num = -self._factor
        harm = [ZERO] * self.nharm
        pre = {}
        for i in sorted(combo):
            if i < self.nharm:
                harm[i] = F(combo[i] * num, m)
            else:
                pre[i - self.nharm] = combo[i] * num * self.scale
        g = gcd(m, *pre.values())
        if g != 1:
            pre = {src: v // g for src, v in pre.items()}
        return harm, pre, m // g


def _pivot_rows(con):
    """The pivot rows of the contraction's solver, ascending."""
    return sorted(prow for prow, _, _ in con.solver._steps)


def assert_matches_oracle(con, oracle, dim, rng):
    """con and the two-solver oracle of the same degree agree: con's
    solver's pivot rows are the oracle's free d_out columns, and both give
    the same h and p on every unit vector and on random integer vectors
    over a denominator (con's p read off its functional), and the same
    functional rows."""
    assert con.nharm == oracle.nharm
    assert _pivot_rows(con) == list(oracle._cycles)
    vecs = [({j: 1}, 1) for j in range(dim)] + [
        ({j: rng.randint(-9, 9) for j in rng.sample(range(dim), min(dim, 6))},
         rng.randint(1, 12))
        for _ in range(8)
    ]
    for vec, den in vecs:
        alpha, pre, pre_den = oracle.split(vec, den)
        assert con.split(vec, den) == (pre, pre_den)
        assert _alpha(con, vec, den) == alpha
    for a in range(con.nharm):
        assert con.functional(a) == oracle.functional(a)


def _degrees(seed, dims, rank):
    """(dims, degrees) of a random complex padded by a zero space at each
    end, with (d_in, d_out, harmonic) per degree."""
    dims, maps = _random_complex(seed, dims, rank)
    maps = [[]] + maps + [[{}] * dims[-1]]
    dims = [0] + dims + [0]
    degrees = []
    for k, dim in enumerate(dims):
        d_in = maps[k - 1] if k else []
        d_out = maps[k] if k < len(maps) else [{}] * dim
        harmonic = _pick_harmonic(
            d_in, list(_kernel(LinSolver(_cleared(d_out)[0])).values()))
        degrees.append((d_in, d_out, harmonic))
    return dims, degrees


COMPLEXES = [(7, (3, 4, 2), 2), (5, (6, 14, 5), 6), (23, (9, 14, 3), 9),
             (31, (4, 12, 10), 4)]


@pytest.mark.parametrize("seed, dims, rank", COMPLEXES)
def test_split_off_the_kernel_matches_oracle(seed, dims, rank):
    # x with d_out x != 0: split eliminates x itself and drops what is left
    # on d_out's pivot columns, while the oracle first projects x onto
    # ker(d_out); both give the same h.  A vector on d_out's pivot columns
    # alone lies in the complement, so its h is 0
    rng = random.Random(seed)
    dims, degrees = _degrees(seed, dims, rank)
    tested = 0
    out = None
    for k in reversed(range(len(dims))):
        d_in, d_out, harmonic = degrees[k]
        oracle = TwoSolverContraction(d_in, d_out, harmonic, 1)
        cons = (_contract(d_in, d_out, harmonic),
                _contract(d_in, d_out, harmonic, out))
        for _ in range(12):
            vec = {j: rng.randint(-9, 9) for j in range(dims[k])}
            den = rng.randint(1, 12)
            if any(compose(d_out, [vec])):
                tested += 1
                want = oracle.split(vec, den)[1:]
                assert [con.split(vec, den) for con in cons] == [want, want]
        rest = [j for j in range(dims[k]) if j not in oracle._cycles]
        vec = {j: rng.randint(1, 9) for j in rest}
        assert [con.split(vec, 1) for con in cons] == [({}, 1), ({}, 1)]
        out = cons[1].solver
    assert tested > 10


def test_contraction_rejects_an_out_of_another_map():
    # out must be the solver of d_out, the d_in of the degree above; one
    # built from another map of the same length has other pivots, and the
    # contraction raises instead of reading d_out's free columns off it
    _, degrees = _degrees(5, (6, 14, 5), 6)
    raised = 0
    for d_in, d_out, harmonic in degrees:
        cleared = _cleared(d_out)[0]
        _contract(d_in, d_out, harmonic, LinSolver(cleared))  # the right one
        pivots = LinSolver(cleared).pivots
        for other in ([{}] * len(d_out), _identity(len(d_out)), cleared[::-1]):
            if LinSolver(other).pivots != pivots:
                raised += 1
                with pytest.raises(ValueError, match="out's pivots are not"):
                    _contract(d_in, d_out, harmonic, LinSolver(other))
    assert raised >= 4


@pytest.mark.parametrize("seed, dims, rank", COMPLEXES)
def test_contraction_matches_two_solver_oracle(seed, dims, rank):
    # every degree of a random complex, contracted with its own d_out
    # solver and with the solver of the degree above (top down): the
    # solver's pivot rows are d_out's free columns either way
    rng = random.Random(seed)
    dims, degrees = _degrees(seed, dims, rank)
    out = None
    for k in reversed(range(len(dims))):
        d_in, d_out, harmonic = degrees[k]
        oracle = TwoSolverContraction(d_in, d_out, harmonic, 1)
        for con in (_contract(d_in, d_out, harmonic),
                    _contract(d_in, d_out, harmonic, out)):
            assert_matches_oracle(con, oracle, dims[k], rng)
        out = con.solver


@pytest.mark.parametrize("seed, dims, rank", [
    (7, (3, 4, 2), 2), (5, (6, 14, 5), 6),
])
def test_zero_entries_are_dropped_at_input(seed, dims, rank):
    # columns with an explicit zero at every row they lack give the same
    # pivots, kernels, ranks, h and functional rows as the columns without
    # them.  Some zeros sit above a column's largest nonzero row: kept,
    # such a zero would become the column's pivot
    dims, maps = _random_complex(seed, dims, rank)
    maps = [[{r: v for r, v in col.items() if v} for col in _cleared(m)[0]]
            for m in maps]
    padded = [[{r: col.get(r, 0) for r in range(dim)} for col in m]
              for m, dim in zip(maps, dims[1:])]
    assert any(max(col, default=-1) < dim - 1
               for m, dim in zip(maps, dims[1:]) for col in m)
    for m, p in zip(maps, padded):
        want, got = LinSolver(m), LinSolver(p)
        assert (got.pivots, got.kernel_ints, got._steps) == (
            want.pivots, want.kernel_ints, want._steps)
    assert homology_ranks(dims, padded) == homology_ranks(dims, maps)
    # the middle degree, its d_out eliminated here or read off a solver of
    # the degree above
    kernel = list(_kernel(LinSolver(maps[1])).values())
    harmonic = _pick_harmonic(maps[0], kernel)
    free = list(TwoSolverContraction(maps[0], maps[1], harmonic, 1)._cycles)
    harmonic = [_int_vector(h) for h in harmonic]
    want = Contraction(maps[0], maps[1], harmonic, 1)
    assert _pivot_rows(want) == free
    harmonic = [({r: h.get(r, 0) for r in range(dims[1])}, den)
                for h, den in harmonic]
    for out in (None, LinSolver(padded[1])):
        got = Contraction(padded[0], padded[1], harmonic, 1, out)
        assert _pivot_rows(got) == free
        for j in range(dims[1]):
            assert got.split({j: 1}, 1) == want.split({j: 1}, 1)
        assert [got.functional(a) for a in range(got.nharm)] == [
            want.functional(a) for a in range(want.nharm)]


def test_linsolver_roundtrip():
    cols = [{0: F(1), 2: F(2)}, {1: F(3)}, {0: F(1), 1: F(1), 2: F(1)}]
    rhs = {0: F(3), 1: F(7), 2: F(5)}
    coefs, ok = _solve(cols, rhs)
    assert ok
    rebuilt = {}
    for c, col in zip(coefs, cols):
        for r, v in col.items():
            rebuilt[r] = rebuilt.get(r, F(0)) + c * v
    assert {r: v for r, v in rebuilt.items() if v} == rhs


def test_linsolver_detects_inconsistency():
    assert _solve([{0: F(1)}], {1: F(1)}) == (None, False)
