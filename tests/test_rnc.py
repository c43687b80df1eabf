"""Node solver and crossing checks for the interpolating rational curve."""

import json
import math
import random
from fractions import Fraction

import pytest

from koszulmf import cli, rnc
from koszulmf.rnc import (
    CurveData,
    DegenerateTarget,
    cleared_polys,
    crossing_positivity,
    curve_eval,
    gauge_solution,
    projectively_equal,
    solve_nodes,
)

F = Fraction


def _system_matrix(n):
    # n+1 on the diagonal, -1 off: independent of the closed-form solve
    return [
        [F(n + 1) if r == c else F(-1) for c in range(n + 2)]
        for r in range(n + 2)
    ]


def _random_target(rng, n):
    while True:
        vals = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
        vals.append(-sum(vals))
        if all(vals) and len(set(vals)) == len(vals):
            return tuple(vals)


def _coordinate_point(n, j):
    return [F(n + 1) if m == j else F(-1) for m in range(n + 2)]


def _direct_eval(curve, z):
    # rational form times the full node product, computed without the
    # cleared polynomials
    n = curve.n
    clear = math.prod(z - nu for nu in curve.nodes)
    vals = []
    for k in range(n + 2):
        total = F(0)
        for j, nu in enumerate(curve.nodes):
            if j == k:
                total += F(n + 1) / (z - nu)
            else:
                total -= 1 / (z - nu)
        vals.append(total * clear)
    return vals


def test_gauge_solution_back_substitutes():
    x = gauge_solution(1, (1, -2, 1))
    assert x == [F(1, 3), F(-2, 3), F(1, 3)]
    m = _system_matrix(1)
    assert [sum(m[r][c] * x[c] for c in range(3)) for r in range(3)] == [1, -2, 1]

    rng = random.Random(20240825)
    for n in (1, 2, 3):
        m = _system_matrix(n)
        for _ in range(10):
            p = _random_target(rng, n)
            x = gauge_solution(n, p)
            assert sum(x) == 0
            back = [sum(m[r][c] * x[c] for c in range(n + 2)) for r in range(n + 2)]
            assert back == list(p)


def test_gauge_solution_swap_antisymmetry():
    x = gauge_solution(2, (7, -7, 0, 0))
    assert x == [F(7, 4), F(-7, 4), 0, 0]
    assert x[0] == -x[1]

    rng = random.Random(7)
    p = _random_target(rng, 2)
    swapped = (p[1], p[0]) + p[2:]
    y = gauge_solution(2, swapped)
    x = gauge_solution(2, p)
    assert y == [x[1], x[0], x[2], x[3]]


def test_gauge_solution_input_validation():
    with pytest.raises(ValueError):
        gauge_solution(1, (1, -1))
    with pytest.raises(ValueError):
        gauge_solution(1, (1, 1, 1))


def test_solve_nodes_values_and_degeneracies():
    c = solve_nodes(1, (1, 2, -3))
    assert c.nodes == (3, F(3, 2), -1)
    assert c.target == (1, 2, -3)

    with pytest.raises(DegenerateTarget):
        solve_nodes(1, (1, -1, 0))  # node at infinity
    with pytest.raises(DegenerateTarget):
        solve_nodes(1, (1, -2, 1))  # repeated node
    with pytest.raises(ValueError):
        solve_nodes(1, (1, 1, 1))
    with pytest.raises(ValueError):
        solve_nodes(0, (1, -1))  # no curve of degree 0


def test_curve_data_validation():
    with pytest.raises(DegenerateTarget):
        CurveData(1, (0, 1, 2), (1, 2, -3))
    with pytest.raises(DegenerateTarget):
        CurveData(1, (1, 1, 2), (1, 2, -3))
    with pytest.raises(DegenerateTarget):
        CurveData(1, (3, F(3, 2), -1), (1, -1, 0))
    with pytest.raises(ValueError):
        CurveData(1, (3, F(3, 2), -1), (1, 2, 3))
    with pytest.raises(ValueError):
        CurveData(1, (3, -1), (1, 2, -3))


def test_cleared_polys_frozen_example():
    c = solve_nodes(1, (1, 2, -3))
    assert cleared_polys(c) == [
        (F(-9, 2), F(11, 2)),
        (F(-9), F(1)),
        (F(27, 2), F(-13, 2)),
    ]


def test_curve_eval_hits_anchor_and_coordinate_points():
    rng = random.Random(20240826)
    for n in (1, 2, 3):
        for _ in range(5):
            p = _random_target(rng, n)
            c = solve_nodes(n, p)
            assert projectively_equal(curve_eval(c, 0), list(p))
            for j, nu in enumerate(c.nodes):
                assert projectively_equal(
                    curve_eval(c, nu), _coordinate_point(n, j)
                )
            for poly in cleared_polys(c):
                assert len(poly) - 1 == n


def test_curve_eval_matches_direct_rational_form():
    rng = random.Random(20240827)
    for n in (1, 2, 3):
        p = _random_target(rng, n)
        c = solve_nodes(n, p)
        for cand in (F(1, 7), F(-5, 3), F(22, 7)):
            if cand in c.nodes:
                continue
            assert curve_eval(c, cand) == _direct_eval(c, cand)


def test_projectively_equal():
    assert projectively_equal([1, 2, 0], [F(-1, 2), -1, 0])
    assert not projectively_equal([1, 2, 0], [1, 2, 1])
    assert not projectively_equal([1, 2], [2, 4, 0])
    assert not projectively_equal([0, 0], [0, 0])


def test_crossing_positivity_frozen_roots():
    c = solve_nodes(1, (1, 2, -3))
    reports = crossing_positivity(c)
    expected = [9 / 11, 9.0, 27 / 13]
    for rep, root in zip(reports, expected):
        assert rep.flags == []
        assert len(rep.roots) == 1
        assert abs(rep.roots[0] - root) < 1e-9
        assert rep.derivative_signs == [1]


def test_crossing_positivity_random_targets():
    rng = random.Random(20240828)
    for n in (1, 2, 3):
        for _ in range(4):
            p = _random_target(rng, n)
            c = solve_nodes(n, p)
            reports = crossing_positivity(c)
            assert len(reports) == n + 2
            for rep in reports:
                assert rep.flags == []
                assert len(rep.roots) == n
                assert rep.derivative_signs == [1] * n


def test_crossing_positivity_deterministic():
    c = solve_nodes(2, (1, 2, 3, -6))
    a = crossing_positivity(c)
    b = crossing_positivity(c)
    assert [r.roots for r in a] == [r.roots for r in b]
    assert [r.derivative_signs for r in a] == [r.derivative_signs for r in b]


def test_cleared_polys_closed_form_at_nodes():
    # the brackets of crossing_positivity rest on these nonzero values
    rng = random.Random(20240829)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            c = solve_nodes(n, _random_target(rng, n))
            for k, poly in enumerate(cleared_polys(c)):
                for j, nu in enumerate(c.nodes):
                    others = (mu for m, mu in enumerate(c.nodes) if m != j)
                    q = math.prod(nu - mu for mu in others)
                    expected = (n + 1) * q if j == k else -q
                    assert expected != 0
                    value = sum(a * nu**i for i, a in enumerate(poly))
                    assert value == expected


def test_complex_pair_is_flagged(monkeypatch, capsys):
    # z^2 + 1 keeps its sign at every node: no bracket, so no certified
    # root; 2z - 1 has its one root but falls short of degree n = 2
    real = rnc.cleared_polys
    line, pair = (F(-1), F(2)), (F(1), F(0), F(1))
    monkeypatch.setattr(
        rnc, "cleared_polys", lambda c: [line, *real(c)[1:-1], pair]
    )
    c = solve_nodes(2, (1, 2, 3, -6))
    first, *middle, last = crossing_positivity(c)
    assert first.flags and first.roots == [0.5]
    assert all(not rep.flags for rep in middle)
    assert last.flags and last.roots == [] and last.derivative_signs == []
    assert cli.main(["rnc", "--n", "2", "--pphi", "1,2,3,-6"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["crossings"][-1]["flags"] == last.flags
    assert out["results"]["pass"] is False
