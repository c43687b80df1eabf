"""The degree-n rational normal curve through the coordinate points.

The curve underlying the first nonvanishing higher product passes
through the n+2 points p_{j} = [-1 : ... : n+1 : ... : -1] and through a
prescribed anchor p with coordinates summing to zero.  Componentwise it
is the rational map

    u_k(z) = (n+1)/(z - nu_k) - sum_{j != k} 1/(z - nu_j),

so u(nu_j) = p_{j} on the nose, and the nodes nu_j are chosen to make
u(0) = p.  Everything is exact rational arithmetic.  The crossing check
brackets the real roots of each cleared numerator by its signs at the
nodes, where it never vanishes, and reads the sign of the derivative at
each root from the bracket; floats appear only in the displayed roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DegenerateTarget(ValueError):
    """The anchor point does not determine distinct finite nodes."""


def gauge_solution(n, p_phi):
    """The sum-zero solution x of ((n+2) Id - ones) x = p_phi.

    The system matrix has n+1 on the diagonal and -1 elsewhere; its
    kernel is the diagonal line, and fixing sum(x) = 0 picks the
    representative x = p_phi/(n+2).
    """
    p = [Fraction(v) for v in p_phi]
    if len(p) != n + 2:
        raise ValueError(f"target needs {n + 2} coordinates")
    if sum(p):
        raise ValueError("target coordinates must sum to zero")
    return [v / (n + 2) for v in p]


@dataclass(frozen=True)
class CurveData:
    """Nodes and anchor of a rational normal curve through the p_{j}."""

    n: int
    nodes: tuple
    target: tuple

    def __post_init__(self):
        if len(self.nodes) != self.n + 2 or len(self.target) != self.n + 2:
            raise ValueError(f"need {self.n + 2} nodes and coordinates")
        if any(v == 0 for v in self.nodes):
            raise DegenerateTarget("node at zero")
        if len(set(self.nodes)) != len(self.nodes):
            raise DegenerateTarget("coincident nodes")
        if sum(self.target):
            raise ValueError("target coordinates must sum to zero")
        if any(v == 0 for v in self.target):
            raise DegenerateTarget("target coordinate vanishes")


def solve_nodes(n, p_phi):
    """Curve through the p_{j} with u(0) = p_phi; nodes are 1/x for the
    gauge-fixed solution x, so a vanishing or repeated coordinate of the
    target is degenerate.  n must be at least 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = gauge_solution(n, p_phi)
    if any(v == 0 for v in x):
        raise DegenerateTarget("target coordinate vanishes, node at infinity")
    nodes = tuple(1 / v for v in x)
    return CurveData(n, nodes, tuple(Fraction(v) for v in p_phi))


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_eval(coeffs, z):
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _strip(coeffs):
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return coeffs


def cleared_polys(curve):
    """Numerators of the components after clearing all denominators.

    U_k = (n+1) prod_{m != k}(z - nu_m) - sum_{j != k} prod_{m != j}(z - nu_m);
    the z^{n+1} terms cancel, so the degree is at most n.  Coefficient
    lists are ascending, trailing zeros stripped.
    """
    n = curve.n
    partial = []
    for j in range(n + 2):
        poly = [ONE]
        for m, nu in enumerate(curve.nodes):
            if m != j:
                poly = _poly_mul(poly, [-nu, ONE])
        partial.append(poly)
    out = []
    for k in range(n + 2):
        coeffs = [(n + 1) * c for c in partial[k]]
        for j in range(n + 2):
            if j == k:
                continue
            for i, c in enumerate(partial[j]):
                coeffs[i] -= c
        out.append(tuple(_strip(coeffs)))
    return out


def curve_eval(curve, z):
    """The projective point u(z), as exact rationals up to common scale.

    Evaluates the cleared numerators, so node values are fine:
    u(nu_j) is the coordinate point p_{j} and u(0) the anchor.
    """
    z = Fraction(z)
    return [_poly_eval(p, z) for p in cleared_polys(curve)]


def projectively_equal(u, v):
    """Equality in projective space: proportional and not both zero."""
    if len(u) != len(v):
        return False
    pivot = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return False
        if a != 0:
            pivot = (a, b)
    if pivot is None:
        return False
    pa, pb = pivot
    return all(a * pb == b * pa for a, b in zip(u, v))


@dataclass
class CrossingReport:
    """Real roots of one component and the exact sign of u_k' there."""

    component: int
    roots: list
    derivative_signs: list
    flags: list


def _sign(coeffs, z):
    v = _poly_eval(coeffs, z)
    return (v > 0) - (v < 0)


def _display_root(coeffs, lo, hi, slo):
    """Bisect the bracket (lo, hi), sign slo at lo, until its midpoint
    rounds to the float of an end, and return that float."""
    while True:
        mid = (lo + hi) / 2
        smid = _sign(coeffs, mid)
        if not smid or float(mid) in (float(lo), float(hi)):
            return float(mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid


def crossing_positivity(curve):
    """Certify that each component u_k crosses zero n times, upward.

    U_k never vanishes at a node: U_k(nu_j) = -prod_{m != j}(nu_j - nu_m)
    for j != k and (n+1) prod_{m != k}(nu_k - nu_m) for j = k.  Its signs
    at -B, the sorted nodes and +B, B the Cauchy bound (so the signs at
    +-infinity), bracket its real roots; each sign change holds a root of
    odd multiplicity.  When there are deg U_k = n changes, each bracket
    holds one simple root and U_k has no other.  At a root
    u_k' = U_k'/P with P = prod(z - nu_m), so the sign of u_k' is the
    direction of the change times (-1)^(nodes above the bracket).  A
    component with fewer than n changes is flagged.  Roots are bisected
    exactly inside their brackets and converted to float only for
    display.
    """
    n = curve.n
    nodes = sorted(curve.nodes)
    reports = []
    for k, coeffs in enumerate(cleared_polys(curve)):
        tail = max((abs(c) for c in coeffs[:-1]), default=ZERO)
        bound = 1 + tail / abs(coeffs[-1])
        # a node beyond +-B has the sign of that end: no bracket there
        points = [-bound, *nodes, bound]
        signs = [_sign(coeffs, z) for z in points]
        brackets = [
            i for i in range(1, len(points)) if signs[i - 1] * signs[i] < 0
        ]
        flags = []
        if len(brackets) < n:
            flags.append(f"{len(brackets)} sign changes, {n} expected")
        roots = [
            _display_root(coeffs, points[i - 1], points[i], signs[i - 1])
            for i in brackets
        ]
        # the nodes above bracket i are points[i:-1]
        derivative_signs = [
            signs[i] * (-1) ** (len(points) - 1 - i) for i in brackets
        ]
        reports.append(CrossingReport(k, roots, derivative_signs, flags))
    return reports
