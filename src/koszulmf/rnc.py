"""The degree-n rational normal curve through the coordinate points.

The curve underlying the first nonvanishing higher product passes
through the n+2 points p_{j} = [-1 : ... : n+1 : ... : -1] and through a
prescribed anchor p with coordinates summing to zero.  Componentwise it
is the rational map

    u_k(z) = (n+1)/(z - nu_k) - sum_{j != k} 1/(z - nu_j),

so u(nu_j) = p_{j} on the nose, and the nodes nu_j are chosen to make
u(0) = p.  Everything is exact rational arithmetic except the crossing
check, which is not certified: it brackets real roots by exact sign
changes at the points of a float grid (512, then 4096, then 32768
samples), bisects the brackets, and evaluates the derivative at the
roots in floats, which the CLI compares against --tolerance.  A root
the grid misses is only flagged.  Exact certification is ROADMAP item 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DegenerateTarget(ValueError):
    """The anchor point does not determine distinct finite nodes."""


class RootIsolationFailure(RuntimeError):
    """Sign-change bisection could not separate the real roots."""


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
    """Real roots of one component and the derivative there."""

    component: int
    roots: list
    derivatives: list
    flags: list


def _exact_sign(coeffs, z):
    v = _poly_eval(coeffs, Fraction(z))
    return (v > 0) - (v < 0)


def _bisect(coeffs, lo, hi, width):
    slo = _exact_sign(coeffs, lo)
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        smid = _exact_sign(coeffs, mid)
        if smid == 0:
            return mid, mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def crossing_positivity(curve, width=1e-12):
    """Isolate all real roots of each component and evaluate the
    derivative of the rational form there.

    The derivative at a root is -(n+1)/(z-nu_k)^2 + sum 1/(z-nu_j)^2,
    positive by the quadratic-arithmetic mean inequality; each report
    carries the refined roots, those values, and a flag when a component
    shows fewer real roots than its degree.
    """
    n = curve.n
    polys = cleared_polys(curve)
    reports = []
    for k, coeffs in enumerate(polys):
        degree = len(coeffs) - 1
        lead = abs(float(coeffs[-1]))
        bound = 1.0 + max(abs(float(c)) for c in coeffs) / lead
        roots = []
        flags = []
        for resolution in (512, 4096, 32768):
            roots = []
            prev_z = -bound
            prev_s = _exact_sign(coeffs, -bound)
            step = 2 * bound / resolution
            for i in range(1, resolution + 1):
                z = -bound + i * step
                s = _exact_sign(coeffs, z)
                if s == 0:
                    # sample landed exactly on a root
                    roots.append((z, z))
                elif prev_s and s != prev_s:
                    roots.append((prev_z, z))
                prev_z, prev_s = z, s
            if len(roots) >= degree:
                break
        if len(roots) > degree:
            raise RootIsolationFailure(
                f"component {k}: {len(roots)} sign changes for degree {degree}"
            )
        if len(roots) < degree:
            flags.append(
                f"found {len(roots)} of {degree} expected real roots"
            )
        refined = []
        for lo, hi in roots:
            rlo, rhi = _bisect(coeffs, lo, hi, width)
            refined.append((float(rlo) + float(rhi)) / 2)
        derivs = []
        for z in refined:
            total = 0.0
            for j, nu in enumerate(curve.nodes):
                term = 1.0 / (z - float(nu)) ** 2
                total += -(n + 1) * term if j == k else term
            derivs.append(total)
        reports.append(CrossingReport(k, refined, derivs, flags))
    return reports
