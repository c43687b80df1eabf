"""Combinatorics of the cube-projection zonotope and the equatorial sphere.

The boundary of the zonotope (the projection of the unit cube along the
diagonal) is a polyhedral n-sphere.  Its cells are indexed by ordered
partitions (J, K, L) of {1, ..., n+2} with J, K nonempty: the theta_j
are pinned to 0 on J, to 1 on K, and range over [0,1] on L, so the cell
dimension is |L|.  This module builds that complex with exact boundary
matrices, classifies angle tuples (exact fractions of a turn) against the
coamoeba, produces the critical point data of the symmetric Morse
function used to perturb the real locus, and evaluates the degree
formula for pearl configurations.

Floating point appears only in the sampled Morse profile (`GParams`,
`gradient_f`, `unit_coordinates`); everything else is rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import cosh

from .lattice import e_vec, elements, full_mask, size
from .linalg import compose

ONE = Fraction(1)
HALF = Fraction(1, 2)


class BadG(ValueError):
    """The sampled Morse profile g fails one of its defining conditions."""


@dataclass(frozen=True)
class ZonotopeCell:
    """A cell of the zonotope boundary: theta = 0 on j, 1 on k, free on l."""

    j: int
    k: int
    l: int
    n: int

    def __post_init__(self):
        if self.j & self.k or self.j & self.l or self.k & self.l:
            raise ValueError("J, K, L must be disjoint")
        if (self.j | self.k | self.l) != full_mask(self.n):
            raise ValueError("J, K, L must partition the full index set")
        if not self.j or not self.k:
            raise ValueError("J and K must be nonempty")

    @property
    def dim(self):
        return size(self.l)


def zonotope_complex(n):
    """All boundary cells with exact coboundary matrices.

    Returns (maps, cells): cells[d] lists the d-cells (sorted by the
    (L, J) masks), and maps[d] is the coboundary from d-cells to
    (d+1)-cells as one sparse column {(d+1)-cell: sign} per d-cell, the
    format of `linalg.homology_ranks`.  Codimension-one faces of a cell
    move one free index l into J (sign (-1)^{position of l in sorted L})
    or into K (opposite sign); the boundary squaring to zero is
    asserted, as the arbiter of that convention.
    """
    if n < 1:
        raise ValueError("the zonotope boundary needs n >= 1")
    full = full_mask(n)
    cells = [[] for _ in range(n + 1)]
    for lmask in range(1 << (n + 2)):
        d = size(lmask)
        if d > n:
            continue
        rest = full ^ lmask
        sub = rest
        while True:
            jmask = sub
            kmask = rest ^ jmask
            if jmask and kmask:
                cells[d].append(ZonotopeCell(jmask, kmask, lmask, n))
            if sub == 0:
                break
            sub = (sub - 1) & rest
    for d in range(n + 1):
        cells[d].sort(key=lambda c: (c.l, c.j))
    index = {
        (c.j, c.k, c.l): i
        for d in range(n + 1)
        for i, c in enumerate(cells[d])
    }
    maps = []
    for d in range(1, n + 1):
        cob = [{} for _ in cells[d - 1]]
        for col, cell in enumerate(cells[d]):
            for pos, l in enumerate(elements(cell.l)):
                bit = 1 << (l - 1)
                sign = -1 if pos % 2 else 1
                cob[index[(cell.j | bit, cell.k, cell.l ^ bit)]][col] = sign
                cob[index[(cell.j, cell.k | bit, cell.l ^ bit)]][col] = -sign
        maps.append(cob)
    for d in range(len(maps) - 1):
        if any(compose(maps[d + 1], maps[d])):
            raise RuntimeError("zonotope boundary does not square to zero")
    return maps, cells


def coamoeba_classify(turns):
    """Position of an angle tuple relative to the open zonotope image.

    Angles are exact fractions of a full turn.  The tuple is outside the
    image exactly when all angles fit in an open half-turn, i.e. the
    largest circular gap exceeds 1/2; a largest gap of exactly 1/2 means
    the boundary.
    """
    angles = sorted(Fraction(t) % 1 for t in turns)
    gap = angles[0] + 1 - angles[-1]
    for prev, cur in zip(angles, angles[1:]):
        gap = max(gap, cur - prev)
    if gap > HALF:
        return "outside"
    if gap == HALF:
        return "boundary"
    return "interior"


@dataclass(frozen=True)
class MorseCriticalPoint:
    """Critical point of the symmetric Morse function, one per proper
    nonempty subset: coordinates -1/|K| on K and 1/|complement| off it
    (summing to zero, not normalized)."""

    kmask: int
    coords: tuple
    index: int

    def __post_init__(self):
        if sum(self.coords):
            raise ValueError("critical point coordinates must sum to zero")

    def unit_coordinates(self):
        norm = sum(float(x) * float(x) for x in self.coords) ** 0.5
        return tuple(float(x) / norm for x in self.coords)


def morse_data(n):
    """The 2^(n+2) - 2 critical points, Morse index n+1-|K|."""
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    for kmask in range(1, full_mask(n)):
        inside = size(kmask)
        coords = tuple(
            -ONE / inside if kmask >> i & 1 else ONE / (n + 2 - inside)
            for i in range(n + 2)
        )
        out.append(MorseCriticalPoint(kmask, coords, n + 1 - inside))
    return out


@dataclass(frozen=True)
class GParams:
    """A concrete profile g for the Morse function: g'(u) = 1 inside
    [-delta, delta], then delta/2 + (1 - delta/2) sech(c(|u| - delta)).

    Only the defining conditions matter (odd, slope positive, slope 1
    near 0, strictly decreasing beyond delta, below delta past 2*delta);
    they are sampled on a grid at construction and BadG is raised if any
    fails, so alternative parameters are checked, not trusted.
    """

    delta: float = 0.1
    c: float = 40.0

    def gprime(self, u):
        u = abs(u)
        if u <= self.delta:
            return 1.0
        return self.delta / 2 + (1 - self.delta / 2) / cosh(self.c * (u - self.delta))

    def __post_init__(self):
        d = self.delta
        if not 0 < d < 0.5:
            raise BadG("delta must be small and positive")
        grid = [i / 1000 for i in range(1501)]
        prev = None
        for u in grid:
            gp = self.gprime(u)
            if gp <= 0:
                raise BadG(f"slope not positive at {u}")
            if gp != self.gprime(-u):
                raise BadG("slope is not even, so g is not odd")
            if u < d and gp != 1.0:
                raise BadG(f"slope must be 1 inside the plateau, at {u}")
            if u > 2 * d and gp >= d:
                raise BadG(f"slope must drop below delta past 2*delta, at {u}")
            if prev is not None and u > d + 1e-3:
                if gp > prev:
                    raise BadG(f"slope increases past delta, at {u}")
                # strictness is only checkable while the decay is still
                # representable; far out the samples saturate at delta/2
                if gp == prev and u < 2 * d + 0.3:
                    raise BadG(f"slope must strictly decrease past delta, at {u}")
            if u > d:
                prev = gp


@lru_cache(maxsize=1)
def _default_gparams():
    """The default profile, grid-checked once per process on first use."""
    return GParams()


def gradient_f(x, gparams=None):
    """Gradient of the Morse function at a sum-zero point, projected to
    the sphere tangent space.  The unprojected component at any
    coordinate inside the plateau must come out positive (this is the
    transversality statement the function exists for) and is asserted.
    """
    gp = gparams if gparams is not None else _default_gparams()
    n2 = len(x)
    if abs(sum(x)) > 1e-6 * n2:
        raise ValueError("point must lie on the sum-zero slice")
    slopes = [gp.gprime(v) for v in x]
    mean = sum(slopes) / n2
    f = [s - mean for s in slopes]
    for v, comp in zip(x, f):
        if abs(v) < gp.delta and comp <= 0:
            raise RuntimeError(f"component at plateau coordinate {v} not positive")
    xx = sum(v * v for v in x)
    fx = sum(a * b for a, b in zip(f, x))
    return [a - fx / xx * b for a, b in zip(f, x)]


def _adjusted_size(mask, n):
    if mask == 0 or mask == full_mask(n):
        return Fraction(n + 2, 2)
    return Fraction(size(mask))


def pearl_degree(k0, inputs, n):
    """Degree of a disk configuration with the given output and input
    subsets: 2(|K_0|' - sum |K_j|')/(n+2) + k - 1, where |.|' replaces
    the sizes of the empty and full subsets by (n+2)/2.  Rational in
    general; legal configurations have nonnegative integer degree.
    """
    total = _adjusted_size(k0, n) - sum(_adjusted_size(m, n) for m in inputs)
    return 2 * total / (n + 2) + len(inputs) - 1


@dataclass(frozen=True)
class PearlLabel:
    """One pearl: its after-flip subset labels and its degree."""

    flip_labels: tuple
    degree: int

    @property
    def flips(self):
        return len(self.flip_labels)


@dataclass(frozen=True)
class PearlTreeLabeling:
    pearls: tuple


def validate_pearl_labels(lab, n):
    """Violation report for a pearl-tree labeling; empty means valid.

    Each pearl must have nonnegative degree of the same parity as its
    flip count, and its flip labels must sum to ((flips - degree)/2)
    times the all-ones vector, coordinate by coordinate.
    """
    report = []
    for idx, pearl in enumerate(lab.pearls):
        k_v = pearl.flips
        d_v = pearl.degree
        if d_v < 0:
            report.append((idx, "negative degree"))
        if (k_v - d_v) % 2:
            report.append((idx, "flip count and degree have different parity"))
        total = [0] * (n + 2)
        for mask in pearl.flip_labels:
            for i, b in enumerate(e_vec(mask, n)):
                total[i] += b
        target = Fraction(k_v - d_v, 2)
        if any(Fraction(t) != target for t in total):
            report.append((idx, "flip labels do not sum to a diagonal vector"))
    return report
