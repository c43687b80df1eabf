"""Character lattices and gradings for the n-dimensional pair of pants.

The ambient lattice is Z^(n+2) with standard basis e_1, ..., e_(n+2);
subsets K of {1, ..., n+2} give 0/1 vectors e_K.  Weights live in the
quotient M = Z^(n+2) / Z(1, ..., 1); a weight is always the int tuple
`canonical` returns, the translate whose minimal entry is 0.

Subsets are passed around as bitmasks: bit i-1 of the mask stands for
the index i.  Helpers convert to and from 1-based element tuples.
"""

from __future__ import annotations

from fractions import Fraction


class BadVolumeForm(ValueError):
    """Raised when an integer grading vector has the wrong total sum."""


def full_mask(n):
    """Mask of the full index set {1, ..., n+2}."""
    return (1 << (n + 2)) - 1


def from_elements(elems):
    """Subset mask from an iterable of 1-based indices.

    >>> from_elements((1, 3))
    5
    """
    mask = 0
    for e in elems:
        if e < 1:
            raise ValueError("indices are 1-based")
        mask |= 1 << (e - 1)
    return mask


def elements(mask):
    """Sorted tuple of 1-based indices in a subset mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def size(mask):
    return mask.bit_count()


def e_vec(mask, n):
    """The 0/1 vector of a subset inside Z^(n+2)."""
    return tuple(1 if mask >> i & 1 else 0 for i in range(n + 2))


def canonical(entries):
    """The representative of a vector's class in M with minimal entry 0.

    >>> canonical((3, 1, 2))
    (2, 0, 1)
    """
    low = min(entries)
    return tuple(x - low for x in entries)


def weight(mask, n):
    """M-weight of the cohomology generator indexed by a subset: the class
    of -e_K, the weight of its representative dbar_K (dtheta_j has weight
    -e_j); 0 on K and 1 off it, or all 0 for K empty or full."""
    return canonical(tuple(-x for x in e_vec(mask, n)))


def integer_grading(mask, n, nvec=None):
    """Integer lift of the grading: (2*nvec - (1,...,1)) . e_K.

    nvec must be an integer vector with total sum n+1 (default
    (n+1, 0, ..., 0)); anything else raises BadVolumeForm.  The result
    is congruent to |K| mod 2 for every admissible nvec.
    """
    if nvec is None:
        nvec = (n + 1,) + (0,) * (n + 1)
    nvec = tuple(int(x) for x in nvec)
    if len(nvec) != n + 2:
        raise BadVolumeForm(f"nvec must have length {n + 2}")
    if sum(nvec) != n + 1:
        raise BadVolumeForm(f"nvec entries must sum to {n + 1}, got {sum(nvec)}")
    total = 0
    for i in range(n + 2):
        if mask >> i & 1:
            total += 2 * nvec[i] - 1
    return total


def fractional_grading(mask, n):
    """Fractional cohomological degree n|K|/(n+2)."""
    return Fraction(n * size(mask), n + 2)


def homogeneity_defect(k0, inputs, n):
    """The q >= 0 with sum_j e_{K_j} = e_{K_0} + q(1,...,1), else None.

    k0 and the entries of inputs are subset masks.  This is the weight
    bookkeeping behind products being supported on arity 2 + n*q.
    """
    total = [0] * (n + 2)
    for mask in inputs:
        for i in range(n + 2):
            if mask >> i & 1:
                total[i] += 1
    for i in range(n + 2):
        if k0 >> i & 1:
            total[i] -= 1
    q = total[0]
    if q < 0:
        return None
    for x in total:
        if x != q:
            return None
    return q
