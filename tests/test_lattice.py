from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulmf.lattice import (
    BadVolumeForm,
    canonical,
    e_vec,
    elements,
    fractional_grading,
    from_elements,
    full_mask,
    homogeneity_defect,
    integer_grading,
    size,
    weight,
)


def test_mask_roundtrip():
    assert from_elements(()) == 0
    assert elements(from_elements((2, 4, 1))) == (1, 2, 4)
    assert size(from_elements((1, 3))) == 2
    assert e_vec(from_elements((1, 3)), 1) == (1, 0, 1)


def test_weight_example():
    # the class of -e_K, the weight of the representative dbar_K
    assert weight(from_elements((1,)), 1) == canonical((-1, 0, 0))


def test_weight_full_set_is_trivial():
    n = 2
    assert weight(full_mask(n), n) == weight(0, n)
    assert weight(full_mask(n), n) == canonical((0,) * (n + 2))


def test_lattice_class_canonical_representative():
    c = canonical((3, 1, 2))
    assert c == (2, 0, 1)
    assert c == canonical((1, -1, 0))


def test_integer_grading_example():
    assert integer_grading(from_elements((1,)), 2, nvec=(3, 0, 0, 0)) == 5


def test_integer_grading_default_vector():
    # Default nvec = (n+1, 0, ..., 0).
    n = 1
    assert integer_grading(from_elements((1,)), n) == 3
    assert integer_grading(from_elements((2,)), n) == -1
    assert integer_grading(0, n) == 0


def test_integer_grading_rejects_bad_volume_form():
    with pytest.raises(BadVolumeForm):
        integer_grading(0, 2, nvec=(1, 0, 0, 0))
    with pytest.raises(BadVolumeForm):
        integer_grading(0, 2, nvec=(3, 0, 0))


@given(st.integers(1, 4), st.integers(0, 2 ** 6 - 1), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_integer_grading_parity_and_complement(n, raw_mask, seed):
    import random

    mask = raw_mask & full_mask(n)
    rng = random.Random(seed)
    # Random admissible nvec: integers summing to n+1.
    nvec = [0] * (n + 2)
    for _ in range(n + 1):
        nvec[rng.randrange(n + 2)] += 1
    i_k = integer_grading(mask, n, nvec=tuple(nvec))
    assert i_k % 2 == size(mask) % 2
    comp = full_mask(n) ^ mask
    assert i_k + integer_grading(comp, n, nvec=tuple(nvec)) == n


def test_fractional_grading():
    assert fractional_grading(from_elements((1, 2)), 1) == Fraction(2, 3)
    assert fractional_grading(full_mask(2), 2) == Fraction(2)
    assert fractional_grading(0, 3) == 0


def cover_residue(u, n):
    """Residue of a lattice vector under the covering map, mod n+2.

    Well defined on classes in M because (1,...,1) sums to n+2.
    """
    return sum(int(x) for x in u) % (n + 2)


def test_cover_residue():
    assert cover_residue((1, 0, 0), 1) == 1
    assert cover_residue((1, 1, 1), 1) == 0
    assert cover_residue((2, -1, 0, 0), 2) == 1


def test_homogeneity_defect_disjoint_pair():
    n = 2
    assert homogeneity_defect(
        from_elements((1, 2)), (from_elements((1,)), from_elements((2,))), n
    ) == 0


def test_homogeneity_defect_with_cover():
    n = 1
    inputs = (from_elements((1, 2)), from_elements((2, 3)), from_elements((1, 3)))
    assert homogeneity_defect(0, inputs, n) == 2


def test_homogeneity_defect_none():
    n = 1
    assert homogeneity_defect(
        from_elements((1, 2)), (from_elements((1,)), from_elements((1,))), n
    ) is None
    # Negative multiples of (1,...,1) are rejected as well.
    assert homogeneity_defect(full_mask(n), (0,), n) is None


@given(st.integers(1, 3), st.lists(st.integers(0, 31), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_homogeneity_defect_matches_vector_arithmetic(n, raw_masks):
    masks = [m & full_mask(n) for m in raw_masks]
    for k0 in range(full_mask(n) + 1):
        q = homogeneity_defect(k0, masks, n)
        total = [0] * (n + 2)
        for m in masks:
            for i, v in enumerate(e_vec(m, n)):
                total[i] += v
        diff = [t - v for t, v in zip(total, e_vec(k0, n))]
        if q is None:
            assert len(set(diff)) > 1 or diff[0] < 0
        else:
            assert set(diff) == {q} and q >= 0
