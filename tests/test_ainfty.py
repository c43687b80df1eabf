import random
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from math import comb

import pytest

from koszulmf import ainfty
from koszulmf.ainfty import (
    _cyclotomic,
    _decode_key,
    _joined_terms,
    _splitter,
    _tail_sign,
    _total,
    Cyc,
    FiniteAbelianGroupData,
    FiniteAInftyAlgebra,
    Inconsistent,
    RequiresMinimal,
    check_stasheff,
    exterior_normalize,
    from_minimal_model,
    hkr_dim,
    opposite,
    opposite_sign,
    smash,
    supercommutativity_check,
    wedge_algebra,
)
from koszulmf.lattice import e_vec, size
from koszulmf.minimal import build_minimal_model
from koszulmf.weyl import MFConfig
from test_lattice import cover_residue

F = Fraction


@pytest.fixture(scope="module")
def alg_n1():
    model = build_minimal_model(MFConfig(1), arities=(2, 3, 4))
    return from_minimal_model(model)


# ---------------------------------------------------------------- coefficients


def test_cyc_arithmetic():
    a = Cyc(F(1, 2), 1, 3)
    b = Cyc(F(1, 3), 4, 3)  # exponent normalizes to 1
    assert (a + b).mag == F(5, 6) and (a + b).exp == 1
    assert a + Cyc(F(0), 2, 3) == a
    assert (a * b) == Cyc(F(1, 6), 2, 3)
    assert (-a).mag == F(-1, 2)
    assert 0 + a == a
    assert (-1) * a == -a
    assert not Cyc(F(0), 2, 3)
    with pytest.raises(ValueError):
        a + Cyc(F(1), 2, 3)
    with pytest.raises(ValueError):
        a * Cyc(F(1), 0, 5)


# --------------------------------------------------------------------- checker


def test_wedge_is_consistent():
    alg = wedge_algebra(1)
    # one mu^2 entry per pair of disjoint subsets of a 3-element set
    assert len(alg.ops[2]) == 3 ** 3
    alg.validate_graded()
    assert check_stasheff(alg, 4) == []
    assert _exhaustive_stasheff(alg, 3) == []


def test_checker_flags_a_flipped_sign():
    alg = wedge_algebra(1)
    key = (0b011, (0b001, 0b010))
    alg.ops[2][key] = -alg.ops[2][key]
    joined = check_stasheff(alg, 3)
    assert joined
    assert joined == _exhaustive_stasheff(alg, 3)
    for arity, tup, out, total in joined:
        assert arity == 3 and total != 0


def _cancelling_cyc_algebra(last):
    # the one arity-3 identity has the three terms 1, zeta and last * zeta^2
    z = lambda mag, exp: Cyc(F(mag), exp, 3)
    basis = ["x", "y", "z", "m1", "m2", "m3", "o"]
    ops = {2: {
        ("m1", ("x", "y")): z(1, 0),
        ("m2", ("x", "y")): z(1, 1),
        ("o", ("m1", "z")): z(1, 0),
        ("o", ("m2", "z")): z(1, 0),
        ("m3", ("y", "z")): z(1, 0),
        ("o", ("x", "m3")): z(last, 2),
    }}
    return FiniteAInftyAlgebra(basis, {b: 1 for b in basis}, ops)


def test_checker_cancels_through_cyclotomic_relation():
    alg = _cancelling_cyc_algebra(1)
    assert check_stasheff(alg, 3) == []
    assert _exhaustive_stasheff(alg, 3) == []
    broken = _cancelling_cyc_algebra(2)
    joined = check_stasheff(broken, 3)
    assert joined == _exhaustive_stasheff(broken, 3)
    assert joined == [(3, ("x", "y", "z"), "o", (
        Cyc(F(1), 0, 3), Cyc(F(1), 1, 3), Cyc(F(2), 2, 3),
    ))]


def test_model_passes_stasheff(alg_n1):
    alg_n1.validate_graded()
    # tables at arity 2, 3, 4 decide every identity up to arity 5
    assert check_stasheff(alg_n1, 5) == []


@pytest.mark.parametrize("k", [2, 4])
def test_validate_graded_rejects_a_moved_output_and_a_shifted_degree(alg_n1, k):
    (out, ins), coef = next(
        (key, c) for key, c in alg_n1.ops[k].items() if c
    )

    def with_entry(key, qdeg):
        return FiniteAInftyAlgebra(alg_n1.basis, alg_n1.zdeg, {k: {key: coef}},
                                   alg_n1.weight, qdeg)

    with_entry((out, ins), alg_n1.qdeg).validate_graded()
    # one coordinate of the output's weight moves
    with pytest.raises(ValueError, match="weight not additive"):
        with_entry((out ^ 1, ins), alg_n1.qdeg).validate_graded()
    shifted = dict(alg_n1.qdeg)
    shifted[out] += Fraction(1, 3)
    with pytest.raises(ValueError, match=f"degree of mu\\^{k} is not 2-{k}"):
        with_entry((out, ins), shifted).validate_graded()


# ------------------------------------------------- join oracles and pruning


def _order(alg):
    orders = {
        c.order for table in alg.ops.values() for c in table.values()
        if isinstance(c, Cyc)
    }
    return orders.pop() if orders else None


def _add_term(totals, key, term):
    """Add a Fraction or Cyc term to totals[key + (its exponent,)]."""
    exp, mag = (term.exp, term.mag) if isinstance(term, Cyc) else (0, term)
    totals[key + (exp,)] = totals.get(key + (exp,), 0) + mag


def _violations(totals, order):
    """Sorted violated identities from per-(identity, exponent) totals."""
    phi = _cyclotomic(order) if order else None
    by_identity = {}
    for (m, tup, out, exp), mag in totals.items():
        if mag:
            by_identity.setdefault((m, tup, out), {})[exp] = mag
    violations = []
    for (m, tup, out), by_exp in by_identity.items():
        total = _total(by_exp, order, phi)
        if total:
            violations.append((m, tup, out, total))
    violations.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    return violations


def _reference_join(alg, max_arity):
    """The replaced default join of `check_stasheff`: every stored entry
    against every outer slot with its label, arity filtered afterwards,
    terms formed as Fraction or Cyc products."""
    totals = {}
    by_label = {}
    for k_out, tout in alg.ops.items():
        for (out, ins), c_out in tout.items():
            if not c_out:
                continue
            for p, label in enumerate(ins):
                by_label.setdefault(label, []).append((out, ins, c_out, p))
    for k_in, tin in alg.ops.items():
        for (mid, inner), c_in in tin.items():
            if not c_in:
                continue
            for out, ins, c_out, p in by_label.get(mid, ()):
                m = len(ins) - 1 + k_in
                if m > max_arity:
                    continue
                tup = ins[:p] + inner + ins[p + 1:]
                term = _tail_sign(alg.zdeg, ins[p + 1:]) * (c_out * c_in)
                _add_term(totals, (m, tup, out), term)
    return _violations(totals, _order(alg))


def _exhaustive_stasheff(alg, max_arity):
    """The replaced exhaustive mode of `check_stasheff`: every identity on
    every basis tuple up to max_arity, each term a Fraction or Cyc
    product (only sensible for small algebras)."""
    totals = {}
    for m in range(1, max_arity + 1):
        for tup in iproduct(alg.basis, repeat=m):
            for a in range(1, m + 1):
                tin = alg.ops.get(a)
                tout = alg.ops.get(m - a + 1)
                if not tin or not tout:
                    continue
                for p in range(0, m - a + 1):
                    inner = tup[p:p + a]
                    sign = _tail_sign(alg.zdeg, tup[p + a:])
                    for mid in alg.basis:
                        c_in = tin.get((mid, inner))
                        if not c_in:
                            continue
                        outer = tup[:p] + (mid,) + tup[p + a:]
                        for out in alg.basis:
                            c_out = tout.get((out, outer))
                            if c_out:
                                _add_term(totals, (m, tup, out),
                                          sign * (c_out * c_in))
    return _violations(totals, _order(alg))


def _typed(violations):
    """Violations with the type of every total and of every Cyc magnitude."""
    return [
        (rec, type(rec[3]),
         tuple((type(t), type(t.mag)) for t in rec[3])
         if isinstance(rec[3], tuple) else None)
        for rec in violations
    ]


def _assert_same_as_reference(alg, max_arity):
    joined = check_stasheff(alg, max_arity)
    assert _typed(joined) == _typed(_reference_join(alg, max_arity))
    return joined


@pytest.fixture(scope="module")
def smash_z3(alg_n1):
    return smash(alg_n1, _sum_map_group(1))


def _twisted(smash_z3):
    """smash_z3 with one mu^2 entry times zeta: violated identities."""
    twisted = FiniteAInftyAlgebra(
        smash_z3.basis, smash_z3.zdeg,
        {k: dict(table) for k, table in smash_z3.ops.items()},
    )
    key = ((0b011, (2,)), ((0b001, (1,)), (0b010, (1,))))
    twisted.ops[2][key] = twisted.ops[2][key] * Cyc(F(1), 1, 3)
    return twisted


def test_join_matches_reference_on_z3_smash(smash_z3):
    assert _assert_same_as_reference(smash_z3, 4) == []
    assert _assert_same_as_reference(_twisted(smash_z3), 4)
    flipped = FiniteAInftyAlgebra(
        smash_z3.basis, smash_z3.zdeg,
        {k: dict(table) for k, table in smash_z3.ops.items()},
    )
    key = sorted(key for key, c in flipped.ops[3].items() if c)[7]
    flipped.ops[3][key] = -flipped.ops[3][key]
    assert _assert_same_as_reference(flipped, 4)


def test_stasheff_decodes_and_makes_fractions_only_for_nonzero_totals(
        smash_z3, monkeypatch):
    calls = defaultdict(int)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ainfty, "_decode_key", counted("decode", _decode_key))
    monkeypatch.setattr(ainfty, "Fraction", counted("fraction", Fraction))
    assert check_stasheff(smash_z3, 4) == []
    assert calls == {}
    twisted = _twisted(smash_z3)
    assert check_stasheff(twisted, 4)
    split, _ = _splitter(twisted.ops.values())
    _, groups = _joined_terms(twisted, 4, split, 3)
    nonzero = sum(1 for _, totals in groups for mag in totals.values() if mag)
    assert calls["decode"] == nonzero > 0


def test_join_matches_reference_on_mutated_model(alg_n1):
    rng = random.Random(20261018)
    for trial in range(6):
        ops = {k: dict(table) for k, table in alg_n1.ops.items()}
        k = (2, 3, 4)[trial % 3]
        keys = sorted(key for key, c in ops[k].items() if c)
        for key in rng.sample(keys, 3):
            ops[k][key] = ops[k][key] * rng.choice([-1, 2, 0])
        alg = FiniteAInftyAlgebra(alg_n1.basis, alg_n1.zdeg, ops)
        assert _assert_same_as_reference(alg, 5)


def _random_algebra(rng, nlabels, cyc_order):
    """A small random algebra (not A-infinity) exercising the join's
    pruning: a nonzero mu^1, so k_min = 1; mu^2 and mu^3; an all-zero
    mu^4; a mu^6 above every arity checked."""
    basis = list(range(nlabels))
    zdeg = {b: rng.randrange(4) for b in basis}

    def coef():
        mag = F(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2, 3]))
        return Cyc(mag, rng.randrange(cyc_order), cyc_order) if cyc_order else mag

    def table(k, count, value=coef):
        return {
            (rng.choice(basis), tuple(rng.choice(basis) for _ in range(k))): value()
            for _ in range(count)
        }

    zero = Cyc(F(0), 0, cyc_order) if cyc_order else F(0)
    ops = {
        1: table(1, 3),
        2: table(2, 8),
        3: table(3, 6),
        4: table(4, 5, lambda: zero),
        6: table(6, 4),
    }
    return FiniteAInftyAlgebra(basis, zdeg, ops)


@pytest.mark.parametrize("cyc_order", [None, 3, 4])
def test_join_matches_exhaustive_on_random_algebras(cyc_order):
    rng = random.Random(31 + (cyc_order or 0))
    for trial in range(3):
        alg = _random_algebra(rng, 4 + trial, cyc_order)
        if trial == 2:
            del alg.ops[1]  # k_min = 2: mu^3 is then no outer factor at arity 3
        for max_arity in range(1, 6):
            joined = check_stasheff(alg, max_arity)
            exhaustive = _exhaustive_stasheff(alg, max_arity)
            assert _typed(joined) == _typed(exhaustive)
            assert _typed(joined) == _typed(_reference_join(alg, max_arity))
            if max_arity >= 3:
                assert joined


@pytest.mark.parametrize("cyc_order", [None, 3, 4])
@pytest.mark.parametrize("nlabels", [7, 8, 9])
def test_packed_keys_at_digit_width_edges(nlabels, cyc_order):
    # ids 1..7 fit 3-bit digits, 8 and 9 need 4; a mu^1 cycle through
    # every label indexes all of them at every arity, with 0 leading one
    rng = random.Random(59 + nlabels + (cyc_order or 0))
    alg = _random_algebra(rng, nlabels, cyc_order)
    for x in alg.basis:
        mag = F(rng.choice([1, -1, 2]))
        alg.ops[1][((x + 1) % nlabels, (x,))] = (
            Cyc(mag, x, cyc_order) if cyc_order else mag)
    split, _ = _splitter(alg.ops.values())
    for max_arity in range(1, 6):
        (labels, width, _), _ = _joined_terms(alg, max_arity, split, cyc_order or 1)
        assert sorted(labels[1:]) == alg.basis
        assert width == (3 if nlabels == 7 else 4)
        joined = check_stasheff(alg, max_arity)
        assert _typed(joined) == _typed(_exhaustive_stasheff(alg, max_arity))
        assert _typed(joined) == _typed(_reference_join(alg, max_arity))
        assert any(tup[0] == 0 for _, tup, _, _ in joined)


def _ungrouped_terms(alg, max_arity, split, modulus):
    """The replaced join of `check_stasheff`: ((arity, tuple, output,
    exponent), scaled magnitude) for every term of every identity at
    once, outer slots indexed by (slot label, outer arity) alone."""
    arities = sorted(k for k, table in alg.ops.items() if any(table.values()))
    k_min = min(arities, default=0)
    outer = [k for k in arities if k + k_min - 1 <= max_arity]
    index = {}
    for k_out in outer:
        for (out, ins), c_out in alg.ops[k_out].items():
            if not c_out:
                continue
            mag, exp = split(c_out)
            for p, label in enumerate(ins):
                signed = _tail_sign(alg.zdeg, ins[p + 1:]) * mag
                index.setdefault((label, k_out), []).append((out, ins, p, signed, exp))
    for k_in in arities:
        reach = [k for k in outer if k + k_in - 1 <= max_arity]
        if not reach:
            continue
        for (mid, inner), c_in in alg.ops[k_in].items():
            if not c_in:
                continue
            mag_in, exp_in = split(c_in)
            for k_out in reach:
                m = k_out + k_in - 1
                for out, ins, p, signed, exp in index.get((mid, k_out), ()):
                    tup = ins[:p] + inner + ins[p + 1:]
                    yield (m, tup, out, (exp + exp_in) % modulus), signed * mag_in


def _assert_grouped(alg, max_arity):
    """Each group of `_joined_terms` shares one leading label, no two
    groups share a key, and the merged sums equal the ungrouped join's.
    Returns the leading labels in the order the groups came."""
    split, _ = _splitter(alg.ops.values())
    modulus = _order(alg) or 1
    merged, leads = {}, []
    keys, groups = _joined_terms(alg, max_arity, split, modulus)
    for lead, totals in groups:
        decoded = {_decode_key(key, *keys): mag for key, mag in totals.items()}
        assert len(decoded) == len(totals)
        assert {tup[0] for _, tup, _, _ in decoded} <= {lead}
        assert not merged.keys() & decoded.keys()
        merged.update(decoded)
        leads.append(lead)
    ungrouped = defaultdict(int)
    for key, mag in _ungrouped_terms(alg, max_arity, split, modulus):
        ungrouped[key] += mag
    assert merged == ungrouped
    return leads


def test_groups_partition_the_join_on_z3_smash(smash_z3):
    leads = _assert_grouped(smash_z3, 4)
    assert len(leads) == len(set(leads)) == len(smash_z3.basis)


def test_groups_partition_the_join_on_n1_model(alg_n1):
    # at arity 5 mu^4 is the outer factor in all four slots, so every
    # entry of a record's per-slot signed magnitudes is used
    assert max(alg_n1.ops) == 4
    _assert_grouped(alg_n1, 5)


@pytest.mark.parametrize("cyc_order", [None, 3, 4])
def test_groups_partition_the_join_on_random_algebras(cyc_order):
    rng = random.Random(47 + (cyc_order or 0))
    for trial in range(3):
        alg = _random_algebra(rng, 4 + trial, cyc_order)
        for max_arity in range(1, 6):
            _assert_grouped(alg, max_arity)


def test_groups_include_labels_missing_from_the_basis():
    # the label 9 leads entries and identities, but the basis lists only
    # the random algebra's labels 0..3
    rng = random.Random(53)
    alg = _random_algebra(rng, 4, 3)
    alg.zdeg[9] = 1
    one = Cyc(F(1), 0, 3)
    alg.ops[2].update({
        (9, (0, 1)): one,
        (1, (9, 9)): one,
        (2, (9, 3)): Cyc(F(2), 1, 3),
    })
    for max_arity in range(2, 5):
        assert 9 in _assert_grouped(alg, max_arity)
        joined = _assert_same_as_reference(alg, max_arity)
    assert any(tup[0] == 9 for _, tup, _, _ in joined)


def test_stasheff_peak_memory_is_bounded_by_one_group(smash_z3):
    # The ungrouped join peaked at 7.4 MiB here, with every identity's
    # totals alive at once.  The bound is tied to CPython 3.11's object
    # sizes (dicts, tuples, ints); another interpreter may need a new one.
    tracemalloc.start()
    try:
        assert check_stasheff(smash_z3, 4) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# -------------------------------------------------------------------- opposite


def test_opposite_sign_even_pair_is_plain_swap():
    assert opposite_sign([0, 0]) == 0
    assert opposite_sign([1, 1]) == 1
    assert opposite_sign([1, 0]) == 1


def test_opposite_involution(alg_n1):
    back = opposite(opposite(alg_n1))
    assert back.ops == alg_n1.ops
    assert back.zdeg == alg_n1.zdeg


def test_opposite_of_model_is_consistent(alg_n1):
    assert check_stasheff(opposite(alg_n1), 5) == []


def _rescale(alg, rng):
    """A random diagonal change of basis; preserves consistency exactly."""
    scales = {x: rng.choice([1, -1]) * F(rng.choice([1, 2, 3]),
                                         rng.choice([1, 2]))
              for x in alg.basis}
    ops = {}
    for k, table in alg.ops.items():
        new = {}
        for (out, ins), coef in table.items():
            factor = F(1)
            for x in ins:
                factor *= scales[x]
            new[(out, ins)] = coef * factor / scales[out]
        ops[k] = new
    return FiniteAInftyAlgebra(list(alg.basis), dict(alg.zdeg), ops)


def _small_dga():
    # mu^1(a) = x, mu^1(b) = y, and an even idempotent u: consistent by hand
    basis = ["a", "b", "u", "x", "y", "z"]
    zdeg = {"a": 0, "b": 2, "u": 0, "x": 1, "y": 3, "z": 4}
    ops = {
        1: {("x", ("a",)): F(1), ("y", ("b",)): F(1)},
        2: {("u", ("u", "u")): F(1)},
    }
    return FiniteAInftyAlgebra(basis, zdeg, ops)


def test_opposite_preserves_consistency_on_random_algebras():
    rng = random.Random(20240822)
    seeds = [wedge_algebra(0), _small_dga()]
    for trial in range(50):
        alg = _rescale(seeds[trial % 2], rng)
        assert check_stasheff(alg, 4) == []
        assert check_stasheff(opposite(alg), 4) == []
        assert opposite(opposite(alg)).ops == alg.ops


def test_reversal_sign_matches_cardinality_formula():
    # the closed form in terms of |K_0| and the input cardinalities,
    # checked against the degree formula on every multiset of sizes
    for n in range(1, 5):
        for q in range(0, 3):
            k = 2 + n * q
            for cards in combinations_with_replacement(range(n + 3), k):
                k0 = sum(cards) - (n + 2) * q
                if not 0 <= k0 <= n + 2:
                    continue
                pairs = sum(
                    cards[j] * cards[l] for j in range(k)
                    for l in range(j + 1, k)
                )
                lemma = (n * q * (n * q - 1) // 2 + (1 + n * q) * k0 + pairs) % 2
                assert opposite_sign(list(cards)) == lemma


# ----------------------------------------------------- commutativity and signs


def test_supercommutativity(alg_n1):
    assert supercommutativity_check(wedge_algebra(1)) is True
    assert supercommutativity_check(alg_n1) is True


def test_supercommutativity_negative_control():
    alg = FiniteAInftyAlgebra(
        ["a", "b", "c"], {"a": 1, "b": 1, "c": 2},
        {2: {("c", ("a", "b")): F(1)}},
    )
    assert supercommutativity_check(alg) is False


def test_supercommutativity_needs_minimal():
    alg = FiniteAInftyAlgebra(
        ["a", "x"], {"a": 0, "x": 1}, {1: {("x", ("a",)): F(1)}},
    )
    with pytest.raises(RequiresMinimal):
        supercommutativity_check(alg)


def test_normalize_wedge_gives_plus_one():
    for n in (1, 2):
        sigma = exterior_normalize(wedge_algebra(n), n)
        assert set(sigma.values()) == {1}
        assert len(sigma) == 1 << (n + 2)


def test_normalize_model(alg_n1):
    sigma = exterior_normalize(alg_n1, 1)
    assert set(sigma.values()) <= {1, -1}
    assert sigma[0] == 1
    for j in range(3):
        assert sigma[1 << j] == 1
    assert sigma == exterior_normalize(alg_n1, 1)


def test_normalize_rejects_all_plus_one():
    n = 1
    basis = list(range(8))
    zdeg = {m: size(m) for m in basis}
    table = {(x | y, (x, y)): F(1)
             for x in basis for y in basis if not x & y}
    alg = FiniteAInftyAlgebra(basis, zdeg, {2: table})
    with pytest.raises(Inconsistent):
        exterior_normalize(alg, n)


def test_normalize_preconditions():
    bad = FiniteAInftyAlgebra(
        [0, 1], {0: 0, 1: 1}, {2: {(1, (1, 1)): F(1)}},
    )
    with pytest.raises(ValueError):
        exterior_normalize(bad, -1)
    scaled = wedge_algebra(1)
    key = next(iter(scaled.ops[2]))
    scaled.ops[2][key] = F(2)
    with pytest.raises(ValueError):
        exterior_normalize(scaled, 1)
    with_mu1 = FiniteAInftyAlgebra(
        [0, 1], {0: 0, 1: 1}, {1: {(1, (0,)): F(1)}},
    )
    with pytest.raises(RequiresMinimal):
        exterior_normalize(with_mu1, 1)


# ----------------------------------------------------------------------- smash


def _sum_map_group(n):
    n2 = n + 2
    return FiniteAbelianGroupData((n2,), tuple((1,) for _ in range(n2)))


def test_group_data_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroupData((0,), ((0,),))
    with pytest.raises(ValueError):
        FiniteAbelianGroupData((3,), ((1, 0),))
    with pytest.raises(ValueError):
        FiniteAbelianGroupData((3,), ((1,), (1,), (2,)))
    grp = _sum_map_group(1)
    assert grp.order == 3 and grp.modulus == 3
    assert len(grp.characters()) == 3
    assert grp.pair((1,), (2,)) == 2
    assert grp.pair((2,), (2,)) == 1


def test_smash_with_trivial_group(alg_n1):
    grp = FiniteAbelianGroupData((1,), tuple((0,) for _ in range(3)))
    sm = smash(alg_n1, grp)
    assert sm.dim() == alg_n1.dim()
    for k, table in alg_n1.ops.items():
        wrapped = {
            ((out, (0,)), tuple((x, (0,)) for x in ins)): Cyc(c, 0, 1)
            for (out, ins), c in table.items()
        }
        assert sm.ops[k] == wrapped


def test_smash_rejects_rho_with_wrong_row_count(alg_n1):
    # n = 1 weights have 3 entries; rho needs one row per variable
    for rho in (((1,), (2,)), (), ((1,), (1,), (0,), (1,))):
        with pytest.raises(ValueError, match="rows"):
            smash(alg_n1, FiniteAbelianGroupData((3,), rho))


def _reference_smash(alg, grp):
    """The replaced loop of `smash`: one `pair` call per twisted slot and
    character tuples rebuilt for every entry."""
    chars = grp.characters()
    m = grp.modulus
    nfac = len(grp.factors)
    rho_w = {a: grp.apply(alg.weight[a]) for a in alg.basis}
    ops = {}
    for k, table in alg.ops.items():
        new = {}
        for (out, ins), coef in table.items():
            if not coef:
                continue
            for chis in iproduct(chars, repeat=k):
                exp = 0
                run = (0,) * nfac
                for idx in range(1, k):
                    run = tuple(
                        (run[i] + chis[idx - 1][i]) % grp.factors[i]
                        for i in range(nfac)
                    )
                    exp += grp.pair(run, rho_w[ins[idx]])
                out_chi = (0,) * nfac
                for chi in chis:
                    out_chi = tuple(
                        (out_chi[i] + chi[i]) % grp.factors[i]
                        for i in range(nfac)
                    )
                key = (
                    (out, out_chi),
                    tuple((ins[i], chis[i]) for i in range(k)),
                )
                new[key] = Cyc(coef, exp, m)
        ops[k] = new
    return ops


def test_smash_matches_reference(alg_n1):
    z6 = FiniteAbelianGroupData((6,), ((1,), (2,), (3,)))
    for grp in (_sum_map_group(1), z6):
        assert smash(alg_n1, grp).ops == _reference_smash(alg_n1, grp)
    # Z3 x Z3 on the arity 2 and 3 tables only, to stay small
    low = FiniteAInftyAlgebra(
        alg_n1.basis, alg_n1.zdeg, {k: alg_n1.ops[k] for k in (2, 3)},
        alg_n1.weight, alg_n1.qdeg,
    )
    grp = FiniteAbelianGroupData((3, 3), ((1, 0), (0, 1), (2, 2)))
    assert smash(low, grp).ops == _reference_smash(low, grp)


def test_smash_dimension_with_weight_mod_group(alg_n1):
    # Gamma_1 = (Z^3 / diagonal) tensor Z_3, of order 3^2
    grp = FiniteAbelianGroupData((3, 3), ((1, 0), (0, 1), (2, 2)))
    assert grp.order == 3 ** 2
    sm = smash(alg_n1, grp)
    assert sm.dim() == grp.order * alg_n1.dim() == 72


def test_smash_with_sum_map_passes_stasheff(alg_n1):
    sm = smash(alg_n1, _sum_map_group(1))
    assert sm.dim() == 24
    sm.validate_graded()
    assert check_stasheff(sm, 4) == []


def test_checker_reports_a_zeta_twisted_smash_entry():
    # terms of one identity then carry different exponents; they are
    # reported, not added as Cyc
    alg = from_minimal_model(build_minimal_model(MFConfig(1), arities=(2,)))
    sm = smash(alg, _sum_map_group(1))
    assert check_stasheff(sm, 3) == []
    key = ((0b011, (2,)), ((0b001, (1,)), (0b010, (1,))))
    sm.ops[2][key] = sm.ops[2][key] * Cyc(F(1), 1, 3)
    violations = check_stasheff(sm, 3)
    assert violations
    for arity, _, _, total in violations:
        assert arity == 3
        assert total and all(isinstance(t, Cyc) and t for t in total)


def test_smash_twist_exponent_is_visible(alg_n1):
    # a nontrivial character left of a weighted slot must twist the entry
    grp = _sum_map_group(1)
    sm = smash(alg_n1, grp)
    key = ((0b011, (2,)), ((0b001, (1,)), (0b010, (1,))))
    coef = sm.ops[2][key]
    # weight of the right slot is the class of -e_2, residue 2 mod 3
    assert coef == Cyc(F(-1), 2, 3)


def exterior_residue_dims(n):
    """Number of subsets of [n+2] per cardinality residue mod n+2.

    Residue 0 collects the empty and the full subset; this is the block
    dimension pattern of the smash with Z_{n+2} through the coordinate
    sum map.
    """
    n2 = n + 2
    out = {r: 0 for r in range(n2)}
    for mask in range(1 << n2):
        out[size(mask) % n2] += 1
    return out


def test_smash_block_dimensions(alg_n1):
    sm = smash(alg_n1, _sum_map_group(1))
    counts = {}
    for a, chi in sm.basis:
        r = cover_residue(sm.weight[(a, chi)], 1)
        counts[(chi, r)] = counts.get((chi, r), 0) + 1
    pattern = exterior_residue_dims(1)
    for chi in _sum_map_group(1).characters():
        for r, dim in pattern.items():
            assert counts[(chi, r)] == dim


def test_exterior_residue_dims():
    assert exterior_residue_dims(1) == {0: 2, 1: 3, 2: 3}
    assert exterior_residue_dims(2) == {0: 2, 1: 4, 2: 6, 3: 4}
    for n in range(1, 5):
        dims = exterior_residue_dims(n)
        assert dims[0] == 2
        for r in range(1, n + 2):
            assert dims[r] == comb(n + 2, r)
        assert sum(dims.values()) == 1 << (n + 2)


# ------------------------------------------------------------------ dimensions


def test_hkr_named_values():
    for n in range(1, 5):
        assert hkr_dim(n, 2, -n) == 1
        for d in range(3, 3 * (n + 2) + 1):
            expect = 1 if d == n + 2 else 0
            assert hkr_dim(n, 2, 2 - d) == expect
        assert hkr_dim(n, 0, 0) == 1
        assert hkr_dim(n, 0, 1) == 0


def _hkr_brute(n, r, t):
    n2 = n + 2
    count = 0
    for q in range(-1, max(r, 0) + 2):
        for kmask in range(1 << n2):
            a = [x + q for x in e_vec(kmask, n)]
            if any(x < 0 for x in a):
                continue
            s = sum(a)
            if s != r - t:
                continue
            if F(2 * s + n * size(kmask), n2) == r:
                count += 1
    return count


def test_hkr_matches_brute_force():
    for n in (1, 2, 3):
        for r in range(0, 7):
            for t in range(-8, 9):
                assert hkr_dim(n, r, t) == _hkr_brute(n, r, t), (n, r, t)
