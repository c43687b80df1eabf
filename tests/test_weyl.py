import random
from fractions import Fraction
from itertools import product

import pytest

from koszulmf.lattice import canonical, elements, size
from koszulmf.weyl import (
    FIELD_MAX,
    BadConfig,
    MFConfig,
    bigraded_basis,
    clifford_product,
    decode,
    delta_terms,
    monomial,
    multiply_into,
    scaled_differential,
)
import operator_oracle as oracle
from operator_oracle import (
    InhomogeneousParity,
    OperatorElement,
    delta,
    differential,
    mono_parity,
    mono_qdeg_num,
    mono_weight,
    packed,
    reference_multiply,
    unpacked,
    w_element,
)

F = Fraction


# ---------------------------------------------------------------------------
# Oracle: the operator algebra acts faithfully on R tensor Lambda(theta).
# States are (z-exponent tuple, theta mask); each generator acts in the
# usual exterior-algebra way.  Products are checked against composed
# actions, which pins down the normal ordering rules independently.

def _act_monomial(mono, state):
    a, s, t = mono
    c, x = state
    sign = 1
    for j in reversed(elements(t)):
        bit = 1 << (j - 1)
        if not x & bit:
            return None
        if size(x & (bit - 1)) & 1:
            sign = -sign
        x ^= bit
    for j in reversed(elements(s)):
        bit = 1 << (j - 1)
        if x & bit:
            return None
        if size(x & (bit - 1)) & 1:
            sign = -sign
        x |= bit
    return sign, (tuple(ci + ai for ci, ai in zip(c, a)), x)


def _act(terms, state):
    out = {}
    for mono, coef in terms.items():
        hit = _act_monomial(mono, state)
        if hit is None:
            continue
        sign, new_state = hit
        out[new_state] = out.get(new_state, F(0)) + sign * coef
    return {k: v for k, v in out.items() if v}


def _mul(left, right):
    """left * right on {(a, S, T): coef} dicts through `multiply_into`."""
    if not left or not right:
        return {}
    n2 = len(next(iter(left))[0])
    acc = {}
    multiply_into(acc, 1, packed(left), packed(right), MFConfig(n2 - 2))
    return {m: c for m, c in unpacked(acc, n2).items() if c}


def _composed(left, right, state):
    """The action of left after right on one state of the module."""
    composed = {}
    for st, c in _act(right, state).items():
        for st2, c2 in _act(left, st).items():
            composed[st2] = composed.get(st2, F(0)) + c * c2
    return {k: v for k, v in composed.items() if v}


def _square(cfg):
    """delta^2 on integers, from the program's table of delta's terms."""
    _, table = delta_terms(cfg)
    terms = unpacked(dict(table), cfg.nvars)
    return _mul(terms, terms)


def _random_monomial(rng, cfg, max_exp=2):
    n2 = cfg.nvars
    a = tuple(rng.randrange(max_exp + 1) for _ in range(n2))
    return (a, rng.randrange(1 << n2), rng.randrange(1 << n2))


def test_config_defaults_and_validation():
    cfg = MFConfig(2)
    assert cfg.a == (F(1, 4),) * 4
    MFConfig(1, a=(F(1, 2), F(1, 4), F(1, 4)))
    with pytest.raises(BadConfig):
        MFConfig(1, a=(F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(BadConfig):
        MFConfig(1, a=(F(1), F(0)))
    with pytest.raises(BadConfig):
        MFConfig(0)


def test_dtheta_theta_relation():
    d1 = {((0, 0, 0), 0, 0b001): 1}
    th1 = {((0, 0, 0), 0b001, 0): 1}
    product = _mul(d1, th1)
    assert product == {
        ((0, 0, 0), 0, 0): 1,
        ((0, 0, 0), 0b001, 0b001): -1,
    }
    # Same identity through the module action, on every state of Lambda.
    for x in range(8):
        state = ((0, 0, 0), x)
        assert _act(product, state) == _composed(d1, th1, state)


def test_theta_anticommute():
    th1 = {((0, 0, 0), 0b001, 0): 1}
    th2 = {((0, 0, 0), 0b010, 0): 1}
    assert _mul(th2, th1) == {m: -c for m, c in _mul(th1, th2).items()}
    assert _mul(th1, th1) == {}


def test_multiply_matches_module_action():
    cfg = MFConfig(2)
    rng = random.Random(20240817)
    for _ in range(120):
        e1 = {_random_monomial(rng, cfg): 1}
        e2 = {_random_monomial(rng, cfg): 1}
        product = _mul(e1, e2)
        state = (tuple(rng.randrange(2) for _ in range(4)), rng.randrange(16))
        assert _act(product, state) == _composed(e1, e2, state)


def test_multiply_matches_reference_on_all_n1_masks():
    a1, a2 = (1, 0, 2), (0, 3, 1)
    c1, c2 = F(2, 3), F(-5, 7)
    for s1, t1, s2, t2 in product(range(8), repeat=4):
        m1, m2 = (a1, s1, t1), (a2, s2, t2)
        assert _mul({m1: c1}, {m2: c2}) == reference_multiply(
            m1, c1, m2, c2
        )


@pytest.mark.parametrize("n", [2, 3])
def test_multiply_matches_reference_on_random_pairs(n):
    cfg = MFConfig(n)
    rng = random.Random(4100 + n)
    for _ in range(400):
        m1 = _random_monomial(rng, cfg)
        m2 = _random_monomial(rng, cfg)
        c1 = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        c2 = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        assert _mul({m1: c1}, {m2: c2}) == reference_multiply(
            m1, c1, m2, c2
        )


def test_multiply_matches_module_action_on_all_n1_masks():
    a1, a2 = (0, 1, 0), (2, 0, 1)
    for s1, t1, s2, t2 in product(range(8), repeat=4):
        e1 = {(a1, s1, t1): 3}
        e2 = {(a2, s2, t2): F(-1, 2)}
        prod = _mul(e1, e2)
        for x in range(8):
            state = ((1, 0, 0), x)
            assert _act(prod, state) == _composed(e1, e2, state)


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_product_terms_are_distinct_signs(n):
    # every mask quadruple, on the low parts S << N | T
    n2 = n + 2
    for s1, t1, s2, t2 in product(range(1 << n2), repeat=4):
        terms = clifford_product(s1 << n2 | t1, s2 << n2 | t2, n2)
        assert all(sign in (1, -1) for _, sign in terms)
        assert len({low for low, _ in terms}) == len(terms)


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_product_matches_generator_expansion(n):
    # the closed form against the generator-by-generator expansion, on
    # every mask quadruple: same terms, signs and order
    n2 = n + 2
    for s1, t1, s2, t2 in product(range(1 << n2), repeat=4):
        want = tuple(
            (s << n2 | t, sign)
            for s, t, sign in oracle._reference_masks(s1, t1, s2, t2)
        )
        assert clifford_product(s1 << n2 | t1, s2 << n2 | t2, n2) == want


def _packed_product(left, right, factor, cfg):
    """factor * left * right through `multiply_into`, zeros kept, decoded."""
    acc = {}
    multiply_into(acc, factor, packed(left), packed(right), cfg)
    return unpacked(acc, cfg.nvars)


def _oracle_product(left, right, factor):
    acc = {}
    oracle.multiply_into(acc, factor, left, right)
    return acc


def test_packed_product_matches_tuple_oracle_on_all_n1_pairs():
    # every (S, T) pair of either factor, with zeros and term order kept
    cfg = MFConfig(1)
    for s1, t1, s2, t2 in product(range(8), repeat=4):
        left = {((1, 0, 2), s1, t1): 3, ((0, 2, 0), s1 ^ 1, t1): -2}
        right = {((0, 3, 1), s2, t2): 5}
        want = _oracle_product(left, right, -7)
        got = _packed_product(left, right, -7, cfg)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("n", [2, 3])
def test_packed_product_matches_tuple_oracle_on_random_pairs(n):
    cfg = MFConfig(n)
    rng = random.Random(5200 + n)
    for _ in range(300):
        left = {_random_monomial(rng, cfg): rng.randint(-9, 9)
                for _ in range(rng.randint(1, 4))}
        right = {_random_monomial(rng, cfg): rng.randint(-9, 9)
                 for _ in range(rng.randint(1, 4))}
        want = _oracle_product(left, right, 2)
        got = _packed_product(left, right, 2, cfg)
        assert list(got.items()) == list(want.items())


def test_multiply_associative():
    cfg = MFConfig(1)
    rng = random.Random(7)
    for _ in range(60):
        xs = [
            {
                _random_monomial(rng, cfg): rng.randint(-2, 2),
                _random_monomial(rng, cfg): rng.randint(-2, 2),
            }
            for _ in range(3)
        ]
        x, y, z = xs
        assert _mul(_mul(x, y), z) == _mul(x, _mul(y, z))


def test_delta_terms_symmetric_weights():
    cfg = MFConfig(1)
    scale, table = delta_terms(cfg)
    assert scale == 3
    assert tuple((*decode(m, 3), c) for m, c in table) == (
        ((1, 0, 0), 0, 0b001, 3),
        ((0, 1, 1), 0b001, 0, 1),
        ((0, 1, 0), 0, 0b010, 3),
        ((1, 0, 1), 0b010, 0, 1),
        ((0, 0, 1), 0, 0b100, 3),
        ((1, 1, 0), 0b100, 0, 1),
    )
    # the oracle's delta, written from the formula, is the table over D
    assert delta(cfg).terms == {
        decode(m, 3): F(c, scale) for m, c in table
    }
    assert delta_terms(MFConfig(1)) is delta_terms(cfg)  # one per configuration


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_squares_to_w(n):
    cfg = MFConfig(n)
    scale = delta_terms(cfg)[0]
    assert _square(cfg) == {((1,) * (n + 2), 0, 0): scale * scale}
    d = delta(cfg)
    assert d * d == w_element(cfg)


def test_delta_squares_to_w_asymmetric_weights():
    for a in ((F(1), F(-2), F(2)), (F(1), F(0), F(0)), (F(1, 2), F(1, 3), F(1, 6))):
        cfg = MFConfig(1, a=a)
        scale, table = delta_terms(cfg)
        assert all(type(c) is int and c for *_, c in table)  # zero weights dropped
        assert _square(cfg) == {((1, 1, 1), 0, 0): scale * scale}
        d = delta(cfg)
        assert d * d == w_element(cfg)


def test_differential_generators():
    cfg = MFConfig(2)
    scale = delta_terms(cfg)[0]
    for j in range(4):
        th = monomial((0,) * 4, 1 << j, 0)
        zj = monomial(tuple(1 if i == j else 0 for i in range(4)), 0, 0)
        assert scaled_differential({th: 1}, cfg) == {zj: scale}
        dth = monomial((0,) * 4, 0, 1 << j)
        w_over = monomial(tuple(0 if i == j else 1 for i in range(4)), 0, 0)
        assert scaled_differential({dth: 1}, cfg) == {w_over: cfg.a[j] * scale}


def test_differential_squares_to_zero_on_random_elements():
    for n in (1, 2):
        cfg = MFConfig(n)
        rng = random.Random(300 + n)
        for _ in range(40):
            mono = _random_monomial(rng, cfg)
            x = {monomial(*mono): rng.randint(1, 3)}
            assert scaled_differential(scaled_differential(x, cfg), cfg) == {}


@pytest.mark.parametrize("n", [1, 2])
def test_differential_is_z_equivariant(n):
    # D * d(z^a y) = z^a D * d(y) on every low part: what lets mf-check
    # decide d^2 = 0 on the Clifford monomials alone
    cfg = MFConfig(n)
    n2 = cfg.nvars
    rng = random.Random(310 + n)
    for s in range(1 << n2):
        for t in range(1 << n2):
            a = tuple(rng.randint(0, 3) for _ in range(n2))
            base = scaled_differential({monomial((0,) * n2, s, t): 1}, cfg)
            shifted = {}
            for m, c in base.items():
                b, s_out, t_out = decode(m, n2)
                shifted[(tuple(x + y for x, y in zip(a, b)), s_out, t_out)] = c
            image = scaled_differential({monomial(a, s, t): 1}, cfg)
            assert unpacked(image, n2) == shifted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_differential_squares_to_zero_on_every_clifford_monomial(n):
    cfg = MFConfig(n)
    n2 = cfg.nvars
    for s in range(1 << n2):
        for t in range(1 << n2):
            dx = scaled_differential({monomial((0,) * n2, s, t): 1}, cfg)
            assert scaled_differential(dx, cfg) == {}


def test_differential_rejects_mixed_parity():
    # the oracle's d is the graded commutator of a homogeneous element
    cfg = MFConfig(1)
    mixed = OperatorElement.unit(cfg) + OperatorElement.monomial(
        cfg, (0, 0, 0), 0b001, 0
    )
    with pytest.raises(InhomogeneousParity):
        differential(mixed, cfg)


def test_differential_is_bigraded():
    cfg = MFConfig(2)
    scale = delta_terms(cfg)[0]
    rng = random.Random(99)
    n = cfg.n
    for _ in range(30):
        mono = _random_monomial(rng, cfg)
        m = monomial(*mono)
        w = mono_weight(m, n)
        q = mono_qdeg_num(m, n)
        image = scaled_differential({m: 1}, cfg)
        ref = differential(OperatorElement(cfg, {mono: 1}), cfg)
        assert unpacked(image, 4) == {m: c * scale for m, c in ref.terms.items()}
        assert all(type(c) is int for c in image.values())
        for out_mono in image:
            assert mono_weight(out_mono, n) == w
            assert mono_qdeg_num(out_mono, n) == q + (n + 2)
            assert mono_parity(out_mono, n) == 1 - mono_parity(m, n)


def _brute_piece(wrep, qnum, n, bound):
    # independent enumeration with a hard exponent cap; the cap is safe
    # whenever bound >= (qnum + n(n+2))/2, the max possible |a| in the piece
    from itertools import product as iproduct

    n2 = n + 2
    out = set()
    for a in iproduct(range(bound + 1), repeat=n2):
        for s in range(1 << n2):
            for t in range(1 << n2):
                m = monomial(a, s, t)
                if mono_weight(m, n) == wrep and mono_qdeg_num(m, n) == qnum:
                    out.add((a, s, t))
    return out


def _decoded_basis(wrep, qnum, cfg):
    return [decode(m, cfg.nvars) for m in bigraded_basis(wrep, qnum, cfg)]


def test_bigraded_basis_generator_piece():
    cfg = MFConfig(1)
    basis = _decoded_basis(canonical((-1, 0, 0)), 1, cfg)
    assert set(basis) == _brute_piece(canonical((-1, 0, 0)), 1, 1, 3)
    # any representative of the class names the same piece
    assert _decoded_basis((-1, 0, 0), 1, cfg) == basis
    assert _decoded_basis((4, 5, 5), 1, cfg) == basis
    assert len(basis) == 14
    # the cocycle representing the generator is built from these three
    assert ((0, 0, 0), 0, 0b001) in basis  # dtheta_1
    assert ((0, 0, 1), 0b010, 0) in basis  # z_3 theta_2
    assert ((0, 1, 0), 0b100, 0) in basis  # z_2 theta_3
    assert basis[0] == ((0, 0, 0), 0, 0b001)


@pytest.mark.parametrize("n", [1, 2])
def test_bigraded_basis_generator_piece_contents(n):
    cfg = MFConfig(n)
    basis = _decoded_basis(canonical((-1,) + (0,) * (n + 1)), n, cfg)
    assert ((0,) * (n + 2), 0, 0b001) in basis  # dtheta_1
    for k in range(1, n + 2):
        a = tuple(0 if i in (0, k) else 1 for i in range(n + 2))
        assert (a, 1 << k, 0) in basis  # (W/(z_1 z_k)) theta_k


def test_bigraded_basis_degree_zero_piece():
    cfg = MFConfig(1)
    basis = _decoded_basis((0, 0, 0), 0, cfg)
    assert set(basis) == _brute_piece((0, 0, 0), 0, 1, 3)
    assert ((0, 0, 0), 0, 0) in basis
    for j in range(3):
        assert ((0, 0, 0), 1 << j, 1 << j) in basis
    assert len(basis) == 14


def test_bigraded_basis_empty_piece():
    cfg = MFConfig(1)
    assert bigraded_basis((0, 0, 0), -2, cfg) == []


def test_bigraded_basis_membership_is_exact():
    cfg = MFConfig(2)
    rng = random.Random(5)
    for _ in range(25):
        mono = _random_monomial(rng, cfg)
        w = mono_weight(monomial(*mono), cfg.n)
        q = mono_qdeg_num(monomial(*mono), cfg.n)
        assert mono in _decoded_basis(w, q, cfg)


def test_bigraded_basis_rejects_exponent_overflow():
    # weight 0, degree 2m at n=1: the pairs with |S| = |T| sit on
    # m(1, 1, 1) and reach m + 1, those with |S| - |T| = 2 reach m + 1
    cfg = MFConfig(1)
    w = (0, 0, 0)
    fits = bigraded_basis(w, 6 * (FIELD_MAX - 1), cfg)
    assert [decode(m, 3) for m in fits] == oracle.bigraded_basis(
        w, 6 * (FIELD_MAX - 1), cfg
    )
    assert max(max(decode(m, 3)[0]) for m in fits) == FIELD_MAX
    beyond = oracle.bigraded_basis(w, 6 * FIELD_MAX, cfg)
    assert max(max(a) for a, _, _ in beyond) == FIELD_MAX + 1
    with pytest.raises(ValueError):
        bigraded_basis(w, 6 * FIELD_MAX, cfg)
    with pytest.raises(ValueError):
        monomial((0, FIELD_MAX + 1, 0), 0, 0)
    # a product whose exponent overflows carries into the field above,
    # which moves it to another weight class than the true product's
    low, high = 100, FIELD_MAX + 1 - 100 + 44
    acc = {}
    multiply_into(acc, 1, {monomial((0, low, 0), 0, 0): 1},
                  {monomial((0, high, 0), 0, 0): 1}, cfg)
    (carried,) = acc
    assert decode(carried, 3) == ((1, 44, 0), 0, 0)
    assert mono_weight(carried, 1) != canonical((0, low + high, 0))
    with pytest.raises(ValueError):
        monomial((0, -1, 0), 0, 0)


def test_monomial_layout_round_trips():
    # a_1 most significant, then S, then T in the low 2N bits
    assert monomial((1, 0, 0), 0b010, 0b100) == (1 << 16 + 6) | 0b010100
    assert monomial((0, 0, 0), 0, 0) == 0
    rng = random.Random(12)
    for n in (1, 2, 3):
        cfg = MFConfig(n)
        for _ in range(50):
            mono = _random_monomial(rng, cfg, max_exp=FIELD_MAX)
            assert decode(monomial(*mono), cfg.nvars) == mono
