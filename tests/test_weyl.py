import random
from fractions import Fraction
from itertools import product

import pytest

from koszulmf.lattice import LatticeClass, elements, size
from koszulmf.weyl import (
    BadConfig,
    InhomogeneousParity,
    MFConfig,
    OperatorElement,
    bigraded_basis,
    clifford_product,
    delta,
    differential,
    mono_parity,
    mono_qdeg_num,
    mono_weight,
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


def _act(element, state):
    out = {}
    for mono, coef in element.terms.items():
        hit = _act_monomial(mono, state)
        if hit is None:
            continue
        sign, new_state = hit
        out[new_state] = out.get(new_state, F(0)) + sign * coef
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Oracle: the generator-by-generator product that the mask-keyed Clifford
# table replaced.  It applies the word of the left factor to the right one
# generator at a time, right to left, with Fraction coefficients.

def _insert_sign(mask, j):
    return -1 if size(mask & ((1 << j) - 1)) & 1 else 1


def _add_term(out, mono, coef):
    cur = out.get(mono, F(0)) + coef
    if cur:
        out[mono] = cur
    else:
        out.pop(mono, None)


def _ref_apply_theta(j, coef, mono, out):
    a, s, t = mono
    if not s & (1 << j):
        _add_term(out, (a, s | 1 << j, t), coef * _insert_sign(s, j))


def _ref_push_dtheta(j, coef, mono, out):
    a, s, t = mono
    if not t & (1 << j):
        _add_term(out, (a, s, t | 1 << j), coef * _insert_sign(t, j))


def _ref_apply_dtheta(j, coef, mono, out):
    a, s, t = mono
    bit = 1 << j
    if s & bit:
        # dtheta_j theta_S = (-1)^pos theta_{S-j} + (-1)^{|S|} theta_S dtheta_j
        _add_term(out, (a, s ^ bit, t), coef * _insert_sign(s, j))
    pass_sign = -1 if size(s) & 1 else 1
    _ref_push_dtheta(j, coef * pass_sign, mono, out)


def _reference_multiply(m1, c1, m2, c2):
    a1, s1, t1 = m1
    terms = {m2: F(c1) * F(c2)}
    for j in reversed(elements(t1)):
        nxt = {}
        for mono, coef in terms.items():
            _ref_apply_dtheta(j - 1, coef, mono, nxt)
        terms = nxt
    for j in reversed(elements(s1)):
        nxt = {}
        for mono, coef in terms.items():
            _ref_apply_theta(j - 1, coef, mono, nxt)
        terms = nxt
    return {
        (tuple(x + y for x, y in zip(a, a1)), s, t): coef
        for (a, s, t), coef in terms.items()
    }


def _product_terms(cfg, m1, c1, m2, c2):
    """Terms of the product of two monomial `OperatorElement`s."""
    e1 = OperatorElement(cfg, {m1: c1})
    e2 = OperatorElement(cfg, {m2: c2})
    return (e1 * e2).terms


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
    cfg = MFConfig(1)
    d1 = OperatorElement.monomial(cfg, (0, 0, 0), 0, 0b001)
    th1 = OperatorElement.monomial(cfg, (0, 0, 0), 0b001, 0)
    product = d1 * th1
    expected = OperatorElement(
        cfg,
        {
            ((0, 0, 0), 0, 0): F(1),
            ((0, 0, 0), 0b001, 0b001): F(-1),
        },
    )
    assert product == expected
    # Same identity through the module action, on every state of Lambda.
    for x in range(8):
        state = ((0, 0, 0), x)
        composed = {}
        for st, c in _act(th1, state).items():
            for st2, c2 in _act(d1, st).items():
                composed[st2] = composed.get(st2, F(0)) + c * c2
        composed = {k: v for k, v in composed.items() if v}
        assert _act(product, state) == composed


def test_theta_anticommute():
    cfg = MFConfig(1)
    th1 = OperatorElement.monomial(cfg, (0, 0, 0), 0b001, 0)
    th2 = OperatorElement.monomial(cfg, (0, 0, 0), 0b010, 0)
    assert th2 * th1 == (th1 * th2).scale(-1)
    assert (th1 * th1).is_zero()


def test_multiply_matches_module_action():
    cfg = MFConfig(2)
    rng = random.Random(20240817)
    for _ in range(120):
        m1 = _random_monomial(rng, cfg)
        m2 = _random_monomial(rng, cfg)
        e1 = OperatorElement(cfg, {m1: F(1)})
        e2 = OperatorElement(cfg, {m2: F(1)})
        product = e1 * e2
        state = (tuple(rng.randrange(2) for _ in range(4)), rng.randrange(16))
        via_product = _act(product, state)
        inner = _act(e2, state)
        composed = {}
        for st, c in inner.items():
            for st2, c2 in _act(e1, st).items():
                composed[st2] = composed.get(st2, F(0)) + c * c2
        composed = {k: v for k, v in composed.items() if v}
        assert via_product == composed


def test_multiply_matches_reference_on_all_n1_masks():
    cfg = MFConfig(1)
    a1, a2 = (1, 0, 2), (0, 3, 1)
    c1, c2 = F(2, 3), F(-5, 7)
    for s1, t1, s2, t2 in product(range(8), repeat=4):
        m1, m2 = (a1, s1, t1), (a2, s2, t2)
        assert _product_terms(cfg, m1, c1, m2, c2) == _reference_multiply(
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
        assert _product_terms(cfg, m1, c1, m2, c2) == _reference_multiply(
            m1, c1, m2, c2
        )


def test_multiply_matches_module_action_on_all_n1_masks():
    cfg = MFConfig(1)
    a1, a2 = (0, 1, 0), (2, 0, 1)
    for s1, t1, s2, t2 in product(range(8), repeat=4):
        e1 = OperatorElement.monomial(cfg, a1, s1, t1, F(3))
        e2 = OperatorElement.monomial(cfg, a2, s2, t2, F(-1, 2))
        prod = e1 * e2
        for x in range(8):
            state = ((1, 0, 0), x)
            composed = {}
            for st, c in _act(e2, state).items():
                for st2, c2 in _act(e1, st).items():
                    composed[st2] = composed.get(st2, F(0)) + c * c2
            composed = {k: v for k, v in composed.items() if v}
            assert _act(prod, state) == composed


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_product_terms_are_distinct_signs(n):
    # every mask quadruple; __wrapped__ keeps the shared table untouched
    table = clifford_product.__wrapped__
    for s1, t1, s2, t2 in product(range(1 << (n + 2)), repeat=4):
        terms = table(s1, t1, s2, t2)
        assert all(sign in (1, -1) for _, _, sign in terms)
        assert len({(s, t) for s, t, _ in terms}) == len(terms)


def test_multiply_associative():
    cfg = MFConfig(1)
    rng = random.Random(7)
    for _ in range(60):
        xs = [
            OperatorElement(
                cfg,
                {
                    _random_monomial(rng, cfg): F(rng.randint(-2, 2)),
                    _random_monomial(rng, cfg): F(rng.randint(-2, 2)),
                },
            )
            for _ in range(3)
        ]
        x, y, z = xs
        assert (x * y) * z == x * (y * z)


def test_delta_terms_symmetric_weights():
    cfg = MFConfig(1)
    d = delta(cfg)
    expected = {
        ((1, 0, 0), 0, 0b001): F(1),
        ((0, 1, 0), 0, 0b010): F(1),
        ((0, 0, 1), 0, 0b100): F(1),
        ((0, 1, 1), 0b001, 0): F(1, 3),
        ((1, 0, 1), 0b010, 0): F(1, 3),
        ((1, 1, 0), 0b100, 0): F(1, 3),
    }
    assert d.terms == expected
    assert delta(MFConfig(1)) is d  # one shared element per configuration


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_squares_to_w(n):
    cfg = MFConfig(n)
    d = delta(cfg)
    assert d * d == w_element(cfg)


def test_delta_squares_to_w_asymmetric_weights():
    cfg = MFConfig(1, a=(F(1), F(-2), F(2)))
    d = delta(cfg)
    assert d * d == w_element(cfg)


def test_differential_generators():
    cfg = MFConfig(2)
    for j in range(4):
        th = OperatorElement.monomial(cfg, (0,) * 4, 1 << j, 0)
        zj = OperatorElement.monomial(
            cfg, tuple(1 if i == j else 0 for i in range(4)), 0, 0
        )
        assert differential(th, cfg) == zj
        dth = OperatorElement.monomial(cfg, (0,) * 4, 0, 1 << j)
        w_over = OperatorElement.monomial(
            cfg, tuple(0 if i == j else 1 for i in range(4)), 0, 0
        ).scale(cfg.a[j])
        assert differential(dth, cfg) == w_over


def test_differential_squares_to_zero_on_random_elements():
    for n in (1, 2):
        cfg = MFConfig(n)
        rng = random.Random(300 + n)
        for _ in range(40):
            mono = _random_monomial(rng, cfg)
            x = OperatorElement(cfg, {mono: F(rng.randint(1, 3))})
            assert differential(differential(x, cfg), cfg).is_zero()


def test_differential_rejects_mixed_parity():
    cfg = MFConfig(1)
    mixed = OperatorElement.unit(cfg) + OperatorElement.monomial(
        cfg, (0, 0, 0), 0b001, 0
    )
    with pytest.raises(InhomogeneousParity):
        differential(mixed, cfg)


def test_differential_is_bigraded():
    cfg = MFConfig(2)
    rng = random.Random(99)
    n = cfg.n
    for _ in range(30):
        mono = _random_monomial(rng, cfg)
        w = mono_weight(mono, n)
        q = mono_qdeg_num(mono, n)
        image = differential(OperatorElement(cfg, {mono: F(1)}), cfg)
        for out_mono in image.terms:
            assert mono_weight(out_mono, n) == w
            assert mono_qdeg_num(out_mono, n) == q + (n + 2)
            assert mono_parity(out_mono) == 1 - mono_parity(mono)


def _brute_piece(wcls, qnum, n, bound):
    # independent enumeration with a hard exponent cap; the cap is safe
    # whenever bound >= (qnum + n(n+2))/2, the max possible |a| in the piece
    from itertools import product as iproduct

    n2 = n + 2
    out = set()
    for a in iproduct(range(bound + 1), repeat=n2):
        for s in range(1 << n2):
            for t in range(1 << n2):
                m = (a, s, t)
                if mono_weight(m, n) == wcls and mono_qdeg_num(m, n) == qnum:
                    out.add(m)
    return out


def test_bigraded_basis_generator_piece():
    cfg = MFConfig(1)
    basis = bigraded_basis(LatticeClass((-1, 0, 0)), F(1, 3), cfg)
    assert set(basis) == _brute_piece(LatticeClass((-1, 0, 0)), 1, 1, 3)
    assert len(basis) == 14
    # the cocycle representing the generator is built from these three
    assert ((0, 0, 0), 0, 0b001) in basis  # dtheta_1
    assert ((0, 0, 1), 0b010, 0) in basis  # z_3 theta_2
    assert ((0, 1, 0), 0b100, 0) in basis  # z_2 theta_3
    assert basis[0] == ((0, 0, 0), 0, 0b001)


@pytest.mark.parametrize("n", [1, 2])
def test_bigraded_basis_generator_piece_contents(n):
    cfg = MFConfig(n)
    basis = bigraded_basis(
        LatticeClass((-1,) + (0,) * (n + 1)), F(n, n + 2), cfg
    )
    assert ((0,) * (n + 2), 0, 0b001) in basis  # dtheta_1
    for k in range(1, n + 2):
        a = tuple(0 if i in (0, k) else 1 for i in range(n + 2))
        assert (a, 1 << k, 0) in basis  # (W/(z_1 z_k)) theta_k


def test_bigraded_basis_degree_zero_piece():
    cfg = MFConfig(1)
    basis = bigraded_basis(LatticeClass((0, 0, 0)), F(0), cfg)
    assert set(basis) == _brute_piece(LatticeClass((0, 0, 0)), 0, 1, 3)
    assert ((0, 0, 0), 0, 0) in basis
    for j in range(3):
        assert ((0, 0, 0), 1 << j, 1 << j) in basis
    assert len(basis) == 14


def test_bigraded_basis_empty_piece():
    cfg = MFConfig(1)
    assert bigraded_basis(LatticeClass((0, 0, 0)), F(-2, 3), cfg) == []


def test_bigraded_basis_membership_is_exact():
    cfg = MFConfig(2)
    rng = random.Random(5)
    for _ in range(25):
        mono = _random_monomial(rng, cfg)
        w = mono_weight(mono, cfg.n)
        q = F(mono_qdeg_num(mono, cfg.n), cfg.n + 2)
        assert mono in bigraded_basis(w, q, cfg)


def test_bigraded_basis_rejects_bad_degree():
    cfg = MFConfig(1)
    with pytest.raises(ValueError):
        bigraded_basis(LatticeClass((0, 0, 0)), F(1, 2), cfg)
