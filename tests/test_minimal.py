import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product as iproduct
from math import gcd

import pytest

from koszulmf import minimal
from koszulmf.lattice import canonical, from_elements, size, weight
from koszulmf.linalg import Contraction, LinSolver, compose, homology_ranks
from koszulmf.minimal import (
    _Engine,
    _cached_engine,
    _engine,
    ArityBound,
    BadChoice,
    CohomologyBasisChoice,
    MinimalModel,
    PrematureProduct,
    admissible_tuples,
    build_minimal_model,
    cohomology_dim,
    dbar,
    dbar_product,
    minimal_mu,
    obstruction_class,
    permutation_table,
)
from koszulmf.weyl import (
    MFConfig,
    bigraded_basis,
    decode,
    differential_columns,
    monomial,
    scaled_differential,
)
import operator_oracle as oracle
from operator_oracle import (
    OperatorElement, differential, mono_parity, mono_qdeg_num, mono_weight,
    unpacked,
)
from test_linalg import (
    TwoSolverContraction, _add, _cleared, _identity, _split,
    assert_contraction_identities, assert_matches_oracle, contraction_parts,
)

F = Fraction


def _exterior_piece(kmask, n):
    """The engine's key (wrep, qnum) of the piece holding e_K."""
    wrep = canonical(tuple(-1 if kmask >> i & 1 else 0 for i in range(n + 2)))
    return wrep, n * size(kmask)


def test_choice_validation():
    CohomologyBasisChoice((2, 1, 1))
    with pytest.raises(BadChoice):
        CohomologyBasisChoice((1, 1, 1))
    with pytest.raises(BadChoice):
        CohomologyBasisChoice((2, 1, 4))
    # a range error on too few indices names the count it was checked for
    with pytest.raises(BadChoice, match=r"1\.\.2 for a choice of 2 indices"):
        build_minimal_model(MFConfig(1), CohomologyBasisChoice((2, 3)))
    assert CohomologyBasisChoice.default(1).aux == (2, 1, 1)
    # one partner index per variable, checked wherever an engine is made
    for aux in ((2, 1), (2, 1, 1, 1)):
        with pytest.raises(BadChoice):
            minimal_mu(2, (0b100, 0b001), MFConfig(1), CohomologyBasisChoice(aux))
        with pytest.raises(BadChoice):
            build_minimal_model(MFConfig(1), CohomologyBasisChoice(aux))


def test_engine_cache_is_shared_and_bounded():
    default = _engine(MFConfig(1), CohomologyBasisChoice.default(1))
    assert _engine(MFConfig(1), None) is default
    for n in range(1, 21):
        _engine(MFConfig(n), None)
    assert _cached_engine.cache_info().currsize == 16
    _cached_engine.cache_clear()
    assert _cached_engine.cache_info().currsize == 0


def test_dbar_explicit_two_term():
    cfg = MFConfig(1)
    terms, den = dbar(1, CohomologyBasisChoice.default(1), cfg)
    assert (unpacked(terms, 3), den) == (
        {((0, 0, 0), 0, 0b001): 3, ((0, 0, 1), 0b010, 0): -1}, 3
    )


@pytest.mark.parametrize("n", [1, 2])
def test_dbar_is_cocycle_with_right_grading(n):
    cfg = MFConfig(n)
    choice = CohomologyBasisChoice.default(n)
    for j in range(1, n + 3):
        terms, _ = dbar(j, choice, cfg)
        assert scaled_differential(terms, cfg) == {}
        wref = canonical(tuple(-1 if i == j - 1 else 0 for i in range(n + 2)))
        for mono in terms:
            assert mono_parity(mono, n) == 1
            assert mono_weight(mono, n) == wref
            assert mono_qdeg_num(mono, n) == n


def test_dbar_product_trivial_and_full():
    cfg = MFConfig(1)
    choice = CohomologyBasisChoice.default(1)
    assert dbar_product(0, choice, cfg) == ({monomial((0, 0, 0), 0, 0): 1}, 1)
    full, den = dbar_product(0b111, choice, cfg)
    assert full and den > 0
    # leading dtheta_1 dtheta_2 dtheta_3
    assert monomial((0, 0, 0), 0, 0b111) in full


DBAR_CONFIGS = [
    MFConfig(1),
    MFConfig(2),
    MFConfig(3),
    MFConfig(1, (F(1, 2), F(1, 3), F(1, 6))),
    MFConfig(1, (F(1), F(-2), F(2))),
    MFConfig(1, (F(1), F(0), F(0))),
]


@pytest.mark.parametrize("cfg", DBAR_CONFIGS)
def test_dbar_product_matches_oracle(cfg):
    # the integer product of D-scaled factors against the Fraction
    # product of the dbar_j, on every mask
    choice = CohomologyBasisChoice.default(cfg.n)
    for kmask in range(1 << cfg.nvars):
        terms, den = dbar_product(kmask, choice, cfg)
        ref = oracle.dbar_product(kmask, choice, cfg)
        assert {decode(m, cfg.nvars): F(c, den)
                for m, c in terms.items()} == ref.terms, kmask
        assert den > 0 and gcd(den, *terms.values()) == 1
        assert all(type(c) is int for c in terms.values())


def test_zero_weight_build():
    # a_2 = a_3 = 0 drops the theta terms of dbar_2 and dbar_3
    cfg = MFConfig(1, (F(1), F(0), F(0)))
    model = build_minimal_model(cfg, arities=(2, 3))
    assert [len(model.tables[k]) for k in (2, 3)] == [27, 27]


def test_default_choice_is_resolved_once_per_n(monkeypatch):
    cfg = MFConfig(1)
    minimal_mu(2, (0b001, 0b010), cfg)
    made = []
    post_init = CohomologyBasisChoice.__post_init__

    def counting(self):
        made.append(self.aux)
        post_init(self)

    monkeypatch.setattr(CohomologyBasisChoice, "__post_init__", counting)
    for _ in range(5):
        minimal_mu(2, (0b001, 0b010), cfg)
        minimal_mu(2, (0b010, 0b001), cfg, choice=None)
    assert made == []
    assert CohomologyBasisChoice.default(1) is _engine(cfg, None).choice


@pytest.mark.parametrize("n", [1, 2])
def test_cohomology_dim_exterior_pieces(n):
    cfg = MFConfig(n)
    for kmask in range(1 << (n + 2)):
        assert cohomology_dim(*_exterior_piece(kmask, n), cfg) == 1


def test_cohomology_dim_vanishes_off_exterior_pieces():
    rng = random.Random(424)
    for n in (1, 2):
        cfg = MFConfig(n)
        checked = 0
        while checked < 20:
            wrep = canonical(tuple(rng.randrange(3) for _ in range(n + 2)))
            qnum = rng.randrange(-4, 9)
            exterior = any(
                _exterior_piece(k, n) == (wrep, qnum)
                for k in range(1 << (n + 2))
            )
            if exterior:
                continue
            assert cohomology_dim(wrep, qnum, cfg) == 0
            checked += 1


def test_cohomology_dim_against_homology_ranks():
    # independent route: assemble the three-term complex explicitly and
    # take ranks through linalg.homology_ranks
    n = 1
    cfg = MFConfig(n)
    for kmask in (0b001, 0b011, 0b111, 0):
        wrep, qnum = _exterior_piece(kmask, n)
        bases = [bigraded_basis(wrep, qnum + dq * (n + 2), cfg)
                 for dq in (-1, 0, 1)]
        maps = []
        for src, dst in ((0, 1), (1, 2)):
            index = {m: i for i, m in enumerate(bases[dst])}
            cols = []
            for mono in bases[src]:
                img = differential(
                    OperatorElement(cfg, {decode(mono, n + 2): F(1)}), cfg
                )
                cols.append({index[monomial(*m)]: c for m, c in img.terms.items()})
            maps.append(cols)
        dims = [len(b) for b in bases]
        maps = [_cleared(m)[0] for m in maps]
        assert homology_ranks(dims, maps)[1] == cohomology_dim(wrep, qnum, cfg)


def test_cohomology_dim_creates_no_engine():
    # the three pieces and two maps are built directly, not through an
    # engine's piece records
    _cached_engine.cache_clear()
    for n in (1, 2):
        cfg = MFConfig(n)
        for kmask in range(1 << (n + 2)):
            assert cohomology_dim(*_exterior_piece(kmask, n), cfg) == 1
    assert _cached_engine.cache_info().currsize == 0


def _engine_at(kmask, n=1):
    cfg = MFConfig(n)
    choice = CohomologyBasisChoice.default(n)
    eng = _Engine(cfg, choice)
    return eng, _exterior_piece(kmask, n), choice, cfg


def _shifted(eng, key, degrees):
    return (key[0], key[1] + degrees * eng.step)


def _maps_and_bases(eng):
    """The D * d maps and the bases of an engine's contracted pieces.

    The maps are those out of the pieces and out of the pieces one degree
    down; the bases are the maps' sources and targets.  A basis is read
    off the piece records where one holds it (a piece's row index, or the
    basis below it) and made by `bigraded_basis` for the pieces one degree
    up; the maps are `differential_columns` between those bases.
    """
    bases = {}
    for key, (_, _, index, below) in eng._pieces.items():
        assert index == {m: i for i, m in enumerate(index)}
        for bkey, basis in ((key, list(index)),
                            (_shifted(eng, key, -1), below)):
            assert bases.setdefault(bkey, basis) == basis, bkey
    maps = {}
    for key in list(bases):
        above = _shifted(eng, key, 1)
        if above not in bases:
            bases[above] = bigraded_basis(*above, eng.cfg)
        tindex = {m: i for i, m in enumerate(bases[above])}
        maps[key] = differential_columns(bases[key], tindex, eng.cfg)
    return maps, bases


def _fraction_map(eng, cols):
    """The columns of D * d as those of d, with `Fraction` values."""
    return [{r: F(v, eng.scale) for r, v in col.items()} for col in cols]


def test_contraction_for_piece_identities():
    eng, key, choice, cfg = _engine_at(0b001)
    con, harm_mask, index, _ = eng.piece(key)
    assert harm_mask == 0b001
    assert con.nharm == 1
    # inject hits the chosen representative
    rep, den = dbar_product(0b001, choice, cfg)
    rep_col = {index[m]: F(c, den) for m, c in rep.items()}
    below = _shifted(eng, key, -1)
    above = _shifted(eng, key, 1)
    i, p, h = contraction_parts(con, [rep_col], len(index))
    assert i == [rep_col]
    # p i = 1, p d = 0, and the homotopy identity at the middle degree
    con_above, harm_above, index_above, _ = eng.piece(above)
    assert harm_above is None
    maps, _ = _maps_and_bases(eng)
    d_in = _fraction_map(eng, maps[below])
    d_out = _fraction_map(eng, maps[key])
    h_above = contraction_parts(con_above, [], len(index_above))[2]
    assert compose(p, i) == _identity(1)
    assert not any(compose(p, d_in))
    dh_hd = _add(compose(d_in, h), compose(h_above, d_out))
    assert _add(dh_hd, compose(i, p)) == _identity(len(index))  # d h + h d = 1 - i p


def test_contraction_projects_exact_to_zero():
    eng, key, _, _ = _engine_at(0b011)
    con, harm_mask, _, below_basis = eng.piece(key)
    assert harm_mask == 0b011
    maps, _ = _maps_and_bases(eng)
    d_in = _fraction_map(eng, maps[_shifted(eng, key, -1)])
    assert len(d_in) == len(below_basis) > 0
    for col in d_in:
        alpha, _ = _split(con, col)
        assert not any(alpha)


def test_piece_rejects_corrupted_representative():
    # a broken representative fails the contraction's checks, reported as
    # an internal error naming the piece
    eng, key, _, _ = _engine_at(0b011)
    eng.piece(key)
    maps, bases = _maps_and_bases(eng)
    basis = bases[key]
    not_cocycle = next(j for j, col in enumerate(maps[key]) if col)
    exact = next(col for col in maps[_shifted(eng, key, -1)] if col)
    corrupt = [
        ({basis[not_cocycle]: 1}, "not a cocycle"),
        ({}, "dependent"),
        ({basis[r]: v for r, v in exact.items()}, "dependent"),
    ]
    for terms, reason in corrupt:
        eng._pieces.clear()
        eng._blocks[(0b011,)] = (terms, 1)
        with pytest.raises(RuntimeError,
                           match=re.escape(f"piece {key}: ") + ".*" + reason):
            eng.piece(key)


def _doubled_columns(basis, index, cfg):
    """D * d with one entry doubled in the first multi-entry column."""
    cols = differential_columns(basis, index, cfg)
    for col in cols:
        if len(col) > 1:
            col[next(iter(col))] *= 2
            break
    return cols


def test_piece_rejects_maps_that_do_not_compose_to_zero(monkeypatch):
    # the contraction checks d_out o d_in = 0 itself, so the engine's
    # functional never meets a cycle it cannot decompose
    monkeypatch.setattr(minimal, "differential_columns", _doubled_columns)
    eng, key, _, _ = _engine_at(0b011)
    with pytest.raises(RuntimeError,
                       match=re.escape(f"piece {key}: d_out o d_in != 0")):
        eng.piece(key)


def test_engine_contraction_identities():
    # the contraction the transfer uses, on every piece an n=1 model to
    # arity 4 builds and on three exterior pieces
    n = 1
    cfg = MFConfig(n)
    choice = CohomologyBasisChoice.default(n)
    eng = _Engine(cfg, choice)
    for k in (2, 3, 4):
        for tup in admissible_tuples(n, k, k - 2):
            eng.mu(tup)
    exterior = {}
    for kmask in (0b001, 0b011, 0b111):
        exterior[_exterior_piece(kmask, n)] = kmask
    keys = set(eng._pieces) | set(exterior)
    assert len(keys) > len(exterior)
    for key in keys:
        for degrees in (-1, 0, 1):
            eng.piece(_shifted(eng, key, degrees))
    maps, _ = _maps_and_bases(eng)

    def parts(key):
        con, harm_mask, index, _ = eng.piece(key)
        harmonic = []
        if harm_mask is not None:
            rep, den = dbar_product(harm_mask, choice, cfg)
            harmonic.append({index[m]: F(c, den) for m, c in rep.items()})
        return contraction_parts(con, harmonic, len(index))

    for key in sorted(keys):
        below = _shifted(eng, key, -1)
        above = _shifted(eng, key, 1)
        assert_contraction_identities(
            _fraction_map(eng, maps[below]), _fraction_map(eng, maps[key]),
            parts(below), parts(key), parts(above),
        )
        if key in exterior:
            kmask = exterior[key]
            con, harm_mask, index, _ = eng.piece(key)
            assert harm_mask == kmask
            rep, den = dbar_product(kmask, choice, cfg)
            alpha, _ = _split(con, {index[m]: F(c, den) for m, c in rep.items()})
            assert alpha == [F(1)]
            h, _ = eng.split(rep, den, key)
            assert not h


BUILDS = [
    (MFConfig(1), (2, 3, 4), 3),
    (MFConfig(2), (2, 4), 4),
    (MFConfig(1, (F(1, 2), F(1, 3), F(1, 6))), (2, 3, 4), 6),
]
# (pieces, maps, bases) of each build: the contracted pieces, the maps
# into and out of them, and those maps' sources and targets
BUILD_COUNTS = {
    MFConfig(1): (20, 34, 48),
    MFConfig(2): (96, 140, 184),
    MFConfig(1, (F(1, 2), F(1, 3), F(1, 6))): (20, 34, 48),
}


@lru_cache(maxsize=len(BUILDS))
def _built_engine(cfg, arities):
    """A fresh engine that has run every admissible tuple of the arities,
    with the maps and bases of its pieces."""
    n = cfg.n
    eng = _Engine(cfg, CohomologyBasisChoice.default(n))
    for k in arities:
        for tup in admissible_tuples(n, k, (k - 2) // n):
            eng.mu(tup)
    maps, bases = _maps_and_bases(eng)
    assert (len(eng._pieces), len(maps), len(bases)) == BUILD_COUNTS[cfg]
    return eng, maps, bases


ORACLE_RUNS = [(cfg, arities) for cfg, arities, _ in BUILDS] + [
    (MFConfig(3), None),  # mu^5 on the 120 orderings of the singletons
]


def _two_solver_oracle(eng, key, d_in, d_out):
    """The two-solver contraction of a piece's maps and harmonic column."""
    _, harm_mask, index, _ = eng.piece(key)
    harmonic = []
    if harm_mask is not None:
        rep, den = dbar_product(harm_mask, eng.choice, eng.cfg)
        harmonic.append({index[m]: F(c, den) for m, c in rep.items()})
    return TwoSolverContraction(d_in, d_out, harmonic, eng.scale)


@pytest.mark.parametrize("cfg, arities", ORACLE_RUNS)
def test_mu_functional_matches_split(cfg, arities):
    # on every mu call, alpha read off the piece's functional equals the
    # alpha of the two-solver oracle's split of the same tree sum, with
    # the oracle built per piece from the piece's maps
    n = cfg.n
    eng = _Engine(cfg, CohomologyBasisChoice.default(n))
    if arities is None:
        tuples = list(permutations([1 << i for i in range(n + 2)]))
    else:
        tuples = [tup for k in arities
                  for tup in admissible_tuples(n, k, (k - 2) // n)]
    oracles = {}
    nonzero = 0
    for tup in tuples:
        got = eng.mu(tup)
        lam, den = eng.tree_sum(tup)
        want = {}
        if lam:
            key = eng.lambda_key(tup)
            _, harm_mask, index, below = eng.piece(key)
            if key not in oracles:
                above = bigraded_basis(*_shifted(eng, key, 1), cfg)
                oracles[key] = _two_solver_oracle(
                    eng, key, differential_columns(below, index, cfg),
                    differential_columns(
                        list(index), {m: i for i, m in enumerate(above)}, cfg),
                )
            alpha = oracles[key].split({index[m]: c for m, c in lam.items()}, den)[0]
            if alpha and alpha[0]:
                want = {harm_mask: alpha[0]}
        assert got == want, tup
        nonzero += bool(got)
    assert nonzero


def test_mu_splits_only_blocks_and_pieces_without_cohomology(monkeypatch):
    # a fresh n=2 build splits only its blocks (1,138 calls) and reads mu
    # from a functional built once on each of the 16 pieces mu lands on;
    # tuples landing in pieces without cohomology still run the full split.
    # The build eliminates 154 maps for its 96 pieces: 38 reuse the solver
    # of the piece above
    counts = {"split": 0, "after_tree_sum": 0, "mu": 0, "functional": 0,
              "LinSolver": 0}
    split, tree_sum, mu = Contraction.split, _Engine.tree_sum, _Engine.mu
    functional, solver = Contraction.functional, LinSolver.__init__

    def counted_solver(self, columns):
        counts["LinSolver"] += 1
        solver(self, columns)

    def counted_split(self, vec, den):
        counts["split"] += 1
        return split(self, vec, den)

    def counted_tree_sum(self, masks):
        out = tree_sum(self, masks)
        counts["after_tree_sum"] = counts["split"]
        return out

    def counted_mu(self, masks):
        out = mu(self, masks)
        counts["mu"] += counts["split"] - counts["after_tree_sum"]
        return out

    def counted_functional(self, a=0):
        counts["functional"] += self._rows[a] is None
        return functional(self, a)

    monkeypatch.setattr(Contraction, "split", counted_split)
    monkeypatch.setattr(Contraction, "functional", counted_functional)
    monkeypatch.setattr(_Engine, "tree_sum", counted_tree_sum)
    monkeypatch.setattr(_Engine, "mu", counted_mu)
    monkeypatch.setattr(LinSolver, "__init__", counted_solver)
    n = 2
    eng = _Engine(MFConfig(n), CohomologyBasisChoice.default(n))
    for k in (2, 4):
        for tup in admissible_tuples(n, k, (k - 2) // n):
            eng.mu(tup)
    assert counts == {"split": 1138, "after_tree_sum": 1138, "mu": 0,
                      "functional": 16, "LinSolver": 154}
    assert len(eng._pieces) == 96
    for tup in admissible_tuples(n, 3, 1):  # arity 3: no cohomology
        assert eng.mu(tup) == {}
    assert counts["mu"] > 0 and counts["functional"] == 16


def test_mu_contracts_no_piece_for_a_vanishing_tree_sum():
    # some n=2 tuples have nonzero cuts whose products cancel; mu returns
    # {} for them without contracting the piece lambda would land in
    n = 2
    cfg, choice = MFConfig(n), CohomologyBasisChoice.default(n)
    eng = _Engine(cfg, choice)

    def vanishes(eng, tup):
        cuts = [c for c in range(1, len(tup))
                if eng.block(tup[:c])[0] and eng.block(tup[c:])[0]]
        return cuts and not eng.tree_sum(tup)[0]

    tup = next(t for t in admissible_tuples(n, 4, 1) if vanishes(eng, t))
    fresh = _Engine(cfg, choice)
    assert vanishes(fresh, tup)
    pieces = set(fresh._pieces)
    assert fresh.mu(tup) == {}
    assert set(fresh._pieces) == pieces
    assert fresh.lambda_key(tup) not in pieces


@pytest.mark.parametrize("cfg, arities, scale", BUILDS)
def test_outgoing_columns_match_differential(cfg, arities, scale):
    # every map the build touches holds D * d on ints, with D the lcm of
    # the weights' denominators; the oracle's differential is the reference
    eng, maps, bases = _built_engine(cfg, arities)
    assert eng.scale == scale
    assert len(maps) == BUILD_COUNTS[cfg][1]
    for key, cols in maps.items():
        tindex = {m: i for i, m in enumerate(bases[_shifted(eng, key, 1)])}
        for mono, col in zip(bases[key], cols, strict=True):
            assert all(type(v) is int for v in col.values())
            image = differential(
                OperatorElement(cfg, {decode(mono, cfg.nvars): F(1)}), cfg
            )
            assert {r: F(v, scale) for r, v in col.items()} == {
                tindex[monomial(*m)]: c for m, c in image.terms.items()
            }


@pytest.mark.parametrize("cfg, arities, scale", BUILDS)
def test_columns_match_tuple_oracle(cfg, arities, scale):
    # every column set the build made, against the fused tuple-keyed
    # loop the commutator table replaced: same rows, values and order
    eng, maps, bases = _built_engine(cfg, arities)
    n2 = cfg.nvars
    assert len(maps) == BUILD_COUNTS[cfg][1]
    for key, got in maps.items():
        above = bases[_shifted(eng, key, 1)]
        tindex = {decode(m, n2): i for i, m in enumerate(above)}
        want = oracle.differential_columns(
            [decode(m, n2) for m in bases[key]], tindex, cfg
        )
        assert [list(col.items()) for col in got] == [
            list(col.items()) for col in want
        ], key


@pytest.mark.parametrize("cfg, arities, scale", BUILDS)
def test_bases_match_tuple_oracle(cfg, arities, scale):
    # every basis the build made, decoded, in the documented order of the
    # enumeration it replaced; `_maps_and_bases` checks the row indexes
    _, _, bases = _built_engine(cfg, arities)
    assert len(bases) == BUILD_COUNTS[cfg][2]
    for (wrep, qnum), basis in bases.items():
        decoded = [decode(m, cfg.nvars) for m in basis]
        assert decoded == oracle.bigraded_basis(wrep, qnum, cfg), (wrep, qnum)


def _reference_h(eng, x, key):
    """h(x) of the `OperatorElement` x in the piece key, one degree down."""
    con, _, index, below = eng.piece(key)
    _, pre = _split(con, {index[monomial(*m)]: c for m, c in x.terms.items()})
    return OperatorElement(
        eng.cfg, {decode(below[src], eng.step): c for src, c in pre.items()}
    )


def _reference_block(eng, masks, memo):
    """Lambda_k as an `OperatorElement`: the oracle for `_Engine.block`.

    The tree-sum recursion on `Fraction` coefficients that the engine ran
    before its blocks became integer vectors: i(e_K) = dbar_K, the
    oracle's `Fraction` product, for one mask, and above that
    H(lambda) = (-1)^{parity(lambda)} h(lambda), with lambda the sum
    over the splits of
    B2(Lambda(left), Lambda(right)) = (-1)^{parity(right)} left * right.
    Parities are read off the terms.  memo maps masks to blocks.
    """
    hit = memo.get(masks)
    if hit is None:
        if len(masks) == 1:
            hit = oracle.dbar_product(masks[0], eng.choice, eng.cfg)
        else:
            lam = OperatorElement(eng.cfg)
            for cut in range(1, len(masks)):
                left = _reference_block(eng, masks[:cut], memo)
                right = _reference_block(eng, masks[cut:], memo)
                if left.is_zero() or right.is_zero():
                    continue
                term = left * right
                lam = lam - term if right.parity() else lam + term
            hit = lam
            if not lam.is_zero():
                h = _reference_h(eng, lam, eng.lambda_key(masks))
                hit = h.scale(-1) if lam.parity() else h
        memo[masks] = hit
    return hit


@pytest.mark.parametrize("cfg, arities, scale", BUILDS)
def test_blocks_match_reference(cfg, arities, scale):
    # every block the build stores, against the Fraction recursion: the
    # same coefficients, content-reduced, with the parity of the masks
    eng, _, _ = _built_engine(cfg, arities)
    assert len(eng._pieces) == BUILD_COUNTS[cfg][0]
    assert eng._blocks
    memo = {}
    for masks, (terms, den) in eng._blocks.items():
        ref = _reference_block(eng, masks, memo)
        assert {decode(m, cfg.nvars): F(c, den)
                for m, c in terms.items()} == ref.terms, masks
        assert den > 0 and gcd(den, *terms.values()) == 1
        assert all(type(c) is int for c in terms.values())
        parity = (sum(map(size, masks)) + len(masks) - 1) % 2
        assert all(mono_parity(m, cfg.n) == parity for m in terms)


def _scanned_label(eng, key):
    """`_Engine.exterior_label` as a scan over all 2^(n+2) masks: the oracle."""
    wrep, qnum = key
    for mask in range(1 << eng.step):
        if size(mask) * eng.n == qnum and weight(mask, eng.n) == wrep:
            return mask
    return None


def test_exterior_label_matches_scan():
    # the closed form against the scan on every piece key of the n=1,
    # weighted and n=2 builds and the keys one degree either side, on the
    # key of every mask shifted by -1..1 degrees, and on random keys in
    # canonical form at n = 1..4
    rng = random.Random(23)
    for n in range(1, 5):
        eng = _Engine(MFConfig(n), CohomologyBasisChoice.default(n))
        step = eng.step
        keys = {(weight(mask, n), n * size(mask) + dq)
                for mask in range(1 << step) for dq in (-step, 0, step)}
        for _ in range(500):
            wrep = canonical([rng.choice((0, 0, 1, 1, 2))
                              for _ in range(step)])
            qnum = n * rng.randint(-1, step + 1) + rng.choice((0, 0, 1))
            keys.add((wrep, qnum))
        for cfg, arities, _ in BUILDS:
            if cfg.n == n:
                keys.update(_built_engine(cfg, arities)[2])
        labelled = 0
        for key in keys:
            want = _scanned_label(eng, key)
            assert eng.exterior_label(key) == want, key
            labelled += want is not None
        assert labelled == 1 << step  # every mask's own key


@pytest.mark.parametrize("cfg, arities, scale", BUILDS)
def test_piece_contractions_match_two_solver_oracle(cfg, arities, scale):
    # every piece of the build, whether it reused the solver of the piece
    # above or eliminated its outgoing map itself, against the two-solver
    # contraction of the same maps: its solver's pivot rows are the
    # oracle's free d_out columns, and the same split on unit and random
    # vectors, the same functional rows
    eng, maps, _ = _built_engine(cfg, arities)
    rng = random.Random(cfg.n)
    for key, (con, _, index, _) in eng._pieces.items():
        oracle = _two_solver_oracle(
            eng, key, maps[_shifted(eng, key, -1)], maps[key]
        )
        assert_matches_oracle(con, oracle, len(index), rng)


def test_mu2_on_generators():
    cfg = MFConfig(1)
    assert minimal_mu(2, (0b001, 0b010), cfg) == {0b011: F(-1)}
    assert minimal_mu(2, (0b010, 0b001), cfg) == {0b011: F(1)}


def test_mu2_with_unit():
    cfg = MFConfig(1)
    for mask in range(8):
        # unit acting from either side gives +-e_K per the sign rule
        assert minimal_mu(2, (mask, 0), cfg) == ({mask: F(1)} if mask else {0: F(1)})
        expect = F(-1) if size(mask) % 2 else F(1)
        assert minimal_mu(2, (0, mask), cfg) == {mask: expect}


@pytest.mark.parametrize("n", [1, 2])
def test_mu2_magnitude_one_on_disjoint_singletons(n):
    cfg = MFConfig(n)
    out = minimal_mu(2, (0b001, 0b010), cfg)
    assert set(out) == {0b011}
    assert abs(out[0b011]) == 1


def test_mu_arity_bounds():
    cfg = MFConfig(1)
    with pytest.raises(ArityBound):
        minimal_mu(1, (0b001,), cfg)
    with pytest.raises(ArityBound):
        minimal_mu(7, (0,) * 7, cfg)
    with pytest.raises(ArityBound):
        minimal_mu(5, (0,) * 5, cfg, arity_bound=4)
    with pytest.raises(ValueError):
        minimal_mu(2, (0b001,), cfg)


def test_mu3_vanishes_below_versal_arity_n2():
    cfg = MFConfig(2)
    # arity 3 has no admissible output for n=2; the tree sum must agree
    for tup in [(1, 2, 4), (3, 4, 8), (1, 1, 2), (15, 15, 15)]:
        assert minimal_mu(3, tup, cfg) == {}


def test_admissible_tuples_against_scan():
    for n, k, q in [(1, 2, 0), (1, 3, 1), (2, 2, 0)]:
        gen = admissible_tuples(n, k, q)
        assert len(gen) == len(set(gen))
        brute = []
        for tup in iproduct(range(1 << (n + 2)), repeat=k):
            counts = [0] * (n + 2)
            for mask in tup:
                for i in range(n + 2):
                    if mask >> i & 1:
                        counts[i] += 1
            if all(c - q in (0, 1) for c in counts):
                brute.append(tup)
        assert sorted(gen) == sorted(brute)


@pytest.fixture(scope="module")
def model_n1():
    return build_minimal_model(MFConfig(1), arities=(2, 3, 4))


def table_digest(model):
    """sha256 of the sorted (k, K0, inputs, num, den) of the nonzero entries.

    The digests pinned below are those of the transferred tables as first
    recorded; any change to the engine must leave them identical.
    """
    rows = sorted(
        (k, k0, ins, c.numerator, c.denominator)
        for k, table in model.tables.items()
        for (k0, ins), c in table.items()
        if c
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_table_digest_n1(model_n1):
    assert table_digest(model_n1) == (
        "38761b15426359aa1ca3e11edf365094e986c2d65fe075565f5d14d623a8125e"
    )


def test_versal_orderings_digest_n3():
    # the deepest tree sum tier-1 runs: mu^5 on the 120 orderings of the
    # singletons at n=3; four are nonzero, three at -1/5 and one at -2/5
    cfg = MFConfig(3)
    rows = sorted(
        (perm, k0, c.numerator, c.denominator)
        for perm in permutations((1, 2, 4, 8, 16))
        for k0, c in minimal_mu(5, perm, cfg).items()
        if c
    )
    assert [(perm, F(num, den)) for perm, _, num, den in rows] == [
        ((8, 4, 2, 16, 1), F(-1, 5)),
        ((16, 4, 2, 8, 1), F(-1, 5)),
        ((16, 8, 2, 4, 1), F(-1, 5)),
        ((16, 8, 4, 2, 1), F(-2, 5)),
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "29ff1598e4a8c26e5a6c6a89688386359eb69aa9c012a255a036fdcaea903590"
    )


def test_table_digest_weighted():
    cfg = MFConfig(1, (F(1, 2), F(1, 3), F(1, 6)))
    model = build_minimal_model(cfg, arities=(2, 3, 4))
    assert table_digest(model) == (
        "e52f70f0910320621ae19e2d671287faa6dc21b74587835588c110f5c9b1e988"
    )


def test_build_empties_its_engine(monkeypatch):
    # the build calls the module's minimal_mu once per admissible tuple,
    # and on return its engine, still the cached one, holds no piece and
    # no block
    cfg = MFConfig(2)
    eng = _engine(cfg, None)
    minimal_mu(2, (0b0001, 0b0010), cfg)
    assert eng._pieces and eng._blocks
    calls = {}
    real = minimal.minimal_mu

    def counted(k, inputs, *args, **kwargs):
        calls.setdefault(k, []).append(inputs)
        return real(k, inputs, *args, **kwargs)

    monkeypatch.setattr(minimal, "minimal_mu", counted)
    model = build_minimal_model(cfg)
    assert sorted(model.tables) == sorted(calls) == [2, 4]
    for k, tups in calls.items():
        assert tups == admissible_tuples(2, k, (k - 2) // 2)
    assert _engine(cfg, None) is eng
    assert eng._pieces == {} and eng._blocks == {}


def test_build_empties_its_engine_when_it_raises(monkeypatch):
    cfg = MFConfig(1)
    eng = _engine(cfg, None)
    real = minimal.minimal_mu
    seen = []

    def failing(k, inputs, *args, **kwargs):
        if k == 3:  # mid-sweep: arity 2 is done
            seen.append((len(eng._pieces), len(eng._blocks)))
            raise RuntimeError("injected")
        return real(k, inputs, *args, **kwargs)

    monkeypatch.setattr(minimal, "minimal_mu", failing)
    with pytest.raises(RuntimeError, match="injected"):
        build_minimal_model(cfg, arities=(2, 3, 4))
    assert seen and all(seen[0])  # the engine was full when it raised
    assert eng._pieces == {} and eng._blocks == {}


def test_build_after_a_build_and_mu_after_a_build(model_n1):
    # an emptied engine rebuilds what it needs: a second build and a
    # minimal_mu call after it give the tables' values
    cfg = MFConfig(1)
    model = build_minimal_model(cfg, arities=(2, 3, 4))
    assert table_digest(model) == table_digest(model_n1) == (
        "38761b15426359aa1ca3e11edf365094e986c2d65fe075565f5d14d623a8125e"
    )
    assert model.tables[4]
    for (k0, tup), coef in model.tables[4].items():
        assert minimal_mu(4, tup, cfg) == {k0: coef}


def test_model_tables_satisfy_grading(model_n1):
    n = model_n1.n
    for k, table in model_n1.tables.items():
        q = (k - 2) // n
        for (k0, ins), coef in table.items():
            assert coef
            counts = [0] * (n + 2)
            for mask in ins:
                for i in range(n + 2):
                    if mask >> i & 1:
                        counts[i] += 1
            evec = tuple(c - q for c in counts)
            assert evec == tuple(1 if k0 >> i & 1 else 0 for i in range(n + 2))


def test_model_lookup(model_n1):
    def lookup(k, inputs):
        table = model_n1.tables.get(k, {})
        return {k0: table[k0, inputs] for k0 in range(8) if (k0, inputs) in table}

    assert lookup(2, (0b001, 0b010)) == {0b011: F(-1)}
    assert lookup(5, (0,) * 5) == {}


def test_obstruction_class_n1(model_n1):
    # the versality class; its magnitude is the convention-independent part
    assert obstruction_class(model_n1) == F(-1)
    table = permutation_table(model_n1)
    assert sum(table.values()) == F(-1)
    assert all(v for v in table.values())


def test_obstruction_class_choice_independent_magnitude():
    cfg = MFConfig(1)
    other = CohomologyBasisChoice((3, 3, 2))
    model = build_minimal_model(cfg, choice=other, arities=(2, 3))
    assert abs(obstruction_class(model)) == 1


def test_obstruction_class_guards():
    cfg = MFConfig(2)
    choice = CohomologyBasisChoice.default(2)
    bad = MinimalModel(cfg, choice, {3: {(0, (1, 2, 4)): F(1)}, 4: {}})
    with pytest.raises(PrematureProduct):
        obstruction_class(bad)
    empty = MinimalModel(cfg, choice, {4: {}})
    assert obstruction_class(empty) == 0
    with pytest.raises(ArityBound):
        obstruction_class(MinimalModel(cfg, choice, {2: {}}))


def test_minimal_mu_deterministic():
    cfg = MFConfig(1)
    a = minimal_mu(3, (0b010, 0b100, 0b001), cfg)
    b = minimal_mu(3, (0b010, 0b100, 0b001), cfg)
    assert a == b
