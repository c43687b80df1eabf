"""Independent checks of the workloads' outputs, each with negative controls.

Nothing here calls the program: the checks are properties the transferred
structure must have, or counts computed from first principles.  Every
check returns a list of problems (empty when it passes).  Each has
negative controls: a copy of the real output with one seeded defect (a
flipped sign, a dropped entry, a moved output, a root-of-unity twist) that
the check must catch.  `controls_missed` returns the controls that slipped
through, so a check that cannot fail shows up as an incorrect run.

Tables are `{arity: {(output, inputs): coef}}` with subsets as bitmasks and
inputs in textual order (inputs[0] is y_k).  A coefficient is a pair
`(magnitude, exponent)`: the number magnitude * zeta^exponent with zeta a
primitive root of unity of the given order; plain models use order 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod


def popcount(mask):
    return bin(mask).count("1")


def mask_parity(label):
    """Parity of the integer degree of e_K (or of a smash label (K, chi)).

    Every integer lift (2 nvec - 1) . e_K is congruent to |K| mod 2, and
    the Stasheff signs only see this parity.
    """
    mask = label[0] if isinstance(label, tuple) else label
    return popcount(mask) & 1


# -- root-of-unity arithmetic ----------------------------------------------

def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials, den monic."""
    num = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return quot, num[:len(den) - 1]


_CYCLOTOMIC = {}


def cyclotomic(m):
    """Coefficients (constant first) of the m-th cyclotomic polynomial."""
    hit = _CYCLOTOMIC.get(m)
    if hit is None:
        hit = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                hit, rem = _poly_divmod(hit, cyclotomic(d))
                assert not any(rem)
        _CYCLOTOMIC[m] = hit
    return hit


def cyclotomic_is_zero(by_exp, order):
    """Whether sum_e by_exp[e] zeta^e vanishes, zeta of exact order `order`."""
    live = [c for c in by_exp.values() if c]
    if len(live) < 2:
        return not live  # c zeta^e is zero only for c = 0
    poly = [0] * order
    for e, c in by_exp.items():
        poly[e % order] += c
    phi = cyclotomic(order)
    if len(poly) < len(phi):
        return not any(poly)
    _, rem = _poly_divmod(poly, phi)
    return not any(rem)


# -- Stasheff identities -----------------------------------------------------

def stasheff_problems(ops, max_arity, order=1):
    """Nonvanishing Stasheff identities up to the given composed arity.

    From the convention in the `koszulmf.ainfty` docstring:

        sum_{a,b} (-1)^star mu^{k-a+1}(y_k, ..., mu^a(y_{a+b}, ..., y_{b+1}),
                                       y_b, ..., y_1) = 0,
        star = i(y_1) + ... + i(y_b) - b.

    Each stored outer entry is opened at every slot, right to left, so the
    sign of the tail y_b..y_1 is carried along; the inner operation is any
    stored entry whose output is the label in that slot.  Totals are kept
    per root-of-unity exponent and tested for zero in Q(zeta_order).  Every
    term is a product of two coefficients, so all magnitudes are first
    scaled by the common denominator D: totals scale by D^2, zeros stay
    zeros, and the sums run on integers.
    """
    scale = lcm(*(Fraction(mag).denominator for t in ops.values() for mag, _ in t.values()))
    ops = {
        k: {key: (int(mag * scale), exp) for key, (mag, exp) in t.items()}
        for k, t in ops.items()
    }
    inner = {}  # (output label, arity) -> [(inputs, magnitude, exponent)]
    for k, table in ops.items():
        for (out, ins), (mag, exp) in table.items():
            if mag:
                inner.setdefault((out, k), []).append((ins, mag, exp))
    inner_arities = sorted(ops)
    totals = {}
    for table in ops.values():
        for (out, ins), (mag_out, exp_out) in table.items():
            room = max_arity - len(ins) + 1  # largest inner arity that fits
            if not mag_out or room < inner_arities[0]:
                continue
            star = 0
            for p in range(len(ins) - 1, -1, -1):
                head, tail = ins[:p], ins[p + 1:]
                for a in inner_arities:
                    if a > room:
                        break
                    for block, mag_in, exp_in in inner.get((ins[p], a), ()):
                        key = (len(ins) - 1 + a, head + block + tail, out)
                        term = mag_out * mag_in
                        exp = (exp_out + exp_in) % order
                        acc = totals.get(key)
                        if acc is None:
                            acc = totals[key] = {}
                        acc[exp] = acc.get(exp, 0) + (-term if star else term)
                star ^= mask_parity(ins[p]) ^ 1
    return [
        f"Stasheff identity at arity {key[0]} on {key[1]} -> {key[2]} is {acc}"
        for key, acc in totals.items()
        if not cyclotomic_is_zero(acc, order)
    ][:5]


# -- weights, supports and counts ------------------------------------------

def weight_problems(ops, n):
    """Every entry of mu^k: multiplicity vector of the inputs = e_K0 + q*1.

    q = (k - 2)/n must be a whole number; the multiplicity of index j is
    the number of inputs containing j.
    """
    out = []
    for k, table in ops.items():
        q, rem = divmod(k - 2, n)
        for (k0, ins), (mag, _) in table.items():
            if not mag:
                continue
            if rem:
                out.append(f"nonzero mu^{k} at an arity outside 2 + n q")
                continue
            mult = [sum(m >> j & 1 for m in ins) for j in range(n + 2)]
            want = [(k0 >> j & 1) + q for j in range(n + 2)]
            if mult != want:
                out.append(f"mu^{k} on {ins} -> {k0}: multiplicities {mult}")
    return out[:5]


def mu2_problems(table2, n):
    """mu^2: exactly 3^(n+2) entries, on disjoint pairs, output the union,
    coefficient +-1.  Disjoint ordered pairs number 3^(n+2) (each index is
    in x, in y or in neither), so the count makes the support complete."""
    out = []
    live = {key: c for key, c in table2.items() if c[0]}
    if len(live) != 3 ** (n + 2):
        out.append(f"mu^2 has {len(live)} entries, expected {3 ** (n + 2)}")
    for (k0, (x, y)), (mag, exp) in live.items():
        if x & y or k0 != x | y or mag not in (1, -1) or exp:
            out.append(f"mu^2({x}, {y}) -> {k0} with coefficient {mag}")
    return out[:5]


def admissible_count(n, k):
    """Number of k-tuples of subsets with multiplicity vector e_K0 + q*1.

    Independently per index j: j lies in exactly q or q + 1 of the k
    subsets, so the count is prod_j (C(k, q) + C(k, q+1)).
    """
    q = (k - 2) // n
    return (comb(k, q) + comb(k, q + 1)) ** (n + 2)


def admissible_problems(calls_by_arity, n, arities):
    """The sweep evaluated each admissible tuple exactly once."""
    out = []
    for k in arities:
        want = admissible_count(n, k)
        got = calls_by_arity.get(k, 0)
        if got != want:
            out.append(f"arity {k}: {got} minimal_mu calls, {want} admissible tuples")
    return out


def versality_problems(orderings, n):
    """The class: sum over the (n+2)! orderings of the singletons of the
    e_empty coefficient of mu^{n+2} is +-1, and no ordering has an output
    other than the empty set.  `orderings` maps each ordering (a tuple of
    singleton masks) to its {K0: coef}."""
    out = []
    if len(orderings) != factorial(n + 2):
        out.append(f"{len(orderings)} orderings, expected {factorial(n + 2)}")
    total = 0
    for perm, res in orderings.items():
        if sorted(perm) != [1 << i for i in range(n + 2)]:
            out.append(f"{perm} is not an ordering of the singletons")
        for k0, coef in res.items():
            if k0 and coef:
                out.append(f"ordering {perm} has output {k0}")
        total += res.get(0, 0)
    if total not in (1, -1):
        out.append(f"versality class {total} is not a unit")
    return out[:5]


def smash_problems(base_ops, sm_basis, sm_ops, factors, n):
    """Smash with a group G of the given invariant factors: dimension
    |G| 2^(n+2), |table_k| |G|^k entries at arity k, and each entry lies
    over a base entry with the same magnitude and output character the sum
    of the input characters."""
    order = prod(factors)
    out = []
    if len(sm_basis) != order << (n + 2):
        out.append(f"smash dimension {len(sm_basis)}, expected {order << (n + 2)}")
    for k, table in base_ops.items():
        live = sum(1 for c in table.values() if c[0])
        got = sum(1 for c in sm_ops.get(k, {}).values() if c[0])
        if got != live * order ** k:
            out.append(f"arity {k}: {got} smash entries, expected {live} * {order}^{k}")
    for k, table in sm_ops.items():
        for ((k0, chi0), ins), (mag, _) in table.items():
            base = base_ops.get(k, {}).get((k0, tuple(a for a, _ in ins)))
            total = tuple(
                sum(chi[i] for _, chi in ins) % f for i, f in enumerate(factors)
            )
            if base is None or base[0] != mag or total != tuple(chi0):
                out.append(f"smash entry {ins} -> {(k0, chi0)} has no base entry")
    return out[:5]


# -- negative controls -------------------------------------------------------

def _copy(ops):
    return {k: dict(table) for k, table in ops.items()}


def _singleton_pairs(ops, key_of=lambda label: label):
    """mu^2 entries on two distinct singletons, sorted: flipping or dropping
    one breaks associativity against a third singleton."""
    return sorted(
        key for key, c in ops[2].items()
        if c[0] and all(popcount(key_of(x)) == 1 for x in key[1])
        and key_of(key[1][0]) != key_of(key[1][1])
    )


def controls_missed(controls):
    """Run each (name, check, mutated copy) and list the uncaught ones."""
    return [name for name, check, bad in controls if not check(bad)]


def stasheff_controls(rng, ops, order=1):
    """A sub-structure of arities <= 3 checked to arity 4 (cheap, and
    complete: an arity-4 identity only composes arities <= 3), with one
    mu^2 entry on singletons flipped, dropped or (order > 1) twisted."""
    sub = {k: t for k, t in ops.items() if k <= 3}
    key_of = (lambda label: label[0]) if order > 1 else (lambda label: label)
    key = rng.choice(_singleton_pairs(sub, key_of))
    mag, exp = sub[2][key]
    flipped, dropped, twisted = _copy(sub), _copy(sub), _copy(sub)
    flipped[2][key] = (-mag, exp)
    del dropped[2][key]
    twisted[2][key] = (mag, exp + 1)
    check = lambda bad: stasheff_problems(bad, 4, order)
    out = [
        ("stasheff: flipped sign", check, flipped),
        ("stasheff: dropped entry", check, dropped),
    ]
    if order > 1:
        out.append(("stasheff: root-of-unity twist", check, twisted))
    return out


def weight_controls(rng, ops, n):
    k = rng.choice(sorted(k for k, t in ops.items() if t))
    key = rng.choice(sorted(ops[k]))
    bad = _copy(ops)
    coef = bad[k].pop(key)
    bad[k][(key[0] ^ (1 << rng.randrange(n + 2)), key[1])] = coef
    return [("weights: moved output", lambda b: weight_problems(b, n), bad)]


def mu2_controls(rng, table2, n):
    keys = sorted(k for k, c in table2.items() if c[0])
    dropped = dict(table2)
    del dropped[rng.choice(keys)]
    doubled = dict(table2)
    key = rng.choice(keys)
    doubled[key] = (2 * doubled[key][0], doubled[key][1])
    check = lambda bad: mu2_problems(bad, n)
    return [("mu2: dropped entry", check, dropped),
            ("mu2: coefficient 2", check, doubled)]


def admissible_controls(rng, calls_by_arity, n, arities):
    k = rng.choice(sorted(arities))
    bad = dict(calls_by_arity)
    bad[k] = bad.get(k, 0) - 1
    return [("admissible: one tuple missed",
             lambda b: admissible_problems(b, n, arities), bad)]


def versality_controls(rng, orderings, n):
    """Drop one ordering (not one carrying twice the class, whose removal
    would leave a unit), or give one a nonempty output."""
    total = sum(res.get(0, 0) for res in orderings.values())
    live = sorted(p for p, res in orderings.items() if res.get(0, 0) not in (0, 2 * total))
    dropped = dict(orderings)
    dropped[rng.choice(live)] = {}
    moved = dict(orderings)
    perm = rng.choice(live)
    moved[perm] = {1 << rng.randrange(n + 2): orderings[perm][0], 0: orderings[perm][0]}
    check = lambda bad: versality_problems(bad, n)
    return [("versality: dropped ordering", check, dropped),
            ("versality: nonempty output", check, moved)]


def smash_controls(rng, base_ops, sm_basis, sm_ops, factors, n):
    k = rng.choice(sorted(sm_ops))
    bad = _copy(sm_ops)
    del bad[k][rng.choice(sorted(bad[k]))]
    return [("smash: dropped entry",
             lambda b: smash_problems(base_ops, sm_basis, b, factors, n), bad)]
