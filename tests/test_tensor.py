"""Tensor-space representations: anchors, relations, dualities."""

import functools
import itertools
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from qschur.laurent import (LaurentPoly, ONE, Q, QINV, quantum_binomial,
                            quantum_factorial, quantum_integer)
from qschur.linalg import Echelon, accumulate, mat_nullspace
from qschur.tableaux import weight
from qschur import tensor
from qschur.tensor import (Endo, _matmul_mod, certified_image_dim,
                           commutant_dim, commutant_dim_modular,
                           hecke_generator, image_algebra_dim,
                           image_algebra_dim_modular, k_vector, kappa,
                           kappa_mixed, mixed_basis, ordinary_basis,
                           rank_mod, ugen_mixed, ugen_on_kinds,
                           ugen_ordinary, uprime_generators,
                           verify_schur_weyl, walled_generators, weight_le,
                           weight_projector)


def test_hecke_relations():
    for n in (2, 3):
        for m in (2, 3):
            ident = Endo.identity(ordinary_basis(n, m))
            gens = [hecke_generator(n, m, i) for i in range(1, m)]
            for g in gens:
                assert (g + ident.scale(Q)).then(
                    g - ident.scale(QINV)).is_zero()
            for a, b in zip(gens, gens[1:]):
                assert a.then(b).then(a) == b.then(a).then(b)


def test_walled_E_anchor():
    E, S, Shat = walled_generators(2, 1, 1)
    assert E.row((1, 1)) == {(1, 1): QINV, (2, 2): QINV}
    assert E.row((1, 2)) == {}
    assert E.row((2, 2)) == {(1, 1): Q, (2, 2): Q}


def test_E_squared_is_quantum_n_times_E():
    for n in (2, 3, 4):
        for r, s in ((1, 1),) if n == 4 else ((1, 1), (2, 1), (1, 2)):
            E, _, _ = walled_generators(n, r, s)
            assert E.then(E) == E.scale(quantum_integer(n))


def test_single_factor_actions():
    e = ugen_on_kinds(2, ("v",), ("e", 1, 1))
    assert e.terms == {((2,), (1,)): ONE}
    f = ugen_on_kinds(2, ("v",), ("f", 1, 1))
    assert f.terms == {((1,), (2,)): ONE}
    # dual: e_1 v*_1 = -q^{-1} v*_2 ; K_1 v*_2 = q v*_2 ; f_1 v*_2 = -q v*_1
    ed = ugen_on_kinds(2, ("d",), ("e", 1, 1))
    assert ed.terms == {((1,), (2,)): LaurentPoly.q(-1, -1)}
    kd = ugen_on_kinds(2, ("d",), ("qh", k_vector(2, 1)))
    assert kd.row((2,)) == {(2,): Q} and kd.row((1,)) == {(1,): QINV}
    fd = ugen_on_kinds(2, ("d",), ("f", 1, 1))
    assert fd.terms == {((2,), (1,)): LaurentPoly.q(1, -1)}
    # divided powers beyond the nilpotency degree vanish on one factor
    assert ugen_on_kinds(2, ("v",), ("e", 1, 2)).is_zero()
    assert ugen_on_kinds(2, ("d",), ("e", 1, 2)).is_zero()


def test_divided_powers_match_scaled_products():
    cases = [(kinds, 2) for kinds in (("v", "v"), ("v", "d"), ("d", "d"),
                                      ("v", "v", "v"))]
    cases += [(kinds, 3) for kinds in (("v", "v", "v"), ("v", "v", "d"),
                                       ("v", "d", "d"), ("d", "d", "d"))]
    for n in (2, 3):
        for kinds, k in cases:
            for i in range(1, n):
                for tag in ("e", "f"):
                    g1 = ugen_on_kinds(n, kinds, (tag, i, 1))
                    power = g1
                    for _ in range(k - 1):
                        power = power.then(g1)
                    assert ugen_on_kinds(n, kinds, (tag, i, k)).scale(
                        quantum_factorial(k)) == power


# -- the former coproduct recursion, kept as the divided-power oracle ----------

def k_single(n, kind, i, a):
    """K_i^a on one factor ('v' plain, 'd' dual)."""
    sign = 1 if kind == "v" else -1
    return {(j, j): LaurentPoly.q(sign * a * ((j == i) - (j == i + 1)))
            for j in range(1, n + 1)}


def e_single(n, kind, i, a, k):
    """K_i^a e_i^(k) on one factor."""
    if k == 0:
        return k_single(n, kind, i, a)
    if k == 1:
        if kind == "v":
            return {(i + 1, i): LaurentPoly.q(a)}
        return {(i, i + 1): LaurentPoly.q(a - 1, -1)}
    return {}


def f_single(n, kind, i, a, k):
    """f_i^(k) K_i^a on one factor."""
    if k == 0:
        return k_single(n, kind, i, a)
    if k == 1:
        if kind == "v":
            return {(i, i + 1): LaurentPoly.q(a)}
        return {(i + 1, i): LaurentPoly.q(a + 1, -1)}
    return {}


def family_matrix(n, kinds, i, a, k, single, qsign):
    """K^a e^(k) (qsign +1) or f^(k) K^a (qsign -1) on the given factor
    kinds, by the coproduct: weights q^(+-j(k-j)), with second leg
    K^(a+j-k) e^(j), or first leg f^(k-j) K^(j+a) (test oracle)."""
    if not kinds:
        return {((), ()): ONE} if k == 0 else {}
    out = {}
    for j in range(k + 1):
        if qsign > 0:
            head = single(n, kinds[0], i, a, k - j)
            tail = family_matrix(n, kinds[1:], i, a + j - k, j, single, qsign)
        else:
            head = single(n, kinds[0], i, j + a, k - j)
            tail = family_matrix(n, kinds[1:], i, a, j, single, qsign)
        accumulate(out, ((((s1,) + s2, (t1,) + t2), c1 * c2)
                         for (s1, t1), c1 in head.items()
                         for (s2, t2), c2 in tail.items()),
                   LaurentPoly.q(qsign * j * (k - j)))
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", range(5))
def test_divided_powers_match_the_coproduct_recursion(n, m):
    for kinds in itertools.product("vd", repeat=m):
        for i in range(1, n):
            for k in range(m + 2):
                assert ugen_on_kinds(n, kinds, ("e", i, k)).terms == \
                    family_matrix(n, kinds, i, 0, k, e_single, 1)
                assert ugen_on_kinds(n, kinds, ("f", i, k)).terms == \
                    family_matrix(n, kinds, i, 0, k, f_single, -1)


@pytest.mark.parametrize("kinds, g", [
    (("d",), ("e", 2, 1)),      # i past n - 1: gave the index 3 at n = 2
    (("v",), ("f", 0, 1)),      # i = 0: gave the key (0,)
    (("v",), ("e", 1, -1)),
    (("v",), ("e", 1, 1.0)),
    (("v",), ("qh", (1,))),     # h shorter than n: raised IndexError
    (("v",), ("qh", (1, 0, 0))),
    (("v", "x"), ("e", 1, 1)),  # a kind other than 'v' was read as dual
    (("x",), ("qh", (1, 0))),
])
def test_ugen_rejects_a_malformed_generator(kinds, g):
    with pytest.raises(ValueError):
        ugen_on_kinds(2, kinds, g)


@pytest.mark.parametrize("n", [2, 3])
def test_ugen_keys_lie_in_the_basis(n):
    for m in range(4):
        for kinds in itertools.product("vd", repeat=m):
            basis = set(itertools.product(range(1, n + 1), repeat=m))
            for g in uprime_generators(n, m + 1):
                for src, tgt in ugen_on_kinds(n, kinds, g).terms:
                    assert src in basis and tgt in basis


def test_quantum_group_relations_on_tensor_space():
    for n in (2, 3):
        m = 2
        for i in range(1, n):
            K = ugen_ordinary(n, m, ("qh", k_vector(n, i)))
            Ki = ugen_ordinary(n, m, ("qh", k_vector(n, i, -1)))
            e = ugen_ordinary(n, m, ("e", i, 1))
            f = ugen_ordinary(n, m, ("f", i, 1))
            assert Ki.then(e).then(K) == e.scale(LaurentPoly.q(2))
            assert Ki.then(f).then(K) == f.scale(LaurentPoly.q(-2))
            assert (f.then(e) - e.then(f)).scale(Q - QINV) == K - Ki


def test_serre_relation_n3():
    n, m = 3, 3
    e1 = ugen_ordinary(n, m, ("e", 1, 1))
    e2 = ugen_ordinary(n, m, ("e", 2, 1))

    def prod(*ops):
        out = Endo.identity(ordinary_basis(n, m))
        for op in reversed(ops):
            out = out.then(op)
        return out

    serre = prod(e1, e1, e2) - \
        prod(e1, e2, e1).scale(quantum_integer(2)) + prod(e2, e1, e1)
    assert serre.is_zero()


def test_kappa_anchors():
    k2 = kappa(2)
    assert k2[1] == {(2,): LaurentPoly.q(1, -1)}
    assert k2[2] == {(1,): LaurentPoly.q(2)}
    k3 = kappa(3)
    assert k3[2] == {(1, 3): LaurentPoly.q(2), (3, 1): LaurentPoly.q(3, -1)}


def test_kappa_equivariance():
    for n, r, s in itertools.product((2, 3), range(3), range(3)):
        if r + s == 0:
            continue
        kap = kappa_mixed(n, r, s)
        m = r + (n - 1) * s
        for g in uprime_generators(n, r + s):
            assert kap.then(ugen_ordinary(n, m, g)) == \
                ugen_mixed(n, r, s, g).then(kap)


def test_bicommutation():
    for n in (2, 3):
        for r, s in ((1, 1), (2, 1), (1, 2)):
            E, S, Shat = walled_generators(n, r, s)
            walled = [E] + S + Shat
            for g in uprime_generators(n, r + s):
                u = ugen_mixed(n, r, s, g)
                assert all(u.commutes_with(w) for w in walled)


def test_weight_projector_property():
    for n in (2, 3):
        for m in (1, 2):
            comps = [c for c in itertools.product(range(m + 1), repeat=n)
                     if sum(c) == m]
            for lam in comps:
                u = weight_projector(n, m, lam)
                for key in ordinary_basis(n, m):
                    wt = weight(key, n)
                    c = u.terms.get((key, key), LaurentPoly.zero())
                    if wt == lam:
                        assert c == ONE
                    elif weight_le(wt, lam):
                        assert c.is_zero()


def former_weight_projector(n, m, lam):
    """The projector with its diagonal scalar computed afresh for each key."""
    entries = {}
    for key in ordinary_basis(n, m):
        wt = weight(key, n)
        scalar = ONE
        for i in range(n - 1):
            a = wt[i] - wt[i + 1]
            t = lam[i] - lam[i + 1] + m + 1
            scalar = scalar * quantum_binomial(a + m + 1, t)
            if scalar.is_zero():
                break
        if not scalar.is_zero():
            entries[(key, key)] = scalar
    return entries


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_weight_projector_matches_the_per_key_scalars(n, m):
    for lam in itertools.product(range(m + 1), repeat=n):
        if sum(lam) != m:
            continue
        terms = weight_projector(n, m, lam).terms
        former = former_weight_projector(n, m, lam)
        assert terms == former
        assert list(terms) == list(former)


def test_commutant_trivial_cases():
    keys = [(i,) for i in range(1, 4)]
    assert commutant_dim([], keys) == 9
    assert commutant_dim([Endo.identity(keys)], keys) == 9


def test_commutant_E_anchor():
    E, _, _ = walled_generators(2, 1, 1)
    assert commutant_dim([E], mixed_basis(2, 1, 1)) == 10


def test_commutant_basis_members_commute():
    E, _, _ = walled_generators(2, 1, 1)
    keys = mixed_basis(2, 1, 1)
    block = (keys, [E.terms])
    unknowns = list(itertools.product(keys, keys))
    pos = {u: t for t, u in enumerate(unknowns)}
    rows = [accumulate({}, ((pos[u], v) for u, v in items))
            for items in tensor._commutant_rows(block, block)]
    basis = mat_nullspace(rows, len(unknowns))
    assert len(basis) == commutant_dim([E], keys) == 10
    for vec in basis:
        den = functools.reduce(operator.mul, (v.den for v in vec), ONE)
        b = Endo({u: (v * den).num for u, v in zip(unknowns, vec)
                  if not v.is_zero()})
        assert b.commutes_with(E)


def test_image_algebra_trivial_cases():
    keys = [(i,) for i in range(1, 4)]
    assert image_algebra_dim([], keys) == 1
    s1 = hecke_generator(2, 2, 1)
    assert image_algebra_dim([s1], ordinary_basis(2, 2)) == 2


def test_image_algebra_exact_matches_modular():
    n, m = 2, 2
    keys = ordinary_basis(n, m)
    gens = [ugen_ordinary(n, m, g) for g in uprime_generators(n, m)]
    exact = image_algebra_dim(gens, keys)
    assert exact == 10
    assert image_algebra_dim_modular(
        gens, keys, *tensor.SPECIALIZATIONS[0]) == exact


def test_certified_image_dim_ordinary():
    from math import comb
    for n, m in ((2, 2), (2, 3), (3, 2)):
        keys = ordinary_basis(n, m)
        hecke = [hecke_generator(n, m, i) for i in range(1, m)]
        gens = [ugen_ordinary(n, m, g) for g in uprime_generators(n, m)]
        dim = certified_image_dim(gens, keys, hecke)
        assert dim == comb(n * n + m - 1, m)


def test_verify_schur_weyl_anchor():
    rep = verify_schur_weyl(2, 1, 1)
    assert rep["ok"]
    assert rep["commutant_dim"] == rep["image_dim"] == \
        rep["rational_bitableaux"] == rep["coeff_quotient_dim"] == 10


P = 67108859  # the prime of the modular closure


def test_matmul_mod_does_not_overflow_past_2048():
    # 2049 products of (p-1)^2 overflow an int64 row sum
    d = 2049
    a = numpy.full((1, d), P - 1, dtype=numpy.int64)
    b = numpy.full((d, d), P - 1, dtype=numpy.int64)
    assert (_matmul_mod(a, b, P) == d).all()


def test_matmul_mod_matches_python_reference():
    rng = random.Random(81)
    d = 81
    a = [[rng.randrange(-P, 2 * P) for _ in range(d)] for _ in range(d)]
    b = [[rng.randrange(-P, 2 * P) for _ in range(d)] for _ in range(d)]
    want = [[sum(a[i][t] * b[t][j] for t in range(d)) % P
             for j in range(d)] for i in range(d)]
    got = _matmul_mod(numpy.array(a, dtype=numpy.int64),
                      numpy.array(b, dtype=numpy.int64), P)
    assert got.tolist() == want


def rank_mod_reference(rows, width, p):
    """Gaussian elimination mod p on dense Python-int rows (test oracle)."""
    dense = []
    for row in rows:
        vec = [0] * width
        for col, v in row:
            vec[col] = (vec[col] + v) % p
        dense.append(vec)
    rank = 0
    for col in range(width):
        hit = next((i for i in range(rank, len(dense)) if dense[i][col]),
                   None)
        if hit is None:
            continue
        dense[rank], dense[hit] = dense[hit], dense[rank]
        inv = pow(dense[rank][col], -1, p)
        for i in range(rank + 1, len(dense)):
            f = dense[i][col] * inv % p
            dense[i] = [(a - f * b) % p for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [7, P, 3037000493])
@pytest.mark.parametrize("seed", range(4))
def test_rank_mod_matches_gaussian_elimination(p, seed):
    rng = random.Random(seed)
    width = rng.randrange(1, 12)
    rows = []
    for _ in range(rng.randrange(1, 14)):
        # columns repeat within a row; some rows cancel to zero mod p
        row = [(rng.randrange(width), rng.randrange(p))
               for _ in range(rng.randrange(0, 6))]
        if rng.random() < 0.2:
            row += [(col, p - v) for col, v in row]
        rows.append(row)
    rows.append([])      # an all-zero row
    # a row summing two earlier rows, so the rank falls short
    rows.append(rows[0] + rows[1])
    want = rank_mod_reference(rows, width, p)
    assert rank_mod(rows, p) == want
    assert rank_mod(iter(rows), p) == want


def test_rank_mod_edge_cases():
    assert rank_mod([], P) == 0
    assert rank_mod([[], []], P) == 0
    assert rank_mod([[(0, 1), (0, P - 1)]], P) == 0
    # residues of a repeated column add up before the rank is taken
    assert rank_mod([[(0, 2), (0, 3)], [(0, 5)]], 7) == 1
    assert rank_mod([[(1, 3)], [(0, 1), (1, 1)], [(0, 1)]], 3037000493) \
        == 2
    # columns are any hashable keys, and an unused one is no column
    assert rank_mod([[("a", 1)], [(("b", 9), 2), ("a", 3)]], 7) == 2
    assert rank_mod([[(10 ** 9, 1)], [(10 ** 9, 2)]], 7) == 1


@pytest.mark.parametrize("p", [2 ** 61 - 1, 9, 4])
def test_rank_mod_rejects_a_modulus_the_bounds_cannot_use(p):
    # over F_p the rows below are proportional (rank 1); at 2^61 - 1 the
    # int64 products overflow, and 9 and 4 are not prime
    with pytest.raises(ValueError, match="prime"):
        rank_mod([[(0, p - 1), (1, 2)], [(0, 1), (1, p - 2)]], p)


def test_sparse_echelon_keeps_rows_monic_at_their_lowest_column():
    ech = tensor._SparseEchelon(7)
    assert ech.insert({5: 3, 2: -4}) == {2: 1, 5: 1}
    # 2 * (row above) cancels column 2 and leaves 5 - 2 at column 5
    assert ech.insert({2: 2, 5: 5, 9: 7}) == {5: 1}
    assert ech.insert({2: 9, 5: 2}) is None
    assert ech.insert({}) is None
    assert ech.rank == 2 and sorted(ech.rows) == [2, 5]


def column_key(i):
    """Column i as a key of one of three kinds: a tuple, a string or a
    shifted (possibly negative) integer."""
    return ((i, "x"), f"c{i}", 7 * i - 100)[i % 3]


@st.composite
def sparse_rows(draw):
    """(p, width, rows): rows of (column position, integer) pairs that use
    every column of the width, some repeating a column, with residues
    unreduced and negative, and sometimes a dependent row."""
    p = draw(st.sampled_from([2, 7, P, 3037000493]))
    width = draw(st.integers(1, 2 * tensor._DENSE_WIDTH))
    entry = st.tuples(st.integers(0, width - 1), st.integers(-2 * p, 2 * p))
    rows = draw(st.lists(st.lists(entry, max_size=8), max_size=12))
    full = draw(st.lists(st.integers(-p, p), min_size=width,
                         max_size=width))
    rows.append(list(enumerate(full)))
    if draw(st.booleans()):
        rows.append(rows[0] + [(col, -v) for col, v in rows[-1]])
    return p, width, rows


@given(sparse_rows())
@settings(max_examples=60, deadline=None)
def test_both_kernels_match_sympy_rank_over_gf_p(case):
    p, width, rows = case
    dense = [[0] * width for _ in rows]
    for vec, row in zip(dense, rows):
        for col, v in row:
            vec[col] += v
    field = GF(p)
    want = DomainMatrix([[field(v) for v in vec] for vec in dense],
                        (len(dense), width), field).rank()
    sparse = tensor._SparseEchelon(p)
    for vec in dense:
        sparse.insert(dict(enumerate(vec)))
    assert sparse.rank == want
    ech = tensor._ModEchelon(p, width)
    ech.insert(numpy.array([[v % p for v in vec] for vec in dense],
                           dtype=numpy.int64))
    assert ech.rank == want
    assert rank_mod([[(column_key(col), v) for col, v in row]
                     for row in rows], p) == want


# -- the block closure and the modular commutant bound -----------------------

def dense_residues(g, index, q0, p):
    """g's dense matrix of residues at q = q0 modulo p, rows and columns
    in the order of index."""
    m = numpy.zeros((len(index), len(index)), dtype=numpy.int64)
    for (src, tgt), v in g.terms.items():
        m[index[src], index[tgt]] = v.eval_mod(q0, p)
    return m


def full_closure_modular(gens, keys, q0, p):
    """The former closure: one d^2-entry span, no blocks (test oracle)."""
    keys = list(keys)
    index = {k: t for t, k in enumerate(keys)}
    d = len(keys)
    mats = [dense_residues(g, index, q0, p) for g in gens]
    pivots = {}

    def reduce_insert(flat):
        flat = flat % p
        while True:
            nz = numpy.nonzero(flat)[0]
            if nz.size == 0:
                return False
            col = int(nz[0])
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = (flat, pow(int(flat[col]), -1, p))
                return True
            rowvec, inv = hit
            flat = (flat - int(flat[col]) * inv % p * rowvec) % p

    kept = [m for m in [numpy.eye(d, dtype=numpy.int64)] + mats
            if reduce_insert(m.reshape(-1).copy())]
    head = 0
    while head < len(kept):
        m = kept[head]
        head += 1
        for g in mats:
            prod = _matmul_mod(m, g, p)
            if reduce_insert(prod.reshape(-1).copy()):
                kept.append(prod)
    return len(pivots)


def mixed_point(n, r, s):
    keys = mixed_basis(n, r, s)
    E, S, Shat = walled_generators(n, r, s)
    walled = ([E] if E is not None else []) + S + Shat
    ugens = [ugen_mixed(n, r, s, g) for g in uprime_generators(n, r + s)]
    return keys, walled, ugens


def ordinary_point(n, m, projectors=False):
    keys = ordinary_basis(n, m)
    hecke = [hecke_generator(n, m, i) for i in range(1, m)]
    gens = [ugen_ordinary(n, m, g) for g in uprime_generators(n, m)]
    if projectors:
        # more diagonal generators than the K's, as in weight-projectors
        gens += [ugen_ordinary(n, m, ("qh", tuple(int(t == j)
                                                  for t in range(n))))
                 for j in range(n)]
        gens += [weight_projector(n, m, lam)
                 for lam in itertools.product(range(m + 1), repeat=n)
                 if sum(lam) == m]
    return keys, hecke, gens


SUITE_POINTS = [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 1, 0),
                (2, 2, 0)]
BENCH_POINTS = [(3, 2, 1), (3, 1, 2), (4, 1, 1), (2, 2, 2)]
# the package's first specialization, q0 = 1 in characteristic 3, and the
# roots of unity -1 mod 7 and i mod 5, where the K's do not separate weights
SPECIALIZATIONS = [(3, P), (1, 3), (6, 7), (2, 5)]


# the exact closure over Z[q,q^-1] takes minutes from (3,1,1) and (3,2) on
@pytest.mark.parametrize("n, r, s", [(2, 1, 1), (2, 2, 1), (2, 1, 2),
                                     (2, 1, 0), (2, 2, 0)])
def test_block_closure_matches_exact_closure_mixed(n, r, s):
    keys, _, ugens = mixed_point(n, r, s)
    assert image_algebra_dim_modular(
        ugens, keys, *tensor.SPECIALIZATIONS[0]) == \
        image_algebra_dim(ugens, keys)


@pytest.mark.parametrize("n, m, projectors",
                         [(2, 2, False), (2, 3, False), (2, 2, True)])
def test_block_closure_matches_exact_closure_ordinary(n, m, projectors):
    keys, _, gens = ordinary_point(n, m, projectors)
    assert image_algebra_dim_modular(
        gens, keys, *tensor.SPECIALIZATIONS[0]) == \
        image_algebra_dim(gens, keys)


@pytest.mark.parametrize("q0, p", SPECIALIZATIONS)
@pytest.mark.parametrize("n, r, s", BENCH_POINTS)
def test_block_closure_matches_full_closure(n, r, s, q0, p):
    keys, _, ugens = mixed_point(n, r, s)
    assert image_algebra_dim_modular(ugens, keys, q0=q0, p=p) == \
        full_closure_modular(ugens, keys, q0, p)


def closure_points():
    """(id, keys, generators, specializations): the schur-weyl suite's
    points, the weight-projectors points with and without the extra
    diagonal generators, and (3,2,2) at the first specialization."""
    first = [tensor.SPECIALIZATIONS[0]]
    for n, r, s in SUITE_POINTS:
        keys, _, ugens = mixed_point(n, r, s)
        yield f"{n}-{r}-{s}", keys, ugens, first + SPECIALIZATIONS[1:2]
    for n, m in itertools.product((2, 3), (1, 2, 3)):
        for projectors in (False, True):
            keys, _, gens = ordinary_point(n, m, projectors)
            yield f"{n}-{m}-{projectors}", keys, gens, first
    keys, _, ugens = mixed_point(3, 2, 2)
    yield "3-2-2", keys, ugens, first


@pytest.mark.parametrize("point", closure_points(), ids=lambda pt: pt[0])
def test_the_closure_is_the_same_with_either_kernel_forced(point,
                                                            monkeypatch):
    _, keys, gens, specializations = point
    for q0, p in specializations:
        dims = []
        for width in (math.inf, 0):   # every block sparse, then dense
            monkeypatch.setattr(tensor, "_DENSE_WIDTH", width)
            dims.append(image_algebra_dim_modular(gens, keys, q0, p))
        monkeypatch.undo()
        assert dims == [image_algebra_dim_modular(gens, keys, q0, p)] * 2


def unblocked_commutant_dim(gens, keys, q0=None, p=None):
    """Nullity of the equations X g = g X over one block of all keys (test
    oracle): exact by an Echelon, or at q = q0 mod p by dense elimination."""
    keys = list(keys)
    pos = {u: t for t, u in enumerate(itertools.product(keys, keys))}
    rows = []
    for g in gens:
        eqs = {}
        for (b, c), v in g.terms.items():
            for a in keys:
                eqs.setdefault((a, c), []).append((pos[a, b], v))
        for (a, b), v in g.terms.items():
            for c in keys:
                eqs.setdefault((a, c), []).append((pos[b, c], -v))
        rows += eqs.values()
    if p is not None:
        return len(pos) - rank_mod_reference(
            [[(u, v.eval_mod(q0, p)) for u, v in row] for row in rows],
            len(pos), p)
    ech = Echelon()
    for row in rows:
        ech.insert(accumulate({}, row))
    return len(pos) - ech.rank


def random_generators(rng, keys, count, n):
    """count sparse maps on keys with small Laurent entries; an entry
    stays inside a weight class, or with odds 1/5 may join two classes."""
    gens = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            src = rng.choice(keys)
            tgt = rng.choice(keys if rng.random() < 0.2 else
                             [k for k in keys
                              if weight(k, n) == weight(src, n)])
            terms[src, tgt] = LaurentPoly.q(rng.randrange(-2, 3),
                                            rng.choice((-2, -1, 1, 3)))
        gens.append(Endo(terms))
    return gens


@pytest.mark.parametrize("seed", range(8))
def test_commutant_dims_match_the_unblocked_nullity(seed):
    rng = random.Random(seed)
    keys = ordinary_basis(2, 3)
    gens = random_generators(rng, keys, seed % 4, 2)
    if seed % 2:
        # an entry between the weight classes (3, 0) and (2, 1)
        gens.append(Endo({((1, 1, 1), (1, 1, 2)): Q + ONE}))
    exact = unblocked_commutant_dim(gens, keys)
    assert commutant_dim(gens, keys) == exact
    for q0, p in SPECIALIZATIONS:
        assert commutant_dim_modular(gens, keys, q0=q0, p=p) == \
            unblocked_commutant_dim(gens, keys, q0, p) >= exact


@pytest.mark.parametrize("n, r, s", SUITE_POINTS + BENCH_POINTS)
def test_walled_blocks_are_the_weight_difference_classes(n, r, s):
    keys, walled, _ = mixed_point(n, r, s)
    classes = {}
    for k in keys:
        diff = tuple(a - b for a, b in zip(weight(k[:r], n),
                                           weight(k[r:], n)))
        classes.setdefault(diff, []).append(k)
    blocks = tensor._blocks([g.terms for g in walled], keys)
    assert sorted(b for b, _ in blocks) == sorted(classes.values())


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_hecke_blocks_are_the_weight_classes(n, m):
    keys, hecke, _ = ordinary_point(n, m)
    classes = {}
    for k in keys:
        classes.setdefault(weight(k, n), []).append(k)
    blocks = tensor._blocks([g.terms for g in hecke], keys)
    assert sorted(b for b, _ in blocks) == sorted(classes.values())


@pytest.mark.parametrize("n, r, s", SUITE_POINTS)
def test_modular_commutant_bounds_the_exact_commutant(n, r, s):
    keys, walled, _ = mixed_point(n, r, s)
    exact = unblocked_commutant_dim(walled, keys)
    assert commutant_dim(walled, keys) == exact
    assert commutant_dim_modular(
        walled, keys, *tensor.SPECIALIZATIONS[0]) == exact
    for q0, p in SPECIALIZATIONS[1:]:
        assert commutant_dim_modular(walled, keys, q0=q0, p=p) >= exact


def test_the_bounds_are_one_sided_at_a_degenerate_q0(monkeypatch):
    # diag(1, q) generates span{1, g} (dim 2) with the diagonal matrices
    # as commutant (dim 2); at q0 = 1 it is the identity, so the closure
    # drops to 1 and the commutant grows to 4
    keys = [(1,), (2,)]
    g = Endo({((1,), (1,)): ONE, ((2,), (2,)): Q})
    assert image_algebra_dim_modular([g], keys, q0=1, p=3) == 1
    assert commutant_dim_modular([g], keys, q0=1, p=3) == 4
    assert image_algebra_dim([g], keys) == commutant_dim([g], keys) == 2
    assert certified_image_dim([g], keys, [g]) == 2
    # neither end meets at q0 = 1 alone, and a second specialization
    # after it decides
    monkeypatch.setattr(tensor, "SPECIALIZATIONS", ((1, 3),))
    with pytest.raises(AssertionError, match=r"uncertified: 1 <= dim <= 4"):
        certified_image_dim([g], keys, [g])
    monkeypatch.setattr(tensor, "SPECIALIZATIONS", ((1, 3), (3, P)))
    assert certified_image_dim([g], keys, [g]) == 2


def forbid_exact_dims(monkeypatch):
    """Make the exact commutant and closure raise if anything calls them."""
    def forbidden(*args, **kwargs):
        raise RuntimeError("an exact dimension was computed")
    monkeypatch.setattr(tensor, "commutant_dim", forbidden)
    monkeypatch.setattr(tensor, "image_algebra_dim", forbidden)


def test_fallback_when_the_modular_bounds_differ(monkeypatch):
    # the upper end is one too high at the first specialization only, so
    # the second one certifies, with no exact dimension computed
    want = {pt: verify_schur_weyl(*pt) for pt in [(2, 1, 1), (2, 2, 1)]}
    keys, hecke, gens = ordinary_point(2, 3)
    want_image = certified_image_dim(gens, keys, hecke)
    real = tensor.commutant_dim_modular
    first = tensor.SPECIALIZATIONS[0]
    monkeypatch.setattr(tensor, "commutant_dim_modular",
                        lambda gens, keys, q0, p: real(gens, keys, q0, p)
                        + ((q0, p) == first))
    forbid_exact_dims(monkeypatch)
    for pt, rep in want.items():
        got = verify_schur_weyl(*pt)
        assert got["ok"]
        got.pop("elapsed_ms"), rep.pop("elapsed_ms")
        assert got == rep
    assert certified_image_dim(gens, keys, hecke) == want_image


def test_an_uncertified_point_fails_without_exact_algebra(monkeypatch):
    # at (3,1,1) the exact closure takes minutes; bounds that never meet
    # must fail the check at once, naming both ends
    real = tensor.image_algebra_dim_modular
    monkeypatch.setattr(tensor, "image_algebra_dim_modular",
                        lambda *args: real(*args) - 1)
    forbid_exact_dims(monkeypatch)
    t0 = time.perf_counter()
    rep = verify_schur_weyl(3, 1, 1)
    assert time.perf_counter() - t0 < 10
    assert not rep["ok"]
    assert rep["error"] == "uncertified: 64 <= dim <= 65"
    assert rep["commutant_dim"] is rep["image_dim"] is None
    assert rep["rational_bitableaux"] == rep["coeff_quotient_dim"] == 65


def test_generators_that_do_not_commute_fail_without_exact_algebra(
        monkeypatch):
    # E replaced by a map between keys of different weights, which the K's
    # do not commute with
    real = tensor.walled_generators

    def broken(n, r, s):
        _, S, Shat = real(n, r, s)
        a, b = mixed_basis(n, r, s)[:2]
        return Endo({(a, b): ONE}), S, Shat

    monkeypatch.setattr(tensor, "walled_generators", broken)
    forbid_exact_dims(monkeypatch)
    t0 = time.perf_counter()
    rep = verify_schur_weyl(3, 1, 1)
    assert time.perf_counter() - t0 < 10
    assert not rep["ok"]
    assert rep["error"] == ("generators do not commute with the proposed "
                            "commutant generators")
    assert rep["commutant_dim"] is rep["image_dim"] is None


def test_the_specializations_are_usable_certificates():
    for q0, p in tensor.SPECIALIZATIONS:
        tensor._check_modulus(q0, p)
        # _matmul_mod's chunks stay 2,048 columns wide
        assert (2 ** 63 - 1) // (p - 1) ** 2 >= 2048
        # q0 is far from a root of unity of small order
        assert all(pow(q0, k, p) != 1 for k in range(1, 1000))


def test_the_second_specialization_alone_certifies(monkeypatch):
    # the retry is a working certificate: on its own, the second entry
    # certifies every schur-weyl suite point and the ordinary images
    want = {pt: verify_schur_weyl(*pt) for pt in SUITE_POINTS}
    ordinary = [ordinary_point(n, m) for n, m in ((2, 2), (2, 3), (3, 2))]
    want_images = [certified_image_dim(gens, keys, hecke)
                   for keys, hecke, gens in ordinary]
    monkeypatch.setattr(tensor, "SPECIALIZATIONS",
                        tensor.SPECIALIZATIONS[1:2])
    forbid_exact_dims(monkeypatch)
    for pt, rep in want.items():
        got = verify_schur_weyl(*pt)
        assert got["ok"]
        got.pop("elapsed_ms"), rep.pop("elapsed_ms")
        assert got == rep
    assert [certified_image_dim(gens, keys, hecke)
            for keys, hecke, gens in ordinary] == want_images == [10, 20, 45]


@pytest.mark.parametrize("q0, p", [
    (3, 1),            # not a prime: the closure used to return 0
    (3, 3037000501),   # 313 * 9702877, past the int64 bound
    (3, 3037000507),   # prime, but a product of residues overflows
    (3, 25),           # composite: (3,2) gave 45 instead of 36
    (7, 7),            # q0 = 0 mod p is not invertible
    (0, 5),
])
def test_bad_specialization_raises(q0, p, monkeypatch):
    keys, hecke, gens = ordinary_point(3, 2)
    with pytest.raises(ValueError):
        image_algebra_dim_modular(gens, keys, q0=q0, p=p)
    with pytest.raises(ValueError):
        commutant_dim_modular(hecke, keys, q0=q0, p=p)
    monkeypatch.setattr(tensor, "SPECIALIZATIONS", ((q0, p),))
    with pytest.raises(ValueError):
        certified_image_dim(gens, keys, hecke)


def test_largest_admissible_prime():
    # 3037000493 is the largest prime p with (p-1)^2 < 2^63, so
    # _matmul_mod multiplies one column at a time
    keys, hecke, gens = ordinary_point(2, 2)
    p = 3037000493
    assert image_algebra_dim_modular(gens, keys, q0=3, p=p) == 10
    assert commutant_dim_modular(hecke, keys, q0=3, p=p) == 10


def test_largest_admissible_prime_by_the_dense_kernel(monkeypatch):
    # the same point with every block forced onto the dense kernel, so the
    # closure's products go through _matmul_mod one column at a time
    steps = []
    matmul = tensor._matmul_mod

    def recording(a, b, p):
        steps.append((2 ** 63 - 1) // (p - 1) ** 2)
        return matmul(a, b, p)

    monkeypatch.setattr(tensor, "_DENSE_WIDTH", 0)
    monkeypatch.setattr(tensor, "_matmul_mod", recording)
    keys, hecke, gens = ordinary_point(2, 2)
    p = 3037000493
    assert image_algebra_dim_modular(gens, keys, q0=3, p=p) == 10
    assert commutant_dim_modular(hecke, keys, q0=3, p=p) == 10
    assert steps and set(steps) == {1}


def test_mod_echelon_reduces_a_second_batch_at_the_largest_prime(
        monkeypatch):
    # residues close to p, so that every product of two is close to 2^63;
    # the second insert reduces its batch by the held rows in _matmul_mod
    p = 3037000493
    rng = random.Random(3)
    width = 7
    first = [[p - 1 - rng.randrange(5) for _ in range(width)]
             for _ in range(3)]
    second = [[p - 1 - rng.randrange(5) for _ in range(width)]
              for _ in range(2)]
    second.append([(a + b) % p for a, b in zip(first[0], second[0])])
    calls = []
    matmul = tensor._matmul_mod

    def recording(a, b, p):
        calls.append(a.shape)
        return matmul(a, b, p)

    ech = tensor._ModEchelon(p, width)
    ech.insert(numpy.array(first, dtype=numpy.int64))
    assert ech.rank == 3
    monkeypatch.setattr(tensor, "_matmul_mod", recording)
    new = ech.insert(numpy.array(second, dtype=numpy.int64))
    assert calls == [(3, 3)] and len(new) == 2 and ech.rank == 5
    # the rows held are the reduced row echelon form of both batches
    field = GF(p)
    want, pivots = DomainMatrix([[field(v) for v in row]
                                 for row in first + second],
                                (6, width), field).rref()
    want = [[int(v) % p for v in row] for row in want.to_list()[:5]]
    got = sorted(ech._rows[:ech.rank].tolist(),
                 key=lambda row: next(i for i, v in enumerate(row) if v))
    assert got == want and sorted(ech.cols) == list(pivots)


# -- the kernel choice, seen from a fresh process ------------------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_fresh(script):
    """Run a Python script in a fresh process on the package in src."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_the_desk_scale_certificates_never_load_numpy():
    run_fresh("""
import contextlib, io, sys
from qschur.cli import main
from qschur.tensor import verify_schur_weyl
for point in [(3, 2, 1), (3, 1, 2), (4, 1, 1), (2, 2, 2)]:
    assert verify_schur_weyl(*point)["ok"], point
assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "kernel-Y", "--n", "3", "--r", "2",
                 "--s", "2"]) == 0
assert "numpy" not in sys.modules
""")


def test_a_rank_mod_block_at_the_width_constant_loads_numpy():
    # w - 1 unit rows and their sum: rank w - 1 on w - 1 columns, then
    # rank w once one more column is used
    run_fresh("""
import sys
from qschur import tensor
w, p = tensor._DENSE_WIDTH, tensor.SPECIALIZATIONS[0][1]
rows = [[(("c", j), 1)] for j in range(w - 1)]
rows.append([(("c", j), p - 1) for j in range(w - 1)])
assert tensor.rank_mod(rows, p) == w - 1
assert "numpy" not in sys.modules
rows.append([(("c", w - 1), 2), (("c", 0), 1)])
assert tensor.rank_mod(rows, p) == w
assert "numpy" in sys.modules
""")

