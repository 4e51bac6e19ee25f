"""Matrix representations on ordinary and mixed tensor space.

Basis vectors are indexed by multi-index tuples over 1..n; a mixed space
with r plain and s dual factors uses concatenated tuples of length r+s
(the first r entries index plain factors, the rest dual factors).

An Endo stores a linear map as a sparse dict (source key, target key) ->
coefficient, so phi(v_src) = sum terms[(src, tgt)] v_tgt.  Operator
actions follow the source text of the constructions: the braid-type
generators act on the right, the quantum-group generators on the left;
commutation of the two actions is a statement about the matrices and does
not depend on the side convention.

The divided powers e_i^(k) and f_i^(k) act in closed form: e and f move
one factor at most one step, so the iterated coproduct is a sum over the
k-subsets of the factors that can move, each entry a monomial +-q^e (see
_divided_power).  A dual factor carries the antipode-twisted action.

The commutant equations split into pairs of blocks that the generators
find themselves: the connected components of their supports.  The modular
bounds specialize q = q0 mod p, and each rank mod p of sparse rows (the
commutant equations here, kernel-Y's iota images in the CLI) is one call
to rank_mod.  A dimension is certified by squeeze: a lower and an upper
bound at each of the SPECIALIZATIONS in turn, until they meet.  Nothing
falls back to exact algebra; bounds that never meet are a failed check.

Elimination over F_p has two kernels, chosen by the width of the block
about to be eliminated: per rank_mod call, the number of columns its rows
use, and per class C of the closure, |C| times the size of the largest
class.  Below _DENSE_WIDTH columns, _SparseEchelon eliminates rows held as
dicts column -> residue in Python ints, which never overflow; at and above
it, _ModEchelon and _matmul_mod eliminate int64 numpy arrays, and numpy is
imported only there.  On the commutant blocks of (3,2,2), (2,3,3), (4,2,1)
and (3,3,2), with numpy loaded, the sparse kernel was 1.4-3x faster
below 64 columns, about even at 64-127, and 1.3-1.9x slower from 128 on.
On the 150 closure classes of those points but (4,2,1), of (4,2,2) and
of the four points below, it was 2-5x faster below 64 and 1.1-4x slower
from 64 on; there every class has a block with the largest class, so the
rule reads the width of its widest block.
At the points of the verification suites and at (3,2,1), (3,1,2),
(4,1,1) and (2,2,2) every block is narrower than 64, so those
certificates never load numpy; (3,2,2) closes 7 of its 19 classes densely.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

from .laurent import LaurentPoly, ONE, neg_q_power, quantum_binomial
from .linalg import Echelon, SparseSum, accumulate
from .tableaux import inversions, multi_indices, weight

# the specializations q = q0 mod p that squeeze tries, in order: the one
# source of a specialization in the package
SPECIALIZATIONS = ((3, 67108859), (5, 67108837))


class Endo(SparseSum):
    """A sparse linear map between tensor-space bases."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items()
                      if not v.is_zero()}

    @staticmethod
    def identity(keys):
        return Endo({(k, k): ONE for k in keys})

    def then(self, other):
        """The composite map: apply self first, then other."""
        by_src = {}
        for (src, tgt), v in other.terms.items():
            by_src.setdefault(src, []).append((tgt, v))
        t = {}
        for (src, mid), v in self.terms.items():
            accumulate(t, (((src, tgt), w)
                           for tgt, w in by_src.get(mid, ())), v)
        return Endo._make(t)

    def commutes_with(self, other):
        """Whether the two composites, self then other and other then self,
        are equal."""
        return self.then(other) == other.then(self)

    def row(self, src):
        return {tgt: v for (s, tgt), v in self.terms.items() if s == src}


# -- bases ----------------------------------------------------------------

def ordinary_basis(n, m):
    return multi_indices(n, m)


def mixed_basis(n, r, s):
    """Concatenated (plain, dual) index tuples, plain block first."""
    return [i + j for i in multi_indices(n, r) for j in multi_indices(n, s)]


# -- braid-type generators --------------------------------------------------

def _swap_action(entries, keys, pos, dual):
    """Fill the three-case action at tensor positions pos, pos+1."""
    for key in keys:
        a, b = key[pos], key[pos + 1]
        if a == b:
            entries[(key, key)] = LaurentPoly.q(-1)
            continue
        entries[(key, key[:pos] + (b, a) + key[pos + 2:])] = ONE
        if (a < b) == dual:   # a > b on a plain pair, a < b on a dual
            entries[(key, key)] = LaurentPoly.q(-1) - LaurentPoly.q(1)
    return entries


def hecke_generator(n, m, i):
    """The generator S_i acting on positions i, i+1 of the plain space."""
    if not 1 <= i <= m - 1:
        raise ValueError("generator index out of range")
    return Endo(_swap_action({}, ordinary_basis(n, m), i - 1, dual=False))


def walled_generators(n, r, s):
    """(E, [S_1..S_{r-1}], [Shat_1..Shat_{s-1}]) on the mixed space."""
    keys = mixed_basis(n, r, s)
    S = [Endo(_swap_action({}, keys, i - 1, dual=False))
         for i in range(1, r)]
    Shat = [Endo(_swap_action({}, keys, r + j - 1, dual=True))
            for j in range(1, s)]
    E = None
    if r >= 1 and s >= 1:
        entries = {}
        for key in keys:
            a, b = key[r - 1], key[r]
            if a != b:
                continue
            coeff = LaurentPoly.q(2 * a - n - 1)
            for t in range(1, n + 1):
                tgt = key[:r - 1] + (t, t) + key[r + 1:]
                entries[(key, tgt)] = coeff
        E = Endo(entries)
    return E, S, Shat


# -- quantum-group generators ------------------------------------------------

def _divided_power(n, kinds, tag, i, k):
    """e_i^(k) (tag 'e') or f_i^(k) (tag 'f') on a tensor of the given
    factor kinds ('v' plain, 'd' dual), as an entry dict.

    On one factor e and f move at most one step (e^(2) = f^(2) = 0), so the
    iterated coproduct is a sum over the k-subsets T of the factors that
    can move:
        e^(k) = q^(k(k-1)/2) sum_T (x)_t K^(-#(T before t)) e^[t in T]
        f^(k) = q^(-k(k-1)/2) sum_T (x)_t f^[t in T] K^(#(T after t))
    e sends v_(i+1) to v_i and v*_i to -q^-1 v*_(i+1); f sends v_i to
    v_(i+1) and v*_(i+1) to -q v*_i.  Each entry is one monomial +-q^e.
    """
    sign = 1 if tag == "e" else -1
    step = {"v": -sign, "d": sign}   # e lowers a plain index, f raises it
    order = range(len(kinds))[::sign]
    entries = {}
    for src in itertools.product(range(1, n + 1), repeat=len(kinds)):
        movable = [t for t, kind in enumerate(kinds)
                   if src[t] == i + (step[kind] < 0)]
        for moved in itertools.combinations(movable, k):
            tgt = list(src)
            for t in moved:
                tgt[t] += step[kinds[t]]
            duals = sum(kinds[t] == "d" for t in moved)
            # factor t takes K_i^(-seen) on its target for e, seen the
            # moved factors before t, and K_i^(seen) on its source for f,
            # seen those after t; K_i is q^(+-1) on v_i, v_(i+1), inverted
            # on a dual factor
            key = tgt if sign > 0 else src
            exp, seen = sign * (k * (k - 1) // 2 - duals), 0
            for t in order:
                w = (key[t] == i) - (key[t] == i + 1)
                exp -= sign * seen * (w if kinds[t] == "v" else -w)
                seen += t in moved
            entries[(src, tuple(tgt))] = LaurentPoly.q(exp, (-1) ** duals)
    return entries


def ugen_on_kinds(n, kinds, g):
    """The action of a quantum-group generator on the given factor kinds.

    g is ('e', i, l) or ('f', i, l) for divided powers, or ('qh', h) with
    h an integer vector of length n (so ('qh', h) acts on a plain factor
    of index j by q^(h_j) and on a dual factor by q^(-h_j)).
    """
    if any(kind not in ("v", "d") for kind in kinds):
        raise ValueError("factor kinds must be 'v' or 'd'")
    tag = g[0]
    if tag in ("e", "f"):
        _, i, l = g
        if not 1 <= i <= n - 1:
            raise ValueError("generator index out of range")
        if not isinstance(l, int) or l < 0:
            raise ValueError("divided power must be an integer >= 0")
        return Endo(_divided_power(n, tuple(kinds), tag, i, l))
    if tag == "qh":
        _, h = g
        if len(h) != n:
            raise ValueError("qh exponent vector must have length n")
        entries = {}
        for key in itertools.product(range(1, n + 1), repeat=len(kinds)):
            exp = 0
            for kind, j in zip(kinds, key):
                exp += h[j - 1] if kind == "v" else -h[j - 1]
            entries[(key, key)] = LaurentPoly.q(exp)
        return Endo(entries)
    raise ValueError(f"unknown generator tag {tag!r}")


def ugen_ordinary(n, m, g):
    return ugen_on_kinds(n, ("v",) * m, g)


def ugen_mixed(n, r, s, g):
    return ugen_on_kinds(n, ("v",) * r + ("d",) * s, g)


def k_vector(n, i, power=1):
    """The exponent vector of K_i^power."""
    h = [0] * n
    h[i - 1] = power
    h[i] = -power
    return tuple(h)


def uprime_generators(n, max_power):
    """Divided powers up to max_power and K_i^(+-1), for i = 1..n-1."""
    gens = []
    for i in range(1, n):
        for l in range(1, max_power + 1):
            gens.append(("e", i, l))
            gens.append(("f", i, l))
        gens.append(("qh", k_vector(n, i, 1)))
        gens.append(("qh", k_vector(n, i, -1)))
    return gens


# -- the embedding kappa ------------------------------------------------------

def kappa(n):
    """v*_i -> (-q)^i sum_w (-q)^(l(w)) v_((1..i^..n).w), as an entry dict."""
    if n < 2:
        raise ValueError("kappa needs n >= 2")
    out = {}
    for i in range(1, n + 1):
        base = tuple(t for t in range(1, n + 1) if t != i)
        row = {}
        for w in itertools.permutations(range(n - 1)):
            img = tuple(base[w[t]] for t in range(n - 1))
            row[img] = neg_q_power(i + inversions(w))
        out[i] = row
    return out


def kappa_mixed(n, r, s):
    """The embedding of the mixed space into the plain space of degree
    r + (n-1)s, as an Endo-style dict from mixed keys to plain keys."""
    kap = kappa(n) if s else {}
    entries = {}
    for key in mixed_basis(n, r, s):
        plain, dual = key[:r], key[r:]
        images = [(plain, ONE)]
        for j in dual:
            images = [(pref + img, c * v)
                      for pref, c in images
                      for img, v in kap[j].items()]
        for tgt, c in images:
            entries[(key, tgt)] = c
    return Endo(entries)


# -- weight projectors -------------------------------------------------------

def weight_le(lam, mu):
    """lam precedes mu: lexicographic order on difference vectors."""
    dl = tuple(lam[i] - lam[i + 1] for i in range(len(lam) - 1))
    dm = tuple(mu[i] - mu[i + 1] for i in range(len(mu) - 1))
    return dl <= dm


def weight_projector(n, m, lam):
    """Diagonal operator: 1 on weight lam, 0 on strictly smaller weights."""
    if len(lam) != n or sum(lam) != m or any(x < 0 for x in lam):
        raise ValueError("lam must be a composition of m into n parts")
    entries = {}
    scalars = {}    # weight -> its diagonal scalar, for this call only
    for key in ordinary_basis(n, m):
        wt = weight(key, n)
        scalar = scalars.get(wt)
        if scalar is None:
            scalar = ONE
            for i in range(n - 1):
                a = wt[i] - wt[i + 1]
                t = lam[i] - lam[i + 1] + m + 1
                scalar = scalar * quantum_binomial(a + m + 1, t)
                if scalar.is_zero():
                    break
            scalars[wt] = scalar
        if not scalar.is_zero():
            entries[(key, key)] = scalar
    return Endo(entries)


# -- commutant and image-algebra dimensions -----------------------------------

def _blocks(terms, keys):
    """Split the basis, and each generator's term dict, into blocks.

    terms holds one dict (source key, target key) -> coefficient per
    generator, LaurentPoly or residues mod p.  The blocks are the connected
    components of the graph on keys with an edge src - tgt for each term,
    found by union-find: the finest partition with no generator entry
    between two blocks.  The commutant's unknown then splits into maps
    between ordered block pairs, which are solved separately.  Returns
    (block keys, [the terms inside the block]) pairs.
    """
    parent = {k: k for k in keys}

    def root(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for t in terms:
        for src, tgt in t:
            parent[root(src)] = root(tgt)
    blocks = {}
    for k in parent:
        blocks.setdefault(root(k), ([], [{} for _ in terms]))[0].append(k)
    for j, t in enumerate(terms):
        for (src, tgt), v in t.items():
            blocks[root(src)][1][j][(src, tgt)] = v
    return list(blocks.values())


def _commutant_rows(src, tgt):
    """Equation rows of X g = g X for an unknown X: src block -> tgt block.

    src and tgt are (block keys, term dicts) pairs from _blocks.  The entry
    of X then g at (a, c) is sum_b X[a,b] g[b,c]; of g then X it is
    sum_t g[a,t] X[t,c].  One row per (generator, a, c), as a list of
    (unknown position, coefficient) pairs; a position may repeat, and the
    row is the sum.
    """
    (src_keys, src_terms), (tgt_keys, tgt_terms) = src, tgt
    for g_src, g_tgt in zip(src_terms, tgt_terms):
        rows = {}
        for (b, c), v in g_tgt.items():
            for a in src_keys:
                rows.setdefault((a, c), []).append(((a, b), v))
        for (a, t), v in g_src.items():
            for c in tgt_keys:
                rows.setdefault((a, c), []).append(((t, c), -v))
        yield from rows.values()


def commutant_dim(gens, keys):
    """Dimension of the joint commutant of gens on the given basis (exact;
    the oracle of commutant_dim_modular in the tests).

    The unknown operator decomposes into independent maps between ordered
    pairs of the blocks that gens preserve (_blocks), solved separately.
    """
    blocks = _blocks([g.terms for g in gens], keys)
    total = 0
    for src, tgt in itertools.product(blocks, repeat=2):
        ech = Echelon()
        for items in _commutant_rows(src, tgt):
            row = accumulate({}, items)
            if row:
                ech.insert(row)
        total += len(src[0]) * len(tgt[0]) - ech.rank
    return total


def commutant_dim_modular(gens, keys, q0, p):
    """Upper bound for commutant_dim: the same equations at q = q0 mod p.

    The commutant is the null space of the rows of _commutant_rows, and
    specializing q can only drop the rank of those rows, so the nullity
    mod p (by rank_mod, one call per block pair) is a certified upper bound
    for the exact dimension; squeeze takes (q0, p) from SPECIALIZATIONS.
    """
    _check_modulus(q0, p)
    blocks = _blocks([{k: v.eval_mod(q0, p) for k, v in g.terms.items()}
                      for g in gens], keys)
    return sum(len(src[0]) * len(tgt[0])
               - rank_mod(_commutant_rows(src, tgt), p)
               for src, tgt in itertools.product(blocks, repeat=2))


def image_algebra_dim(gens, keys):
    """Dimension of the unital algebra generated by gens (exact closure;
    the oracle of image_algebra_dim_modular in the tests).

    A map joins the queue only when it raises the rank, so the queue, which
    grows while it is walked, stops at most len(keys)**2 long."""
    keys = list(keys)
    ident = Endo.identity(keys)
    ech = Echelon()
    queue = []
    for mat in [ident] + list(gens):
        if ech.insert(dict(mat.terms)):
            queue.append(mat)
    for mat in queue:
        for g in gens:
            prod = mat.then(g)
            if prod.terms and ech.insert(dict(prod.terms)):
                queue.append(prod)
    return ech.rank


# above this prime a single product of two residues overflows an int64
_MAX_PRIME = 3037000500


@functools.cache
def _check_modulus(q0, p):
    """Reject a specialization q = q0 mod p that the bounds cannot use."""
    if not (isinstance(p, int) and 2 <= p <= _MAX_PRIME
            and all(p % t for t in range(2, math.isqrt(p) + 1))):
        raise ValueError(f"p must be a prime below {_MAX_PRIME + 1}")
    if q0 % p == 0:
        raise ValueError("q0 must be invertible mod p")


# the width in columns from which a block is eliminated by the dense kernel
# (_ModEchelon) instead of the sparse one (_SparseEchelon)
_DENSE_WIDTH = 64


class _SparseEchelon:
    """Incremental echelon form over F_p of sparse rows.

    A row is a dict from an integer column to a nonzero residue, made
    monic at its lowest column, its pivot; no two rows share a pivot.  A
    row is never reduced at the pivots of later rows: ranks and spans need
    no more.
    """

    def __init__(self, p):
        self.p = p
        self.rows = {}     # pivot column -> its row

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, row):
        """Reduce a dict column -> integer by the rows held.

        Returns the remainder, made monic and held as a new row (do not
        modify it), or None when row lies in their span.
        """
        p, rows = self.p, self.rows
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            pivot = rows.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                row = {c: v * inv % p for c, v in row.items()}
                rows[col] = row
                return row
            f = row[col]
            for c, v in pivot.items():
                # a column the row lacks cannot cancel: f * v != 0 mod p
                v = (row.get(c, 0) - f * v) % p
                if v:
                    row[c] = v
                else:
                    del row[c]
        return None


def _matmul_mod(a, b, p):
    # residues are < p, so a sum of `step` products fits in int64; the
    # inner dimension is cut into chunks of that length
    step = (2 ** 63 - 1) // (p - 1) ** 2
    return sum(a[:, i:i + step] % p @ (b[i:i + step] % p) % p
               for i in range(0, a.shape[1], step)) % p


class _ModEchelon:
    """Incremental reduced row echelon form over F_p of dense vectors.

    Rows are kept normalized and fully reduced (each pivot column is zero
    in every other row), so one product with the pivot rows reduces any
    vector.  Row operations touch only the rows and columns they change.
    """

    def __init__(self, p, width):
        import numpy
        self.p = p
        self.cols = []     # pivot column of each row
        self._rows = numpy.zeros((min(width, 8), width), dtype=numpy.int64)

    @property
    def rank(self):
        return len(self.cols)

    def insert(self, batch):
        """Add the rows of a 2-D array to the span.

        Returns the pivot rows that the batch added, as a 2-D array: with
        the rows held before, they span the old span plus the batch.
        """
        import numpy
        p = self.p
        batch = batch % p
        if self.cols:
            batch = (batch - _matmul_mod(batch[:, self.cols],
                                         self._rows[:self.rank], p)) % p
        new = []
        for i in range(len(batch)):
            nz = batch[i].nonzero()[0]
            if not nz.size:
                continue
            col = nz[0]
            row = batch[i, nz] * pow(int(batch[i, col]), -1, p) % p
            # clear col from the later rows of the batch and from the
            # echelon, in the columns where row is nonzero
            below = i + 1 + batch[i + 1:, col].nonzero()[0]
            if below.size:
                ix = below[:, None], nz
                batch[ix] = (batch[ix] - batch[below, col, None] * row) % p
            rank = self.rank
            above = self._rows[:rank, col].nonzero()[0]
            if above.size:
                ix = above[:, None], nz
                self._rows[ix] = (self._rows[ix]
                                  - self._rows[above, col, None] * row) % p
            if rank == len(self._rows):
                self._rows = numpy.concatenate(
                    [self._rows, numpy.zeros_like(self._rows)])
            self._rows[rank, nz] = row
            self.cols.append(int(col))
            new.append(rank)
        return self._rows[new]


def rank_mod(rows, p):
    """Rank over F_p of sparse rows: each an iterable of (column, residue)
    pairs, the residues of a repeated column summed.  Columns are any
    hashable keys; only those the rows use are indexed, and their number
    is the width that picks the kernel.  Raises ValueError unless p passes
    _check_modulus."""
    _check_modulus(1, p)
    cols, vecs = {}, []
    for row in rows:
        vec = {}
        for col, v in row:
            t = cols.setdefault(col, len(cols))
            vec[t] = vec.get(t, 0) + v
        vecs.append(vec)
    if len(cols) >= _DENSE_WIDTH:
        return _rank_dense(vecs, len(cols), p)
    ech = _SparseEchelon(p)
    for vec in vecs:
        ech.insert(vec)
    return ech.rank


def _rank_dense(vecs, width, p):
    """rank_mod's dense kernel: one _ModEchelon insert of all the rows."""
    import numpy
    mat = numpy.zeros((len(vecs), width), dtype=numpy.int64)
    mat[[i for i, vec in enumerate(vecs) for _ in vec],
        [t for vec in vecs for t in vec]] = \
        [v % p for vec in vecs for v in vec.values()]
    ech = _ModEchelon(p, width)
    ech.insert(mat)
    return ech.rank


def image_algebra_dim_modular(gens, keys, q0, p):
    """Lower bound for image_algebra_dim: the same closure at q = q0 mod p.

    Specializing q can only drop the dimension, so the result is a certified
    lower bound for the exact dimension; squeeze takes (q0, p) from
    SPECIALIZATIONS.  The closure runs on blocks.  The generators whose
    residue matrices are diagonal split the basis into classes C of equal
    joint eigenvalues, and each idempotent 1_C is a
    Lagrange polynomial in those generators: the product over them of
    (g - c')/(c - c') for each other eigenvalue c' of g.  So 1_C lies in the
    specialized algebra A for every q0 and p, and A is the direct sum of
    the blocks 1_C A 1_D.  1_C A is spanned by the products of the identity
    piece 1_C with pieces 1_E g 1_F of the other generators (a diagonal
    generator is a scalar on each class), and its blocks are closed
    separately.  At q0 = 1 there is a single class.  The residues come
    from the generators' terms; 1_C A is closed by the sparse kernel when
    |C| times the largest class size is below _DENSE_WIDTH, by the dense
    one otherwise.
    """
    _check_modulus(q0, p)
    index = {k: t for t, k in enumerate(keys)}
    residues = []   # per generator: (source, target) position -> residue
    for g in gens:
        res = {}
        for (src, tgt), v in g.terms.items():
            v = v.eval_mod(q0, p)
            if v:
                res[index[src], index[tgt]] = v
        residues.append(res)
    moving = [any(s != t for s, t in res) for res in residues]
    eigenvalues = [res for res, mv in zip(residues, moving) if not mv]
    classes = {}
    for t in range(len(index)):
        classes.setdefault(tuple(res.get((t, t), 0) for res in eigenvalues),
                           []).append(t)
    classes = list(classes.values())
    class_of = [0] * len(index)
    for c, members in enumerate(classes):
        for t in members:
            class_of[t] = c
    # class E -> [(class F, 1_E g 1_F)], a piece as source -> [(target,
    # residue)]
    pieces = [[] for _ in classes]
    for res, mv in zip(residues, moving):
        if not mv:
            continue
        split = {}
        for (t, u), v in res.items():
            split.setdefault((class_of[t], class_of[u]), {}) \
                .setdefault(t, []).append((u, v))
        for (e, f), piece in split.items():
            pieces[e].append((f, piece))
    widest = max(map(len, classes), default=0)
    total, dense = 0, None
    for c, members in enumerate(classes):
        if len(members) * widest < _DENSE_WIDTH:
            total += _closure_sparse(members, class_of, pieces, p)
        else:
            if dense is None:
                dense = _dense_pieces(classes, pieces)
            total += _closure_dense(c, classes, dense, p)
    return total


def _closure_sparse(members, class_of, pieces, p):
    """dim 1_C A over F_p by the sparse kernel, C = members.

    An element of 1_C A 1_F is a dict with the column i * d + u for its
    entry in row i of C and column u of F (d the number of keys).  Columns
    of different blocks differ, so one _SparseEchelon holds all the
    blocks; each row it adds is multiplied by every piece leaving its
    block, and a row's block is the class of any of its columns.
    """
    d = len(class_of)
    ech = _SparseEchelon(p)
    queue = [ech.insert({i * d + t: 1 for i, t in enumerate(members)})]
    for row in queue:
        for _, piece in pieces[class_of[next(iter(row)) % d]]:
            prod = {}
            for col, v in row.items():
                t = col % d
                for u, w in piece.get(t, ()):
                    u += col - t
                    prod[u] = prod.get(u, 0) + v * w
            new = ech.insert(prod)
            if new is not None:
                queue.append(new)
    return ech.rank


def _dense_pieces(classes, pieces):
    """The pieces as int64 arrays, rows and columns in class order."""
    import numpy
    slot = {t: i for members in classes for i, t in enumerate(members)}
    out = []
    for members, row in zip(classes, pieces):
        arrays = []
        for f, piece in row:
            m = numpy.zeros((len(members), len(classes[f])),
                            dtype=numpy.int64)
            for t, targets in piece.items():
                for u, v in targets:
                    m[slot[t], slot[u]] = v
            arrays.append((f, m))
        out.append(arrays)
    return out


def _closure_dense(c, classes, pieces, p):
    """dim 1_C A over F_p by the dense kernel, C = classes[c] and pieces
    from _dense_pieces: one _ModEchelon per block 1_C A 1_F."""
    import numpy
    width_c = len(classes[c])
    # close 1_C A round by round: each round multiplies the rows that last
    # enlarged a block by every piece leaving that block
    echelons = {}
    products = {c: [numpy.eye(width_c, dtype=numpy.int64)]}
    while products:
        found = {}
        for f, prods in products.items():
            width = width_c * len(classes[f])
            ech = echelons.get(f)
            if ech is None:
                ech = echelons[f] = _ModEchelon(p, width)
            new = ech.insert(numpy.concatenate(
                [m.reshape(-1, width) for m in prods]))
            if len(new):
                found[f] = new
        products = {}
        for e, rows in found.items():
            rows = rows.reshape(-1, len(classes[e]))
            for f, piece in pieces[e]:
                products.setdefault(f, []).append(
                    _matmul_mod(rows, piece, p))
    return sum(ech.rank for ech in echelons.values())


def squeeze(lower, upper):
    """A dimension d certified by lower(q0, p) <= d <= upper(q0, p).

    Both bounds are evaluated at each (q0, p) of SPECIALIZATIONS in turn;
    the max of the lower ends and the min of the upper ends are still
    bounds, and d is returned as soon as they meet.  Bounds that never meet
    raise AssertionError naming both.
    """
    lo, hi = 0, math.inf
    for q0, p in SPECIALIZATIONS:
        lo, hi = max(lo, lower(q0, p)), min(hi, upper(q0, p))
        if lo == hi:
            return lo
    raise AssertionError(f"uncertified: {lo} <= dim <= {hi}")


def certified_image_dim(gens, keys, commutant_gens):
    """Exact dimension of the unital algebra A generated by gens.

    Every generator is checked (exactly) to commute with commutant_gens, so
    A sits inside their commutant; an AssertionError says one does not.
    Then squeeze certifies closure_p <= dim A <= commutant <= commutant_p.
    The modular closure is a lower bound (image_algebra_dim_modular: it
    closes on the classes of the diagonal generators, whose idempotents 1_C
    are Lagrange polynomials in them and so lie in A), and the commutant
    nullity mod p is an upper bound.
    """
    if not all(g.commutes_with(w) for g in gens for w in commutant_gens):
        raise AssertionError("generators do not commute with the proposed "
                             "commutant generators")
    return squeeze(
        lambda q0, p: image_algebra_dim_modular(gens, keys, q0, p),
        lambda q0, p: commutant_dim_modular(commutant_gens, keys, q0, p))


# -- the end-to-end verification ----------------------------------------------

def verify_schur_weyl(n, r, s):
    """Compare the four dimension computations on the mixed space.

    Returns a report dict with the commutant dimension of the walled
    generators, the image dimension of the quantum-group generators, the
    count of standard rational bitableaux, and the dimension of the
    coefficient quotient; ok is True when all four agree.

    The first two are one number, certified_image_dim: the exact check
    that every quantum-group generator commutes with every walled
    generator, then closure_p <= image <= commutant <= commutant_p by
    squeeze.  If that check or the squeeze fails, both are None, ok is
    False and error says why.
    """
    from .mixed import quotient, standard_rational_bitableaux
    t0 = time.perf_counter()
    keys = mixed_basis(n, r, s)
    E, S, Shat = walled_generators(n, r, s)
    walled = ([E] if E is not None else []) + S + Shat
    ugens = [ugen_mixed(n, r, s, g) for g in uprime_generators(n, r + s)]
    report = {"n": n, "r": r, "s": s}
    try:
        dim = certified_image_dim(ugens, keys, walled)
    except AssertionError as exc:
        dim, report["error"] = None, str(exc)
    count = len(standard_rational_bitableaux(n, r, s))
    qdim = quotient(n, r, s).dimension()
    return dict(report, commutant_dim=dim, image_dim=dim,
                rational_bitableaux=count, coeff_quotient_dim=qdim,
                ok=dim == count == qdim,
                elapsed_ms=int((time.perf_counter() - t0) * 1000))
