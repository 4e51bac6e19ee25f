"""Command-line interface: enumeration, bases, straightening and suites.

Subcommands: tableaux | basis | straighten | iota | dims | verify.
Exit codes: 0 success, 1 failed verification, 2 bad parameters or input.
Reports are JSON (default) or CSV, written to stdout or --output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time

from . import mixed as mx
from . import qmatrix as qm
from . import tableaux as tb
from . import tensor as tn
from .laurent import LaurentPoly, ONE, quantum_integer
from .linalg import Echelon, accumulate

MAX_N, MAX_RS, MAX_M = 3, 2, 4


class ParamError(Exception):
    pass


def _check_caps(args, need):
    for name in need:
        val = getattr(args, name, None)
        if val is None:
            raise ParamError(f"--{name} is required")
    if args.n is not None and args.n < 2:
        raise ParamError("n must be at least 2")
    for name in ("r", "s", "m"):
        val = getattr(args, name, None)
        if val is not None and val < 0:
            raise ParamError(f"{name} must be nonnegative")
    if not args.unsafe_large:
        if args.n is not None and args.n > MAX_N:
            raise ParamError(f"n > {MAX_N} needs --unsafe-large")
        for name in ("r", "s"):
            val = getattr(args, name, None)
            if val is not None and val > MAX_RS:
                raise ParamError(f"{name} > {MAX_RS} needs --unsafe-large")
        if getattr(args, "m", None) is not None and args.m > MAX_M:
            raise ParamError(f"m > {MAX_M} needs --unsafe-large")


# -- verification suites ----------------------------------------------------

def _case(ok, **info):
    info["ok"] = bool(ok)
    return info


def suite_pbw(ns=(2, 3)):
    """Rewriting consistency: generator products associate in normal form."""
    cases = []
    for n in ns:
        letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for rewriter, tag in ((qm.PLAIN, "plain"), (qm.STARRED, "starred")):
            ok = True
            for a, b, c in itertools.product(letters, repeat=3):
                ea = qm.AlgebraElem({(a,): ONE}, normalized=True)
                eb = qm.AlgebraElem({(b,): ONE}, normalized=True)
                ec = qm.AlgebraElem({(c,): ONE}, normalized=True)
                lhs = qm.multiply(qm.multiply(ea, eb, rewriter), ec, rewriter)
                rhs = qm.multiply(ea, qm.multiply(eb, ec, rewriter), rewriter)
                if lhs != rhs:
                    ok = False
                    break
            cases.append(_case(ok, n=n, rewriter=tag, triples=len(letters) ** 3))
    return cases


def suite_laplace(ns=(2, 3)):
    """Both shuffle expansions reproduce the full minor."""
    cases = []
    for n in ns:
        idx = list(range(1, n + 1))
        checked = 0
        ok = True
        for k in range(1, n + 1):
            for rows in itertools.combinations(idx, k):
                for cols in itertools.combinations(idx, k):
                    for l in range(1, k + 1):
                        for form in (1, 2):
                            minor = (qm.quantum_minor_left if form == 1
                                     else qm.quantum_minor_right)
                            total = qm.AlgebraElem.zero()
                            for coeff, (r1, c1), (r2, c2) in \
                                    qm.laplace_expand(list(rows), list(cols),
                                                      l, form):
                                total = total + qm.multiply(
                                    minor(r1, c1), minor(r2, c2)).scale(coeff)
                            if total != minor(list(rows), list(cols)):
                                ok = False
                            checked += 1
        cases.append(_case(ok, n=n, expansions=checked))
    return cases


def suite_centrality(ns=(2, 3)):
    """det_q commutes with every generator."""
    cases = []
    for n in ns:
        det = qm.quantum_det(n)
        ok = all(qm.multiply(det, qm.AlgebraElem.generator(i, j)) ==
                 qm.multiply(qm.AlgebraElem.generator(i, j), det)
                 for i in range(1, n + 1) for j in range(1, n + 1))
        cases.append(_case(ok, n=n))
    return cases


def _braid_ok(gens, ident):
    q, qinv = LaurentPoly.q(1), LaurentPoly.q(-1)
    for g in gens:
        if not (g + ident.scale(q)).then(g - ident.scale(qinv)).is_zero():
            return False
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        if a.then(b).then(a) != b.then(a).then(b):
            return False
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            if not gens[i].commutes_with(gens[j]):
                return False
    return True


def suite_hecke_relations(ns=(2, 3), ms=(2, 3, 4),
                          rss=((1, 2), (2, 2), (2, 1))):
    """Quadratic, braid and distant commutation for S_i and Shat_j."""
    cases = []
    for n in ns:
        for m in ms:
            ident = tn.Endo.identity(tn.ordinary_basis(n, m))
            gens = [tn.hecke_generator(n, m, i) for i in range(1, m)]
            cases.append(_case(_braid_ok(gens, ident), n=n, m=m,
                               space="ordinary"))
        for r, s in rss:
            ident = tn.Endo.identity(tn.mixed_basis(n, r, s))
            _, S, Shat = tn.walled_generators(n, r, s)
            ok = _braid_ok(S, ident) and _braid_ok(Shat, ident) and \
                all(a.commutes_with(b) for a in S for b in Shat)
            cases.append(_case(ok, n=n, r=r, s=s, space="mixed"))
    return cases


def suite_walled_relations(ns=(2, 3), rss=((1, 1), (2, 1), (1, 2), (2, 2))):
    """E^2 = [n]_q E and commutation of E with distant generators."""
    cases = []
    for n in ns:
        for r, s in rss:
            E, S, Shat = tn.walled_generators(n, r, s)
            ok = E.then(E) == E.scale(quantum_integer(n))
            for i, g in enumerate(S, start=1):
                if i <= r - 2 and not E.commutes_with(g):
                    ok = False
            for j, g in enumerate(Shat, start=1):
                if j >= 2 and not E.commutes_with(g):
                    ok = False
            cases.append(_case(ok, n=n, r=r, s=s))
    return cases


def _grid(rs_max, r=None, s=None):
    """The (r, s) points of a grid suite: r and s each in 0..rs_max, or
    only the value given for it."""
    return list(itertools.product(
        (r,) if r is not None else range(rs_max + 1),
        (s,) if s is not None else range(rs_max + 1)))


def _iota_from_images(a, images):
    """iota(a) as a term dict: sum_w a[w] images[w], images[w] = iota(w).

    iota is defined term by term as exactly this sum, so the result is
    iota(a) itself, computed from images reused across elements.
    """
    out = {}
    for w, c in a.terms.items():
        accumulate(out, images[w].terms.items(), c)
    return out


def _image_rank_modular(images, n, q0=3, p=67108859):
    """Rank of the images at q = q0 mod p, in normal-word coordinates.

    Specializing q can only drop the rank, so this is a lower bound for
    the rank over Q(q).  iota preserves row and column content, so each
    image lies in one content block; blocks have disjoint columns and
    their ranks add up.
    """
    import numpy
    tn._check_modulus(q0, p)
    blocks = {}
    for img in images:
        contents = {qm.word_content(w, n) for w in img.terms}
        if len(contents) > 1:
            raise AssertionError("iota image is not content-homogeneous")
        if contents:
            blocks.setdefault(contents.pop(), []).append(img)
    rank = 0
    for rows in blocks.values():
        cols = {}
        for img in rows:
            for w in img.terms:
                cols.setdefault(w, len(cols))
        mat = numpy.zeros((len(rows), len(cols)), dtype=numpy.int64)
        for i, img in enumerate(rows):
            for w, c in img.terms.items():
                mat[i, cols[w]] = c.eval_mod(q0, p)
        ech = tn._ModEchelon(p, len(cols))
        ech.insert(mat)
        rank += ech.rank
    return rank


def suite_kernel_y(ns=(2, 3), rs_max=2, r=None, s=None):
    """iota kills the relation span Y and is injective on the quotient.

    iota is computed once per quotient word.  killed: each relation
    generator g has sum_w g[w] iota(w) = 0, which is iota(g) exactly.
    The image rank then sits in the chain rank_p <= image rank <= quotient
    dim: the lower step is the rank mod p of the images at q = 3
    (_image_rank_modular), and the upper step holds because iota factors
    through the exact quotient.  When rank_p meets the quotient dim, that
    is the image rank.  Otherwise, or if a generator is not killed, the
    images are straightened (a unimodular change of basis, so the rank is
    the same) and ranked exactly with an Echelon.
    """
    cases = []
    grid = _grid(rs_max, r, s)
    for n in ns:
        for r, s in grid:
            if r + s == 0:
                continue
            gens = mx.cross_relation_generators(n, r, s)
            quot = mx.quotient(n, r, s)
            images = {w: mx.iota(mx.MixedElem({w: ONE}, normalized=True), n)
                      for w in quot.words}
            killed = all(not _iota_from_images(g, images) for g in gens)
            dim = quot.dimension()
            rank = _image_rank_modular(images.values(), n) if killed else None
            if rank != dim:
                ech = Echelon()
                for img in images.values():
                    ech.insert(qm.straighten(img, n))
                rank = ech.rank
            cases.append(_case(killed and rank == dim, n=n, r=r, s=s,
                               generators=len(gens), image_rank=rank,
                               quotient_dim=dim))
    return cases


def suite_jacobi(ns=(2, 3)):
    """The minor-complement identity for iota on every starred minor."""
    cases = []
    for n in ns:
        idx = list(range(1, n + 1))
        checked = 0
        ok = True
        for l in range(0, n + 1):
            for rows in itertools.combinations(idx, l):
                for cols in itertools.combinations(idx, l):
                    try:
                        mx.jacobi_check(list(rows), list(cols), n)
                    except AssertionError:
                        ok = False
                    checked += 1
        cases.append(_case(ok, n=n, minors=checked))
    return cases


def suite_detk(ns=(2, 3), k=1):
    """Sandwich congruences around dfrak^(k), and iota(dfrak^(k)) = det^k."""
    cases = []
    for n in ns:
        img = mx.iota(mx.det_frak(k, n), n)
        det_pow = qm.AlgebraElem.one()
        for _ in range(k):
            det_pow = qm.multiply(det_pow, qm.quantum_det(n))
        ok = img == det_pow and mx.check_detk(n, k)
        cases.append(_case(ok, n=n, k=k))
    return cases


def suite_straightening_lemmas(ns=(2, 3), k_max=2):
    """Shift and vanishing congruences on exhaustive small instances."""
    cases = []
    for n in ns:
        idx = list(range(1, n + 1))
        shift_ok, shift_count = True, 0
        for k in range(1, k_max + 1):
            for r_vec in itertools.combinations(idx, k):
                for s_vec in itertools.combinations(idx, k):
                    for j in range(1, n):
                        if not mx.check_straightening_shift(
                                n, r_vec, s_vec, j, k):
                            shift_ok = False
                        shift_count += 1
        van_ok, van_count = True, 0
        for lr in range(1, k_max + 1):
            for ls in range(1, k_max + 1):
                for r_prime in itertools.combinations(idx, lr):
                    for s_prime in itertools.combinations(idx, ls):
                        try:
                            mx.violating_instance_data(n, r_prime, s_prime)
                        except ValueError:
                            continue
                        for r_vec in itertools.combinations(idx, lr):
                            for s_vec in itertools.combinations(idx, ls):
                                if not mx.check_straightening_vanishing(
                                        n, r_prime, s_prime, r_vec, s_vec):
                                    van_ok = False
                                van_count += 1
        cases.append(_case(shift_ok and van_ok, n=n,
                           shift_instances=shift_count,
                           vanishing_instances=van_count))
    return cases


def suite_bijection(ns=(2, 3), rs_max=2, r=None, s=None):
    """Rational/ordinary tableau correspondence round-trips, plus an anchor."""
    cases = []
    grid = _grid(rs_max, r, s)
    for n in ns:
        for r, s in grid:
            count, ok = 0, True
            for _, rt in tb.enumerate_standard_rational(n, r, s):
                t = tb.rational_to_ordinary(rt, n, s)
                if not tb.is_standard(t) or \
                        tb.ordinary_to_rational(t, n, s) != rt:
                    ok = False
                count += 1
            cases.append(_case(ok, n=n, r=r, s=s, tableaux=count))
    # worked large-parameter anchor
    rt = tb.RationalTableau(
        tb.Tableau(tb.Partition((2, 1)), ((1, 3), (2,))),
        tb.Tableau(tb.Partition((2, 2)), ((3, 4), (3, 5))))
    t = tb.rational_to_ordinary(rt, 5, 5)
    expected = tb.Tableau(
        tb.Partition((5, 5, 5, 3, 3, 2, 1)),
        ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5),
         (1, 2, 4), (1, 2, 5), (1, 3), (2,)))
    cases.append(_case(t == expected and
                       tb.ordinary_to_rational(t, 5, 5) == rt,
                       n=5, r=4, s=5, anchor=True))
    return cases


def suite_rational_basis(ns=(2, 3), rs_max=2, sample_cap=60, r=None,
                         s=None):
    """Basis size equals the quotient dimension; expansions stay integral."""
    cases = []
    grid = _grid(rs_max, r, s)
    for n in ns:
        for r, s in grid:
            if r + s == 0:
                continue
            basis = mx.rational_basis(n, r, s)
            dim = mx.quotient(n, r, s).dimension()
            ok = len(basis.index) == dim
            words = mx.quotient(n, r, s).words[:sample_cap]
            for word in words:
                elem = mx.MixedElem({word: ONE}, normalized=True)
                try:
                    mx.rational_straighten(elem, n, r, s)
                except AssertionError:
                    ok = False
                    break
            cases.append(_case(ok, n=n, r=r, s=s, basis_size=dim,
                               expansions=len(words)))
    return cases


def suite_phi_iota(ns=(2, 3), rs_max=2, r=None, s=None):
    """phi inverts iota on every standard rational bideterminant."""
    cases = []
    grid = _grid(rs_max, r, s)
    for n in ns:
        for r, s in grid:
            if r + s == 0:
                continue
            quot = mx.quotient(n, r, s)
            count, ok = 0, True
            for k, rt, rt2 in mx.standard_rational_bitableaux(n, r, s):
                b = mx.rational_bideterminant(rt, rt2, k, n)
                if mx.phi(mx.iota(b, n), n, r, s) != quot.coords(b):
                    ok = False
                count += 1
            cases.append(_case(ok, n=n, r=r, s=s, basis_elements=count))
    return cases


def suite_bicommute(ns=(2, 3), rs_max=2, r=None, s=None):
    """Every quantum-group generator commutes with every walled generator."""
    cases = []
    grid = _grid(rs_max, r, s)
    for n in ns:
        for r, s in grid:
            if r + s == 0:
                continue
            E, S, Shat = tn.walled_generators(n, r, s)
            walled = ([E] if E is not None else []) + S + Shat
            ok = True
            for g in tn.uprime_generators(n, r + s):
                u = tn.ugen_mixed(n, r, s, g)
                if not all(u.commutes_with(w) for w in walled):
                    ok = False
            cases.append(_case(ok, n=n, r=r, s=s, walled=len(walled)))
    return cases


def suite_kappa_equivariance(ns=(2, 3), rs_max=2, r=None, s=None):
    """The mixed-to-plain embedding intertwines the two actions."""
    cases = []
    grid = _grid(rs_max, r, s)
    for n in ns:
        for r, s in grid:
            if s == 0:
                continue
            kap = tn.kappa_mixed(n, r, s)
            m = r + (n - 1) * s
            ok = all(kap.then(tn.ugen_ordinary(n, m, g)) ==
                     tn.ugen_mixed(n, r, s, g).then(kap)
                     for g in tn.uprime_generators(n, r + s))
            cases.append(_case(ok, n=n, r=r, s=s))
    return cases


def suite_weight_projectors(ns=(2, 3), ms=(1, 2, 3)):
    """Projector scalars and image equality with the enlarged generator set."""
    cases = []
    for n in ns:
        for m in ms:
            comps = [c for c in itertools.product(range(m + 1), repeat=n)
                     if sum(c) == m]
            ok = True
            for lam in comps:
                u = tn.weight_projector(n, m, lam)
                for key in tn.ordinary_basis(n, m):
                    wt = tb.weight(key, n)
                    c = u.terms.get((key, key), LaurentPoly.zero())
                    if wt == lam and c != ONE:
                        ok = False
                    if wt != lam and tn.weight_le(wt, lam) and \
                            not c.is_zero():
                        ok = False
            keys = tn.ordinary_basis(n, m)
            hecke = [tn.hecke_generator(n, m, i) for i in range(1, m)]
            base = [tn.ugen_ordinary(n, m, g)
                    for g in tn.uprime_generators(n, m)]
            extra = [tn.ugen_ordinary(n, m, ("qh", tuple(
                1 if t == j else 0 for t in range(n))))
                for j in range(n)]
            extra += [tn.weight_projector(n, m, lam) for lam in comps]
            block = tn.ordinary_weight_block(n)
            d1 = tn.certified_image_dim(base, keys, hecke, block_key=block)
            d2 = tn.certified_image_dim(base + extra, keys, hecke,
                                        block_key=block)
            cases.append(_case(ok and d1 == d2, n=n, m=m,
                               image_dim=d1, enlarged_image_dim=d2))
    return cases


def suite_schur_weyl(points=((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1),
                             (2, 1, 0), (2, 2, 0))):
    """Four-way dimension agreement on the mixed space."""
    cases = []
    for n, r, s in points:
        rep = tn.verify_schur_weyl(n, r, s)
        rep.pop("elapsed_ms", None)
        cases.append(_case(rep.pop("ok"), **rep))
    return cases


SUITES = {
    "pbw": suite_pbw,
    "laplace": suite_laplace,
    "centrality": suite_centrality,
    "hecke-relations": suite_hecke_relations,
    "walled-relations": suite_walled_relations,
    "kernel-Y": suite_kernel_y,
    "jacobi": suite_jacobi,
    "detk": suite_detk,
    "straightening-lemmas": suite_straightening_lemmas,
    "bijection": suite_bijection,
    "rational-basis": suite_rational_basis,
    "phi-iota": suite_phi_iota,
    "bicommute": suite_bicommute,
    "kappa-equivariance": suite_kappa_equivariance,
    "weight-projectors": suite_weight_projectors,
    "schur-weyl": suite_schur_weyl,
}


def suite_registry():
    return list(SUITES.keys())


def run_suite(name, n=None, r=None, s=None, m=None):
    import inspect
    func = SUITES[name]
    params = inspect.signature(func).parameters
    kwargs = {}
    if n is not None and "ns" in params:
        kwargs["ns"] = (n,)
    if m is not None and "ms" in params:
        kwargs["ms"] = (m,)
    # the suites over (n, r, s) points run only the requested r and s
    if r is not None and "r" in params:
        kwargs["r"] = r
    if s is not None and "s" in params:
        kwargs["s"] = s
    if "rss" in params and (r is not None or s is not None):
        kwargs["rss"] = [(a, b) for a, b in params["rss"].default
                         if r in (None, a) and s in (None, b)]
    if name == "schur-weyl" and n is not None:
        kwargs = {"points": ((n, 1 if r is None else r,
                              1 if s is None else s),)}
    t0 = time.perf_counter()
    cases = func(**kwargs)
    return {"suite": name,
            "ok": all(c["ok"] for c in cases),
            "cases": cases,
            "elapsed_ms": int((time.perf_counter() - t0) * 1000)}


# -- subcommands --------------------------------------------------------------

def _read_element(args, mixed=False):
    """The input element; a ParamError unless it is a list of terms with
    their keys, letters in 1..n and, if mixed, bidegree (--r, --s)."""
    if args.input and args.input != "-":
        with open(args.input) as fh:
            obj = json.load(fh)
    else:
        obj = json.load(sys.stdin)
    halves = ("plain", "starred") if mixed else ("word",)
    if not isinstance(obj, list):
        raise ParamError("the element must be a JSON list of terms")
    for item in obj:
        if not (isinstance(item, dict) and isinstance(item.get("coeff"), dict)
                and all(isinstance(item.get(h), list) for h in halves)):
            raise ParamError("every term needs the keys "
                             + ", ".join(halves + ("coeff",)))
        if not all(isinstance(c, (int, str)) for c in item["coeff"].values()):
            raise ParamError("coefficients must be integers")
        for letter in itertools.chain(*(item[h] for h in halves)):
            if not (isinstance(letter, list) and len(letter) == 2 and
                    all(type(x) is int and 1 <= x <= args.n for x in letter)):
                raise ParamError(f"letter {letter!r} is not a pair of "
                                 f"indices in 1..{args.n}")
        if mixed and (len(item["plain"]), len(item["starred"])) != \
                (args.r, args.s):
            raise ParamError(f"a term has bidegree ({len(item['plain'])}, "
                             f"{len(item['starred'])}), not (--r, --s) = "
                             f"({args.r}, {args.s})")
    return (mx.MixedElem if mixed else qm.AlgebraElem).from_json(obj)


def cmd_tableaux(args):
    if args.rational:
        _check_caps(args, ("n", "r", "s"))
        tabs = tb.enumerate_standard_rational(args.n, args.r, args.s)
        return 0, {"n": args.n, "r": args.r, "s": args.s,
                   "count": len(tabs),
                   "tableaux": [{"k": k, **t.to_json()} for k, t in tabs]}
    _check_caps(args, ("n", "m"))
    tabs = [t for lam in tb.partitions(args.m, args.n)
            for t in tb.enumerate_standard(lam, args.n)]
    return 0, {"n": args.n, "m": args.m, "count": len(tabs),
               "tableaux": [t.to_json() for t in tabs]}


def cmd_basis(args):
    if args.kind == "ord":
        _check_caps(args, ("n", "m"))
        basis = qm.standard_bitableaux(args.n, args.m)
        return 0, {"n": args.n, "m": args.m, "count": len(basis),
                   "basis": [{"index": i, "left": t.to_json(),
                              "right": t2.to_json()}
                             for i, (t, t2) in enumerate(basis)]}
    _check_caps(args, ("n", "r", "s"))
    basis = mx.standard_rational_bitableaux(args.n, args.r, args.s)
    return 0, {"n": args.n, "r": args.r, "s": args.s, "count": len(basis),
               "basis": [{"index": i, "k": k, "left": rt.to_json(),
                          "right": rt2.to_json()}
                         for i, (k, rt, rt2) in enumerate(basis)]}


def cmd_straighten(args):
    if args.kind == "ord":
        _check_caps(args, ("n",))
        expansion = qm.straighten(_read_element(args), args.n)
        terms = [{"left": t.to_json(), "right": t2.to_json(),
                  "coeff": c.to_json()}
                 for (t, t2), c in sorted(expansion.items(),
                                          key=lambda kv: repr(kv[0]))]
        return 0, {"n": args.n, "terms": terms}
    _check_caps(args, ("n", "r", "s"))
    expansion = mx.rational_straighten(_read_element(args, mixed=True),
                                       args.n, args.r, args.s)
    terms = [{"k": k, "left": rt.to_json(), "right": rt2.to_json(),
              "coeff": c.to_json()}
             for (k, rt, rt2), c in sorted(expansion.items(),
                                           key=lambda kv: repr(kv[0]))]
    return 0, {"n": args.n, "r": args.r, "s": args.s, "terms": terms}


def cmd_iota(args):
    _check_caps(args, ("n", "r", "s"))
    img = mx.iota(_read_element(args, mixed=True), args.n)
    expansion = qm.straighten(img, args.n)
    terms = [{"left": t.to_json(), "right": t2.to_json(),
              "coeff": c.to_json()}
             for (t, t2), c in sorted(expansion.items(),
                                      key=lambda kv: repr(kv[0]))]
    report = {"n": args.n, "r": args.r, "s": args.s, "terms": terms}
    if len(expansion) == 1:
        ((_, _), coeff), = expansion.items()
        if coeff.is_unit():
            sign, c = coeff.unit_decompose()
            if sign == (-1) ** (c % 2):
                report["neg_q_exponent"] = c
    return 0, report


def cmd_dims(args):
    _check_caps(args, ("n", "r", "s"))
    report = tn.verify_schur_weyl(args.n, args.r, args.s)
    return (0 if report["ok"] else 1), report


def cmd_verify(args):
    _check_caps(args, ())
    names = args.suite
    if not names:
        raise ParamError("verify needs a suite name (or 'all')")
    if "all" in names:
        names = suite_registry()
    for name in names:
        if name not in SUITES:
            raise ParamError(f"unknown suite: {name}")
    reports = [run_suite(name, n=args.n, r=args.r, s=args.s, m=args.m)
               for name in dict.fromkeys(names)]
    for rep in reports:
        if not rep["cases"]:
            raise ParamError(f"no case of suite {rep['suite']} matches "
                             "--n/--r/--s/--m")
    reports.sort(key=lambda rep: rep["suite"])
    ok = all(rep["ok"] for rep in reports)
    return (0 if ok else 1), {"ok": ok, "suites": reports}


# -- output -------------------------------------------------------------------

def _flatten(value):
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value


def _to_csv(report):
    import csv
    import io
    rows = None
    for key in ("tableaux", "basis", "terms", "suites", "cases"):
        if isinstance(report, dict) and isinstance(report.get(key), list):
            rows = report[key]
            break
    if rows is None:
        rows = [report]
    rows = [row if isinstance(row, dict) else {"value": row} for row in rows]
    fields = sorted({k for row in rows for k in row})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _flatten(v) for k, v in row.items()})
    return out.getvalue()


def _emit(report, args):
    if args.format == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- entry point ----------------------------------------------------------

def _add_common(p, *, n=False, r=False, s=False, m=False, io_flags=True):
    if n:
        p.add_argument("--n", type=int)
    if r:
        p.add_argument("--r", type=int)
    if s:
        p.add_argument("--s", type=int)
    if m:
        p.add_argument("--m", type=int)
    if io_flags:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output")
    p.add_argument("--unsafe-large", action="store_true",
                   dest="unsafe_large")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Exact quantized coordinate algebras, rational "
                    "bideterminant straightening and tensor-space "
                    "representations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tableaux", help="list standard (rational) tableaux")
    p.add_argument("--rational", action="store_true")
    _add_common(p, n=True, r=True, s=True, m=True)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("basis", help="standard (rational) bideterminant "
                                     "basis")
    p.add_argument("kind", choices=("ord", "mixed"))
    _add_common(p, n=True, r=True, s=True, m=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("straighten", help="expand an element over the "
                                          "standard basis")
    p.add_argument("kind", choices=("ord", "mixed"))
    p.add_argument("--input", help="element JSON file ('-' for stdin)")
    _add_common(p, n=True, r=True, s=True)
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("iota", help="apply the embedding into the plain "
                                    "algebra")
    p.add_argument("--input", help="element JSON file ('-' for stdin)")
    _add_common(p, n=True, r=True, s=True)
    p.set_defaults(func=cmd_iota)

    p = sub.add_parser("dims", help="four-way dimension table")
    _add_common(p, n=True, r=True, s=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("suite", nargs="*", help="suite names, or 'all'")
    p.add_argument("--suite", action="append", dest="suite_flag",
                   default=[], help="additional suite name")
    _add_common(p, n=True, r=True, s=True, m=True)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser():
    """The parser, built on first use and then reused."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if getattr(args, "suite_flag", None):
        args.suite = list(args.suite) + list(args.suite_flag)
    try:
        code, report = args.func(args)
        _emit(report, args)
    except (ParamError, ValueError, KeyError, OSError) as exc:
        # OSError: an unreadable --input or unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
