"""Command-line interface: enumeration, bases, straightening and suites.

Subcommands: tableaux | basis | straighten | iota | dims | verify.
Exit codes: 0 success, 1 failed verification, 2 bad parameters or input.
Reports are JSON (default) or CSV, written to stdout or --output.
The suites use the library's constructions only: kernel-Y takes iota from
mixed.iota and its rank mod p from tensor.rank_mod, and certifies the image
rank by tensor.squeeze, with no exact re-rank.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str

from . import mixed as mx
from . import qmatrix as qm
from . import tableaux as tb
from . import tensor as tn
from .laurent import (LaurentPoly, ONE, neg_q_log, neg_q_power,
                      quantum_integer)
from .linalg import accumulate

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
# Each suite checks one point at a time: a dict keyed by axis name (n, and
# r and s or m where it has them).  run_suite restricts POINTS by one rule.

_N = [{"n": n} for n in (2, 3)]
_NRS = [{"n": n, "r": r, "s": s}
        for n in (2, 3) for r in range(3) for s in range(3)]

POINTS = {
    "pbw": _N,
    "laplace": _N,
    "centrality": _N,
    "hecke-relations": [p for n in (2, 3) for p in
                        [{"n": n, "m": m} for m in (2, 3, 4)]
                        + [{"n": n, "r": r, "s": s}
                           for r, s in ((1, 2), (2, 2), (2, 1))]],
    "walled-relations": [{"n": n, "r": r, "s": s} for n in (2, 3)
                         for r, s in ((1, 1), (2, 1), (1, 2), (2, 2))],
    "kernel-Y": _NRS,
    "jacobi": _N,
    "detk": _N,
    "straightening-lemmas": _N,
    # the axis-free point {} is the worked large-parameter anchor
    "bijection": _NRS + [{}],
    "rational-basis": _NRS,
    "phi-iota": _NRS,
    "bicommute": _NRS,
    "kappa-equivariance": _NRS,
    "weight-projectors": [{"n": n, "m": m} for n in (2, 3) for m in (1, 2, 3)],
    "schur-weyl": [{"n": n, "r": r, "s": s} for n, r, s in
                   ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 1, 0),
                    (2, 2, 0))],
}


def restrict(points, **given):
    """The points with each given (not None) axis value put in place of that
    axis wherever a point has it; points that then coincide are kept once,
    at the position where each first appears."""
    out = {}
    for p in points:
        p = {k: v if given.get(k) is None else given[k] for k, v in p.items()}
        out.setdefault(tuple(p.items()), p)
    return list(out.values())


SUITES = {}
GUARDS = {}


def _suite(name, keep=lambda p: True):
    """Register gen, which yields the cases of one point, as suite name,
    and keep as its guard in GUARDS.  The suite takes points (by default
    POINTS[name]), drops those keep rejects, and returns the cases gen
    yields for the rest, in order.

    A point whose check raises gets a case with ok false: a certificate
    that fails by raising AssertionError gives its message as error, and
    any other exception is reported as an internal fault.  The points after
    it still run."""
    def register(gen):
        @functools.wraps(gen)
        def suite(points=POINTS[name]):
            cases = []
            for p in filter(keep, points):
                try:
                    cases.extend(gen(p))
                except AssertionError as exc:
                    cases.append(_case(False, **p, error=str(exc)))
                except Exception as exc:
                    error = f"internal fault: {type(exc).__name__}: {exc}"
                    cases.append(_case(False, **p, error=error))
            return cases
        SUITES[name] = suite
        GUARDS[name] = keep
        return suite
    return register


def _case(ok, **info):
    info["ok"] = bool(ok)
    return info


@_suite("pbw")
def suite_pbw(p):
    """Rewriting consistency: generator products associate in normal form."""
    n = p["n"]
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
        yield _case(ok, **p, rewriter=tag, triples=len(letters) ** 3)


@_suite("laplace")
def suite_laplace(p):
    """Both shuffle expansions reproduce the full minor."""
    n = p["n"]
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
                        total = {}
                        for coeff, (r1, c1), (r2, c2) in \
                                qm.laplace_expand(list(rows), list(cols),
                                                  l, form):
                            accumulate(total, qm.multiply(
                                minor(r1, c1), minor(r2, c2)
                            ).terms.items(), coeff)
                        if total != minor(list(rows), list(cols)).terms:
                            ok = False
                        checked += 1
    yield _case(ok, **p, expansions=checked)


@_suite("centrality")
def suite_centrality(p):
    """det_q commutes with every generator."""
    n = p["n"]
    det = qm.quantum_det(n)
    ok = all(qm.multiply(det, qm.AlgebraElem.generator(i, j)) ==
             qm.multiply(qm.AlgebraElem.generator(i, j), det)
             for i in range(1, n + 1) for j in range(1, n + 1))
    yield _case(ok, **p)


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


@_suite("hecke-relations")
def suite_hecke_relations(p):
    """Quadratic, braid and distant commutation for S_i and Shat_j.

    A point with m is on the ordinary space, one with r and s on the mixed.
    """
    n = p["n"]
    if "m" in p:
        m = p["m"]
        ident = tn.Endo.identity(tn.ordinary_basis(n, m))
        gens = [tn.hecke_generator(n, m, i) for i in range(1, m)]
        yield _case(_braid_ok(gens, ident), **p, space="ordinary")
        return
    r, s = p["r"], p["s"]
    ident = tn.Endo.identity(tn.mixed_basis(n, r, s))
    _, S, Shat = tn.walled_generators(n, r, s)
    ok = _braid_ok(S, ident) and _braid_ok(Shat, ident) and \
        all(a.commutes_with(b) for a in S for b in Shat)
    yield _case(ok, **p, space="mixed")


@_suite("walled-relations", keep=lambda p: min(p["r"], p["s"]) > 0)
def suite_walled_relations(p):
    """E^2 = [n]_q E and commutation of E with distant generators."""
    n, r, s = p["n"], p["r"], p["s"]
    E, S, Shat = tn.walled_generators(n, r, s)
    ok = E.then(E) == E.scale(quantum_integer(n))
    for i, g in enumerate(S, start=1):
        if i <= r - 2 and not E.commutes_with(g):
            ok = False
    for j, g in enumerate(Shat, start=1):
        if j >= 2 and not E.commutes_with(g):
            ok = False
    yield _case(ok, **p)


def _image_rank_modular(images, n, q0, p):
    """Rank of the images at q = q0 mod p, in normal-word coordinates.

    Specializing q can only drop the rank, so this is a lower bound for
    the rank over Q(q).  iota preserves row and column content, so each
    image lies in one content block; blocks have disjoint columns and
    their ranks (tn.rank_mod) add up.  (q0, p) is a tn.SPECIALIZATIONS entry.
    """
    blocks = {}
    for img in images:
        contents = {qm.word_content(w, n) for w in img.terms}
        if len(contents) > 1:
            raise AssertionError("iota image is not content-homogeneous")
        if contents:
            blocks.setdefault(contents.pop(), []).append(img)
    rank = 0
    for imgs in blocks.values():
        rank += tn.rank_mod(([(w, c.eval_mod(q0, p))
                              for w, c in img.terms.items()]
                             for img in imgs), p)
    return rank


@_suite("kernel-Y", keep=lambda p: p["r"] + p["s"] > 0)
def suite_kernel_y(p):
    """iota kills the relation span Y and is injective on the quotient.

    killed: mx.iota(core) = 0 for each relation core, and iota of the
    starred letters respects the starred quadratic relations
    (mx.iota_respects_starred_relations), so iota(h1 * core * h3) =
    h1 * iota(core) * iota(h3) vanishes on every generator of Y.  The image
    rank of the quotient words then sits in the chain rank_p <= image rank
    <= quotient dim, which tn.squeeze certifies: the lower step is the rank
    mod p of the images (_image_rank_modular), and the upper step holds
    because iota factors through the exact quotient.  The quotient's
    Echelon is fully reduced, so the words outside its pivot columns span
    the quotient, and only their images are ranked: a rank of some of the
    images is still a lower end.  Ends that never meet fail the case as
    uncertified.  If a core is not killed, the case fails and reports the
    rank at the first specialization.  generators is the number of
    sandwiched relations the quotient was built from.
    """
    n, r, s = p["n"], p["r"], p["s"]
    quot = mx.quotient(n, r, s)
    images = [mx.iota(mx.MixedElem({w: ONE}, normalized=True), n)
              for w in quot.words if w not in quot.echelon.pivots]
    # Y is 0 unless r, s >= 1
    killed = not quot.generators or (
        mx.iota_respects_starred_relations(n) and all(
            mx.iota(core, n).is_zero()
            for core in mx.cross_relation_cores(n)))
    dim = quot.dimension()
    rank = (tn.squeeze(functools.partial(_image_rank_modular, images, n),
                       lambda q0, prime: dim)
            if killed else _image_rank_modular(images, n,
                                               *tn.SPECIALIZATIONS[0]))
    yield _case(killed and rank == dim, **p, generators=quot.generators,
                image_rank=rank, quotient_dim=dim)


@_suite("jacobi")
def suite_jacobi(p):
    """The minor-complement identity for iota on every starred minor."""
    n = p["n"]
    idx = list(range(1, n + 1))
    checked = 0
    for l in range(0, n + 1):
        for rows in itertools.combinations(idx, l):
            for cols in itertools.combinations(idx, l):
                # a failed identity raises AssertionError
                mx.jacobi_check(list(rows), list(cols), n)
                checked += 1
    yield _case(True, **p, minors=checked)


@_suite("detk")
def suite_detk(p):
    """Sandwich congruences around dfrak^(1) (mx.check_detk), and
    iota(dfrak^(1)) = det; the report gives k = 1."""
    n = p["n"]
    ok = (mx.iota(mx.det_frak(1, n), n) == qm.quantum_det(n)
          and mx.check_detk(n))
    yield _case(ok, **p, k=1)


@_suite("straightening-lemmas")
def suite_straightening_lemmas(p):
    """Shift and vanishing congruences on exhaustive small instances, with
    minors of up to k_max = 2 rows."""
    k_max = 2
    n = p["n"]
    idx = list(range(1, n + 1))
    shift_ok, shift_count = True, 0
    for k in range(1, k_max + 1):
        for r_vec in itertools.combinations(idx, k):
            for s_vec in itertools.combinations(idx, k):
                for j in range(1, n):
                    if not mx.check_straightening_shift(n, r_vec, s_vec, j, k):
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
    yield _case(shift_ok and van_ok, **p, shift_instances=shift_count,
                vanishing_instances=van_count)


@_suite("bijection")
def suite_bijection(p):
    """Rational/ordinary tableau correspondence round-trips; the axis-free
    point is a worked large-parameter anchor."""
    if not p:
        rt = tb.RationalTableau(tb.Tableau(((1, 3), (2,))),
                                tb.Tableau(((3, 4), (3, 5))))
        t = tb.rational_to_ordinary(rt, 5, 5)
        expected = tb.Tableau(
            ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5),
             (1, 2, 4), (1, 2, 5), (1, 3), (2,)))
        yield _case(t == expected and tb.ordinary_to_rational(t, 5, 5) == rt,
                    n=5, r=4, s=5, anchor=True)
        return
    n, r, s = p["n"], p["r"], p["s"]
    count, ok = 0, True
    for _, rt in tb.enumerate_standard_rational(n, r, s):
        t = tb.rational_to_ordinary(rt, n, s)
        if not tb.is_standard(t) or tb.ordinary_to_rational(t, n, s) != rt:
            ok = False
        count += 1
    yield _case(ok, **p, tableaux=count)


@_suite("rational-basis", keep=lambda p: p["r"] + p["s"] > 0)
def suite_rational_basis(p):
    """Basis size equals the quotient dimension; expansions stay integral
    (checked on the first sample_cap = 60 quotient words)."""
    sample_cap = 60
    n, r, s = p["n"], p["r"], p["s"]
    basis = mx.rational_basis(n, r, s)
    quot = mx.quotient(n, r, s)
    dim = quot.dimension()
    words = quot.words[:sample_cap]
    for word in words:
        # an expansion leaving the basis raises AssertionError
        mx.rational_straighten(mx.MixedElem({word: ONE}, normalized=True),
                               n, r, s)
    yield _case(len(basis.index) == dim, **p, basis_size=dim,
                expansions=len(words))


@_suite("phi-iota", keep=lambda p: p["r"] + p["s"] > 0)
def suite_phi_iota(p):
    """phi inverts iota on every standard rational bideterminant b.

    For (k, rt, rt2) with rt = (L, R) and rt2 = (L', R'), let (t, t') be
    the images of (rt, rt2) under tb.rational_to_ordinary, c =
    mx.c_exponent(rt, rt2), m = mx.rational_right_factor(k, R, R', n) =
    dfrak^(k) (R|R')*, and t_R the image of the rational tableau (empty,
    R).  The claim iota(b) = (-q)^c (t|t') factors through m:

    * b = (L|L') m, the definition of mx.rational_bideterminant, so
      iota(b) = (L|L') iota(m): iota rewrites only starred letters, and
      the plain normal form is an algebra;
    * (t|t') = (L|L') (t_R|t_R') once t's rows are t_R's rows followed by
      L's (and so for t'), because qm.bideterminant multiplies the row
      minors in reversed order;
    * c depends on (R, R') alone.

    So the normal forms of iota(m) and (-q)^c (t_R|t_R') are compared
    once per (k, R, R'), and the rows of t and t' are checked for each b;
    a failure of either fails the case.  Both steps are exact, so together
    they give iota(b) = (-q)^c (t|t') for every b.  phi(iota(b)) = b
    follows: (t|t') is a standard bideterminant, so it straightens to
    itself, and the bijection suite certifies ordinary_to_rational(t) = rt.
    Nothing is straightened here.
    """
    n, r, s = p["n"], p["r"], p["s"]
    bitableaux = mx.standard_rational_bitableaux(n, r, s)
    empty = tb.Tableau(())
    # each rational tableau, whole or right half only, is mapped once
    ordinary = {}

    def to_ordinary(rt):
        if rt not in ordinary:
            ordinary[rt] = tb.rational_to_ordinary(rt, n, s)
        return ordinary[rt]

    checked, ok = set(), True
    for k, rt, rt2 in bitableaux:
        right, right2 = (tb.RationalTableau(empty, h.right) for h in (rt, rt2))
        for whole, half in ((rt, right), (rt2, right2)):
            if to_ordinary(whole).rows != \
                    to_ordinary(half).rows + whole.left.rows:
                ok = False
        if (k, rt.right, rt2.right) in checked:
            continue
        checked.add((k, rt.right, rt2.right))
        m = mx.rational_right_factor(k, rt.right, rt2.right, n)
        bidet = qm.bideterminant(to_ordinary(right), to_ordinary(right2))
        if mx.iota(m, n) != bidet.scale(neg_q_power(mx.c_exponent(rt, rt2))):
            ok = False
    yield _case(ok, **p, basis_elements=len(bitableaux))


@_suite("bicommute", keep=lambda p: p["r"] + p["s"] > 0)
def suite_bicommute(p):
    """Every quantum-group generator commutes with every walled generator."""
    n, r, s = p["n"], p["r"], p["s"]
    E, S, Shat = tn.walled_generators(n, r, s)
    walled = ([E] if E is not None else []) + S + Shat
    ok = True
    for g in tn.uprime_generators(n, r + s):
        u = tn.ugen_mixed(n, r, s, g)
        if not all(u.commutes_with(w) for w in walled):
            ok = False
    yield _case(ok, **p, walled=len(walled))


@_suite("kappa-equivariance", keep=lambda p: p["s"] > 0)
def suite_kappa_equivariance(p):
    """The mixed-to-plain embedding intertwines the two actions."""
    n, r, s = p["n"], p["r"], p["s"]
    kap = tn.kappa_mixed(n, r, s)
    m = r + (n - 1) * s
    ok = all(kap.then(tn.ugen_ordinary(n, m, g)) ==
             tn.ugen_mixed(n, r, s, g).then(kap)
             for g in tn.uprime_generators(n, r + s))
    yield _case(ok, **p)


@_suite("weight-projectors")
def suite_weight_projectors(p):
    """Projector scalars and image equality with the enlarged generator set."""
    n, m = p["n"], p["m"]
    projectors = {lam: tn.weight_projector(n, m, lam)
                  for lam in itertools.product(range(m + 1), repeat=n)
                  if sum(lam) == m}
    ok = True
    for lam, u in projectors.items():
        for key in tn.ordinary_basis(n, m):
            wt = tb.weight(key, n)
            c = u.terms.get((key, key), LaurentPoly.zero())
            if wt == lam and c != ONE:
                ok = False
            if wt != lam and tn.weight_le(wt, lam) and not c.is_zero():
                ok = False
    keys = tn.ordinary_basis(n, m)
    hecke = [tn.hecke_generator(n, m, i) for i in range(1, m)]
    base = [tn.ugen_ordinary(n, m, g) for g in tn.uprime_generators(n, m)]
    extra = [tn.ugen_ordinary(n, m, ("qh", tuple(
        1 if t == j else 0 for t in range(n))))
        for j in range(n)]
    extra += projectors.values()
    d1 = tn.certified_image_dim(base, keys, hecke)
    d2 = tn.certified_image_dim(base + extra, keys, hecke)
    yield _case(ok and d1 == d2, **p, image_dim=d1, enlarged_image_dim=d2)


@_suite("schur-weyl")
def suite_schur_weyl(p):
    """Four-way dimension agreement on the mixed space."""
    # the report carries n, r and s itself
    rep = tn.verify_schur_weyl(p["n"], p["r"], p["s"])
    rep.pop("elapsed_ms", None)
    yield _case(rep.pop("ok"), **rep)


def run_suite(name, n=None, r=None, s=None, m=None):
    """Run a suite on its declared points restricted by restrict(): a given
    --n/--r/--s/--m replaces that axis wherever a point has it."""
    points = restrict(POINTS[name], n=n, r=r, s=s, m=m)
    t0 = time.perf_counter()
    cases = SUITES[name](points)
    return {"suite": name,
            "ok": all(c["ok"] for c in cases),
            "cases": cases,
            "elapsed_ms": int((time.perf_counter() - t0) * 1000)}


# -- subcommands --------------------------------------------------------------

def _read_element(args, mixed=False):
    """The input element, checked and built in one pass over its terms.

    A ParamError unless it is JSON and a list of terms, each with its keys,
    a coefficient that LaurentPoly.from_json reads, letters that are pairs
    of ints in 1..n and, if mixed, the bidegree (--r, --s), checked in that
    order; a plain element must also be homogeneous."""
    try:
        if args.input and args.input != "-":
            with open(args.input) as fh:
                obj = json.load(fh)
        else:
            obj = json.load(sys.stdin)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting
        raise ParamError(f"the element is not JSON: {exc}") from None
    halves = ("plain", "starred") if mixed else ("word",)
    if not isinstance(obj, list):
        raise ParamError("the element must be a JSON list of terms")
    terms = []
    for item in obj:
        if not (isinstance(item, dict) and isinstance(item.get("coeff"), dict)
                and all(isinstance(item.get(h), list) for h in halves)):
            raise ParamError("every term needs the keys "
                             + ", ".join(halves + ("coeff",)))
        try:
            coeff = LaurentPoly.from_json(item["coeff"])
        except ValueError as exc:
            raise ParamError(str(exc)) from None
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
        words = [tuple(map(tuple, item[h])) for h in halves]
        terms.append((tuple(words) if mixed else words[0], coeff))
    terms = accumulate({}, terms)
    elem = mx.MixedElem(terms) if mixed else qm.AlgebraElem(terms)
    if not mixed and len({len(w) for w in elem.terms}) > 1:
        raise ParamError("inhomogeneous element")
    return elem


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


def _terms(expansion):
    """Report terms in repr(key) order; a key is (t, t2) or (k, rt, rt2)."""
    terms = []
    for key, c in sorted(expansion.items(), key=lambda kv: repr(kv[0])):
        *k, left, right = key
        term = {"left": left.to_json(), "right": right.to_json(),
                "coeff": c.to_json()}
        if k:
            term["k"] = k[0]
        terms.append(term)
    return terms


def cmd_straighten(args):
    if args.kind == "ord":
        _check_caps(args, ("n",))
        expansion = qm.straighten(_read_element(args), args.n)
        return 0, {"n": args.n, "terms": _terms(expansion)}
    _check_caps(args, ("n", "r", "s"))
    expansion = mx.rational_straighten(_read_element(args, mixed=True),
                                       args.n, args.r, args.s)
    return 0, {"n": args.n, "r": args.r, "s": args.s,
               "terms": _terms(expansion)}


def cmd_iota(args):
    _check_caps(args, ("n", "r", "s"))
    img = mx.iota(_read_element(args, mixed=True), args.n)
    expansion = qm.straighten(img, args.n)
    report = {"n": args.n, "r": args.r, "s": args.s,
              "terms": _terms(expansion)}
    if len(expansion) == 1:
        (coeff,) = expansion.values()
        c = neg_q_log(coeff)
        if c is not None:
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
    for name in names:
        if name != "all" and name not in SUITES:
            raise ParamError(f"unknown suite: {name}")
    names = list(SUITES) if "all" in names else list(dict.fromkeys(names))
    for name in names:
        points = restrict(POINTS[name], n=args.n, r=args.r, s=args.s,
                          m=args.m)
        if not any(map(GUARDS[name], points)):
            raise ParamError(f"no case of suite {name} matches "
                             "--n/--r/--s/--m")
    reports = [run_suite(name, n=args.n, r=args.r, s=args.s, m=args.m)
               for name in names]
    reports.sort(key=lambda rep: rep["suite"])
    ok = all(rep["ok"] for rep in reports)
    return (0 if ok else 1), {"ok": ok, "suites": reports}


# -- output -------------------------------------------------------------------

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
        writer.writerow({k: json.dumps(v, sort_keys=True)
                         if isinstance(v, (dict, list)) else v
                         for k, v in row.items()})
    return out.getvalue()


def _write_json(value, newline, put):
    """Pass value to put, in pieces, as json.dumps(value, indent=2,
    sort_keys=True) spells it; newline is the line break at value's depth.

    With indent set, json.dumps runs its pure-Python encoder; this one pass
    calls only json's C string escaper.  It takes what reports hold (dicts
    with str keys, lists, str, int, bool and None); anything else is a
    TypeError."""
    kind = type(value)
    if kind is str:
        put(_encode_str(value))
    elif kind is int:
        put(repr(value))
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + _encode_str(key) + ": ")
            _write_json(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is list:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        "serializable")


def _emit(report, args):
    if args.format == "csv":
        text = _to_csv(report)
    else:
        pieces = []
        _write_json(report, "\n", pieces.append)
        text = "".join(pieces) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- entry point ----------------------------------------------------------

def _add_common(p, *, m=False):
    for name in ("n", "r", "s", "m") if m else ("n", "r", "s"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.add_argument("--unsafe-large", action="store_true",
                   dest="unsafe_large")


@functools.cache
def build_parser():
    """The parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="Exact quantized coordinate algebras, rational "
                    "bideterminant straightening and tensor-space "
                    "representations.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tableaux", help="list standard (rational) tableaux")
    p.add_argument("--rational", action="store_true")
    _add_common(p, m=True)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("basis", help="standard (rational) bideterminant "
                                     "basis")
    p.add_argument("kind", choices=("ord", "mixed"))
    _add_common(p, m=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("straighten", help="expand an element over the "
                                          "standard basis")
    p.add_argument("kind", choices=("ord", "mixed"))
    p.add_argument("--input", help="element JSON file ('-' for stdin)")
    _add_common(p)
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("iota", help="apply the embedding into the plain "
                                    "algebra")
    p.add_argument("--input", help="element JSON file ('-' for stdin)")
    _add_common(p)
    p.set_defaults(func=cmd_iota)

    p = sub.add_parser("dims", help="four-way dimension table")
    _add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("suite", nargs="*", help="suite names, or 'all'")
    _add_common(p, m=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, report = args.func(args)
        _emit(report, args)
    except (ParamError, OSError) as exc:
        # OSError: an unreadable --input or unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # input is checked before any work, so this is a fault of qschur
        print(f"error: internal fault: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
