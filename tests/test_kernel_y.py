"""The kernel-Y suite: the modular squeeze against the exact route."""

import functools

import pytest

from qschur import cli
from qschur import mixed as mx
from qschur import tensor as tn
from qschur.laurent import ONE
from qschur.linalg import Echelon
from qschur.qmatrix import straighten

POINTS = ([(2, r, s) for r in range(3) for s in range(3) if r + s]
          + [(3, r, s) for r in range(2) for s in range(3) if r + s])


def exact_route(n, r, s):
    """The kernel-Y case by the exact route: iota of every generator, then
    the straightened images of the quotient words ranked by an Echelon."""
    gens = mx.cross_relation_generators(n, r, s)
    killed = all(mx.iota(g, n).is_zero() for g in gens)
    quot = mx.quotient(n, r, s)
    ech = Echelon()
    for word in quot.words:
        img = mx.iota(mx.MixedElem({word: ONE}, normalized=True), n)
        ech.insert(straighten(img, n))
    return {"n": n, "r": r, "s": s, "generators": len(gens),
            "image_rank": ech.rank, "quotient_dim": quot.dimension(),
            "ok": killed and ech.rank == quot.dimension()}


def kernel_y_case(n, r, s):
    cases = cli.suite_kernel_y([{"n": n, "r": r, "s": s}])
    assert len(cases) == 1
    return cases[0]


@pytest.mark.parametrize("n, r, s", POINTS)
def test_squeeze_matches_the_exact_route(n, r, s):
    case = kernel_y_case(n, r, s)
    assert case == exact_route(n, r, s)
    assert case["ok"]


@pytest.mark.parametrize("n, r, s", [(2, 1, 1), (2, 2, 2), (3, 1, 1)])
def test_a_low_rank_at_the_first_specialization_is_retried(n, r, s,
                                                           monkeypatch):
    real = cli._image_rank_modular
    first = tn.SPECIALIZATIONS[0]
    monkeypatch.setattr(cli, "_image_rank_modular",
                        lambda images, n, q0, p:
                        real(images, n, q0, p) - ((q0, p) == first))
    assert kernel_y_case(n, r, s) == exact_route(n, r, s)


@pytest.mark.parametrize("n, r, s", [(2, 1, 1), (3, 1, 1)])
def test_a_rank_low_at_every_specialization_is_uncertified(n, r, s,
                                                           monkeypatch):
    real = cli._image_rank_modular
    monkeypatch.setattr(cli, "_image_rank_modular",
                        lambda *args: real(*args) - 1)
    case = kernel_y_case(n, r, s)
    dim = exact_route(n, r, s)["quotient_dim"]
    assert case == {"n": n, "r": r, "s": s, "ok": False,
                    "error": f"uncertified: {dim - 1} <= dim <= {dim}"}


def test_a_non_relation_is_not_killed(monkeypatch):
    # the suite certifies "iota kills Y" on the relation cores, so the
    # intruder goes in as an extra core of bidegree (1, 1) that is not in Y
    n, r, s = 2, 1, 1
    quot = mx.quotient(n, r, s)   # build the cached quotient unpatched
    real = mx.cross_relation_cores
    intruder = mx.MixedElem({quot.words[0]: ONE}, normalized=True)
    assert not quot.is_coset_zero(intruder)
    monkeypatch.setattr(mx, "cross_relation_cores",
                        lambda n: real(n) + [intruder])
    case = kernel_y_case(n, r, s)
    assert not case["ok"]
    # cross_relation_generators sandwiches the patched cores, so the
    # oracle counts the intruder among its generators; the quotient, built
    # before the patch, does not
    oracle = exact_route(n, r, s)
    assert not oracle["ok"]
    assert oracle["generators"] == quot.generators + 1
    assert case == dict(oracle, generators=quot.generators)
    assert case["image_rank"] == case["quotient_dim"] == 10


def test_the_relation_check_sees_a_broken_starred_letter(monkeypatch):
    # doubling iota(x*_12) breaks x*_22 x*_11 = x*_11 x*_22 + ... x*_12 x*_21
    n = 2
    real = mx.iota_starred_letter

    def broken(i, j, n):
        img = real(i, j, n)
        return img.scale(2) if (i, j) == (1, 2) else img

    assert mx.iota_respects_starred_relations(n)
    monkeypatch.setattr(mx, "iota_starred_letter", broken)
    monkeypatch.setattr(mx, "iota_starred_word",
                        functools.cache(mx.iota_starred_word.__wrapped__))
    monkeypatch.setattr(mx, "iota_respects_starred_relations",
                        mx.iota_respects_starred_relations.__wrapped__)
    assert not mx.iota_respects_starred_relations(n)
    assert not kernel_y_case(n, 1, 1)["ok"]


def test_images_of_mixed_content_are_rejected():
    imgs = [mx.iota(mx.MixedElem({w: ONE}, normalized=True), 2)
            for w in mx.quotient(2, 1, 0).words[:2]]
    with pytest.raises(AssertionError):
        cli._image_rank_modular([imgs[0] + imgs[1]], 2,
                                *tn.SPECIALIZATIONS[0])
