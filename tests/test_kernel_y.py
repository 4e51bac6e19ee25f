"""The kernel-Y suite: the modular squeeze against the exact route."""

import pytest

from qschur import cli
from qschur import mixed as mx
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
    cases = cli.suite_kernel_y(ns=(n,), r=r, s=s)
    assert len(cases) == 1
    return cases[0]


@pytest.mark.parametrize("n, r, s", POINTS)
def test_squeeze_matches_the_exact_route(n, r, s):
    case = kernel_y_case(n, r, s)
    assert case == exact_route(n, r, s)
    assert case["ok"]


@pytest.mark.parametrize("n, r, s", [(2, 1, 1), (2, 2, 2), (3, 1, 1)])
def test_a_low_modular_rank_falls_back_to_the_exact_rank(n, r, s,
                                                         monkeypatch):
    real = cli._image_rank_modular
    monkeypatch.setattr(cli, "_image_rank_modular",
                        lambda images, n: real(images, n) - 1)
    assert kernel_y_case(n, r, s) == exact_route(n, r, s)


def test_a_non_relation_is_not_killed(monkeypatch):
    n, r, s = 2, 1, 1
    quot = mx.quotient(n, r, s)   # build the cached quotient unpatched
    real = mx.cross_relation_generators
    intruder = mx.MixedElem({quot.words[0]: ONE}, normalized=True)
    monkeypatch.setattr(mx, "cross_relation_generators",
                        lambda *a: real(*a) + [intruder])
    case = kernel_y_case(n, r, s)
    assert not case["ok"]
    assert case == exact_route(n, r, s)
    assert case["image_rank"] == case["quotient_dim"] == 10


def test_images_of_mixed_content_are_rejected():
    imgs = [mx.iota(mx.MixedElem({w: ONE}, normalized=True), 2)
            for w in mx.quotient(2, 1, 0).words[:2]]
    with pytest.raises(AssertionError):
        cli._image_rank_modular([imgs[0] + imgs[1]], 2)
