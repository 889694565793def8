"""Differential tests of the three two-route pairs, shrunk by hypothesis.

Every input is drawn as small integers (dimensions, degree, rank, the
rational flag and a ``randgen`` seed), so a disagreement shrinks to a small
case, and the falsifying example hypothesis prints rebuilds it exactly.
"""

import importlib
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superskel
from superskel import grassmann, randgen, superfn
from superskel.continuation import eval_subst, eval_taylor
from superskel.grassmann import GrassmannElement
from superskel.morphisms import compose_formula, compose_subst
from superskel.spaces import SuperSpace
from superskel.superfn import SuperFunction, _evaluator_at, mul_shuffle

_DIM = st.integers(0, 2)
_DEGREE = st.integers(0, 3)
_SEED = st.integers(0, 10 ** 6)


@settings(max_examples=40, deadline=None)
@given(_DIM, _DIM, _DIM, _DIM, _DEGREE, st.integers(0, 5), st.booleans(), _SEED)
def test_eval_subst_equals_eval_taylor(p, q, p_out, q_out, degree, rank, rational, seed):
    rng = random.Random(seed)
    f = randgen.random_skeleton(rng, SuperSpace(p, q), SuperSpace(p_out, q_out),
                                degree=degree, rational=rational)
    x = randgen.random_point(rng, f.source_space, rank)
    assert eval_subst(f, x) == eval_taylor(f, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), _DIM, _DIM, _DIM, _DEGREE, st.integers(0, 6), st.booleans(), _SEED)
def test_point_evaluator_equals_generic_substitution(p, q, p_out, q_out, degree, rank,
                                                     rational, seed):
    """``eval_subst`` and ``SuperFunction.eval`` run the int-numerator point
    evaluator; ``substitute`` plugs the same values in through the generic
    ring operations, and ``eval_taylor`` is the Taylor route.  The point's
    values have denominators 1-4 (``randgen.random_fraction``)."""
    rng = random.Random(seed)
    f = randgen.random_skeleton(rng, SuperSpace(p, q), SuperSpace(p_out, q_out),
                                degree=degree, rational=rational)
    x = randgen.random_point(rng, f.source_space, rank)
    # the squares repeat each denominator factor (multiplicity 2)
    functions = list(f.components) + [c * c for c in f.components]
    one = GrassmannElement.unit(rank)
    generic = [c.substitute(x.even_values, x.odd_values, one) for c in functions]
    value = eval_subst(f, x)
    assert list(value.values) == generic[:len(f.components)]
    assert [c.eval(x) for c in functions] == generic
    # one evaluator shared across the functions, in reverse order
    evaluator = _evaluator_at(x)
    assert [c._eval_at(evaluator) for c in reversed(functions)] == generic[::-1]
    assert value == eval_taylor(f, x)


@settings(max_examples=40, deadline=None)
@given(_DIM, st.integers(0, 4), _DEGREE, st.booleans(), _SEED)
def test_product_equals_mul_shuffle(p, q, degree, rational, seed):
    rng = random.Random(seed)
    space = SuperSpace(p, q)
    f = randgen.random_superfunction(rng, space, degree=degree, rational=rational)
    g = randgen.random_superfunction(rng, space, degree=degree, rational=rational)
    assert f * g == mul_shuffle(f, g)


@settings(max_examples=30, deadline=None)
@given(st.lists(_DIM, min_size=6, max_size=6), _DEGREE, st.booleans(), _SEED)
def test_compose_subst_equals_compose_formula(dims, degree, rational, seed):
    rng = random.Random(seed)
    src, mid, tgt = (SuperSpace(dims[i], dims[i + 1]) for i in (0, 2, 4))
    f = randgen.random_skeleton(rng, src, mid, degree=degree, terms=2, rational=rational)
    g = randgen.random_skeleton(rng, mid, tgt, degree=degree, terms=2, rational=rational)
    assert compose_subst(g, f) == compose_formula(g, f)


class _Poisoned(Exception):
    """Raised by a primary route's entry point that an oracle must not reach."""


def _poison(monkeypatch, owner, name):
    """Replace ``owner.name`` by a function that raises, in every module of
    the package that holds it under that name (a ``from`` import is a name of
    its own, which patching the defining module alone would miss)."""
    original = getattr(owner, name)

    def poisoned(*args, **kwargs):
        raise _Poisoned(name)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, poisoned)
        return
    for info in pkgutil.iter_modules(superskel.__path__):
        module = importlib.import_module(f"superskel.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, poisoned)


def test_oracles_run_without_their_primary_routes(monkeypatch):
    """Each oracle gives its own answer with its primary route's entry points
    replaced by functions that raise, on fixed random cases.

    ===============  ==============  ===========================================
    oracle           primary route   poisoned entry points
    ===============  ==============  ===========================================
    eval_taylor      eval_subst      _evaluator_at, _PointEvaluator, _product
    compose_formula  compose_subst   SuperFunction.substitute
    mul_shuffle      f * g           _product
    ===============  ==============  ===========================================

    What each oracle may share with its primary route, and why:

    - ``eval_taylor``: building Grassmann elements and adding them, and the
      derivatives of rational functions with their values at the body.  The
      Taylor sum multiplies label tuples with ``merge_sign``, so no value at
      the point passes through the evaluator or the sign-row product.
    - ``compose_formula``: the superfunction product (``_product``) and
      sums, and ``RationalFunction.eval_in``, which it uses to put the body
      maps into the outer coefficients and their factors, as ``substitute``
      does; so ``substitute`` is poisoned, not ``eval_in``.  The formula
      multiplies those derivatives by products of the inner souls and odd
      parts; it never plugs a superfunction into another.
    - ``mul_shuffle``: ``coefficient`` (``_signed_mask``), the constructor and
      rational-function arithmetic.  The shuffle sum reads alternating maps,
      not the sign rows.
    """
    rng = random.Random(20)
    evals, pairs, products = [], [], []
    for case in range(12):
        rational = case % 2 == 1
        f = randgen.random_skeleton(rng, SuperSpace(2, 2), SuperSpace(1, 2), degree=2,
                                    rational=rational)
        evals.append((f, randgen.random_point(rng, f.source_space, 4)))
        mid = SuperSpace(1, 2)
        inner = randgen.random_skeleton(rng, SuperSpace(1, 2), mid, degree=2, terms=2,
                                        rational=rational)
        pairs.append((randgen.random_skeleton(rng, mid, SuperSpace(1, 1), degree=2, terms=2,
                                              rational=rational), inner))
        space = SuperSpace(1, 3)
        products.append((randgen.random_superfunction(rng, space, degree=2, rational=rational),
                         randgen.random_superfunction(rng, space, degree=2, rational=rational)))
    taylor = [eval_taylor(f, x) for f, x in evals]
    formula = [compose_formula(g, f) for g, f in pairs]
    shuffle = [mul_shuffle(f, g) for f, g in products]
    assert taylor == [eval_subst(f, x) for f, x in evals]
    assert formula == [compose_subst(g, f) for g, f in pairs]
    assert shuffle == [f * g for f, g in products]

    with monkeypatch.context() as patch:
        for owner, name in ((superfn, "_evaluator_at"), (grassmann, "_PointEvaluator"),
                            (grassmann, "_product")):
            _poison(patch, owner, name)
        with pytest.raises(_Poisoned):
            eval_subst(*evals[0])
        assert [eval_taylor(f, x) for f, x in evals] == taylor
    with monkeypatch.context() as patch:
        _poison(patch, SuperFunction, "substitute")
        with pytest.raises(_Poisoned):
            compose_subst(*pairs[0])
        assert [compose_formula(g, f) for g, f in pairs] == formula
    with monkeypatch.context() as patch:
        _poison(patch, grassmann, "_product")
        with pytest.raises(_Poisoned):
            products[0][0] * products[0][1]
        assert [mul_shuffle(f, g) for f, g in products] == shuffle
