"""Differential tests of the three two-route pairs, shrunk by hypothesis.

Every input is drawn as small integers (dimensions, degree, rank, the
rational flag and a ``randgen`` seed), so a disagreement shrinks to a small
case, and the falsifying example hypothesis prints rebuilds it exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from superskel import randgen
from superskel.continuation import eval_subst, eval_taylor
from superskel.grassmann import GrassmannElement
from superskel.morphisms import compose_formula, compose_subst
from superskel.spaces import SuperSpace
from superskel.superfn import _evaluator_at, mul_shuffle

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
