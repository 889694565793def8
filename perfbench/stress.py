"""Stress rows and scaling curves, run only by traced runs.

These are not gated metrics.  They keep visible the blowups that the
compose-rational workload avoids by staying on one even variable: stored
degrees of rational results grow far past their reduced degrees, and one
more composition or one more even variable in the middle space makes a
single composition take tens of seconds.  Every row runs untraced under its
own time limit and records seconds or ``"timeout"``, and no row starts once
the section's deadline has passed (it records ``"skipped"``), so a traced run
always ends in bounded time; composition rows also
record the largest stored degree of the result and its degree after
``sympy.cancel``.
"""

from __future__ import annotations

import statistics
import time

import superskel as sk

import inputs
from limits import OpTimeout, time_limit


def reduced_degrees(functions):
    """(stored, reduced) largest numerator/denominator degree over the
    coefficients of some superfunctions; reduced is None without sympy."""
    degree = inputs.stored_degree
    stored = max((max(degree(c.num), degree(c.den)) for f in functions
                  for c in f.terms.values()), default=0)
    try:
        import sympy
    except ImportError:
        return stored, None
    reduced = 0
    for function in functions:
        for coeff in function.terms.values():
            if degree(coeff.den) == 0:
                reduced = max(reduced, degree(coeff.num))
                continue
            num, den = sympy.fraction(sympy.cancel(_to_sympy(coeff.num, sympy)
                                                   / _to_sympy(coeff.den, sympy)))
            gens = sympy.symbols(f"x1:{coeff.num.nvars + 1}")
            reduced = max(reduced, sympy.Poly(num, *gens).total_degree(),
                          sympy.Poly(den, *gens).total_degree())
    return stored, reduced


def _to_sympy(poly, sympy):
    gens = sympy.symbols(f"x1:{poly.nvars + 1}")
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for g, e in zip(gens, exps):
            term *= g ** e
        expr += term
    return expr


def _timed(name: str, limit: float, fn, deadline: float):
    """Run ``fn`` under ``limit`` seconds, cut short by the section's
    ``deadline``; a row with no time left records ``"skipped"``."""
    limit = min(limit, deadline - time.perf_counter())
    row = {"row": name, "limit_s": limit}
    if limit <= 0:
        row["seconds"] = "skipped"
        return row, None
    start = time.perf_counter()
    try:
        with time_limit(limit):
            result = fn()
    except OpTimeout:
        row["seconds"] = "timeout"
        return row, None
    row["seconds"] = time.perf_counter() - start
    return row, result


def _compose_row(name, limit, outer, inner, deadline, route=sk.compose_subst):
    row, result = _timed(name, limit, lambda: route(outer, inner), deadline)
    row["stored_degree"], row["reduced_degree"] = (
        reduced_degrees(result.components) if result is not None else (None, None))
    return row, result


def rational_rows(seed: int, deadline: float):
    """The ROADMAP recipe's family on 1|2 composed with itself twice and three
    times, a pair of that family through a 2|1 middle space by each route,
    and eval_taylor of f o f at a rank-7 point whose even soul has three
    disjoint quadratic monomials, so the third even derivative survives and
    the quotient rule squares the denominator three times."""
    draw = inputs.Draw("stress", seed)
    f = inputs.build_skeleton(inputs.gen_recipe_skeleton(draw, (1, 2), (1, 2)))
    rows = []
    row, ff = _compose_row("fof_1|2", 10.0, f, f, deadline)
    rows.append(row)
    if ff is not None:
        rows.append(_compose_row("fofof_1|2", 10.0, ff, f, deadline)[0])
    inner = inputs.build_skeleton(inputs.gen_recipe_skeleton(draw, (2, 1), (2, 1)))
    outer = inputs.build_skeleton(inputs.gen_recipe_skeleton(draw, (2, 1), (1, 1)))
    for route in (sk.compose_subst, sk.compose_formula):
        rows.append(_compose_row(f"middle_2|1.{route.__name__}", 5.0, outer, inner,
                                 deadline, route)[0])
    value = draw.value
    soul = (((), inputs.gen_fraction(value)),) + tuple(
        (labels, inputs.gen_fraction(value)) for labels in ((1, 2), (3, 4), (5, 6), (2, 7)))
    odds = tuple(tuple((labels, inputs.gen_fraction(value)) for labels in pair)
                 for pair in (((1,), (3,)), ((5,), (7,))))
    point = inputs.build_point(((1, 2), 7, (soul,), odds))
    if ff is not None:
        rows.append(_timed("eval_taylor_fof_rank7", 10.0,
                           lambda: sk.eval_taylor(ff, point), deadline)[0])
    return rows


def odd_scaling(seed: int, deadline: float):
    """Self-composition of a polynomial 1|q skeleton, q = 1..4, by each route."""
    draw = inputs.Draw("odd-scaling", seed)
    rows = []
    for q in (1, 2, 3, 4):
        f = inputs.build_skeleton(inputs.gen_skeleton(draw, (1, q), (1, q)))
        for route in (sk.compose_subst, sk.compose_formula):
            rows.append(_compose_row(f"odd{q}.{route.__name__}", 10.0, f, f, deadline,
                                     route)[0])
    return rows


def rank_scaling(seed: int, deadline: float):
    """One polynomial 3|3 skeleton at ranks 4..8: median of three points for
    each evaluation route."""
    draw = inputs.Draw("rank-scaling", seed)
    f = inputs.build_skeleton(inputs.gen_skeleton(draw, (3, 3), (3, 3), degree=3,
                                                  terms=3, num_terms=3))
    rows = []
    for rank in (4, 5, 6, 7, 8):
        points = [inputs.build_point(inputs.gen_point(draw, (3, 3), rank))
                  for _ in range(3)]
        for route in (sk.eval_subst, sk.eval_taylor):
            times = [_timed("", 10.0, lambda: route(f, point), deadline)[0]["seconds"]
                     for point in points]
            cut = [t for t in times if isinstance(t, str)]  # "timeout" or "skipped"
            rows.append({"row": f"rank{rank}.{route.__name__}", "limit_s": 10.0,
                         "seconds": cut[0] if cut else statistics.median(times)})
    return rows


ROWS = {
    "compose-rational": rational_rows,
    "compose-poly": odd_scaling,
    "eval-highrank": rank_scaling,
    # both scaling curves are polynomial and take about a second; cli-files
    # carries them so that the gated workloads produce them too
    "cli-files": lambda seed, deadline: (odd_scaling(seed, deadline)
                                         + rank_scaling(seed, deadline)),
}
