"""Property suites: one per acceptance area, all exact, all seeded.

Each suite returns a CheckReport; the CLI `selftest` subcommand runs them and
the acceptance tests assert them under their time budgets.  Counts follow the
stated criteria; change them only together with the acceptance tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

from . import randgen
from .atlas import (GluingData, ManifoldPoint, check_cocycle, check_global_morphism,
                    projective_superline, superline_squaring_map, transport)
from .calculus import check_lambda_linearity, check_taylor, derivative
from .continuation import check_naturality, eval_subst, eval_taylor
from .grassmann import GrassmannElement
from .morphisms import (check_algebra_morphism, compose_formula, compose_subst,
                        decode_point, encode_point)
from .poly import Polynomial
from .report import CheckReport
from .spaces import DeWittDomain, SuperSpace
from .superfn import Skeleton, SuperFunction, mul_shuffle


def suite_grassmann_laws(seed: int = 1) -> CheckReport:
    """Ring laws, supercommutativity, inversion and nilpotency."""
    rng = random.Random(seed)
    report = CheckReport("grassmann laws")
    bad_assoc = bad_dist = 0
    for _ in range(500):
        a = randgen.random_grassmann(rng, 6, terms=4)
        b = randgen.random_grassmann(rng, 6, terms=4)
        c = randgen.random_grassmann(rng, 6, terms=4)
        if (a * b) * c != a * (b * c):
            bad_assoc += 1
        if a * (b + c) != a * b + a * c:
            bad_dist += 1
    report.add("associativity on 500 random triples in rank 6", bad_assoc == 0)
    report.add("distributivity on 500 random triples in rank 6", bad_dist == 0)

    bad = 0
    for _ in range(500):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = randgen.random_grassmann(rng, 6, parity=pa, terms=3)
        b = randgen.random_grassmann(rng, 6, parity=pb, terms=3)
        sign = -1 if pa and pb else 1
        if a * b != sign * (b * a):
            bad += 1
    report.add("supercommutativity on 500 homogeneous pairs", bad == 0)

    # exhaustive on basis monomials at rank 5
    labels = [l for size in range(6) for l in combinations(range(1, 6), size)]
    bad = 0
    for la in labels:
        for lb in labels:
            a = GrassmannElement.monomial(5, la)
            b = GrassmannElement.monomial(5, lb)
            sign = -1 if len(la) % 2 and len(lb) % 2 else 1
            if a * b != sign * (b * a):
                bad += 1
    report.add("supercommutativity on all rank-5 basis pairs", bad == 0)

    one = GrassmannElement.unit(5)
    bad = 0
    for _ in range(100):
        a = randgen.random_grassmann(rng, 5, terms=4, nonzero_body=True)
        if a * a.invert() != one:
            bad += 1
    report.add("inversion round trip on 100 body-invertible elements", bad == 0)

    bad = 0
    for _ in range(50):
        a = randgen.random_grassmann(rng, 5, terms=4)
        a = a - a.body()
        if a ** 6 != GrassmannElement.zero(5):
            bad += 1
    report.add("soul nilpotency at rank 5", bad == 0)

    bad = 0
    for _ in range(100):
        a = randgen.random_grassmann(rng, 4, terms=3)
        b = randgen.random_grassmann(rng, 4, terms=3)
        if (a * b).body() != a.body() * b.body():
            bad += 1
        m = randgen.random_morphism(rng, 4, 4)
        if m(a * b) != m(a) * m(b):
            bad += 1
    report.add("body and morphisms are multiplicative", bad == 0)
    return report


def _random_case_spaces(rng, max_even=3, max_odd=3):
    src = randgen.random_spaces(rng, max_even, max_odd)
    tgt = randgen.random_spaces(rng, max_even, max_odd)
    return src, tgt


def suite_continuation(seed: int = 2, cases: int = 200, rational_cases: int = 20) -> CheckReport:
    """Taylor route equals substitution route on random skeletons and points."""
    rng = random.Random(seed)
    report = CheckReport("continuation equivalence")
    bad = 0
    for case in range(cases):
        rational = case < rational_cases
        src, tgt = _random_case_spaces(rng)
        f = randgen.random_skeleton(rng, src, tgt, degree=4, terms=3, rational=rational)
        rank = rng.randint(1, 6)
        x = randgen.random_point(rng, src, rank)
        if eval_subst(f, x) != eval_taylor(f, x):
            bad += 1
    report.add(f"taylor = subst on {cases} cases ({rational_cases} rational)", bad == 0)

    bad = 0
    for _ in range(20):
        src, tgt = _random_case_spaces(rng)
        f = randgen.random_skeleton(rng, src, tgt, degree=3)
        x = randgen.random_point(rng, src, rng.randint(1, 5))
        higher = eval_subst(f, x.embed(x.rank + 1))
        if eval_subst(f, x).embed(x.rank + 1) != higher:
            bad += 1
    report.add("truncation consistency on 20 cases", bad == 0)
    return report


def suite_exact_taylor(seed: int = 3, cases: int = 100) -> CheckReport:
    """``check_taylor`` on random skeletons: the multi-increment expansion
    equals the substitution difference, and no Taylor shell survives beyond
    the rank."""
    rng = random.Random(seed)
    report = CheckReport("exact taylor increments")
    bad_increments = bad_shells = 0
    for _ in range(cases):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        rank = rng.randint(2, 5)
        # one increment case, then the shell bound, in check_taylor's order
        increments, shells = check_taylor(f, rank, rng, cases=1, max_increments=4).items
        bad_increments += not increments.passed
        bad_shells += not shells.passed
    report.add(f"increment expansion on {cases} cases (up to 4 increments)",
               bad_increments == 0)
    report.add(f"no taylor shell beyond the rank on {cases} cases", bad_shells == 0)
    return report


def suite_smoothness_certificate(seed: int = 4, cases: int = 100) -> CheckReport:
    """Naturality battery plus even-scalar linearity of derivatives."""
    rng = random.Random(seed)
    report = CheckReport("smoothness certificate")
    bad_nat = bad_lin = 0
    for case in range(cases):
        src, tgt = _random_case_spaces(rng, 2, 2)
        rational = case % 10 == 0
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3, rational=rational)
        rank = rng.randint(2, 5)
        rep = check_naturality(f, rank, rng=rng, sample_count=2)
        if not rep.ok:
            bad_nat += 1
        rep = check_lambda_linearity(f, rank, rng=rng, sample_count=2)
        if not rep.ok:
            bad_lin += 1
    report.add(f"naturality battery on {cases} skeletons", bad_nat == 0)
    report.add(f"even-scalar linearity on {cases} skeletons", bad_lin == 0)
    return report


def suite_algebra_isomorphism(seed: int = 5, pairs: int = 100,
                              product_pairs: int = 200) -> CheckReport:
    """Evaluation is an algebra map; the two product routes coincide."""
    rng = random.Random(seed)
    report = CheckReport("function algebra")
    bad = 0
    for _ in range(pairs):
        space = randgen.random_spaces(rng, 2, 3)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        x = randgen.random_point(rng, space, rng.randint(1, 5))
        if (h1 * h2).eval(x) != h1.eval(x) * h2.eval(x):
            bad += 1
    report.add(f"evaluation of products on {pairs} pairs", bad == 0)

    bad = 0
    for case in range(product_pairs):
        space = randgen.random_spaces(rng, 2, 4)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3,
                                          rational=case % 7 == 0)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        if mul_shuffle(h1, h2) != h1 * h2:
            bad += 1
    report.add(f"shuffle product = monomial product on {product_pairs} pairs", bad == 0)

    bad = 0
    for _ in range(50):
        space = randgen.random_spaces(rng, 2, 3)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        h1 = randgen.random_superfunction(rng, space, degree=2, terms=2, parity=pa)
        h2 = randgen.random_superfunction(rng, space, degree=2, terms=2, parity=pb)
        sign = Fraction(-1 if pa and pb else 1)
        if h1 * h2 != sign * (h2 * h1):
            bad += 1
    report.add("supercommutativity on 50 homogeneous pairs", bad == 0)

    bad = 0
    for _ in range(50):
        space = randgen.random_spaces(rng, 2, 3)
        f = randgen.random_superfunction(rng, space, degree=2, terms=3, parity=0,
                                         rational=rng.random() < 0.3)
        if f.body_coefficient().is_zero():
            f = f + Fraction(rng.randint(1, 5))
        if f * f.invert() != SuperFunction.constant(space, 1):
            bad += 1
    report.add("inversion round trip on 50 even superfunctions", bad == 0)
    return report


def suite_composition(seed: int = 6, pairs: int = 100, triples: int = 30) -> CheckReport:
    """Combinatorial composition equals substitution; category laws hold."""
    rng = random.Random(seed)
    report = CheckReport("composition")
    bad_sym = bad_sampled = 0
    for case in range(pairs):
        src = randgen.random_spaces(rng, 2, 2)
        mid = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, mid, degree=3, terms=2,
                                    rational=case % 5 == 0)
        g = randgen.random_skeleton(rng, mid, tgt, degree=3, terms=2)
        by_subst = compose_subst(g, f)
        by_formula = compose_formula(g, f)
        if not all(a == b for a, b in zip(by_subst.components, by_formula.components)):
            bad_sym += 1
            continue
        bodies = f.source_domain.sample_bodies(rng, 20)
        for body in bodies:
            for ca, cb in zip(by_subst.components, by_formula.components):
                for labels in set(ca.terms) | set(cb.terms):
                    if ca.coefficient(labels).eval(body) != cb.coefficient(labels).eval(body):
                        bad_sampled += 1
    report.add(f"formula = substitution symbolically on {pairs} pairs", bad_sym == 0)
    report.add("formula = substitution at 20 body points per pair, all ascending tuples",
               bad_sampled == 0)

    bad = 0
    for _ in range(triples):
        s1 = randgen.random_spaces(rng, 2, 2)
        s2 = randgen.random_spaces(rng, 2, 2)
        s3 = randgen.random_spaces(rng, 2, 2)
        s4 = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, s1, s2, degree=2, terms=2)
        g = randgen.random_skeleton(rng, s2, s3, degree=2, terms=2)
        h = randgen.random_skeleton(rng, s3, s4, degree=2, terms=2)
        left = compose_subst(h, compose_subst(g, f))
        right = compose_subst(compose_subst(h, g), f)
        if not all(a == b for a, b in zip(left.components, right.components)):
            bad += 1
        ident_src = Skeleton.identity(s1)
        ident_tgt = Skeleton.identity(s2)
        if not all(a == b for a, b in
                   zip(compose_subst(f, ident_src).components, f.components)):
            bad += 1
        if not all(a == b for a, b in
                   zip(compose_subst(ident_tgt, f).components, f.components)):
            bad += 1
    report.add(f"associativity and identity laws on {triples} triples", bad == 0)

    bad = 0
    for _ in range(20):
        src = randgen.random_spaces(rng, 2, 2)
        mid = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, mid, degree=2, terms=2)
        g = randgen.random_skeleton(rng, mid, randgen.random_spaces(rng, 2, 2),
                                    degree=2, terms=2)
        x = randgen.random_point(rng, src, rng.randint(1, 6))
        if eval_subst(compose_subst(g, f), x) != \
                eval_subst(g, eval_subst(f, x), check_domain=False):
            bad += 1
    report.add("continuation is functorial on 20 cases", bad == 0)
    return report


def suite_point_functor(seed: int = 7, points: int = 100, triples: int = 50) -> CheckReport:
    """Points are exactly the evaluation morphisms."""
    rng = random.Random(seed)
    report = CheckReport("point functor")
    bad = 0
    for _ in range(points):
        space = randgen.random_spaces(rng, 2, 2)
        rank = rng.randint(0, 5)
        x = randgen.random_point(rng, space, rank)
        ev = encode_point(x)
        evens = [ev(SuperFunction.even_coordinate(space, i + 1))
                 for i in range(space.even_dim)]
        odds = [ev(SuperFunction.odd_coordinate(space, j + 1))
                for j in range(space.odd_dim)]
        if decode_point(space, rank, evens, odds) != x:
            bad += 1
    report.add(f"encode/decode round trip on {points} points", bad == 0)

    bad = 0
    for _ in range(triples):
        space = randgen.random_spaces(rng, 2, 2)
        x = randgen.random_point(rng, space, rng.randint(1, 5))
        ev = encode_point(x)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        if ev(h1 * h2) != ev(h1) * ev(h2):
            bad += 1
    report.add(f"evaluation is multiplicative on {triples} pairs", bad == 0)

    space = SuperSpace(1, 1)
    x = randgen.random_point(rng, space, 3)
    coord_x = SuperFunction.even_coordinate(space, 1)
    coord_t = SuperFunction.odd_coordinate(space, 1)
    square = coord_x * coord_x
    consistent = [(coord_x, x.even_values[0]), (coord_t, x.odd_values[0]),
                  (square, square.eval(x))]
    report.add("consistent table accepted",
               check_algebra_morphism(space, 3, consistent).ok)
    broken = [(coord_x, x.even_values[0]), (coord_t, x.odd_values[0]),
              (square, square.eval(x) + 1)]
    report.add("forced inconsistency detected",
               not check_algebra_morphism(space, 3, broken).ok)
    return report


def suite_higher_order(seed: int = 8, cases: int = 100) -> CheckReport:
    """Supersymmetry, the increment update law, and the nilpotent Taylor sum."""
    rng = random.Random(seed)
    report = CheckReport("higher-derivative family")
    bad_swap = bad_update = 0
    for case in range(30):
        src = randgen.random_spaces(rng, 2, 2, min_total=1)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        rank = rng.randint(2, 4)
        x = randgen.random_point(rng, src, rank)
        for order in (2, 3):
            data = derivative(f, order)
            args = []
            parities = []
            for _ in range(order):
                vec, cp, sp = randgen.random_pure_vector(rng, src, rank)
                args.append(vec)
                parities.append((cp, sp))
            value = data.apply(x, args)
            for pos in range(order - 1):
                swapped = list(args)
                swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                (d1, s1), (d2, s2) = parities[pos], parities[pos + 1]
                sign = Fraction(-1 if (d1 * d2 + s1 * s2) % 2 else 1)
                if value != data.apply(x, swapped).scale(sign):
                    bad_swap += 1
        for order in (0, 1, 2):
            data_k = derivative(f, order)
            data_k1 = derivative(f, order + 1)
            a = randgen.random_increment(rng, src, rank, rng.randint(1, rank))
            vs = [randgen.random_vector(rng, src, rank) for _ in range(order)]
            lhs = data_k1.apply(x, [a.to_vector()] + vs)
            rhs = data_k.apply(x + a, vs) - data_k.apply(x, vs)
            if lhs != rhs:
                bad_update += 1
    report.add("supersymmetry signs on all adjacent swaps (orders 2, 3)", bad_swap == 0)
    report.add("increment update law (orders 0..2)", bad_update == 0)

    bad = 0
    for case in range(cases):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3,
                                    rational=case % 10 == 0)
        rank = rng.randint(1, 6)
        x = randgen.random_point(rng, src, rank)
        y = randgen.random_soul_increment(rng, src, rank)
        acc = derivative(f, 0).apply(x, [])
        for k in range(1, rank + 1):
            term = derivative(f, k).apply(x, [y.to_vector()] * k)
            acc = acc + term.scale(Fraction(1, factorial(k)))
        if acc != eval_subst(f, x + y).to_vector():
            bad += 1
    report.add(f"nilpotent taylor sum = substitution on {cases} cases", bad == 0)
    return report


def _corrupted_gluing() -> GluingData:
    """Two charts whose 'inverse' transition is off by a shift."""
    space = SuperSpace(1, 0)
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)
    forward = Skeleton(space, full, space, full, [SuperFunction(space, full, {(): x})])
    backward = Skeleton(space, full, space, full,
                        [SuperFunction(space, full, {(): x + Polynomial.one(1)})])
    return GluingData({"U": (space, full), "V": (space, full)},
                      {("U", "V"): full, ("V", "U"): full},
                      {("U", "V"): forward, ("V", "U"): backward})


def _inconsistent_squaring_map():
    """The forced-failure chartwise pair: the B-side (y^2, y*h) does not match
    the transitions."""
    space = SuperSpace(1, 1)
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)
    f_a = Skeleton(space, full, space, full,
                   [SuperFunction(space, full, {(): x * x}),
                    SuperFunction(space, full, {(1,): x})])
    f_b = Skeleton(space, full, space, full,
                   [SuperFunction(space, full, {(): x * x}),
                    SuperFunction(space, full, {(1,): x})])
    return {("A", "A"): f_a, ("B", "B"): f_b}


def suite_gluing(seed: int = 9, round_trips: int = 50) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("gluing")
    line = projective_superline()
    cocycle = check_cocycle(line, rng, samples=25, rank=3)
    report.add("projective superline cocycle", cocycle.ok,
               "" if cocycle.ok else cocycle.summary())

    space = SuperSpace(1, 1)
    bad = 0
    for _ in range(round_trips):
        rank = rng.randint(1, 4)
        body = [randgen.random_fraction(rng, nonzero=True)]
        x = randgen.random_point_with_body(rng, space, rank, body)
        mp = ManifoldPoint("A", x)
        there = transport(line, mp, "B")
        back = transport(line, there, "A")
        if back.point != x or back.chart != "A":
            bad += 1
    report.add(f"transport round trips on {round_trips} points", bad == 0)

    good = check_global_morphism(line, line, superline_squaring_map(), rng,
                                 samples=8, rank=3)
    report.add("degree-2 self-map is a global morphism", good.ok,
               "" if good.ok else good.summary())

    broken = check_global_morphism(line, line, _inconsistent_squaring_map(), rng,
                                   samples=8, rank=3)
    report.add("inconsistent chartwise pair detected", not broken.ok)

    corrupted = check_cocycle(_corrupted_gluing(), rng, samples=10, rank=2)
    report.add("corrupted cocycle detected", not corrupted.ok)
    return report


def suite_factor_and_taylor(seed: int = 10, cases: int = 50) -> CheckReport:
    from .calculus import hadamard_decompose, taylor_polynomial, taylor_remainder_vanishes

    rng = random.Random(seed)
    report = CheckReport("factorization and taylor polynomials")
    bad = 0
    for _ in range(cases):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        x0 = DeWittDomain.full(src).sample_bodies(rng, 1)[0]
        if not hadamard_decompose(f, x0).identity_holds():
            bad += 1
    report.add(f"telescoped factorization on {cases} polynomial skeletons", bad == 0)

    bad = 0
    for case in range(cases):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3,
                                    rational=case % 3 == 0)
        x0 = f.source_domain.sample_bodies(rng, 1)[0]
        degree = rng.randint(0, 3)
        p = taylor_polynomial(f, x0, degree)
        if not taylor_remainder_vanishes(f, p, x0, degree):
            bad += 1
    report.add(f"taylor remainder order on {cases} cases", bad == 0)
    return report


def suite_cli_roundtrip(seed: int = 11, values: int = 500) -> CheckReport:
    from . import parsing

    rng = random.Random(seed)
    report = CheckReport("cli formats")
    bad = 0
    for case in range(values):
        kind = case % 3
        if kind == 0:
            rank = rng.randint(0, 6)
            value = randgen.random_grassmann(rng, rank, terms=4)
            back = parsing.parse_grassmann(value.format(), rank)
        elif kind == 1:
            space = randgen.random_spaces(rng, 3, 3)
            value = randgen.random_superfunction(rng, space, degree=3, terms=4,
                                                 rational=case % 6 == 0)
            back = parsing.parse_superfunction(value.format(), space)
        else:
            space = randgen.random_spaces(rng, 2, 2)
            value = randgen.random_point(rng, space, rng.randint(0, 5))
            back = parsing.parse_point_file(parsing.format_point(value), space)
        if back != value:
            bad += 1
    report.add(f"parse/format round trip on {values} values", bad == 0)

    bad = 0
    for _ in range(20):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, rational=rng.random() < 0.3)
        text = parsing.format_skeleton(f)
        back = parsing.parse_skeleton_file(text)
        if not all(a == b for a, b in zip(back.components, f.components)):
            bad += 1
        if parsing.format_skeleton(back) != text:
            bad += 1
    report.add("skeleton files round trip and are idempotent", bad == 0)
    return report


ALL_SUITES = {
    "grassmann": suite_grassmann_laws,
    "continuation": suite_continuation,
    "taylor": suite_exact_taylor,
    "certificate": suite_smoothness_certificate,
    "algebra": suite_algebra_isomorphism,
    "composition": suite_composition,
    "points": suite_point_functor,
    "higher": suite_higher_order,
    "gluing": suite_gluing,
    "factor": suite_factor_and_taylor,
    "formats": suite_cli_roundtrip,
}


_DEFAULT_SEEDS = {"grassmann": 1, "continuation": 2, "taylor": 3, "certificate": 4,
                  "algebra": 5, "composition": 6, "points": 7, "higher": 8,
                  "gluing": 9, "factor": 10, "formats": 11}


def run_suites(names=None, seed: int | None = None) -> list[CheckReport]:
    reports = []
    for index, (name, suite) in enumerate(ALL_SUITES.items()):
        if names and name not in names:
            continue
        reports.append(suite(_DEFAULT_SEEDS[name] if seed is None else seed + index))
    return reports
