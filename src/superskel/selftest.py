"""Property suites: one per acceptance area, all exact, all seeded.

Each suite returns a CheckReport; the CLI `selftest` subcommand runs them and
the acceptance tests assert them under their time budgets.  Item labels state
their counts and the acceptance tests assert the labels, so a count changes
only together with them; each main case count is stated once, as a module
constant that bounds its loop and appears in its label.  Where a library
certificate exists, the suite only draws seeded inputs and drives it:
``suite_exact_taylor`` runs ``check_taylor``, ``suite_higher_order`` runs
``check_def43`` and ``suite_continuation`` runs ``truncation_consistent``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import parsing, randgen
from .atlas import (GluingData, ManifoldPoint, check_cocycle, check_global_morphism,
                    projective_superline, superline_squaring_map, transport)
from .calculus import (check_def43, check_lambda_linearity, check_taylor, hadamard_decompose,
                       taylor_polynomial, taylor_remainder_vanishes)
from .continuation import check_naturality, eval_subst, eval_taylor, truncation_consistent
from .grassmann import GrassmannElement
from .morphisms import (check_algebra_morphism, compose_formula, compose_subst,
                        decode_point, encode_point)
from .report import CheckReport
from .spaces import DeWittDomain, SuperSpace
from .superfn import Skeleton, SuperFunction, mul_shuffle

CONTINUATION_CASES = 200
CONTINUATION_RATIONAL_CASES = 20
TAYLOR_CASES = 100
CERTIFICATE_CASES = 100
ALGEBRA_PAIRS = 100
ALGEBRA_PRODUCT_PAIRS = 200
COMPOSITION_PAIRS = 100
COMPOSITION_TRIPLES = 30
POINT_FUNCTOR_POINTS = 100
POINT_FUNCTOR_TRIPLES = 50
HIGHER_ORDER_CASES = 100
HIGHER_ORDER_WIDE_CASES = 30
GLUING_ROUND_TRIPS = 50
FACTOR_CASES = 50
FORMAT_VALUES = 500


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
    labels = randgen.label_tuples(5)
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


def suite_continuation(seed: int = 2) -> CheckReport:
    """Taylor route equals substitution route on random skeletons and points."""
    rng = random.Random(seed)
    report = CheckReport("continuation equivalence")
    bad = 0
    for case in range(CONTINUATION_CASES):
        rational = case < CONTINUATION_RATIONAL_CASES
        src, tgt = _random_case_spaces(rng)
        f = randgen.random_skeleton(rng, src, tgt, degree=4, terms=3, rational=rational)
        rank = rng.randint(1, 6)
        x = randgen.random_point(rng, src, rank)
        if eval_subst(f, x) != eval_taylor(f, x):
            bad += 1
    report.add(f"taylor = subst on {CONTINUATION_CASES} cases "
               f"({CONTINUATION_RATIONAL_CASES} rational)", bad == 0)

    bad = 0
    for _ in range(20):
        src, tgt = _random_case_spaces(rng)
        f = randgen.random_skeleton(rng, src, tgt, degree=3)
        x = randgen.random_point(rng, src, rng.randint(1, 5))
        bad += not truncation_consistent(f, x)
    report.add("truncation consistency on 20 cases", bad == 0)
    return report


def suite_exact_taylor(seed: int = 3) -> CheckReport:
    """``check_taylor`` on random skeletons: the multi-increment expansion
    equals the substitution difference, and no Taylor shell survives beyond
    the rank."""
    rng = random.Random(seed)
    report = CheckReport("exact taylor increments")
    bad_increments = bad_shells = 0
    for _ in range(TAYLOR_CASES):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        rank = rng.randint(2, 5)
        # one increment case, then the shell bound, in check_taylor's order
        increments, shells = check_taylor(f, rank, rng, cases=1, max_increments=4).items
        bad_increments += not increments.passed
        bad_shells += not shells.passed
    report.add(f"increment expansion on {TAYLOR_CASES} cases (up to 4 increments)",
               bad_increments == 0)
    report.add(f"no taylor shell beyond the rank on {TAYLOR_CASES} cases", bad_shells == 0)
    return report


def suite_smoothness_certificate(seed: int = 4) -> CheckReport:
    """Naturality battery plus even-scalar linearity of derivatives."""
    rng = random.Random(seed)
    report = CheckReport("smoothness certificate")
    bad_nat = bad_lin = 0
    for case in range(CERTIFICATE_CASES):
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
    report.add(f"naturality battery on {CERTIFICATE_CASES} skeletons", bad_nat == 0)
    report.add(f"even-scalar linearity on {CERTIFICATE_CASES} skeletons", bad_lin == 0)
    return report


def suite_algebra_isomorphism(seed: int = 5) -> CheckReport:
    """Evaluation is an algebra map; the two product routes coincide."""
    rng = random.Random(seed)
    report = CheckReport("function algebra")
    bad = 0
    for _ in range(ALGEBRA_PAIRS):
        space = randgen.random_spaces(rng, 2, 3)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        x = randgen.random_point(rng, space, rng.randint(1, 5))
        if (h1 * h2).eval(x) != h1.eval(x) * h2.eval(x):
            bad += 1
    report.add(f"evaluation of products on {ALGEBRA_PAIRS} pairs", bad == 0)

    bad = 0
    for case in range(ALGEBRA_PRODUCT_PAIRS):
        space = randgen.random_spaces(rng, 2, 4)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3,
                                          rational=case % 7 == 0)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        if mul_shuffle(h1, h2) != h1 * h2:
            bad += 1
    report.add(f"shuffle product = monomial product on {ALGEBRA_PRODUCT_PAIRS} pairs",
               bad == 0)

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
        if f.coefficient(()).is_zero():
            f = f + Fraction(rng.randint(1, 5))
        if f * f.invert() != SuperFunction.constant(space, 1):
            bad += 1
    report.add("inversion round trip on 50 even superfunctions", bad == 0)
    return report


def suite_composition(seed: int = 6) -> CheckReport:
    """Combinatorial composition equals substitution; category laws hold."""
    rng = random.Random(seed)
    report = CheckReport("composition")
    bad_sym = bad_sampled = 0
    for case in range(COMPOSITION_PAIRS):
        src = randgen.random_spaces(rng, 2, 2)
        mid = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, mid, degree=3, terms=2,
                                    rational=case % 5 == 0)
        g = randgen.random_skeleton(rng, mid, tgt, degree=3, terms=2)
        by_subst = compose_subst(g, f)
        by_formula = compose_formula(g, f)
        if by_subst != by_formula:
            bad_sym += 1
            continue
        bodies = f.source_domain.sample_bodies(rng, 20)
        for body in bodies:
            for ca, cb in zip(by_subst.components, by_formula.components):
                for labels in set(ca.terms) | set(cb.terms):
                    if ca.coefficient(labels).eval(body) != cb.coefficient(labels).eval(body):
                        bad_sampled += 1
    report.add(f"formula = substitution symbolically on {COMPOSITION_PAIRS} pairs",
               bad_sym == 0)
    report.add("formula = substitution at 20 body points per pair, all ascending tuples",
               bad_sampled == 0)

    bad = 0
    for _ in range(COMPOSITION_TRIPLES):
        s1 = randgen.random_spaces(rng, 2, 2)
        s2 = randgen.random_spaces(rng, 2, 2)
        s3 = randgen.random_spaces(rng, 2, 2)
        s4 = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, s1, s2, degree=2, terms=2)
        g = randgen.random_skeleton(rng, s2, s3, degree=2, terms=2)
        h = randgen.random_skeleton(rng, s3, s4, degree=2, terms=2)
        left = compose_subst(h, compose_subst(g, f))
        right = compose_subst(compose_subst(h, g), f)
        bad += left != right
        bad += compose_subst(f, Skeleton.identity(s1)) != f
        bad += compose_subst(Skeleton.identity(s2), f) != f
    report.add(f"associativity and identity laws on {COMPOSITION_TRIPLES} triples", bad == 0)

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


def suite_point_functor(seed: int = 7) -> CheckReport:
    """Points are exactly the evaluation morphisms."""
    rng = random.Random(seed)
    report = CheckReport("point functor")
    bad = 0
    for _ in range(POINT_FUNCTOR_POINTS):
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
    report.add(f"encode/decode round trip on {POINT_FUNCTOR_POINTS} points", bad == 0)

    bad = 0
    for _ in range(POINT_FUNCTOR_TRIPLES):
        space = randgen.random_spaces(rng, 2, 2)
        x = randgen.random_point(rng, space, rng.randint(1, 5))
        ev = encode_point(x)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        if ev(h1 * h2) != ev(h1) * ev(h2):
            bad += 1
    report.add(f"evaluation is multiplicative on {POINT_FUNCTOR_TRIPLES} pairs", bad == 0)

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


def suite_higher_order(seed: int = 8) -> CheckReport:
    """``check_def43`` on random skeletons, failures counted per law.

    The first ``HIGHER_ORDER_WIDE_CASES`` skeletons (rank 2..4) run orders
    1..3, so every adjacent swap at orders 2 and 3 and the update law at
    orders 0..3; the rest (rank 1..6) run order 1.  Every tenth skeleton is
    rational.
    """
    rng = random.Random(seed)
    report = CheckReport("higher-derivative family")
    wide = HIGHER_ORDER_WIDE_CASES
    bad = {"supersymmetry": 0, "extends body derivatives": 0, "update law": 0,
           "nilpotent Taylor sum": 0}
    for case in range(HIGHER_ORDER_CASES):
        if case < wide:
            src = randgen.random_spaces(rng, 2, 2, min_total=1)
            rank, orders = rng.randint(2, 4), (1, 2, 3)
        else:
            src = randgen.random_spaces(rng, 2, 2)
            rank, orders = rng.randint(1, 6), (1,)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3,
                                    rational=case % 10 == 0)
        for item in check_def43(f, rank, rng, cases=1, orders=orders).items:
            bad[item.label.split(" case ")[0]] += not item.passed
    report.add(f"supersymmetry signs on all adjacent swaps (orders 2, 3) on {wide} cases",
               bad["supersymmetry"] == 0)
    report.add(f"body derivatives extended (orders 1..3 on {wide} cases, 1 on the rest)",
               bad["extends body derivatives"] == 0)
    report.add(f"increment update law (orders 0..3 on {wide} cases, 0..1 on the rest)",
               bad["update law"] == 0)
    report.add(f"nilpotent taylor sum = substitution on {HIGHER_ORDER_CASES} cases",
               bad["nilpotent Taylor sum"] == 0)
    return report


def _corrupted_gluing() -> GluingData:
    """Two charts whose 'inverse' transition is off by a shift."""
    forward = Skeleton.identity(SuperSpace(1, 0))
    space, full = forward.source_space, forward.source_domain
    backward = Skeleton(space, full, space, full, [forward.components[0] + 1])
    return GluingData({"U": (space, full), "V": (space, full)},
                      {("U", "V"): full, ("V", "U"): full},
                      {("U", "V"): forward, ("V", "U"): backward})


def _inconsistent_squaring_map():
    """The forced-failure chartwise pair: the degree-2 map's A-side
    (x^2, x*t) placed on chart B too, where it does not match the
    transitions."""
    f_a = superline_squaring_map()[("A", "A")]
    return {("A", "A"): f_a, ("B", "B"): f_a}


def suite_gluing(seed: int = 9) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("gluing")
    line = projective_superline()
    cocycle = check_cocycle(line, rng, samples=25, rank=3)
    report.add("projective superline cocycle", cocycle.ok,
               "" if cocycle.ok else cocycle.summary())

    space = SuperSpace(1, 1)
    bad = 0
    for _ in range(GLUING_ROUND_TRIPS):
        rank = rng.randint(1, 4)
        body = [randgen.random_fraction(rng, nonzero=True)]
        x = randgen.random_point_with_body(rng, space, rank, body)
        mp = ManifoldPoint("A", x)
        there = transport(line, mp, "B")
        back = transport(line, there, "A")
        if back.point != x or back.chart != "A":
            bad += 1
    report.add(f"transport round trips on {GLUING_ROUND_TRIPS} points", bad == 0)

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


def suite_factor_and_taylor(seed: int = 10) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("factorization and taylor polynomials")
    bad = 0
    for _ in range(FACTOR_CASES):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        x0 = DeWittDomain.full(src).sample_bodies(rng, 1)[0]
        if not hadamard_decompose(f, x0).identity_holds():
            bad += 1
    report.add(f"telescoped factorization on {FACTOR_CASES} polynomial skeletons", bad == 0)

    bad = 0
    for case in range(FACTOR_CASES):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3,
                                    rational=case % 3 == 0)
        x0 = f.source_domain.sample_bodies(rng, 1)[0]
        degree = rng.randint(0, 3)
        p = taylor_polynomial(f, x0, degree)
        if not taylor_remainder_vanishes(f, p, x0, degree):
            bad += 1
    report.add(f"taylor remainder order on {FACTOR_CASES} cases", bad == 0)
    return report


def suite_cli_roundtrip(seed: int = 11) -> CheckReport:
    rng = random.Random(seed)
    report = CheckReport("cli formats")
    bad = 0
    for case in range(FORMAT_VALUES):
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
    report.add(f"parse/format round trip on {FORMAT_VALUES} values", bad == 0)

    bad = 0
    for _ in range(20):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, rational=rng.random() < 0.3)
        text = parsing.format_skeleton(f)
        back = parsing.parse_skeleton_file(text)
        bad += back != f
        bad += parsing.format_skeleton(back) != text
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


def run_suites(names=None, seed: int | None = None) -> list[CheckReport]:
    reports = []
    for index, (name, suite) in enumerate(ALL_SUITES.items()):
        if names and name not in names:
            continue
        reports.append(suite() if seed is None else suite(seed + index))
    return reports
