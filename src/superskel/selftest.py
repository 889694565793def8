"""Property suites: one per acceptance area, all exact, all seeded.

Each property is a case function ``case(rng, index)`` that draws one case
from ``rng`` and returns a tuple of flags, one per item label it checks;
``_tally`` runs it ``count`` times and adds each label once, as passed when
every case passed and otherwise with the index of its first failing case.
Item labels state their counts and the acceptance tests assert the labels, so
each count is written once, in its ``_tally`` call, and reaches the label
through ``{n}``.  Where a library certificate exists, the suite only draws
seeded inputs and drives it: the "taylor" suite runs ``check_taylor``,
"higher" runs ``check_def43`` and "continuation" runs
``truncation_consistent``.

``ALL_SUITES`` maps each suite name to its report title and its body;
``run_suite(name, seed)`` runs one on ``random.Random(seed + i)``, with i the
suite's position in ``ALL_SUITES``, so a seed reproduces every report of
``run_suites`` and ``superskel selftest --seed``, whichever suites it runs.
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


def _tally(report: CheckReport, rng, count: int, case, *labels: str) -> None:
    """Run ``case(rng, index)`` for each index below ``count``; each call
    returns one flag per label.  Each label is added once, with ``{n}``
    filled in from ``count``; a failing one names its first failing case."""
    first_failure = [None] * len(labels)
    for index in range(count):
        for which, passed in enumerate(case(rng, index)):
            if not passed and first_failure[which] is None:
                first_failure[which] = index
    for label, failed_at in zip(labels, first_failure):
        report.add(label.format(n=count), failed_at is None,
                   "" if failed_at is None else f"first failure at case {failed_at}")


def _grassmann_laws(report: CheckReport, rng) -> None:
    """Ring laws, supercommutativity, inversion and nilpotency."""
    def ring_laws(rng, index):
        a, b, c = [randgen.random_grassmann(rng, 6, terms=4) for _ in range(3)]
        return (a * b) * c == a * (b * c), a * (b + c) == a * b + a * c

    _tally(report, rng, 500, ring_laws, "associativity on {n} random triples in rank 6",
           "distributivity on {n} random triples in rank 6")

    def supercommutes(rng, index):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = randgen.random_grassmann(rng, 6, parity=pa, terms=3)
        b = randgen.random_grassmann(rng, 6, parity=pb, terms=3)
        return (a * b == (-1 if pa and pb else 1) * (b * a),)

    _tally(report, rng, 500, supercommutes, "supercommutativity on {n} homogeneous pairs")

    # exhaustive on basis monomials at rank 5
    basis = randgen.label_tuples(5)

    def basis_pair_supercommutes(rng, index):
        la, lb = basis[index // len(basis)], basis[index % len(basis)]
        a, b = GrassmannElement.monomial(5, la), GrassmannElement.monomial(5, lb)
        return (a * b == (-1 if len(la) % 2 and len(lb) % 2 else 1) * (b * a),)

    _tally(report, rng, len(basis) ** 2, basis_pair_supercommutes,
           "supercommutativity on all rank-5 basis pairs")

    def inverts(rng, index):
        a = randgen.random_grassmann(rng, 5, terms=4, nonzero_body=True)
        return (a * a.invert() == GrassmannElement.unit(5),)

    _tally(report, rng, 100, inverts, "inversion round trip on {n} body-invertible elements")

    def soul_nilpotent(rng, index):
        a = randgen.random_grassmann(rng, 5, terms=4)
        return ((a - a.body()) ** 6 == GrassmannElement.zero(5),)

    _tally(report, rng, 50, soul_nilpotent, "soul nilpotency at rank 5")

    def multiplicative(rng, index):
        a = randgen.random_grassmann(rng, 4, terms=3)
        b = randgen.random_grassmann(rng, 4, terms=3)
        m = randgen.random_morphism(rng, 4, 4)
        return ((a * b).body() == a.body() * b.body() and m(a * b) == m(a) * m(b),)

    _tally(report, rng, 100, multiplicative, "body and morphisms are multiplicative")


def _random_case_spaces(rng, max_even=3, max_odd=3):
    src = randgen.random_spaces(rng, max_even, max_odd)
    tgt = randgen.random_spaces(rng, max_even, max_odd)
    return src, tgt


def _continuation(report: CheckReport, rng) -> None:
    """Taylor route equals substitution route on random skeletons and points."""
    rational = 20  # the first cases draw rational skeletons

    def routes_agree(rng, index):
        src, tgt = _random_case_spaces(rng)
        f = randgen.random_skeleton(rng, src, tgt, degree=4, terms=3, rational=index < rational)
        x = randgen.random_point(rng, src, rng.randint(1, 6))
        return (eval_subst(f, x) == eval_taylor(f, x),)

    _tally(report, rng, 200, routes_agree, f"taylor = subst on {{n}} cases ({rational} rational)")

    def truncates(rng, index):
        src, tgt = _random_case_spaces(rng)
        f = randgen.random_skeleton(rng, src, tgt, degree=3)
        return (truncation_consistent(f, randgen.random_point(rng, src, rng.randint(1, 5))),)

    _tally(report, rng, 20, truncates, "truncation consistency on {n} cases")


def _exact_taylor(report: CheckReport, rng) -> None:
    """``check_taylor`` on random skeletons: the multi-increment expansion
    equals the substitution difference, and no Taylor shell survives beyond
    the rank."""
    def taylor_case(rng, index):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        # one increment case, then the shell bound, in check_taylor's order
        items = check_taylor(f, rng.randint(2, 5), rng, cases=1, max_increments=4).items
        return tuple(item.passed for item in items)

    _tally(report, rng, 100, taylor_case, "increment expansion on {n} cases (up to 4 increments)",
           "no taylor shell beyond the rank on {n} cases")


def _smoothness_certificate(report: CheckReport, rng) -> None:
    """Naturality battery plus even-scalar linearity of derivatives."""
    def certified(rng, index):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3, rational=index % 10 == 0)
        rank = rng.randint(2, 5)
        return (check_naturality(f, rank, rng=rng, sample_count=2).ok,
                check_lambda_linearity(f, rank, rng=rng, sample_count=2).ok)

    _tally(report, rng, 100, certified, "naturality battery on {n} skeletons",
           "even-scalar linearity on {n} skeletons")


def _algebra_isomorphism(report: CheckReport, rng) -> None:
    """Evaluation is an algebra map; the two product routes coincide."""
    def evaluation_multiplies(rng, index):
        space = randgen.random_spaces(rng, 2, 3)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        x = randgen.random_point(rng, space, rng.randint(1, 5))
        return ((h1 * h2).eval(x) == h1.eval(x) * h2.eval(x),)

    _tally(report, rng, 100, evaluation_multiplies, "evaluation of products on {n} pairs")

    def products_agree(rng, index):
        space = randgen.random_spaces(rng, 2, 4)
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3, rational=index % 7 == 0)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        return (mul_shuffle(h1, h2) == h1 * h2,)

    _tally(report, rng, 200, products_agree, "shuffle product = monomial product on {n} pairs")

    def supercommutes(rng, index):
        space = randgen.random_spaces(rng, 2, 3)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        h1 = randgen.random_superfunction(rng, space, degree=2, terms=2, parity=pa)
        h2 = randgen.random_superfunction(rng, space, degree=2, terms=2, parity=pb)
        return (h1 * h2 == Fraction(-1 if pa and pb else 1) * (h2 * h1),)

    _tally(report, rng, 50, supercommutes, "supercommutativity on {n} homogeneous pairs")

    def inverts(rng, index):
        space = randgen.random_spaces(rng, 2, 3)
        f = randgen.random_superfunction(rng, space, degree=2, terms=3, parity=0,
                                         rational=rng.random() < 0.3)
        if f.coefficient(()).is_zero():
            f = f + Fraction(rng.randint(1, 5))
        return (f * f.invert() == SuperFunction.constant(space, 1),)

    _tally(report, rng, 50, inverts, "inversion round trip on {n} even superfunctions")


def _composition(report: CheckReport, rng) -> None:
    """Combinatorial composition equals substitution; category laws hold."""
    bodies = 20  # body points sampled per symbolically equal pair

    def routes_agree(rng, index):
        src, mid, tgt = [randgen.random_spaces(rng, 2, 2) for _ in range(3)]
        f = randgen.random_skeleton(rng, src, mid, degree=3, terms=2, rational=index % 5 == 0)
        g = randgen.random_skeleton(rng, mid, tgt, degree=3, terms=2)
        by_subst, by_formula = compose_subst(g, f), compose_formula(g, f)
        if by_subst != by_formula:
            return False, True
        # every body is drawn before the first comparison
        return True, all(ca.coefficient(labels).eval(body) == cb.coefficient(labels).eval(body)
                         for body in f.source_domain.sample_bodies(rng, bodies)
                         for ca, cb in zip(by_subst.components, by_formula.components)
                         for labels in set(ca.terms) | set(cb.terms))

    _tally(report, rng, 100, routes_agree, "formula = substitution symbolically on {n} pairs",
           f"formula = substitution at {bodies} body points per pair, all ascending tuples")

    def category_laws(rng, index):
        s1, s2, s3, s4 = [randgen.random_spaces(rng, 2, 2) for _ in range(4)]
        f = randgen.random_skeleton(rng, s1, s2, degree=2, terms=2)
        g = randgen.random_skeleton(rng, s2, s3, degree=2, terms=2)
        h = randgen.random_skeleton(rng, s3, s4, degree=2, terms=2)
        return (compose_subst(h, compose_subst(g, f)) == compose_subst(compose_subst(h, g), f)
                and compose_subst(f, Skeleton.identity(s1)) == f
                and compose_subst(Skeleton.identity(s2), f) == f,)

    _tally(report, rng, 30, category_laws, "associativity and identity laws on {n} triples")

    def functorial(rng, index):
        src = randgen.random_spaces(rng, 2, 2)
        mid = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, mid, degree=2, terms=2)
        g = randgen.random_skeleton(rng, mid, randgen.random_spaces(rng, 2, 2),
                                    degree=2, terms=2)
        x = randgen.random_point(rng, src, rng.randint(1, 6))
        return (eval_subst(compose_subst(g, f), x)
                == eval_subst(g, eval_subst(f, x), check_domain=False),)

    _tally(report, rng, 20, functorial, "continuation is functorial on {n} cases")


def _point_functor(report: CheckReport, rng) -> None:
    """Points are exactly the evaluation morphisms."""
    def round_trips(rng, index):
        space = randgen.random_spaces(rng, 2, 2)
        rank = rng.randint(0, 5)
        x = randgen.random_point(rng, space, rank)
        ev = encode_point(x)
        evens = [ev(SuperFunction.even_coordinate(space, i + 1))
                 for i in range(space.even_dim)]
        odds = [ev(SuperFunction.odd_coordinate(space, j + 1))
                for j in range(space.odd_dim)]
        return (decode_point(space, rank, evens, odds) == x,)

    _tally(report, rng, 100, round_trips, "encode/decode round trip on {n} points")

    def evaluation_multiplies(rng, index):
        space = randgen.random_spaces(rng, 2, 2)
        ev = encode_point(randgen.random_point(rng, space, rng.randint(1, 5)))
        h1 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        h2 = randgen.random_superfunction(rng, space, degree=3, terms=3)
        return (ev(h1 * h2) == ev(h1) * ev(h2),)

    _tally(report, rng, 50, evaluation_multiplies, "evaluation is multiplicative on {n} pairs")

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


def _higher_order(report: CheckReport, rng) -> None:
    """``check_def43`` on random skeletons, failures counted per law.

    The first ``wide`` skeletons (rank 2..4) run orders 1..3, so every
    adjacent swap at orders 2 and 3 and the update law at orders 0..3; the
    rest (rank 1..6) run order 1.  Every tenth skeleton is rational.
    """
    wide = 30
    laws = ("supersymmetry", "extends body derivatives", "update law", "nilpotent Taylor sum")

    def laws_hold(rng, index):
        if index < wide:
            src = randgen.random_spaces(rng, 2, 2, min_total=1)
            rank, orders = rng.randint(2, 4), (1, 2, 3)
        else:
            src = randgen.random_spaces(rng, 2, 2)
            rank, orders = rng.randint(1, 6), (1,)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3, rational=index % 10 == 0)
        items = check_def43(f, rank, rng, cases=1, orders=orders).items
        return tuple(all(item.passed for item in items if item.label.split(" case ")[0] == law)
                     for law in laws)

    _tally(report, rng, 100, laws_hold,
           f"supersymmetry signs on all adjacent swaps (orders 2, 3) on {wide} cases",
           f"body derivatives extended (orders 1..3 on {wide} cases, 1 on the rest)",
           f"increment update law (orders 0..3 on {wide} cases, 0..1 on the rest)",
           "nilpotent taylor sum = substitution on {n} cases")


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


def _gluing(report: CheckReport, rng) -> None:
    line = projective_superline()
    cocycle = check_cocycle(line, rng, samples=25, rank=3)
    report.add("projective superline cocycle", cocycle.ok,
               "" if cocycle.ok else cocycle.summary())

    space = SuperSpace(1, 1)

    def round_trips(rng, index):
        rank = rng.randint(1, 4)
        body = [randgen.random_fraction(rng, nonzero=True)]
        x = randgen.random_point_with_body(rng, space, rank, body)
        back = transport(line, transport(line, ManifoldPoint("A", x), "B"), "A")
        return (back.point == x and back.chart == "A",)

    _tally(report, rng, 50, round_trips, "transport round trips on {n} points")

    good = check_global_morphism(line, line, superline_squaring_map(), rng,
                                 samples=8, rank=3)
    report.add("degree-2 self-map is a global morphism", good.ok,
               "" if good.ok else good.summary())

    broken = check_global_morphism(line, line, _inconsistent_squaring_map(), rng,
                                   samples=8, rank=3)
    report.add("inconsistent chartwise pair detected", not broken.ok)

    corrupted = check_cocycle(_corrupted_gluing(), rng, samples=10, rank=2)
    report.add("corrupted cocycle detected", not corrupted.ok)


def _factor_and_taylor(report: CheckReport, rng) -> None:
    def telescopes(rng, index):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3)
        x0 = DeWittDomain.full(src).sample_bodies(rng, 1)[0]
        return (hadamard_decompose(f, x0).identity_holds(),)

    _tally(report, rng, 50, telescopes, "telescoped factorization on {n} polynomial skeletons")

    def remainder_vanishes(rng, index):
        src, tgt = _random_case_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, terms=3, rational=index % 3 == 0)
        x0 = f.source_domain.sample_bodies(rng, 1)[0]
        degree = rng.randint(0, 3)
        return (taylor_remainder_vanishes(f, taylor_polynomial(f, x0, degree), x0, degree),)

    _tally(report, rng, 50, remainder_vanishes, "taylor remainder order on {n} cases")


def _cli_roundtrip(report: CheckReport, rng) -> None:
    def value_round_trips(rng, index):
        kind = index % 3
        if kind == 0:
            rank = rng.randint(0, 6)
            value = randgen.random_grassmann(rng, rank, terms=4)
            back = parsing.parse_grassmann(value.format(), rank)
        elif kind == 1:
            space = randgen.random_spaces(rng, 3, 3)
            value = randgen.random_superfunction(rng, space, degree=3, terms=4,
                                                 rational=index % 6 == 0)
            back = parsing.parse_superfunction(value.format(), space)
        else:
            space = randgen.random_spaces(rng, 2, 2)
            value = randgen.random_point(rng, space, rng.randint(0, 5))
            back = parsing.parse_point_file(parsing.format_point(value), space)
        return (back == value,)

    _tally(report, rng, 500, value_round_trips, "parse/format round trip on {n} values")

    def skeleton_round_trips(rng, index):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        f = randgen.random_skeleton(rng, src, tgt, degree=3, rational=rng.random() < 0.3)
        text = parsing.format_skeleton(f)
        back = parsing.parse_skeleton_file(text)
        return (back == f and parsing.format_skeleton(back) == text,)

    _tally(report, rng, 20, skeleton_round_trips, "skeleton files round trip and are idempotent")


ALL_SUITES = {
    "grassmann": ("grassmann laws", _grassmann_laws),
    "continuation": ("continuation equivalence", _continuation),
    "taylor": ("exact taylor increments", _exact_taylor),
    "certificate": ("smoothness certificate", _smoothness_certificate),
    "algebra": ("function algebra", _algebra_isomorphism),
    "composition": ("composition", _composition),
    "points": ("point functor", _point_functor),
    "higher": ("higher-derivative family", _higher_order),
    "gluing": ("gluing", _gluing),
    "factor": ("factorization and taylor polynomials", _factor_and_taylor),
    "formats": ("cli formats", _cli_roundtrip),
}


def run_suite(name: str, seed: int = 1) -> CheckReport:
    """Run one suite on ``random.Random(seed + i)``, i its position in ``ALL_SUITES``."""
    title, suite = ALL_SUITES[name]
    report = CheckReport(title)
    suite(report, random.Random(seed + list(ALL_SUITES).index(name)))
    return report


def run_suites(names=None, seed: int = 1) -> list[CheckReport]:
    return [run_suite(name, seed) for name in ALL_SUITES if not names or name in names]
