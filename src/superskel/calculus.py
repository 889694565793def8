"""Difference-quotient calculus and higher derivative data for skeletons.

Everything here is symbolic: derivatives are exact coefficient-function
derivatives, and "finite differences" only ever appear as the exact quotient
(f(x + t*v) - f(x)) / t in a formal scalar t, which divides out because the
numerator vanishes identically at t = 0.

Derivative data is organized by coordinate directions.  Even directions act
by d/dx_i on the coefficient functions; odd directions act by the
right-acting odd partial.  Iterated direction tuples, continued to
lambda-points and extended multilinearly over Grassmann-valued argument
vectors (scalar monomials pulled out to the right in argument order), realize
both the even-argument multilinear derivatives and the supersymmetric
higher-derivative family: the latter is the unique such extension, so a
single implementation serves both entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from .continuation import eval_subst
from .errors import DomainError, SuperskelError
from .grassmann import GrassmannElement
from .poly import Polynomial, RationalFunction
from .report import CheckReport
from .spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector
from .superfn import Skeleton, SuperFunction

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# derivative data


class DerivativeData:
    """Order-k symbolic derivative of a skeleton.

    Queryable on coordinate-direction tuples (("x", i) or ("t", j), 1-based)
    and applicable to k argument vectors at a lambda-point.  On parity-correct
    even arguments this is the k-th multilinear derivative (symmetric in its
    arguments); on arbitrary homogeneous vectors it is the supersymmetric
    extension used by the higher-derivative family checks.
    """

    def __init__(self, skeleton: Skeleton, order: int):
        if order < 0:
            raise SuperskelError("derivative order must be non-negative")
        self.skeleton = skeleton
        self.order = order
        space = skeleton.source_space
        self.directions = ([("x", i + 1) for i in range(space.even_dim)]
                           + [("t", j + 1) for j in range(space.odd_dim)])
        self._cache: dict[tuple, tuple[SuperFunction, ...]] = {
            (): skeleton.components}

    def components(self, dirs) -> tuple[SuperFunction, ...]:
        """Component superfunctions of the iterated partial along ``dirs``.

        The leftmost direction is applied last (outermost), matching the
        convention that a new derivative direction is prepended.
        """
        dirs = tuple(dirs)
        if dirs not in self._cache:
            inner = self.components(dirs[1:])
            kind, index = dirs[0]
            if kind == "x":
                outer = tuple(c.partial(index) for c in inner)
            elif kind == "t":
                outer = tuple(c.odd_partial(index) for c in inner)
            else:
                raise SuperskelError(f"unknown direction kind {kind!r}")
            self._cache[dirs] = outer
        return self._cache[dirs]

    def apply(self, point: LambdaPoint, vectors, check_domain: bool = True) -> Vector:
        """Multilinear value at ``point`` on ``len == order`` argument vectors.

        The sum over direction tuples runs as a depth-first walk from the last
        argument towards the first, pruning branches whose Grassmann argument
        product or whose iterated-partial components already vanish.
        """
        vectors = [v.to_vector() if isinstance(v, LambdaPoint) else v for v in vectors]
        if len(vectors) != self.order:
            raise SuperskelError(f"expected {self.order} argument vectors")
        space = self.skeleton.source_space
        for v in vectors:
            if v.space != space or v.rank != point.rank:
                raise SuperskelError("argument vector incompatible with the point")
        if check_domain and not self.skeleton.source_domain.contains(point):
            raise DomainError("point lies outside the skeleton's source domain")
        rank = point.rank
        n_out = len(self.skeleton.components)
        totals = [GrassmannElement.zero(rank) for _ in range(n_out)]
        n_dirs = len(self.directions)

        def walk(i, key, prod):
            if i < 0:
                comps = self.components(key)
                for ci, comp in enumerate(comps):
                    if comp.is_zero():
                        continue
                    value = comp.eval(point, check_domain=False)
                    if value.is_zero():
                        continue
                    if prod is not None:
                        value = value * prod
                        if value.is_zero():
                            continue
                    totals[ci] = totals[ci] + value
                return
            for d in range(n_dirs):
                entry = vectors[i].entry(d)
                if entry.is_zero():
                    continue
                new_prod = entry if prod is None else entry * prod
                if new_prod.is_zero():
                    continue
                new_key = (self.directions[d],) + key
                if all(c.is_zero() for c in self.components(new_key)):
                    continue
                walk(i - 1, new_key, new_prod)

        walk(self.order - 1, (), None)
        return Vector(self.skeleton.target_space, rank, totals)


def derivative(skeleton: Skeleton, order: int) -> DerivativeData:
    """Symbolic order-k derivative data of a skeleton."""
    return DerivativeData(skeleton, order)


# ---------------------------------------------------------------------------
# difference quotient


@dataclass
class BGNQuotient:
    """Exact symbolic difference quotient of a skeleton.

    Lives on the extended space with even coordinates (x_1..x_p, v_1..v_p, t)
    and odd coordinates (t_1..t_q, w_1..w_q); ``quotient`` satisfies
    f(x + t*v) - f(x) = t * quotient(x, v, t) identically.
    """

    base: Skeleton
    extended_space: SuperSpace
    extended_domain: DeWittDomain
    shifted: Skeleton
    unshifted: Skeleton
    quotient: Skeleton

    def identity_holds(self) -> bool:
        """Re-check f(x+tv) - f(x) == t * quotient symbolically."""
        t = SuperFunction.even_coordinate(self.extended_space,
                                          2 * self.base.source_space.even_dim + 1,
                                          self.extended_domain)
        for f1, f0, q in zip(self.shifted.components, self.unshifted.components,
                             self.quotient.components):
            if not (f1 - f0) == t * q:
                return False
        return True

    def at_zero_t(self) -> Skeleton:
        """The first derivative in (x, v): substitute t = 0 into the quotient."""
        t_index = 2 * self.base.source_space.even_dim
        comps = [_substitute_even_zero(c, t_index) for c in self.quotient.components]
        return Skeleton(self.extended_space, self.extended_domain,
                        self.base.target_space, self.base.target_domain, comps)


def _substitute_even_zero(fn: SuperFunction, index0: int) -> SuperFunction:
    terms = {}
    for labels, coeff in fn.terms.items():
        num = coeff.num.partial_eval({index0: _ZERO})
        den = coeff.den.partial_eval({index0: _ZERO})
        if den.is_zero():
            raise DomainError("denominator degenerates at t = 0")
        terms[labels] = RationalFunction(num, den)
    return SuperFunction(fn.space, fn.domain, terms)


def _extend_domain(domain: DeWittDomain, space: SuperSpace) -> DeWittDomain:
    p = domain.space.even_dim
    extra = ((None, None),) * (space.even_dim - p)
    boxes = [box + extra for box in domain.boxes]
    excluded = [poly.pad(space.even_dim) for poly in domain.excluded]
    return DeWittDomain(space, boxes, excluded)


def bgn_quotient(skeleton: Skeleton) -> BGNQuotient:
    """Compute the exact difference quotient of a skeleton.

    Divisibility by t is automatic: the numerator of f(x+tv) - f(x) vanishes
    identically at t = 0, hence every monomial carries t.
    """
    from .morphisms import compose_subst

    p = skeleton.source_space.even_dim
    q = skeleton.source_space.odd_dim
    ext_space = SuperSpace(2 * p + 1, 2 * q)
    ext_domain = _extend_domain(skeleton.source_domain, ext_space)
    pe = ext_space.even_dim
    t_index0 = 2 * p

    # shift skeleton: x_i + t*v_i, t_j + t*w_j, from the extended space
    t_poly = Polynomial.variable(pe, t_index0)
    comps = []
    for i in range(p):
        poly = Polynomial.variable(pe, i) + t_poly * Polynomial.variable(pe, p + i)
        comps.append(SuperFunction(ext_space, ext_domain, {(): poly}))
    for j in range(q):
        comps.append(SuperFunction(ext_space, ext_domain,
                                   {(j + 1,): 1, (q + j + 1,): t_poly}))
    shift = Skeleton(ext_space, ext_domain, skeleton.source_space,
                     skeleton.source_domain, comps)

    proj_comps = [SuperFunction(ext_space, ext_domain,
                                {(): Polynomial.variable(pe, i)}) for i in range(p)]
    proj_comps += [SuperFunction(ext_space, ext_domain, {(j + 1,): 1}) for j in range(q)]
    projection = Skeleton(ext_space, ext_domain, skeleton.source_space,
                          skeleton.source_domain, proj_comps)

    shifted = compose_subst(skeleton, shift)
    unshifted = compose_subst(skeleton, projection)

    quotient_comps = []
    for f1, f0 in zip(shifted.components, unshifted.components):
        diff = f1 - f0
        terms = {}
        for labels, coeff in diff.terms.items():
            num0 = coeff.num.partial_eval({t_index0: _ZERO})
            if not num0.is_zero():
                raise SuperskelError("difference is not divisible by t; "
                                     "a denominator must vanish at t = 0")
            terms[labels] = RationalFunction(coeff.num.divide_by_variable(t_index0),
                                             coeff.den)
        quotient_comps.append(SuperFunction(ext_space, diff.domain, terms))
    quotient = Skeleton(ext_space, ext_domain, skeleton.target_space,
                        skeleton.target_domain, quotient_comps)
    return BGNQuotient(skeleton, ext_space, ext_domain, shifted, unshifted, quotient)


# ---------------------------------------------------------------------------
# certificates


def check_bgn(skeleton: Skeleton, rank: int, rng, cases: int = 5) -> CheckReport:
    """Difference-quotient certificate: f(x+tv) - f(x) = t * quotient holds
    symbolically and at sampled lambda-points of the extended space."""
    from . import randgen

    report = CheckReport("difference quotient")
    quotient = bgn_quotient(skeleton)
    report.add("f(x+tv) - f(x) = t * quotient symbolically", quotient.identity_holds())
    t_index0 = 2 * skeleton.source_space.even_dim
    for case in range(cases):
        x = randgen.random_point(rng, quotient.extended_space, rank,
                                 quotient.extended_domain)
        try:
            lhs = eval_subst(quotient.shifted, x, check_domain=False)
            rhs = eval_subst(quotient.unshifted, x, check_domain=False)
            qv = eval_subst(quotient.quotient, x, check_domain=False)
        except DomainError:
            report.add_skip(f"sampled identity {case}", "denominator hit at sample")
            continue
        t_val = x.even_values[t_index0]
        ok = all(a - b == t_val * q for a, b, q in
                 zip(lhs.entries(), rhs.entries(), qv.entries()))
        report.add(f"sampled identity {case}", ok)
    return report


def check_lambda_linearity(skeleton: Skeleton, rank: int, rng=None,
                           samples=None, sample_count: int = 5) -> CheckReport:
    """First derivatives are linear over the even scalars of the algebra:
    df(x)(a*v) == a*df(x)(v) for even Grassmann a."""
    from . import randgen

    report = CheckReport(f"even-scalar linearity of the derivative at rank {rank}")
    data = derivative(skeleton, 1)
    if samples is None:
        if rng is None:
            raise SuperskelError("check_lambda_linearity needs samples or an rng")
        samples = []
        for _ in range(sample_count):
            x = randgen.random_point(rng, skeleton.source_space, rank,
                                     skeleton.source_domain)
            v = randgen.random_vector(rng, skeleton.source_space, rank)
            a = randgen.random_grassmann(rng, rank, parity=0)
            samples.append((x, v, a))
    for idx, (x, v, a) in enumerate(samples):
        lhs = data.apply(x, [v.scale(a)])
        rhs = data.apply(x, [v]).scale(a)
        report.add(f"triple {idx}", lhs == rhs)
    return report


def check_taylor(skeleton: Skeleton, rank: int, rng, cases: int = 10,
                 max_increments: int = 3) -> CheckReport:
    """Exact Taylor law: the multi-increment expansion assembled from
    derivative data equals the substitution difference, and no Taylor shell
    survives beyond m + k = rank."""
    from . import randgen
    from .continuation import taylor_increment, taylor_shells

    report = CheckReport(f"exact Taylor increments at rank {rank}")
    for case in range(cases):
        x = randgen.random_point(rng, skeleton.source_space, rank,
                                 skeleton.source_domain)
        k = rng.randint(1, max_increments)
        generators = rng.sample(range(1, rank + 1), min(k, rank))
        increments = [randgen.random_increment(rng, skeleton.source_space, rank, g)
                      for g in generators]
        total = x
        for y in increments:
            total = total + y
        expansion = taylor_increment(skeleton, x, increments)
        direct = eval_subst(skeleton, total) - eval_subst(skeleton, x)
        report.add(f"increment case {case}", expansion == direct)
    x = randgen.random_point(rng, skeleton.source_space, rank, skeleton.source_domain)
    shells = taylor_shells(skeleton, x, max_total=rank + 2)
    report.add("no shell beyond the rank",
               all(m + k <= rank for (m, k) in shells))
    return report


# ---------------------------------------------------------------------------
# polynomial factorization and Taylor polynomials


@dataclass
class HadamardFactor:
    """One ideal generator (x_j - a_j, or an odd coordinate) with its cofactors."""

    label: str
    generator: SuperFunction
    components: tuple[SuperFunction, ...]


@dataclass
class HadamardDecomposition:
    """f = f(base point) + sum over factors of generator * cofactor."""

    skeleton: Skeleton
    base_point: tuple[Fraction, ...]
    base_values: tuple[Fraction, ...]
    factors: list[HadamardFactor]

    def reconstruct(self) -> tuple[SuperFunction, ...]:
        out = []
        for ci in range(len(self.skeleton.components)):
            space = self.skeleton.source_space
            acc = SuperFunction.constant(space, self.base_values[ci],
                                         self.skeleton.source_domain)
            for factor in self.factors:
                acc = acc + factor.generator * factor.components[ci]
            out.append(acc)
        return tuple(out)

    def identity_holds(self) -> bool:
        return all(a == b for a, b in zip(self.reconstruct(), self.skeleton.components))


def hadamard_decompose(skeleton: Skeleton, base_point) -> HadamardDecomposition:
    """Telescoping factorization through a base body point.

    Requires polynomial coefficients.  The odd-free part of each component is
    telescoped over the even coordinates by exact division; every term with
    odd content is assigned to its lowest odd generator.
    """
    space = skeleton.source_space
    p, q = space.even_dim, space.odd_dim
    base_point = tuple(Fraction(v) for v in base_point)
    if len(base_point) != p:
        raise SuperskelError("base point has the wrong dimension")
    for comp in skeleton.components:
        for coeff in comp.terms.values():
            if not coeff.is_polynomial():
                raise SuperskelError("hadamard decomposition needs polynomial coefficients")

    domain = skeleton.source_domain
    base_values = []
    even_cofactors = [[SuperFunction.zero(space, domain) for _ in skeleton.components]
                      for _ in range(p)]
    odd_cofactors = [[SuperFunction.zero(space, domain) for _ in skeleton.components]
                     for _ in range(q)]
    for ci, comp in enumerate(skeleton.components):
        c0 = comp.coefficient(()).num
        base_values.append(c0.eval(base_point))
        # telescope the odd-free part: substitute the base point coordinate by
        # coordinate and divide the successive differences exactly
        current = c0
        for j in range(p):
            upper = current
            lower = current.partial_eval({j: base_point[j]})
            h = upper.divide_by_linear(j, base_point[j])
            even_cofactors[j][ci] = even_cofactors[j][ci] + SuperFunction(
                space, domain, {(): h})
            current = lower
        for labels, coeff in comp.terms.items():
            if not labels:
                continue
            lead = labels[0]
            rest = labels[1:]
            odd_cofactors[lead - 1][ci] = odd_cofactors[lead - 1][ci] + SuperFunction(
                space, domain, {rest: coeff})

    factors = []
    for j in range(p):
        gen_poly = Polynomial.variable(p, j) - Polynomial.constant(p, base_point[j])
        gen = SuperFunction(space, domain, {(): gen_poly})
        factors.append(HadamardFactor(f"x{j + 1} - {base_point[j]}", gen,
                                      tuple(even_cofactors[j])))
    for l in range(q):
        gen = SuperFunction.odd_coordinate(space, l + 1, domain)
        factors.append(HadamardFactor(f"t{l + 1}", gen, tuple(odd_cofactors[l])))
    return HadamardDecomposition(skeleton, base_point, tuple(base_values), factors)


def taylor_polynomial(skeleton: Skeleton, base_point, degree: int) -> Skeleton:
    """Degree-n Taylor polynomial at a body point, odd generators verbatim.

    The coefficient of an odd monomial of length |J| is truncated to degree
    n - |J| (odd generators already sit in the maximal ideal); terms with
    |J| > n are dropped.  All coefficient derivatives of f minus the result
    vanish at the base point through order n - |J|.
    """
    space = skeleton.source_space
    p = space.even_dim
    base_point = tuple(Fraction(v) for v in base_point)
    if not skeleton.source_domain.contains_body(base_point):
        raise DomainError("base point lies outside the source domain")
    comps = []
    for comp in skeleton.components:
        terms = {}
        for labels, coeff in comp.terms.items():
            budget = degree - len(labels)
            if budget < 0:
                continue
            poly = _taylor_of_coefficient(coeff, base_point, budget)
            if not poly.is_zero():
                terms[labels] = poly
        comps.append(SuperFunction(space, skeleton.source_domain, terms))
    return Skeleton(space, skeleton.source_domain, skeleton.target_space,
                    skeleton.target_domain, comps)


def _taylor_of_coefficient(coeff: RationalFunction, base_point, degree: int) -> Polynomial:
    p = coeff.nvars
    shifted = {j: Polynomial.variable(p, j) - Polynomial.constant(p, base_point[j])
               for j in range(p)}
    total = Polynomial.zero(p)
    for order in range(degree + 1):
        for dirs in combinations_with_replacement(range(p), order):
            rf = coeff
            denom = 1
            counts = {}
            for j in dirs:
                counts[j] = counts.get(j, 0) + 1
            for j, c in counts.items():
                for _ in range(c):
                    rf = rf.derivative(j)
                denom *= factorial(c)
            value = rf.eval(base_point) / denom
            if value == 0:
                continue
            mono = Polynomial.one(p)
            for j, c in counts.items():
                mono = mono * shifted[j] ** c
            total = total + mono * value
    return total


def taylor_remainder_vanishes(skeleton: Skeleton, approx: Skeleton, base_point,
                              degree: int) -> bool:
    """All coefficient partials of (f - p) vanish at the base point through
    order degree - |J|."""
    base_point = tuple(Fraction(v) for v in base_point)
    p = skeleton.source_space.even_dim
    for comp, approx_comp in zip(skeleton.components, approx.components):
        keys = set(comp.terms) | set(approx_comp.terms)
        for labels in keys:
            budget = degree - len(labels)
            if budget < 0:
                continue
            diff = comp.coefficient(labels) - approx_comp.coefficient(labels)
            for order in range(budget + 1):
                for dirs in combinations_with_replacement(range(p), order):
                    rf = diff
                    for j in dirs:
                        rf = rf.derivative(j)
                    if rf.eval(base_point) != 0:
                        return False
    return True


# ---------------------------------------------------------------------------
# higher-derivative family checks


def check_def43(skeleton: Skeleton, rank: int, rng, cases: int = 5,
                orders=(1, 2)) -> CheckReport:
    """Certificate for the higher-derivative family: the one implementation
    of its four laws, also driven by ``selftest.suite_higher_order``.

    Per case, at a random point x:
    (i) supersymmetry: at each order >= 2 in ``orders``, swapping any two
    adjacent homogeneous arguments multiplies by (-1)^(product of parities);
    (ii) at each order >= 1 in ``orders``, the family extends the body-map
    derivatives on even basis arguments;
    (iii) at every order k <= max(orders), the single-increment update law
    f^(k+1)(x)(a, v..) = f^(k)(x + a)(v..) - f^(k)(x)(v..) for an increment a
    supported on one generator;
    (iv) the full nilpotent Taylor sum sum_k 1/k! f^(k)(x)(y,..,y) equals
    substitution.
    Item labels read "<law> case <c> ...", with <law> one of "supersymmetry",
    "extends body derivatives", "update law" and "nilpotent Taylor sum".
    """
    from . import randgen

    report = CheckReport(f"higher-derivative family at rank {rank}")
    space = skeleton.source_space
    p = space.even_dim
    families: dict[int, DerivativeData] = {}

    def family(order: int) -> DerivativeData:
        if order not in families:
            families[order] = derivative(skeleton, order)
        return families[order]

    for case in range(cases):
        x = randgen.random_point(rng, space, rank, skeleton.source_domain)
        body_point = LambdaPoint.from_body(space, rank, x.body())

        # (i) supersymmetry on pure-tensor arguments: under the
        # scalars-pulled-right convention, swapping e_d*gI with e_d'*gJ costs
        # (-1)^(|d||d'| + |I||J|); on plain basis vectors this is the familiar
        # (-1)^(|u||v|)
        for order in orders:
            if order < 2:
                continue
            if not p + space.odd_dim:
                report.add_skip(f"supersymmetry case {case} order {order}",
                                "no coordinate to carry an argument")
                continue
            drawn = [randgen.random_pure_vector(rng, space, rank) for _ in range(order)]
            args = [vec for vec, _, _ in drawn]
            value = family(order).apply(x, args)
            for pos in range(order - 1):
                swapped = list(args)
                swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                (_, d1, s1), (_, d2, s2) = drawn[pos], drawn[pos + 1]
                sign = -1 if (d1 * d2 + s1 * s2) % 2 else 1
                report.add(f"supersymmetry case {case} order {order} swap {pos + 1}",
                           value == family(order).apply(x, swapped).scale(Fraction(sign)))

        # (ii) extends the body derivatives on even basis arguments
        for order in orders:
            if order < 1 or not p:
                continue
            dirs = [rng.randrange(p) for _ in range(order)]
            got = family(order).apply(body_point, [Vector.basis(space, rank, d) for d in dirs])
            ok = True
            for ci, comp in enumerate(skeleton.components):
                if ci < skeleton.target_space.even_dim:
                    rf = comp.coefficient(())
                    for d in dirs:
                        rf = rf.derivative(d)
                    expected = GrassmannElement.scalar(rank, rf.eval(x.body()))
                else:
                    # odd components never acquire a body part under x-partials
                    expected = GrassmannElement.zero(rank)
                ok = ok and got.values[ci] == expected
            report.add(f"extends body derivatives case {case} order {order}", ok)

        # (iii) increment update law: the new direction is prepended
        if rank == 0:
            report.add_skip(f"update law case {case}",
                            "no generator to carry an increment at rank 0")
        else:
            for order in range(max(orders) + 1):
                a = randgen.random_increment(rng, space, rank, rng.randint(1, rank))
                vs = [randgen.random_vector(rng, space, rank) for _ in range(order)]
                lhs = family(order + 1).apply(x, [a.to_vector()] + vs)
                rhs = family(order).apply(x + a, vs) - family(order).apply(x, vs)
                report.add(f"update law case {case} order {order}", lhs == rhs)

        # (iv) nilpotent Taylor sum equals substitution
        y = randgen.random_soul_increment(rng, space, rank)
        acc = family(0).apply(x, [])
        for k in range(1, rank + 1):
            acc = acc + family(k).apply(x, [y.to_vector()] * k).scale(Fraction(1, factorial(k)))
        direct = eval_subst(skeleton, x + y).to_vector()
        report.add(f"nilpotent Taylor sum case {case}", acc == direct)
    return report
