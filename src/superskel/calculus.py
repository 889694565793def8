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
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

from . import randgen
from .continuation import eval_subst, taylor_shells
from .errors import DomainError, RankMismatchError, SuperskelError
from .grassmann import GrassmannElement
from .morphisms import compose_subst
from .poly import Polynomial, RationalFunction
from .report import CheckReport
from .spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector
from .superfn import Skeleton, SuperFunction, _evaluator_at



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

    def apply(self, point: LambdaPoint, vectors) -> Vector:
        """Multilinear value at ``point`` on ``len == order`` argument vectors.

        The sum over direction tuples runs as a depth-first walk from the last
        argument towards the first, pruning branches whose Grassmann argument
        product or whose iterated-partial components already vanish.
        """
        vectors = list(vectors)
        if len(vectors) != self.order:
            raise SuperskelError(f"expected {self.order} argument vectors")
        space = self.skeleton.source_space
        for v in vectors:
            if v.space != space or v.rank != point.rank:
                raise SuperskelError("argument vector incompatible with the point")
        if not self.skeleton.source_domain.contains(point):
            raise DomainError("point lies outside the skeleton's source domain")
        rank = point.rank
        n_out = len(self.skeleton.components)
        totals = [GrassmannElement.zero(rank) for _ in range(n_out)]
        n_dirs = len(self.directions)
        evaluator = _evaluator_at(point)

        def walk(i, key, prod):
            if i < 0:
                comps = self.components(key)
                for ci, comp in enumerate(comps):
                    if comp.is_zero():
                        continue
                    value = comp._eval_at(evaluator) * prod
                    if value.is_zero():
                        continue
                    totals[ci] = totals[ci] + value
                return
            for d in range(n_dirs):
                entry = vectors[i].values[d]
                if entry.is_zero():
                    continue
                new_prod = entry * prod
                if new_prod.is_zero():
                    continue
                new_key = (self.directions[d],) + key
                if all(c.is_zero() for c in self.components(new_key)):
                    continue
                walk(i - 1, new_key, new_prod)

        walk(self.order - 1, (), GrassmannElement.unit(rank))
        return Vector(self.skeleton.target_space, rank, totals)


def derivative(skeleton: Skeleton, order: int) -> DerivativeData:
    """Symbolic order-k derivative data of a skeleton."""
    return DerivativeData(skeleton, order)


def _theta_support(point_like) -> set[int]:
    """Generators contained in every stored monomial of every coordinate."""
    common = None
    for v in point_like.values:
        for labels in v.terms:
            s = set(labels)
            common = s if common is None else (common & s)
    return common or set()


def taylor_increment(skeleton: Skeleton, point: LambdaPoint, increments) -> LambdaPoint:
    """Exact multi-increment Taylor expansion assembled from derivative data.

    Each increment must be supported on a single generator (every monomial of
    every coordinate contains it); the result equals
    eval_subst(f, x + sum y) - eval_subst(f, x) exactly.
    """
    increments = list(increments)
    for idx, y in enumerate(increments):
        if y.space != skeleton.source_space or y.rank != point.rank:
            raise RankMismatchError("increment incompatible with the base point")
        if y.is_zero():
            continue
        if not _theta_support(y):
            raise SuperskelError(
                f"increment {idx} is not supported on a single generator")
    k = len(increments)
    total = Vector.zero(skeleton.target_space, point.rank)
    for j in range(1, k + 1):
        data = derivative(skeleton, j)
        for subset in combinations(range(k), j):
            total = total + data.apply(point, [increments[i] for i in subset])
    return total.to_point()


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
        """The first derivative in (x, v): the quotient composed with the
        identity of the extended space whose t component is 0."""
        space, domain = self.extended_space, self.extended_domain
        comps = list(Skeleton.identity(space, domain).components)
        comps[2 * self.base.source_space.even_dim] = SuperFunction.zero(space, domain)
        return compose_subst(self.quotient, Skeleton(space, domain, space, domain, comps))


def _extend_domain(domain: DeWittDomain, space: SuperSpace) -> DeWittDomain:
    extra = ((None, None),) * (space.even_dim - domain.space.even_dim)
    return DeWittDomain(space, [box + extra for box in domain.boxes],
                        [poly.pad(space.even_dim) for poly in domain.excluded])


def bgn_quotient(skeleton: Skeleton) -> BGNQuotient:
    """Compute the exact difference quotient of a skeleton.

    Divisibility by t is automatic: the numerator of f(x+tv) - f(x) vanishes
    identically at t = 0, hence every monomial carries t;
    ``Polynomial.divide_by_variable`` raises on one that does not.
    """
    p = skeleton.source_space.even_dim
    q = skeleton.source_space.odd_dim
    ext_space = SuperSpace(2 * p + 1, 2 * q)
    ext_domain = _extend_domain(skeleton.source_domain, ext_space)
    t_index0 = 2 * p

    # the extended coordinates x, v, t, t_j, w_j; the shift is
    # x_i + t*v_i, t_j + t*w_j and the projection x_i, t_j
    coords = Skeleton.identity(ext_space, ext_domain).components
    xs, vs, t = coords[:p], coords[p:t_index0], coords[t_index0]
    ts, ws = coords[t_index0 + 1:t_index0 + 1 + q], coords[t_index0 + 1 + q:]
    shift = Skeleton(ext_space, ext_domain, skeleton.source_space, skeleton.source_domain,
                     [a + t * b for a, b in zip(xs + ts, vs + ws)])
    projection = Skeleton(ext_space, ext_domain, skeleton.source_space,
                          skeleton.source_domain, xs + ts)

    shifted = compose_subst(skeleton, shift)
    unshifted = compose_subst(skeleton, projection)

    quotient_comps = []
    for f1, f0 in zip(shifted.components, unshifted.components):
        diff = f1 - f0
        # a factor dividing num / t would divide num: no new cancellation
        coeffs = {m: RationalFunction._raw(c.num.divide_by_variable(t_index0), c.factors)
                  for m, c in diff._coeffs.items()}
        quotient_comps.append(SuperFunction._make(ext_space, diff.domain, coeffs))
    quotient = Skeleton(ext_space, ext_domain, skeleton.target_space,
                        skeleton.target_domain, quotient_comps)
    return BGNQuotient(skeleton, ext_space, ext_domain, shifted, unshifted, quotient)


# ---------------------------------------------------------------------------
# certificates


def check_bgn(skeleton: Skeleton, rank: int, rng, cases: int = 5) -> CheckReport:
    """Difference-quotient certificate: f(x+tv) - f(x) = t * quotient holds
    symbolically and at sampled lambda-points of the extended space."""
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
                 zip(lhs.values, rhs.values, qv.values))
        report.add(f"sampled identity {case}", ok)
    return report


def check_lambda_linearity(skeleton: Skeleton, rank: int, rng,
                           sample_count: int = 5) -> CheckReport:
    """First derivatives are linear over the even scalars of the algebra:
    df(x)(a*v) == a*df(x)(v) for even Grassmann a."""
    report = CheckReport(f"even-scalar linearity of the derivative at rank {rank}")
    data = derivative(skeleton, 1)
    for idx in range(sample_count):
        x = randgen.random_point(rng, skeleton.source_space, rank, skeleton.source_domain)
        v = randgen.random_vector(rng, skeleton.source_space, rank)
        a = randgen.random_grassmann(rng, rank, parity=0)
        lhs = data.apply(x, [v.scale(a)])
        rhs = data.apply(x, [v]).scale(a)
        report.add(f"triple {idx}", lhs == rhs)
    return report


def check_taylor(skeleton: Skeleton, rank: int, rng, cases: int = 10,
                 max_increments: int = 3) -> CheckReport:
    """Exact Taylor law: the multi-increment expansion assembled from
    derivative data equals the substitution difference, and no Taylor shell
    survives beyond m + k = rank."""
    report = CheckReport(f"exact Taylor increments at rank {rank}")
    for case in range(cases):
        if rank == 0:
            report.add_skip(f"increment case {case}",
                            "no generator to carry an increment at rank 0")
            continue
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

    def identity_holds(self) -> bool:
        """Re-check that the factors reassemble every component."""
        space = self.skeleton.source_space
        for ci, comp in enumerate(self.skeleton.components):
            acc = SuperFunction.constant(space, self.base_values[ci],
                                         self.skeleton.source_domain)
            for factor in self.factors:
                acc = acc + factor.generator * factor.components[ci]
            if acc != comp:
                return False
        return True


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
    linears = [Polynomial.variable(p, j) - base_point[j] for j in range(p)]
    base_values = []
    even_cofactors = [[None] * len(skeleton.components) for _ in range(p)]
    odd_cofactors = [[SuperFunction.zero(space, domain) for _ in skeleton.components]
                     for _ in range(q)]
    for ci, comp in enumerate(skeleton.components):
        c0 = comp.coefficient(()).num
        base_values.append(c0.eval(base_point))
        # telescope the odd-free part: substitute the base point coordinate by
        # coordinate and divide the successive differences exactly
        current = c0
        for j, linear in enumerate(linears):
            lower = current.partial_eval({j: base_point[j]})
            h = (current - lower).exact_quotient(linear)
            even_cofactors[j][ci] = SuperFunction(space, domain, {(): h})
            current = lower
        for labels, coeff in comp.terms.items():
            if not labels:
                continue
            lead = labels[0]
            rest = labels[1:]
            odd_cofactors[lead - 1][ci] = odd_cofactors[lead - 1][ci] + SuperFunction(
                space, domain, {rest: coeff})

    factors = []
    for j, linear in enumerate(linears):
        gen = SuperFunction(space, domain, {(): linear})
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
            for j in dirs:
                rf = rf.derivative(j)
            value = rf.eval(base_point) / prod(factorial(dirs.count(j)) for j in set(dirs))
            if value == 0:
                continue
            mono = Polynomial.one(p)
            for j in dirs:
                mono = mono * shifted[j]
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
    of its four laws, also driven by the selftest suite "higher".

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
    report = CheckReport(f"higher-derivative family at rank {rank}")
    space = skeleton.source_space
    p = space.even_dim
    # orders up to max(orders) + 1 for (iii) and up to rank for (iv)
    family = [derivative(skeleton, k) for k in range(max(max(orders) + 1, rank) + 1)]

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
            value = family[order].apply(x, args)
            for pos in range(order - 1):
                swapped = list(args)
                swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                (_, d1, s1), (_, d2, s2) = drawn[pos], drawn[pos + 1]
                sign = -1 if (d1 * d2 + s1 * s2) % 2 else 1
                report.add(f"supersymmetry case {case} order {order} swap {pos + 1}",
                           value == family[order].apply(x, swapped).scale(Fraction(sign)))

        # (ii) extends the body derivatives on even basis arguments
        for order in orders:
            if order < 1 or not p:
                continue
            dirs = [rng.randrange(p) for _ in range(order)]
            got = family[order].apply(body_point, [Vector.basis(space, rank, d) for d in dirs])
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
                lhs = family[order + 1].apply(x, [a] + vs)
                rhs = family[order].apply(x + a, vs) - family[order].apply(x, vs)
                report.add(f"update law case {case} order {order}", lhs == rhs)

        # (iv) nilpotent Taylor sum equals substitution
        y = randgen.random_point_with_body(rng, space, rank, [0] * p)
        acc = family[0].apply(x, [])
        for k in range(1, rank + 1):
            acc = acc + family[k].apply(x, [y] * k).scale(Fraction(1, factorial(k)))
        direct = eval_subst(skeleton, x + y)
        report.add(f"nilpotent Taylor sum case {case}", acc == direct)
    return report
