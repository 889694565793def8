"""Supermanifolds as gluing data: charts, overlaps, transitions.

No global quotient is ever materialized; the identifications are realized
lazily by transporting points along transition skeletons.  Consistency is
verified, not assumed: identity and inverse laws on double overlaps and the
cocycle law on triple overlaps, checked symbolically (exact cross-multiplied
coefficient identities) and additionally at sampled rational body points with
random nilpotent perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import randgen
from .continuation import eval_subst
from .errors import DomainError, SpaceMismatchError, SuperskelError
from .morphisms import compose_subst
from .poly import Polynomial, RationalFunction
from .report import CheckReport
from .spaces import DeWittDomain, LambdaPoint, SuperSpace
from .superfn import Skeleton, SuperFunction


@dataclass
class ManifoldPoint:
    chart: str
    point: LambdaPoint


class GluingData:
    """Charts, overlaps and transition skeletons.

    ``charts`` maps chart ids to (space, domain).  ``overlaps[(i, j)]`` is the
    part of chart i glued to chart j (a sub-domain of chart i), and
    ``transitions[(i, j)]`` maps it onto ``overlaps[(j, i)]``.  The diagonal
    entries default to the full chart and its identity skeleton, and the
    overlap of a transition given without one to all of chart i.
    """

    def __init__(self, charts, overlaps, transitions):
        self.charts: dict[str, tuple[SuperSpace, DeWittDomain]] = dict(charts)
        self.overlaps: dict[tuple[str, str], DeWittDomain] = {}
        self.transitions: dict[tuple[str, str], Skeleton] = {}
        for cid, (space, domain) in self.charts.items():
            if domain.space != space:
                raise SpaceMismatchError(f"chart {cid}: domain over the wrong space")
            self.overlaps[(cid, cid)] = domain
            self.transitions[(cid, cid)] = Skeleton.identity(space, domain)
        for (i, j), domain in dict(overlaps).items():
            self._need_chart(i)
            self._need_chart(j)
            if domain.space != self.charts[i][0]:
                raise SpaceMismatchError(f"overlap ({i},{j}) must live in chart {i}'s space")
            self.overlaps[(i, j)] = domain
        for (i, j), skeleton in dict(transitions).items():
            self._need_chart(i)
            self._need_chart(j)
            if skeleton.source_space != self.charts[i][0] or \
                    skeleton.target_space != self.charts[j][0]:
                raise SpaceMismatchError(f"transition ({i},{j}) has wrong spaces")
            self.transitions[(i, j)] = skeleton
            self.overlaps.setdefault((i, j), self.charts[i][1])

    def _need_chart(self, cid):
        if cid not in self.charts:
            raise SuperskelError(f"unknown chart id {cid!r}")


def _sampled_points(domain: DeWittDomain, rng, count: int, rank: int):
    points = []
    for body in domain.sample_bodies(rng, count):
        points.append(randgen.random_point_with_body(rng, domain.space, rank, body))
    return points


def _add_sampled(report: CheckReport, label: str, points, lhs, rhs) -> None:
    """Add ``<label> on N sampled points``: carrying each point along the
    skeletons in ``lhs`` and along those in ``rhs`` (no domain checks) must
    give the same point; the detail counts the points where it does not."""
    def follow(path, x):
        for skeleton in path:
            x = eval_subst(skeleton, x, check_domain=False)
        return x

    bad = sum(1 for x in points if follow(lhs, x) != follow(rhs, x))
    report.add(f"{label} on {len(points)} sampled points",
               bad == 0, f"{bad} failures" if bad else "")


def check_cocycle(data: GluingData, rng, samples: int = 25, rank: int = 3) -> CheckReport:
    """Identity, inverse and triple-overlap laws for the transitions.

    Failures are report entries, never exceptions.
    """
    report = CheckReport("cocycle conditions")
    ids = sorted(data.charts)

    for i in ids:
        identity = data.transitions[(i, i)]
        report.add(f"transition({i},{i}) is the identity",
                   identity == Skeleton.identity(*data.charts[i]))

    for (i, j) in sorted(data.transitions):
        if i == j:
            continue
        forward = data.transitions[(i, j)]
        backward = data.transitions.get((j, i))
        if backward is None:
            report.add(f"transition({j},{i}) exists", False, "missing inverse transition")
            continue
        round_trip = compose_subst(backward, forward)
        overlap = data.overlaps[(i, j)]
        identity = Skeleton.identity(data.charts[i][0], overlap)
        report.add(f"transition({j},{i}) o transition({i},{j}) = id symbolically",
                   round_trip == identity)
        try:
            points = _sampled_points(overlap, rng, samples, rank)
        except DomainError:
            report.add_skip(f"sampling overlap ({i},{j})", "no sample points found")
            points = []
        _add_sampled(report, f"round trip {i}->{j}->{i}", points,
                     (forward, backward), ())

    for i in ids:
        for j in ids:
            for k in ids:
                if len({i, j, k}) < 3:
                    continue
                t_ij = data.transitions.get((i, j))
                t_jk = data.transitions.get((j, k))
                t_ik = data.transitions.get((i, k))
                if t_ij is None or t_jk is None or t_ik is None:
                    continue
                composite = compose_subst(t_jk, t_ij)
                report.add(f"cocycle {i}->{j}->{k} vs {i}->{k} symbolically",
                           composite == t_ik)
                both = data.overlaps[(i, j)].intersect(data.overlaps[(i, k)])
                try:
                    points = _sampled_points(both, rng, max(samples // 5, 5), rank)
                except DomainError:
                    continue
                _add_sampled(report, f"cocycle {i}->{j}->{k}", points,
                             (composite,), (t_ik,))
    return report


def transport(data: GluingData, mp: ManifoldPoint, to_chart: str) -> ManifoldPoint:
    """Carry a point to another chart along the transition skeleton."""
    data._need_chart(mp.chart)
    data._need_chart(to_chart)
    if mp.chart == to_chart:
        return mp
    transition = data.transitions.get((mp.chart, to_chart))
    if transition is None:
        raise DomainError(f"charts {mp.chart} and {to_chart} do not overlap")
    if not data.overlaps[(mp.chart, to_chart)].contains(mp.point):
        raise DomainError("point body lies outside the overlap")
    return ManifoldPoint(to_chart, eval_subst(transition, mp.point, check_domain=False))


def check_global_morphism(source: GluingData, target: GluingData,
                          components, rng, samples: int = 10) -> CheckReport:
    """Chartwise representatives glue to one morphism iff they agree across
    overlaps: transition2 o f_i = f_j o transition1 wherever both make sense,
    symbolically and at sampled points of rank 3.
    """
    report = CheckReport("global morphism compatibility")
    components = dict(components)
    for (i, j), skeleton in components.items():
        source._need_chart(i)
        target._need_chart(j)
        if skeleton.source_space != source.charts[i][0] or \
                skeleton.target_space != target.charts[j][0]:
            report.add(f"component ({i},{j}) spaces", False, "wrong source/target space")
    pairs = sorted(components)
    for (i, j) in pairs:
        for (i2, j2) in pairs:
            if (i, j) == (i2, j2):
                continue
            t_src = source.transitions.get((i, i2))
            t_tgt = target.transitions.get((j, j2))
            if t_src is None or t_tgt is None:
                continue
            lhs = compose_subst(components[(i2, j2)], t_src)
            rhs = compose_subst(t_tgt, components[(i, j)])
            label = f"({i}->{j}) vs ({i2}->{j2})"
            report.add(f"compatibility {label} symbolically", lhs == rhs)
            try:
                points = _sampled_points(source.overlaps[(i, i2)], rng, samples, 3)
            except DomainError:
                continue
            _add_sampled(report, f"compatibility {label}", points, (lhs,), (rhs,))
    return report


def projective_superline() -> GluingData:
    """The two-chart 1|1 line with rational transitions y = 1/x, h = t/x."""
    space = SuperSpace(1, 1)
    full = DeWittDomain.full(space)
    x_poly = Polynomial.variable(1, 0)
    punctured = full.with_excluded([x_poly])

    def reciprocal_transition():
        x = RationalFunction.variable(1, 0)
        inv = x.invert()
        even = SuperFunction(space, punctured, {(): inv})
        odd = SuperFunction(space, punctured, {(1,): inv})
        return Skeleton(space, punctured, space, punctured, [even, odd])

    charts = {"A": (space, full), "B": (space, full)}
    overlaps = {("A", "B"): punctured, ("B", "A"): punctured}
    transitions = {("A", "B"): reciprocal_transition(),
                   ("B", "A"): reciprocal_transition()}
    return GluingData(charts, overlaps, transitions)


def superline_squaring_map():
    """Chartwise data for the degree-2 self-map of the projective superline.

    On chart A it is (x, t) -> (x^2, x*t); the compatible chart-B
    representative is (y, h) -> (y^2, h).
    """
    space = SuperSpace(1, 1)
    full = DeWittDomain.full(space)
    x = Polynomial.variable(1, 0)
    f_a = Skeleton(space, full, space, full,
                   [SuperFunction(space, full, {(): x * x}),
                    SuperFunction(space, full, {(1,): x})])
    f_b = Skeleton(space, full, space, full,
                   [SuperFunction(space, full, {(): x * x}),
                    SuperFunction(space, full, {(1,): 1})])
    return {("A", "A"): f_a, ("B", "B"): f_b}
