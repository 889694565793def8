"""The four benchmark workloads.

Each workload is built from a seed in three steps: ``raw`` is plain data from
``inputs.gen_*`` (its digest identifies the inputs), ``inputs.build_*`` turn
it into library objects (and, for cli-files, files in a scratch directory),
and each entry of ``ops`` is one operation: the primary route, its oracle route and
the exact comparison between them.  An operation returns the result whose
size the run records, or raises ``Mismatch`` when the routes disagree.

Every workload cycles through a fixed schedule of input shapes, the same in
every cycle, so a run of any seed and any length sees the same mix of shapes;
the seed draws the values.  The pool of generated operations is at least
twice as long as the fastest 50 s run measured at the seed commit (about
three times on the compose and eval workloads), so no input repeats within a
run unless the library becomes that much faster; a run that wraps around
says so.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import superskel as sk
import superskel.cli  # noqa: F401  (makes sk.cli and sk.parsing available)
import superskel.parsing  # noqa: F401

import inputs


class Mismatch(Exception):
    """The primary route and the oracle route disagree."""


class Workload:
    """A built workload: the digest of its raw data, its operations and its
    result-size rule."""

    def __init__(self, name: str, raw, ops, sizes):
        self.name = name
        self.ops = ops
        self.sizes = sizes
        self.digest = inputs.digest(raw)


def _same_components(a: sk.Skeleton, b: sk.Skeleton) -> bool:
    return len(a.components) == len(b.components) and all(
        x == y for x, y in zip(a.components, b.components))


def coefficient_sizes(functions):
    """(largest stored numerator/denominator degree, [terms per coefficient])
    over the coefficients of some superfunctions.

    Reads the stored terms directly, so the count does not call the library
    and does not depend on how the library reports degrees."""
    degree, terms = 0, []
    for function in functions or ():
        for coeff in function.terms.values():
            degree = max(degree, inputs.stored_degree(coeff.num),
                         inputs.stored_degree(coeff.den))
            terms.append(len(coeff.num.terms) + len(coeff.den.terms))
    return degree, terms


def point_sizes(point):
    """(largest Grassmann monomial degree, [terms per coordinate value])."""
    degree, terms = 0, []
    for value in point.even_values + point.odd_values:  # attributes: no traced call
        if value.terms:
            degree = max(degree, max(len(labels) for labels in value.terms))
        terms.append(len(value.terms))
    return degree, terms


# ---------------------------------------------------------------------------
# compose-rational and compose-poly


def _compose_op(outer: sk.Skeleton, inner: sk.Skeleton):
    def op():
        by_subst = sk.compose_subst(outer, inner)
        by_formula = sk.compose_formula(outer, inner)
        if not _same_components(by_subst, by_formula):
            raise Mismatch("compose_subst and compose_formula disagree")
        return by_subst.components
    return op


# Shapes per schedule entry.  With one, the 39 slot costs of compose-rational
# left a gap of 104 -> 148 ms at the median, and latency_p50_ms jumped across
# it with the number of operations a run completed.
SHAPE_VARIANTS = 3


def _compose_workload(name: str, seed: int, schedule, rational: bool, pool: int):
    """``schedule`` lists (inner source, middle, outer target) spaces; a
    ``None`` source marks a self-composition f o f on the middle space."""
    draw = inputs.Draw(name, seed)
    raw = []
    for index in range(pool):
        draw.slot(index % (SHAPE_VARIANTS * len(schedule)))
        source, middle, target = schedule[index % len(schedule)]
        if source is None:
            raw.append((inputs.gen_skeleton(draw, middle, middle, rational=rational),))
        else:
            raw.append((inputs.gen_skeleton(draw, middle, target, rational=rational),
                        inputs.gen_skeleton(draw, source, middle, rational=rational)))
    ops = []
    for pair in raw:
        outer = inputs.build_skeleton(pair[0])
        inner = outer if len(pair) == 1 else inputs.build_skeleton(pair[1])
        ops.append(_compose_op(outer, inner))
    return Workload(name, tuple(raw), ops, coefficient_sizes)


def _rational_schedule():
    """27 distinct (source, middle, target) classes on 1|q, q = 1..3, and 12
    self-compositions (4 each of 1|1, 1|2, 1|3): blocks of 9 distinct and 4
    self, so about a third of the pairs are f o f.

    Cost grows with every one of the three dimensions, so each run of three
    consecutive distinct classes takes each dimension once in each place.
    Any stretch of the schedule then has nearly the mix of a whole cycle,
    and a run's mix hardly depends on where the run stops."""
    dims = [(1, 1), (1, 2), (1, 3)]
    distinct = [(dims[z], dims[(y + z) % 3], dims[(x + y + z) % 3])
                for x in range(3) for y in range(3) for z in range(3)]
    selfs = [(None, d, None) for d in dims] * 4
    schedule = []
    for block in range(3):
        d = distinct[9 * block: 9 * block + 9]
        s = selfs[4 * block: 4 * block + 4]
        schedule += [d[0], s[0], d[1], d[2], s[1], d[3], d[4], s[2], d[5], d[6],
                     s[3], d[7], d[8]]
    return schedule


def _poly_schedule():
    """Even dimension 1-2 and odd dimension 1-4, each of the 8 spaces used
    equally as source, middle and target; each distinct class twice and each
    space once as a self-composition, so a third of the pairs are f o f."""
    spaces = [(p, q) for q in (1, 2, 3, 4) for p in (1, 2)]
    schedule = []
    for i, middle in enumerate(spaces):
        distinct = (spaces[(i + 3) % 8], middle, spaces[(i + 5) % 8])
        schedule += [distinct, (None, middle, None), distinct]
    return schedule


def compose_rational(seed: int, workdir: Path) -> Workload:
    return _compose_workload("compose-rational", seed, _rational_schedule(), True,
                             pool=39 * 40)


def compose_poly(seed: int, workdir: Path) -> Workload:
    return _compose_workload("compose-poly", seed, _poly_schedule(), False,
                             pool=24 * 170)


# ---------------------------------------------------------------------------
# eval-highrank

EVAL_SPACES = [(3, 3), (2, 4), (3, 2), (1, 4)]
EVAL_RANKS = (4, 5, 6, 7, 8)


def eval_highrank(seed: int, workdir: Path) -> Workload:
    """Eight fixed polynomial skeletons (each space mapped to itself and to
    1|2), evaluated at fresh points of rank 4-8 with four soul terms.  One
    first-order DerivativeData per skeleton is built at set-up and reused."""
    draw = inputs.Draw("eval-highrank", seed)
    skeletons = []
    for space in EVAL_SPACES:
        for target in (space, (1, 2)):
            skeletons.append(inputs.gen_skeleton(draw, space, target, degree=3,
                                                 terms=3, num_terms=3))
    cases = []
    for index in range(40 * 115):
        draw.slot(index % 40)
        which = index % 8
        rank = EVAL_RANKS[(index // 8) % 5]
        space = skeletons[which][0]
        cases.append((which, inputs.gen_point(draw, space, rank),
                      inputs.gen_vector(draw, space, rank)))
    built = [inputs.build_skeleton(raw) for raw in skeletons]
    data = [sk.derivative(s, 1) for s in built]

    def make(which, point_raw, vector_raw):
        skeleton, derivative = built[which], data[which]
        point = inputs.build_point(point_raw)
        vector = inputs.build_vector(vector_raw)

        def op():
            by_subst = sk.eval_subst(skeleton, point)
            by_taylor = sk.eval_taylor(skeleton, point)
            if by_subst != by_taylor:
                raise Mismatch("eval_subst and eval_taylor disagree")
            derivative.apply(point, [vector])
            return by_subst
        return op

    ops = [make(*case) for case in cases]
    # fill each DerivativeData's direction cache before timing
    for which in range(8):
        ops[which]()
    return Workload("eval-highrank", (tuple(skeletons), tuple(cases)), ops, point_sizes)


# ---------------------------------------------------------------------------
# cli-files

# One cycle of cli-files: each subcommand once.
CLI_KINDS = ("eval", "compose", "naturality", "linearity", "bgn", "diff",
             "glue-check", "glue-transport")
# Slots of the shape schedule: 25 shapes of each kind, so each kind's costs
# spread smoothly and no percentile falls on the edge of one shape's cluster.
CLI_CYCLE = 25 * len(CLI_KINDS)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sk.cli.main(argv)
    if code != 0:
        raise Mismatch(f"superskel {' '.join(argv[:2])} exited {code}: "
                       f"{err.getvalue().strip()[:200]}")
    return out.getvalue()


def _last_counts(summary: str):
    """(status, passed, failed, skipped) from a report's last summary line."""
    last = summary.strip().splitlines()[-1]
    status = last.split()[0]
    counts = last.rsplit(":", 1)[1].replace(",", "").split()
    return status, int(counts[0]), int(counts[2]), int(counts[4])


def _cli_raw(draw: inputs.Draw, kind: str):
    """Raw inputs of one cli-files operation of the given kind."""
    if kind in ("eval", "diff"):
        # about 2 KB of skeleton text, so parsing outweighs evaluating
        big = inputs.gen_skeleton(draw, (3, 3), (3, 3), degree=3, terms=4, num_terms=4)
        return (big, inputs.gen_point(draw, (3, 3), 4)) if kind == "eval" else (big,)
    if kind == "compose":
        return (inputs.gen_skeleton(draw, (2, 2), (1, 2)),
                inputs.gen_skeleton(draw, (1, 2), (2, 2)))
    if kind in ("naturality", "linearity"):
        return (inputs.gen_skeleton(draw, (2, 2), (1, 2)), draw.value.randrange(1 << 16))
    if kind == "bgn":
        return (inputs.gen_skeleton(draw, (1, 2), (1, 1)), draw.value.randrange(1 << 16))
    if kind == "glue-check":
        return (draw.value.randrange(1 << 16),)
    return (inputs.gen_point(draw, (1, 1), 4),)


def cli_files(seed: int, workdir: Path) -> Workload:
    """In-process ``superskel.cli.main`` over files written at set-up; every
    operation needs exit code 0 and its parsed stdout must equal the library's
    own result on the in-memory inputs."""
    draw = inputs.Draw("cli-files", seed)
    raw = []
    for index in range(len(CLI_KINDS) * 200):
        draw.slot(index % CLI_CYCLE)
        kind = CLI_KINDS[index % len(CLI_KINDS)]
        raw.append((kind,) + _cli_raw(draw, kind))
    manifold = sk.projective_superline()
    manifold_path = workdir / "superline.manifold"
    manifold_path.write_text(sk.parsing.format_manifold(manifold))

    def write_skeleton(name, skeleton):
        path = workdir / name
        path.write_text(sk.parsing.format_skeleton(skeleton))
        return str(path)

    def write_point(name, point):
        path = workdir / name
        path.write_text(sk.parsing.format_point(point))
        return str(path)

    def make(index, kind, *args):
        tag = f"op{index:04d}"
        if kind == "eval":
            skeleton, point = inputs.build_skeleton(args[0]), inputs.build_point(args[1])
            argv = ["eval", write_skeleton(tag + ".skel", skeleton),
                    write_point(tag + ".point", point), "--route", "both"]

            def op():
                printed = sk.parsing.parse_point_file(_run_cli(argv), skeleton.target_space)
                if printed != sk.eval_subst(skeleton, point):
                    raise Mismatch("eval output differs from eval_subst")
                return None
        elif kind == "compose":
            outer, inner = inputs.build_skeleton(args[0]), inputs.build_skeleton(args[1])
            argv = ["compose", write_skeleton(tag + ".outer", outer),
                    write_skeleton(tag + ".inner", inner), "--method", "both"]

            def op():
                printed = sk.parsing.parse_skeleton_file(_run_cli(argv))
                if not _same_components(printed, sk.compose_subst(outer, inner)):
                    raise Mismatch("compose output differs from compose_subst")
                return printed.components
        elif kind in ("naturality", "linearity"):
            skeleton, check_seed = inputs.build_skeleton(args[0]), args[1]
            argv = ["check", kind, write_skeleton(tag + ".skel", skeleton),
                    "--rank", "3", "--samples", "2", "--seed", str(check_seed)]
            check = "check_naturality" if kind == "naturality" else "check_lambda_linearity"

            def op():
                printed = _run_cli(argv)
                # looked up per call, so a traced run sees the wrapped function
                report = getattr(sk, check)(skeleton, 3, rng=random.Random(check_seed), sample_count=2)
                if not report.ok or printed.strip() != report.summary():
                    raise Mismatch(f"check {kind} output differs from the library report")
                return None
        elif kind == "bgn":
            skeleton, check_seed = inputs.build_skeleton(args[0]), args[1]
            argv = ["check", "bgn", write_skeleton(tag + ".skel", skeleton),
                    "--rank", "3", "--samples", "2", "--seed", str(check_seed)]

            def op():
                status, passed, failed, skipped = _last_counts(_run_cli(argv))
                if (status, passed + skipped, failed) != ("PASS", 3, 0):
                    raise Mismatch("check bgn did not pass all three items")
                if not sk.bgn_quotient(skeleton).identity_holds():
                    raise Mismatch("bgn_quotient identity fails in the library")
                return None
        elif kind == "diff":
            skeleton = inputs.build_skeleton(args[0])
            argv = ["diff", write_skeleton(tag + ".skel", skeleton), "--order", "1"]

            def op():
                return _check_diff(_run_cli(argv), skeleton)
        elif kind == "glue-check":
            check_seed = args[0]
            argv = ["glue", "check", str(manifold_path), "--samples", "5",
                    "--seed", str(check_seed)]

            def op():
                printed = _run_cli(argv)
                report = sk.check_cocycle(manifold, random.Random(check_seed), samples=5)
                if not report.ok or printed.strip() != report.summary():
                    raise Mismatch("glue check output differs from check_cocycle")
                return None
        else:
            point = inputs.build_point(args[0])
            argv = ["glue", "transport", str(manifold_path), "A",
                    write_point(tag + ".point", point), "B"]

            def op():
                printed = sk.parsing.parse_point_file(_run_cli(argv), point.space)
                moved = sk.transport(manifold, sk.ManifoldPoint("A", point), "B")
                if printed != moved.point:
                    raise Mismatch("glue transport output differs from transport")
                return None
        return op

    ops = [make(i, *case) for i, case in enumerate(raw)]
    return Workload("cli-files", tuple(raw), ops, coefficient_sizes)


def _check_diff(printed: str, skeleton: sk.Skeleton):
    """Every printed ``d(dir) name = expr`` line equals the library's first
    derivative component, and every nonzero component is printed.  Returns the
    derivative components, for the result-size count."""
    data = sk.derivative(skeleton, 1)
    p = skeleton.target_space.even_dim
    names = [f"y{i + 1}" if i < p else f"h{i - p + 1}"
             for i in range(len(skeleton.components))]
    expected = {}
    for direction in data.directions:
        for name, comp in zip(names, data.components((direction,))):
            if not comp.is_zero():
                expected[(f"{direction[0]}{direction[1]}", name)] = comp
    seen = set()
    for line in printed.splitlines():
        if line.startswith("#"):
            continue
        head, expr = line.split(" = ", 1)
        direction, name = head[2:].split(") ")
        comp = expected.get((direction, name))
        if comp is None or sk.parsing.parse_superfunction(
                expr, skeleton.source_space) != comp:
            raise Mismatch(f"diff line {head!r} differs from the library derivative")
        seen.add((direction, name))
    if seen != set(expected):
        raise Mismatch("diff output misses nonzero derivative components")
    return list(expected.values())


WORKLOADS = {
    "compose-rational": compose_rational,
    "compose-poly": compose_poly,
    "eval-highrank": eval_highrank,
    "cli-files": cli_files,
}
