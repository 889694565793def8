"""Command-line interface.

Subcommands: eval, compose, diff, check, glue, selftest.  Exit codes: 0 on
success, 1 when a check fails or two computation routes disagree, 2 on usage
or parse errors.  All numeric output is exact.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import parsing, selftest
from .atlas import ManifoldPoint, check_cocycle, transport
from .calculus import check_bgn, check_def43, check_lambda_linearity, check_taylor, derivative
from .continuation import check_naturality, eval_subst, eval_taylor
from .errors import DigitCapError, ParseError, RankCapError, SpaceMismatchError, SuperskelError
from .grassmann import max_rank
from .morphisms import compose_formula, compose_subst

# check kind -> check(skeleton, rank, rng, sample count)
_CHECKS = {
    "naturality": check_naturality,
    "bgn": check_bgn,
    "linearity": check_lambda_linearity,
    "def43": check_def43,
    "taylor": check_taylor,
}

# --route / --method value -> the routes it runs, in order
_EVAL_ROUTES = {"subst": (eval_subst,), "taylor": (eval_taylor,),
                "both": (eval_subst, eval_taylor)}
_COMPOSE_METHODS = {"subst": (compose_subst,), "formula": (compose_formula,),
                    "both": (compose_subst, compose_formula)}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _load_skeleton(path: str):
    return parsing.parse_skeleton_file(_read(path))


def _print_agreed(routes, inputs, what: str, format_result) -> int:
    """Run ``routes`` on ``inputs`` in order and print the first result;
    exit 1 instead when another route disagrees with it."""
    first, *others = [route(*inputs) for route in routes]
    if any(other != first for other in others):
        print(f"DIVERGENCE: {what} routes disagree", file=sys.stderr)
        return 1
    sys.stdout.write(format_result(first))
    return 0


def _cmd_eval(args) -> int:
    skeleton = _load_skeleton(args.skeleton)
    point = parsing.parse_point_file(_read(args.point), skeleton.source_space)
    return _print_agreed(_EVAL_ROUTES[args.route], (skeleton, point),
                         "substitution and taylor", parsing.format_point)


def _cmd_compose(args) -> int:
    return _print_agreed(_COMPOSE_METHODS[args.method],
                         (_load_skeleton(args.outer), _load_skeleton(args.inner)),
                         "composition", parsing.format_skeleton)


def _cmd_diff(args) -> int:
    skeleton = _load_skeleton(args.skeleton)
    data = derivative(skeleton, args.order)
    lines = [f"# derivative order {args.order} of {args.skeleton}"]
    # direction tuples with a nonzero iterated partial, built by prepending:
    # components(dirs) is computed from dirs[1:], so a zero suffix has no
    # nonzero extension; prepending to a sorted list keeps the order of
    # itertools.product
    live = [()]
    for _ in range(args.order):
        live = [(d,) + dirs for d in data.directions for dirs in live
                if not all(c.is_zero() for c in data.components((d,) + dirs))]
    p = skeleton.target_space.even_dim
    for dirs in live:
        comps = data.components(dirs)
        dir_text = " ".join(f"{kind}{index}" for kind, index in dirs)
        for ci, comp in enumerate(comps):
            if comp.is_zero():
                continue
            name = f"y{ci + 1}" if ci < p else f"h{ci - p + 1}"
            lines.append(f"d({dir_text}) {name} = {comp.format()}")
    print("\n".join(lines))  # all or nothing: a number may be too long to print
    return 0


def _cmd_check(args) -> int:
    skeleton = _load_skeleton(args.skeleton)
    report = _CHECKS[args.kind](skeleton, args.rank, random.Random(args.seed), args.samples)
    print(report.summary(verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_glue(args) -> int:
    data = parsing.parse_manifold_file(_read(args.manifold))
    rng = random.Random(args.seed)
    if args.glue_command == "check":
        report = check_cocycle(data, rng, samples=args.samples)
        print(report.summary(verbose=args.verbose))
        return 0 if report.ok else 1
    # transport
    for cid in (args.from_chart, args.to_chart):
        if cid not in data.charts:
            print(f"error: unknown chart {cid!r}", file=sys.stderr)
            return 2
    point = parsing.parse_point_file(_read(args.point), data.charts[args.from_chart][0])
    moved = transport(data, ManifoldPoint(args.from_chart, point), args.to_chart)
    sys.stdout.write(parsing.format_point(moved.point))
    return 0


def _cmd_selftest(args) -> int:
    names = set(args.suite) if args.suite else None
    unknown = (names or set()) - set(selftest.ALL_SUITES)
    if unknown:
        print(f"error: unknown suite(s) {sorted(unknown)}; "
              f"available: {sorted(selftest.ALL_SUITES)}", file=sys.stderr)
        return 2
    all_ok = True
    for report in selftest.run_suites(names, seed=args.seed):
        print(report.summary(verbose=args.verbose))
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def _bounded(text: str, low: int, high: int | None = None) -> int:
    """Parse an integer option in [low, high]; argparse turns the
    ArgumentTypeError into a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low or (high is not None and value > high):
        bounds = f"at least {low}" if high is None else f"between {low} and {high}"
        raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
    return value


def _count(text: str) -> int:
    return _bounded(text, 1)


def _rank(text: str) -> int:
    return _bounded(text, 0, max_rank())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superskel",
        description="Exact symbolic calculus for superdomain morphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a skeleton at a point")
    p_eval.add_argument("skeleton")
    p_eval.add_argument("point")
    p_eval.add_argument("--route", choices=tuple(_EVAL_ROUTES), default="subst")
    p_eval.set_defaults(func=_cmd_eval)

    p_compose = sub.add_parser("compose", help="compose two skeletons (outer inner)")
    p_compose.add_argument("outer")
    p_compose.add_argument("inner")
    p_compose.add_argument("--method", choices=tuple(_COMPOSE_METHODS), default="subst")
    p_compose.set_defaults(func=_cmd_compose)

    p_diff = sub.add_parser("diff", help="print symbolic derivative data")
    p_diff.add_argument("skeleton")
    p_diff.add_argument("--order", type=_count, default=1)
    p_diff.set_defaults(func=_cmd_diff)

    p_check = sub.add_parser("check", help="run a verification battery on a skeleton")
    p_check.add_argument("kind", choices=tuple(_CHECKS))
    p_check.add_argument("skeleton")
    p_check.add_argument("--rank", type=_rank, default=4)
    p_check.add_argument("--samples", type=_count, default=5)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--verbose", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_glue = sub.add_parser("glue", help="atlas operations")
    glue_sub = p_glue.add_subparsers(dest="glue_command", required=True)
    g_check = glue_sub.add_parser("check", help="verify the cocycle conditions")
    g_check.add_argument("manifold")
    g_check.add_argument("--samples", type=_count, default=25)
    g_check.add_argument("--seed", type=int, default=0)
    g_check.add_argument("--verbose", action="store_true")
    g_check.set_defaults(func=_cmd_glue)
    g_move = glue_sub.add_parser("transport", help="carry a point between charts")
    g_move.add_argument("manifold")
    g_move.add_argument("from_chart")
    g_move.add_argument("point")
    g_move.add_argument("to_chart")
    g_move.set_defaults(func=_cmd_glue, seed=0)

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument("--suite", action="append",
                        help="restrict to named suites (repeatable)")
    p_self.add_argument("--seed", type=int, default=1)
    p_self.add_argument("--verbose", action="store_true")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: argparse looks up sys.stderr, and ``_rank``
    # the rank cap, when it parses, not when it is built
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DigitCapError, ParseError, RankCapError, SpaceMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SuperskelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
