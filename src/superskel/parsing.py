"""Tokenizer, expression parser and file formats.

One grammar serves every value kind:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' nat] (var-atom ['^' nat])*
    atom   := nat | var | '(' expr ')'

Variables are x<n> (even), t<n> (odd) in superfunction context and g<n>
(generators) in Grassmann context; juxtaposed variable atoms multiply, which
is how generator monomials like ``g1g2`` are written.  Rationals arise from
integer division.  All parsing is line oriented and errors carry positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .atlas import GluingData
from .errors import ParseError, SuperskelError
from .grassmann import GrassmannElement
from .poly import Polynomial
from .spaces import DeWittDomain, LambdaPoint, SuperSpace
from .superfn import Skeleton, SuperFunction

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]+\d*)|(?P<op>[-+*/^()=|]))")
_VAR_RE = re.compile(r"^([gxt])(\d+)$")


@dataclass
class Token:
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    line: int
    column: int


def tokenize(text: str, line: int = 1) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].strip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", line, pos + 1)
        if match.lastgroup == "num":
            tokens.append(Token("num", match.group("num"), line, match.start("num") + 1))
        elif match.lastgroup == "name":
            tokens.append(Token("name", match.group("name"), line, match.start("name") + 1))
        else:
            tokens.append(Token("op", match.group("op"), line, match.start("op") + 1))
        pos = match.end()
    tokens.append(Token("end", "", line, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], context):
        self.tokens = tokens
        self.index = 0
        self.context = context

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}", token.line, token.column)
        return self.next()

    def at_op(self, *ops) -> bool:
        token = self.peek()
        return token.kind == "op" and token.text in ops

    def parse_expr(self):
        value = self.parse_term()
        while self.at_op("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            value = value + rhs if op.text == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            try:
                value = value * rhs if op.text == "*" else value / rhs
            except SuperskelError as exc:
                raise ParseError(str(exc), op.line, op.column)
        return value

    def parse_factor(self):
        negate = False
        if self.at_op("-"):
            self.next()
            negate = True
        value = self.parse_powered_atom()
        while self.peek().kind == "name" and _VAR_RE.match(self.peek().text):
            value = value * self.parse_powered_atom()
        return -value if negate else value

    def parse_powered_atom(self):
        value = self.parse_atom()
        if self.at_op("^"):
            op = self.next()
            token = self.peek()
            if token.kind != "num":
                raise ParseError("exponent must be a non-negative integer",
                                 token.line, token.column)
            self.next()
            try:
                value = value ** int(token.text)
            except SuperskelError as exc:
                raise ParseError(str(exc), op.line, op.column)
        return value

    def parse_atom(self):
        token = self.peek()
        if token.kind == "num":
            self.next()
            return self.context.const(Fraction(int(token.text)))
        if token.kind == "name":
            match = _VAR_RE.match(token.text)
            if match is None:
                raise ParseError(f"unknown name {token.text!r}", token.line, token.column)
            self.next()
            return self.context.var(match.group(1), int(match.group(2)), token)
        if self.at_op("("):
            self.next()
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a value", token.line, token.column)

    def finish(self, value):
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected trailing input {token.text!r}",
                             token.line, token.column)
        return value


class GrassmannContext:
    def __init__(self, rank: int):
        self.rank = rank

    def const(self, value: Fraction):
        return GrassmannElement.scalar(self.rank, value)

    def var(self, kind, index, token):
        if kind != "g":
            raise ParseError(f"only generators g1..g{self.rank} are allowed here",
                             token.line, token.column)
        if not 1 <= index <= self.rank:
            raise ParseError(f"generator g{index} exceeds rank {self.rank}",
                             token.line, token.column)
        return GrassmannElement.generator(self.rank, index)


class SuperFunctionContext:
    def __init__(self, space: SuperSpace, domain: DeWittDomain | None = None):
        self.space = space
        self.domain = domain or DeWittDomain.full(space)

    def const(self, value: Fraction):
        return SuperFunction.constant(self.space, value, self.domain)

    def var(self, kind, index, token):
        if kind == "x":
            if not 1 <= index <= self.space.even_dim:
                raise ParseError(f"no even coordinate x{index} on {self.space}",
                                 token.line, token.column)
            return SuperFunction.even_coordinate(self.space, index, self.domain)
        if kind == "t":
            if not 1 <= index <= self.space.odd_dim:
                raise ParseError(f"no odd coordinate t{index} on {self.space}",
                                 token.line, token.column)
            return SuperFunction.odd_coordinate(self.space, index, self.domain)
        raise ParseError("generators are not allowed in coordinate expressions",
                         token.line, token.column)


class PolynomialContext:
    def __init__(self, nvars: int):
        self.nvars = nvars

    def const(self, value: Fraction):
        return Polynomial.constant(self.nvars, value)

    def var(self, kind, index, token):
        if kind != "x" or not 1 <= index <= self.nvars:
            raise ParseError(f"only x1..x{self.nvars} may appear in body polynomials",
                             token.line, token.column)
        return Polynomial.variable(self.nvars, index - 1)


def parse_expression(text: str, context, line: int = 1):
    parser = _Parser(tokenize(text, line), context)
    return parser.finish(parser.parse_expr())


def parse_grassmann(text: str, rank: int, line: int = 1) -> GrassmannElement:
    return parse_expression(text, GrassmannContext(rank), line)


def parse_superfunction(text: str, space: SuperSpace,
                        domain: DeWittDomain | None = None,
                        line: int = 1) -> SuperFunction:
    return parse_expression(text, SuperFunctionContext(space, domain), line)


def parse_body_polynomial(text: str, nvars: int, line: int = 1) -> Polynomial:
    return parse_expression(text, PolynomialContext(nvars), line)


# ---------------------------------------------------------------------------
# rationals and bounds


def parse_bound(token_text: str, line: int, column: int):
    if token_text in ("inf", "+inf", "-inf"):
        return None
    try:
        return Fraction(token_text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad bound {token_text!r}", line, column)


# ---------------------------------------------------------------------------
# point files


def format_point(point: LambdaPoint) -> str:
    lines = [f"rank {point.rank}"]
    for i, value in enumerate(point.even_values):
        lines.append(f"x{i + 1} = {value.format()}")
    for j, value in enumerate(point.odd_values):
        lines.append(f"t{j + 1} = {value.format()}")
    return "\n".join(lines) + "\n"


_ASSIGN_RE = re.compile(r"^\s*([A-Za-z_]+\d*)\s*=\s*(.*)$")
_DIRECTIVE_RE = re.compile(r"^\s*([A-Za-z_]+)\s+(.*)$")
_VAR_RE_TARGET = re.compile(r"^([yh])(\d+)$")


def _assign(assignments: dict, var: re.Match, expr: str, line_no: int) -> None:
    """Record ``<kind><index> = expr``; a name may be assigned only once."""
    key = (var.group(1), int(var.group(2)))
    if key in assignments:
        raise ParseError(f"repeated assignment for {var.group(0)}", line_no)
    assignments[key] = (expr, line_no)


def _meaningful_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield idx, line.strip()


def parse_point_file(text: str, space: SuperSpace | None = None,
                     rank: int | None = None) -> LambdaPoint:
    """Parse a point file; the space and rank are inferred when not given."""
    assignments: dict[tuple[str, int], tuple[str, int]] = {}
    declared_rank = rank
    for line_no, line in _meaningful_lines(text):
        match = _ASSIGN_RE.match(line)
        if match:
            name, expr = match.groups()
            var = _VAR_RE.match(name)
            if var is None or var.group(1) not in ("x", "t"):
                raise ParseError(f"expected x<i> or t<j> assignment, got {name!r}", line_no)
            _assign(assignments, var, expr, line_no)
            continue
        match = _DIRECTIVE_RE.match(line)
        if match and match.group(1) == "rank":
            try:
                declared_rank = int(match.group(2).strip())
            except ValueError:
                raise ParseError("rank directive needs an integer", line_no)
            continue
        raise ParseError(f"unrecognized line {line!r}", line_no)

    if space is None:
        p = max((i for (kind, i) in assignments if kind == "x"), default=0)
        q = max((j for (kind, j) in assignments if kind == "t"), default=0)
        space = SuperSpace(p, q)
    if declared_rank is None:
        declared_rank = 0
        for expr, line_no in assignments.values():
            for token in tokenize(expr, line_no):
                match = _VAR_RE.match(token.text) if token.kind == "name" else None
                if match and match.group(1) == "g":
                    declared_rank = max(declared_rank, int(match.group(2)))
    evens = []
    for i in range(space.even_dim):
        expr, line_no = assignments.get(("x", i + 1), ("0", 0))
        evens.append(parse_grassmann(expr, declared_rank, line_no))
    odds = []
    for j in range(space.odd_dim):
        expr, line_no = assignments.get(("t", j + 1), ("0", 0))
        odds.append(parse_grassmann(expr, declared_rank, line_no))
    for (kind, index), (expr, line_no) in assignments.items():
        if kind == "x" and index > space.even_dim:
            raise ParseError(f"x{index} exceeds the space's even dimension", line_no)
        if kind == "t" and index > space.odd_dim:
            raise ParseError(f"t{index} exceeds the space's odd dimension", line_no)
    try:
        return LambdaPoint(space, declared_rank, evens, odds)
    except SuperskelError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# domains


def format_domain_lines(domain: DeWittDomain, prefix: str = "") -> list[str]:
    lines = []
    if list(domain.boxes) != [((None, None),) * domain.space.even_dim]:
        for box in domain.boxes:
            bounds = " ".join(
                ("-inf" if lo is None else str(lo)) + " " + ("inf" if hi is None else str(hi))
                for lo, hi in box)
            lines.append(f"{prefix}box {bounds}".rstrip())
    for poly in domain.excluded:
        lines.append(f"{prefix}exclude {poly.format()}")
    return lines


def _parse_box(args: str, p: int, line_no: int):
    tokens = args.split()
    if len(tokens) != 2 * p:
        raise ParseError(f"box needs {2 * p} bounds for {p} even coordinates", line_no)
    return tuple((parse_bound(tokens[2 * idx], line_no, 1),
                  parse_bound(tokens[2 * idx + 1], line_no, 1)) for idx in range(p))


class _DomainBuilder:
    def __init__(self, space: SuperSpace):
        self.space = space
        self.boxes = []
        self.excluded = []

    def directive(self, keyword: str, args: str, line_no: int) -> bool:
        if keyword == "box":
            self.boxes.append(_parse_box(args, self.space.even_dim, line_no))
            return True
        if keyword == "exclude":
            self.excluded.append(parse_body_polynomial(args, self.space.even_dim, line_no))
            return True
        return False

    def build(self) -> DeWittDomain:
        boxes = self.boxes or [((None, None),) * self.space.even_dim]
        return DeWittDomain(self.space, boxes, self.excluded)


# ---------------------------------------------------------------------------
# skeleton files


def _component_lines(skeleton: Skeleton) -> list[str]:
    p = skeleton.target_space.even_dim
    return [f"y{i + 1} = {comp.format()}" if i < p else f"h{i - p + 1} = {comp.format()}"
            for i, comp in enumerate(skeleton.components)]


def format_skeleton(skeleton: Skeleton) -> str:
    src, tgt = skeleton.source_space, skeleton.target_space
    lines = [f"source {src.even_dim}|{src.odd_dim}",
             f"target {tgt.even_dim}|{tgt.odd_dim}"]
    lines.extend(format_domain_lines(skeleton.source_domain))
    lines.extend(format_domain_lines(skeleton.target_domain, prefix="target_"))
    lines.extend(_component_lines(skeleton))
    return "\n".join(lines) + "\n"


def _parse_dims(args: str, line_no: int) -> SuperSpace:
    match = re.match(r"^\s*(\d+)\s*\|\s*(\d+)\s*$", args)
    if not match:
        raise ParseError("expected dimensions p|q", line_no)
    return SuperSpace(int(match.group(1)), int(match.group(2)))


def _build_skeleton(assignments: dict, source: SuperSpace, src_domain: DeWittDomain,
                    target: SuperSpace, tgt_domain: DeWittDomain,
                    where: str = "") -> Skeleton:
    """The skeleton whose components are the y/h ``assignments``, parsed on
    the source domain; ``where`` prefixes each message."""
    for (kind, index), (expr, line_no) in assignments.items():
        if index > (target.even_dim if kind == "y" else target.odd_dim):
            raise ParseError(f"{where}{kind}{index} exceeds the target dimensions", line_no)
    components = []
    for kind, count, parity in (("y", target.even_dim, "even"), ("h", target.odd_dim, "odd")):
        for index in range(1, count + 1):
            if (kind, index) not in assignments:
                raise ParseError(f"{where}missing assignment for {kind}{index}")
            expr, line_no = assignments[(kind, index)]
            comp = parse_superfunction(expr, source, src_domain, line_no)
            if not (comp.is_even() if parity == "even" else comp.is_odd()):
                raise ParseError(f"{where}{kind}{index} must be parity-{parity}", line_no)
            # the file's domain directives are the author's declaration
            components.append(SuperFunction._make(source, src_domain, comp.terms))
    try:
        return Skeleton(source, src_domain, target, tgt_domain, components)
    except SuperskelError as exc:
        raise ParseError(f"{where}{exc}")


def parse_skeleton_file(text: str) -> Skeleton:
    source = target = None
    src_builder = tgt_builder = None
    assignments: dict[tuple[str, int], tuple[str, int]] = {}
    for line_no, line in _meaningful_lines(text):
        match = _ASSIGN_RE.match(line)
        var = match and _VAR_RE_TARGET.match(match.group(1))
        if var:
            _assign(assignments, var, match.group(2), line_no)
            continue
        match = _DIRECTIVE_RE.match(line)
        if not match:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        keyword, args = match.group(1), match.group(2)
        if keyword == "source":
            source = _parse_dims(args, line_no)
            src_builder = _DomainBuilder(source)
        elif keyword == "target":
            target = _parse_dims(args, line_no)
            tgt_builder = _DomainBuilder(target)
        elif keyword in ("box", "exclude"):
            if src_builder is None:
                raise ParseError("domain directive before the source line", line_no)
            src_builder.directive(keyword, args, line_no)
        elif keyword in ("target_box", "target_exclude"):
            if tgt_builder is None:
                raise ParseError("target domain directive before the target line", line_no)
            tgt_builder.directive(keyword.removeprefix("target_"), args, line_no)
        else:
            raise ParseError(f"unknown directive {keyword!r}", line_no)
    if source is None or target is None:
        raise ParseError("skeleton files need `source p|q` and `target p|q` lines")
    return _build_skeleton(assignments, source, src_builder.build(),
                           target, tgt_builder.build())


# ---------------------------------------------------------------------------
# manifold files


def format_manifold(data: GluingData) -> str:
    lines = []
    for cid in data.chart_ids():
        space, domain = data.charts[cid]
        lines.append(f"chart {cid} {space.even_dim}|{space.odd_dim}")
        lines.extend(format_domain_lines(domain))
    for (i, j) in sorted(data.overlaps):
        if i == j:
            continue
        lines.append(f"overlap {i} {j}")
        lines.extend(format_domain_lines(data.overlaps[(i, j)]))
    for (i, j) in sorted(data.transitions):
        if i == j:
            continue
        lines.append(f"transition {i} {j}")
        lines.extend(_component_lines(data.transitions[(i, j)]))
    return "\n".join(lines) + "\n"


def parse_manifold_file(text: str) -> GluingData:
    charts: dict[str, SuperSpace] = {}
    chart_builders: dict[str, _DomainBuilder] = {}
    overlap_builders: dict[tuple[str, str], _DomainBuilder] = {}
    transition_rows: dict[tuple[str, str], dict[tuple[str, int], tuple[str, int]]] = {}
    section = None  # ('chart', id) | ('overlap', i, j) | ('transition', i, j)

    for line_no, line in _meaningful_lines(text):
        match = _DIRECTIVE_RE.match(line)
        keyword = match.group(1) if match else None
        if keyword == "chart":
            parts = match.group(2).split()
            if len(parts) != 2:
                raise ParseError("usage: chart <id> <p>|<q>", line_no)
            cid = parts[0]
            charts[cid] = _parse_dims(parts[1], line_no)
            chart_builders[cid] = _DomainBuilder(charts[cid])
            section = ("chart", cid)
            continue
        if keyword in ("overlap", "transition"):
            parts = match.group(2).split()
            if len(parts) != 2:
                raise ParseError(f"usage: {keyword} <i> <j>", line_no)
            i, j = parts
            for cid in (i, j):
                if cid not in charts:
                    raise ParseError(f"unknown chart {cid!r}", line_no)
            if keyword == "overlap":
                overlap_builders[(i, j)] = _DomainBuilder(charts[i])
                section = ("overlap", i, j)
            else:
                transition_rows[(i, j)] = {}
                section = ("transition", i, j)
            continue
        if section is None:
            raise ParseError(f"line outside any section: {line!r}", line_no)
        if section[0] == "chart":
            builder = chart_builders[section[1]]
            if not (match and builder.directive(keyword, match.group(2), line_no)):
                raise ParseError(f"bad chart directive {line!r}", line_no)
        elif section[0] == "overlap":
            builder = overlap_builders[(section[1], section[2])]
            if not (match and builder.directive(keyword, match.group(2), line_no)):
                raise ParseError(f"bad overlap directive {line!r}", line_no)
        else:
            assign = _ASSIGN_RE.match(line)
            var = assign and _VAR_RE_TARGET.match(assign.group(1))
            if not var:
                raise ParseError(f"expected y/h assignment in transition, got {line!r}",
                                 line_no)
            _assign(transition_rows[(section[1], section[2])], var, assign.group(2),
                    line_no)

    chart_map = {}
    for cid, space in charts.items():
        chart_map[cid] = (space, chart_builders[cid].build())
    overlaps = {}
    for (i, j), builder in overlap_builders.items():
        overlaps[(i, j)] = chart_map[i][1].intersect(builder.build())
    transitions = {}
    for (i, j), rows in transition_rows.items():
        transitions[(i, j)] = _build_skeleton(
            rows, charts[i], overlaps.get((i, j), chart_map[i][1]),
            charts[j], overlaps.get((j, i), chart_map[j][1]), f"transition {i} {j}: ")
    try:
        return GluingData(chart_map, overlaps, transitions)
    except SuperskelError as exc:
        raise ParseError(str(exc))
