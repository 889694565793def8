"""Tokenizer, expression parser and file formats.

One grammar serves every value kind:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] atom ['^' nat] (var-atom ['^' nat])*
    atom   := nat | var | '(' expr ')'

Variables are x<n> (even), t<n> (odd) in superfunction context and g<n>
(generators) in Grassmann context; juxtaposed variable atoms multiply, which
is how generator monomials like ``g1g2`` are written.  Rationals arise from
integer division.  All parsing is line oriented and errors carry positions:
in a file, columns count from the start of the line.  Tokens are
(kind, text, column) tuples; the parser holds the line.

A term is read as one monomial, not one ring product per atom.  Its atoms
fold into a pending monomial as they are read: numbers, powers of numbers,
unary minus and division by a nonzero number into a rational coefficient,
variables (with their exponents) into a list in reading order.  Ring
arithmetic happens only at a non-atom factor, a parenthesis or a division by
anything but a nonzero number (``/0`` included, so it raises the ring's own
error at its ``/``); the pending monomial is multiplied in first, so odd
factors keep their order.

An expression's monomial terms are summed once: each is kept as a signed
coefficient and its atoms, and the value context builds their sum in one
pass (``value``), sorting odd labels with their sign and adding
coefficients per monomial.  A term with a ring part is added to that sum
afterwards, in reading order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .atlas import GluingData
from .errors import ParseError, SuperskelError
from .grassmann import GrassmannElement, _signed_mask
from .poly import (_LITERAL_BOUND, MAX_LITERAL_DIGITS, Polynomial, RationalFunction,
                   _accumulate, _numerators, _number_text)
from .spaces import DeWittDomain, LambdaPoint, SuperSpace
from .superfn import Skeleton, SuperFunction

# Input limits that keep small inputs from ending in an interpreter error:
# each level of parentheses costs four parser frames of Python's recursion
# limit, and integer literals stop at MAX_LITERAL_DIGITS (from poly, where it
# caps printed numbers too), below Python's int-to-text limit.  A number
# written as a power obeys the same cap (``_power_too_long``), so ``3^10000000``
# is refused before it is computed.
MAX_NESTING = 100

_LONG_LITERAL_RE = re.compile(r"\d{%d,}" % (MAX_LITERAL_DIGITS + 1))
_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_]+\d*)|(?P<op>[-+*/^()=|])")
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_\-+*/^()=|]")  # what no token takes in
_VAR_RE = re.compile(r"^([gxt])(\d+)$")


def _check_literals(text: str, line: int, column: int = 1) -> None:
    match = _LONG_LITERAL_RE.search(text)
    if match:
        raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                         line, match.start() + column)


def tokenize(text: str, line: int = 1, column: int = 1) -> list[tuple[str, str, int]]:
    """Tokens of ``text``, which starts at ``column`` of ``line``, as
    (kind, text, column) tuples of kind 'num', 'name' or 'op', closed by
    one of kind 'end'."""
    _check_literals(text, line, column)
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", line, bad.start() + column)
    tokens = [(m.lastgroup, m.group(), m.start() + column) for m in _TOKEN_RE.finditer(text)]
    tokens.append(("end", "", len(text) + column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], context, line: int):
        self.tokens = tokens
        self.index = 0
        self.context = context
        self.line = line
        self.depth = 0  # open parentheses

    def at_op(self, *ops):
        """The next token when it is one of the operators ``ops``, else None
        (only an operator token has an operator's text)."""
        token = self.tokens[self.index]
        return token if token[1] in ops else None

    def expect_op(self, op: str) -> None:
        if self.at_op(op) is None:
            raise ParseError(f"expected {op!r}", self.line, self.tokens[self.index][2])
        self.index += 1

    def parse_expr(self):
        """The sum of the terms.  A monomial term is kept as its signed
        coefficient and atoms, and ``context.value`` sums them all at once;
        the terms with a ring part are then added in reading order."""
        monomials, rings = [], []
        negative = False
        while True:
            ring, coeff, atoms = self.parse_term()
            if ring is None:
                monomials.append((-coeff if negative else coeff, atoms))
            else:
                rings.append((negative, self.times_monomial(ring, coeff, atoms)))
            op = self.at_op("+", "-")
            if op is None:
                break
            self.index += 1
            negative = op[1] == "-"
        value = self.context.value(monomials) if monomials else None
        for negative, ring in rings:
            value = ring if value is None else value - ring if negative else value + ring
        return value

    def parse_term(self):
        """The term as (ring value or None, coefficient, atoms): the ring
        value, None standing for 1, times the monomial ``coeff`` * ``atoms``.
        Atoms fold into that pending monomial, which meets ring arithmetic
        only at a non-atom factor: before a parenthesis, or a division by
        anything but a nonzero number, it is multiplied into the ring value,
        so odd factors keep their order."""
        value = None  # the factors multiplied out so far; None stands for 1
        coeff, atoms = 1, []
        op = None
        while True:
            factor_coeff, factor_atoms, ring = self.parse_factor()
            if op is None or op[1] == "*":
                if ring is not None:
                    value = self.times_monomial(value, coeff, atoms)
                    value = ring if value is None else value * ring
                    coeff, atoms = 1, []
                if factor_coeff != 1:
                    coeff *= factor_coeff
                atoms += factor_atoms
            elif ring is None and not factor_atoms and factor_coeff:
                coeff = Fraction(coeff, factor_coeff)
            else:
                value = self.times_monomial(value, coeff, atoms)
                if value is None:
                    value = self.context.value([(1, [])])
                divisor = self.times_monomial(ring, factor_coeff, factor_atoms)
                try:
                    value = value / divisor
                except SuperskelError as exc:
                    raise ParseError(str(exc), self.line, op[2])
                coeff, atoms = 1, []
            op = self.at_op("*", "/")
            if op is None:
                return value, coeff, atoms
            self.index += 1

    def times_monomial(self, value, coeff, atoms):
        """``value`` times the monomial ``coeff`` * ``atoms``, where None
        stands for 1 and a monomial 1 is no factor."""
        if coeff == 1 and not atoms:
            return value
        monomial = self.context.value([(coeff, atoms)])
        return monomial if value is None else value * monomial

    def parse_factor(self):
        """A factor as (coefficient, variable atoms (kind, index, exponent),
        ring value of its leading parenthesis or None): the factor is that
        value times the monomial."""
        tokens, line = self.tokens, self.line
        coeff, ring = 1, None
        kind, text, column = tokens[self.index]
        if text == "-":
            self.index += 1
            coeff = -1
            kind, text, column = tokens[self.index]
        if kind == "num":
            self.index += 1
            base = int(text)
            coeff *= base ** self.parse_exponent(base)[0]
        elif text == "(":
            ring = self.parse_parenthesis()
            n, op = self.parse_exponent(ring)
            if op is not None:
                try:
                    ring = ring ** n
                except SuperskelError as exc:
                    raise ParseError(str(exc), line, op[2])
        elif kind != "name":
            raise ParseError("expected a value", line, column)
        leading = self.index if kind == "name" else None  # a name that must be a variable
        atoms = []
        while True:
            kind, text, column = tokens[self.index]
            if kind != "name":
                return coeff, atoms, ring
            variable = text[0]
            if variable not in "gxt" or not text[1:].isdecimal():  # as _VAR_RE
                if self.index == leading:
                    raise ParseError(f"unknown name {text!r}", line, column)
                return coeff, atoms, ring
            index = int(text[1:])
            self.context.atom(variable, index, line, column)
            self.index += 1
            n = self.parse_exponent()[0] if tokens[self.index][1] == "^" else 1
            atoms.append((variable, index, n))

    def parse_exponent(self, base=None):
        """(n, the '^' token) for an atom's ``^ n``, (1, None) without one.
        A number or parenthesis ``base`` obeys the literal cap: its power
        is refused at the '^' when ``_power_too_long``."""
        op = self.at_op("^")
        if op is None:
            return 1, None
        self.index += 1
        kind, text, column = self.tokens[self.index]
        if kind != "num":
            raise ParseError("exponent must be a non-negative integer", self.line, column)
        self.index += 1
        n = int(text)
        if base is not None and _power_too_long(base, n):
            raise ParseError(f"the power has a number longer than {MAX_LITERAL_DIGITS} "
                             "digits", self.line, op[2])
        return n, op

    def parse_parenthesis(self):
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             self.line, self.tokens[self.index][2])
        self.index += 1
        self.depth += 1
        value = self.parse_expr()
        self.expect_op(")")
        self.depth -= 1
        return value

    def finish(self, value):
        kind, text, column = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", self.line, column)
        return value


def _power_too_long(value, n: int) -> bool:
    """True when ``value ** n`` would hold a number longer than
    ``MAX_LITERAL_DIGITS``: a number written as a power obeys the cap of one
    written out.  The test is on the coefficients c of ``value`` whose n-th
    powers are coefficients of ``value ** n``: an int itself, the
    lex-leading and lex-trailing ones of a polynomial, of the body's
    numerator for a superfunction, and the body of a Grassmann element.  It
    is decided from n and the bit lengths of each c's numerator and
    denominator before anything large is computed."""
    if isinstance(value, SuperFunction):
        value = value.coefficient(()).num
    if isinstance(value, int):
        coefficients = [value]
    elif isinstance(value, Polynomial):
        if value.is_zero():
            return False
        terms = value.terms
        coefficients = [terms[max(terms)], terms[min(terms)]]
    elif isinstance(value, GrassmannElement):
        coefficients = [value.body()]
    else:
        return False
    cap_bits = _LITERAL_BOUND.bit_length()
    for c in coefficients:
        for part in c.as_integer_ratio():
            bits = abs(part).bit_length()
            # |part| ** n >= 2 ** (n (bits - 1)); when that is below the bound,
            # |part| ** n < 2 ** (2 n (bits - 1)) has under twice its bits
            if bits > 1 and (n * (bits - 1) >= cap_bits or abs(part) ** n >= _LITERAL_BOUND):
                return True
    return False


def _monomial_parts(atoms, nvars: int, top: int):
    """(exponent tuple of the x atoms, sign, mask of the t and g atoms) for
    variable atoms (kind, index, exponent) in reading order, with odd labels
    at most ``top``.  The sign is that of sorting the labels
    (``_signed_mask``), 0 when a label repeats or an odd atom's exponent
    passes 1."""
    exps = [0] * nvars
    labels = []
    for kind, index, k in atoms:
        if kind == "x":
            exps[index - 1] += k
        elif k:
            if k > 1:
                return (), 0, 0
            labels.append(index)
    return (tuple(exps), *_signed_mask(labels, top))


# A value context checks each variable atom as it is read (``atom``) and
# builds the sum of a list of monomials once (``value``), each monomial an
# int or Fraction coefficient and its validated atoms (kind, index,
# exponent) in reading order; a single monomial is a list of one.


class GrassmannContext:
    def __init__(self, rank: int):
        GrassmannElement.zero(rank)  # the rank's sign and cap
        self.rank = rank

    def atom(self, kind, index, line, column):
        if kind != "g":
            raise ParseError(f"only generators g1..g{self.rank} are allowed here",
                             line, column)
        if not 1 <= index <= self.rank:
            raise ParseError(f"generator g{index} exceeds rank {self.rank}", line, column)

    def value(self, monomials):
        terms = {}  # mask -> coefficient
        for coeff, atoms in monomials:
            _, sign, mask = _monomial_parts(atoms, 0, self.rank)
            if sign:
                _accumulate(terms, mask, coeff if sign > 0 else -coeff)
        return GrassmannElement._reduced(self.rank, *_numerators(terms))


class SuperFunctionContext:
    def __init__(self, space: SuperSpace, domain: DeWittDomain | None = None):
        self.space = space
        self.domain = SuperFunction.zero(space, domain).domain  # checks its space

    def atom(self, kind, index, line, column):
        if kind == "x":
            if not 1 <= index <= self.space.even_dim:
                raise ParseError(f"no even coordinate x{index} on {self.space}", line, column)
        elif kind == "t":
            if not 1 <= index <= self.space.odd_dim:
                raise ParseError(f"no odd coordinate t{index} on {self.space}", line, column)
        else:
            raise ParseError("generators are not allowed in coordinate expressions",
                             line, column)

    def value(self, monomials):
        p = self.space.even_dim
        parts = {}  # mask -> {exponent tuple: coefficient}
        for coeff, atoms in monomials:
            exps, sign, mask = _monomial_parts(atoms, p, self.space.odd_dim)
            if sign:
                terms = parts.get(mask)
                if terms is None:
                    terms = parts[mask] = {}
                _accumulate(terms, exps, coeff if sign > 0 else -coeff)
        coeffs = {mask: RationalFunction._raw(Polynomial._from_terms(p, terms), ())
                  for mask, terms in parts.items() if terms}
        return SuperFunction._make(self.space, self.domain, coeffs)


class PolynomialContext:
    def __init__(self, nvars: int):
        self.nvars = nvars

    def atom(self, kind, index, line, column):
        if kind != "x" or not 1 <= index <= self.nvars:
            raise ParseError(f"only x1..x{self.nvars} may appear in body polynomials",
                             line, column)

    def value(self, monomials):
        terms = {}  # exponent tuple -> coefficient
        for coeff, atoms in monomials:
            _accumulate(terms, _monomial_parts(atoms, self.nvars, 0)[0], coeff)
        return Polynomial._from_terms(self.nvars, terms)


def parse_expression(text: str, context, line: int = 1, column: int = 1):
    """The value of ``text``, which starts at ``column`` of ``line``."""
    parser = _Parser(tokenize(text, line, column), context, line)
    return parser.finish(parser.parse_expr())


def parse_grassmann(text: str, rank: int, line: int = 1, column: int = 1) -> GrassmannElement:
    return parse_expression(text, GrassmannContext(rank), line, column)


def parse_superfunction(text: str, space: SuperSpace,
                        domain: DeWittDomain | None = None,
                        line: int = 1, column: int = 1) -> SuperFunction:
    return parse_expression(text, SuperFunctionContext(space, domain), line, column)


def parse_body_polynomial(text: str, nvars: int, line: int = 1, column: int = 1) -> Polynomial:
    return parse_expression(text, PolynomialContext(nvars), line, column)


# ---------------------------------------------------------------------------
# rationals and bounds


_BOUND_RE = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")


def parse_bound(token_text: str, line: int, column: int):
    """A box bound: None for ``inf``, ``+inf`` or ``-inf``, else a literal
    ``[+-]digits[/digits]`` whose digit runs obey ``MAX_LITERAL_DIGITS``,
    the grammar's own numbers (no exponents, decimals or spaces)."""
    if token_text in ("inf", "+inf", "-inf"):
        return None
    match = _BOUND_RE.fullmatch(token_text)
    if match is None:
        raise ParseError(f"bad bound {token_text!r}", line, column)
    if any(len(digits) > MAX_LITERAL_DIGITS for digits in match.groups() if digits):
        raise ParseError(f"bound literal longer than {MAX_LITERAL_DIGITS} digits", line, column)
    try:
        return Fraction(token_text)
    except ZeroDivisionError:
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


def _assign(assignments: dict, var: re.Match, match: re.Match, line_no: int) -> None:
    """Record the ``<kind><index> = expr`` line ``match`` as (expr, line,
    column of expr); a name may be assigned only once."""
    key = (var.group(1), int(var.group(2)))
    if key in assignments:
        raise ParseError(f"repeated assignment for {var.group(0)}", line_no)
    assignments[key] = (match.group(2), line_no, match.start(2) + 1)


def _header(headers: dict, key: tuple, line_no: int) -> tuple:
    """Record a header line such as ``rank``, ``source`` or ``transition A B``;
    each may appear only once per file."""
    if key in headers:
        raise ParseError(f"repeated {' '.join(key)} (first on line {headers[key]})", line_no)
    headers[key] = line_no
    return key


def _meaningful_lines(text: str):
    """(line number, line) for each line with content, comments cut off;
    leading blanks stay, so match positions are columns of the line."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        _check_literals(line, idx)
        if line.strip():
            yield idx, line


def parse_point_file(text: str, space: SuperSpace) -> LambdaPoint:
    """Parse a point in ``space``; without a ``rank`` line the rank is the
    largest generator index the file names."""
    assignments: dict[tuple[str, int], tuple[str, int, int]] = {}
    declared_rank = None
    headers: dict[tuple, int] = {}
    for line_no, line in _meaningful_lines(text):
        match = _ASSIGN_RE.match(line)
        if match:
            name = match.group(1)
            var = _VAR_RE.match(name)
            if var is None or var.group(1) not in ("x", "t"):
                raise ParseError(f"expected x<i> or t<j> assignment, got {name!r}", line_no)
            _assign(assignments, var, match, line_no)
            continue
        match = _DIRECTIVE_RE.match(line)
        if match and match.group(1) == "rank":
            _header(headers, ("rank",), line_no)
            try:
                declared_rank = int(match.group(2).strip())
                GrassmannElement.zero(declared_rank)  # the rank's sign and cap
            except ValueError:
                raise ParseError("rank directive needs an integer", line_no)
            except SuperskelError as exc:
                raise ParseError(str(exc), line_no)
            continue
        raise ParseError(f"unrecognized line {line.strip()!r}", line_no)

    if declared_rank is None:
        declared_rank = 0
        for expr, line_no, column in assignments.values():
            for kind, name, _ in tokenize(expr, line_no, column):
                match = _VAR_RE.match(name) if kind == "name" else None
                if match and match.group(1) == "g":
                    declared_rank = max(declared_rank, int(match.group(2)))
    evens = []
    for i in range(space.even_dim):
        expr, line_no, column = assignments.get(("x", i + 1), ("0", 0, 1))
        evens.append(parse_grassmann(expr, declared_rank, line_no, column))
    odds = []
    for j in range(space.odd_dim):
        expr, line_no, column = assignments.get(("t", j + 1), ("0", 0, 1))
        odds.append(parse_grassmann(expr, declared_rank, line_no, column))
    for (kind, index), (_, line_no, _) in assignments.items():
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
                ("-inf" if lo is None else _number_text(lo)) + " "
                + ("inf" if hi is None else _number_text(hi))
                for lo, hi in box)
            lines.append(f"{prefix}box {bounds}".rstrip())
    for poly in domain.excluded:
        lines.append(f"{prefix}exclude {poly.format()}")
    return lines


def _parse_box(args: str, p: int, line_no: int, column: int):
    """The box whose bounds ``args``, starting at ``column``, lists."""
    tokens = list(re.finditer(r"\S+", args))
    if len(tokens) != 2 * p:
        raise ParseError(f"box needs {2 * p} bounds for {p} even coordinates", line_no)
    bounds = [parse_bound(t.group(), line_no, t.start() + column) for t in tokens]
    return tuple(zip(bounds[::2], bounds[1::2]))


class _DomainBuilder:
    """Collects a domain's ``box`` and ``exclude`` lines and builds it once."""

    def __init__(self, space: SuperSpace):
        self.space = space
        self.boxes = []
        self.excluded = []

    def directive(self, keyword: str, args: str, line_no: int, column: int) -> bool:
        """Take one directive whose ``args`` start at ``column``; False when
        ``keyword`` is not a domain directive."""
        p = self.space.even_dim
        if keyword == "box":
            self.boxes.append(_parse_box(args, p, line_no, column))
            item = (self.boxes[-1:], ())
        elif keyword == "exclude":
            self.excluded.append(parse_body_polynomial(args, p, line_no, column))
            item = ([], self.excluded[-1:])
        else:
            return False
        try:
            DeWittDomain(self.space, *item)  # a line can only be wrong on its own
        except SuperskelError as exc:
            raise ParseError(str(exc), line_no)
        return True

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
    for (kind, index), (_, line_no, _) in assignments.items():
        if index > (target.even_dim if kind == "y" else target.odd_dim):
            raise ParseError(f"{where}{kind}{index} exceeds the target dimensions", line_no)
    components = []
    for kind, count, parity in (("y", target.even_dim, "even"), ("h", target.odd_dim, "odd")):
        for index in range(1, count + 1):
            if (kind, index) not in assignments:
                raise ParseError(f"{where}missing assignment for {kind}{index}")
            expr, line_no, column = assignments[(kind, index)]
            comp = parse_superfunction(expr, source, src_domain, line_no, column)
            if not (comp.is_even() if parity == "even" else comp.is_odd()):
                raise ParseError(f"{where}{kind}{index} must be parity-{parity}", line_no)
            # the file's domain directives are the author's declaration
            components.append(SuperFunction._make(source, src_domain, comp._coeffs))
    try:
        return Skeleton(source, src_domain, target, tgt_domain, components)
    except SuperskelError as exc:
        raise ParseError(f"{where}{exc}")


def parse_skeleton_file(text: str) -> Skeleton:
    source = target = None
    src_builder = tgt_builder = None
    headers: dict[tuple, int] = {}
    assignments: dict[tuple[str, int], tuple[str, int, int]] = {}
    for line_no, line in _meaningful_lines(text):
        match = _ASSIGN_RE.match(line)
        var = match and _VAR_RE_TARGET.match(match.group(1))
        if var:
            _assign(assignments, var, match, line_no)
            continue
        match = _DIRECTIVE_RE.match(line)
        if not match:
            raise ParseError(f"unrecognized line {line.strip()!r}", line_no)
        keyword, args, column = match.group(1), match.group(2), match.start(2) + 1
        if keyword in ("source", "target"):
            _header(headers, (keyword,), line_no)
        if keyword == "source":
            source = _parse_dims(args, line_no)
            src_builder = _DomainBuilder(source)
        elif keyword == "target":
            target = _parse_dims(args, line_no)
            tgt_builder = _DomainBuilder(target)
        elif keyword in ("box", "exclude"):
            if src_builder is None:
                raise ParseError("domain directive before the source line", line_no)
            src_builder.directive(keyword, args, line_no, column)
        elif keyword in ("target_box", "target_exclude"):
            if tgt_builder is None:
                raise ParseError("target domain directive before the target line", line_no)
            tgt_builder.directive(keyword.removeprefix("target_"), args, line_no, column)
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
    for cid in sorted(data.charts):
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
    transition_rows: dict[tuple[str, str], dict[tuple[str, int], tuple[str, int, int]]] = {}
    section = None  # ('chart', id) | ('overlap', i, j) | ('transition', i, j)
    headers: dict[tuple, int] = {}

    for line_no, line in _meaningful_lines(text):
        match = _DIRECTIVE_RE.match(line)
        keyword = match.group(1) if match else None
        if keyword == "chart":
            parts = match.group(2).split()
            if len(parts) != 2:
                raise ParseError("usage: chart <id> <p>|<q>", line_no)
            cid = parts[0]
            section = _header(headers, ("chart", cid), line_no)
            charts[cid] = _parse_dims(parts[1], line_no)
            chart_builders[cid] = _DomainBuilder(charts[cid])
            continue
        if keyword in ("overlap", "transition"):
            parts = match.group(2).split()
            if len(parts) != 2:
                raise ParseError(f"usage: {keyword} <i> <j>", line_no)
            i, j = parts
            for cid in (i, j):
                if cid not in charts:
                    raise ParseError(f"unknown chart {cid!r}", line_no)
            section = _header(headers, (keyword, i, j), line_no)
            if keyword == "overlap":
                overlap_builders[(i, j)] = _DomainBuilder(charts[i])
            else:
                transition_rows[(i, j)] = {}
            continue
        if section is None:
            raise ParseError(f"line outside any section: {line.strip()!r}", line_no)
        if section[0] in ("chart", "overlap"):
            builder = (chart_builders[section[1]] if section[0] == "chart"
                       else overlap_builders[section[1:]])
            if not (match and builder.directive(keyword, match.group(2), line_no,
                                                match.start(2) + 1)):
                raise ParseError(f"bad {section[0]} directive {line.strip()!r}", line_no)
        else:
            assign = _ASSIGN_RE.match(line)
            var = assign and _VAR_RE_TARGET.match(assign.group(1))
            if not var:
                raise ParseError(
                    f"expected y/h assignment in transition, got {line.strip()!r}", line_no)
            _assign(transition_rows[section[1:]], var, assign, line_no)

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
