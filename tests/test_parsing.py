import random
import time
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superskel import parsing, randgen
from superskel.errors import ParseError, SuperskelError
from superskel.grassmann import GrassmannElement as G
from superskel.poly import Polynomial
from superskel.spaces import DeWittDomain, SuperSpace
from superskel.superfn import SuperFunction

S12 = SuperSpace(1, 2)
S33 = SuperSpace(3, 3)


def test_expression_examples():
    f = parsing.parse_superfunction("x1^2 + x1*t1*t2", S12)
    assert len(f.terms) == 2
    assert f.is_even()

    g = parsing.parse_superfunction("t2*t1", SuperSpace(0, 2))
    assert g.format() == "-1*t1*t2"

    z = parsing.parse_superfunction("t1*t1", SuperSpace(0, 2))
    assert z.is_zero()


def test_division_validation():
    with pytest.raises(ParseError) as err:
        parsing.parse_superfunction("1/t1", SuperSpace(0, 1))
    assert "invertible" in str(err.value)
    ok = parsing.parse_superfunction("1/(2 + t1*t2)", SuperSpace(0, 2))
    one = SuperFunction.constant(SuperSpace(0, 2), 1)
    assert ok * parsing.parse_superfunction("2 + t1*t2", SuperSpace(0, 2)) == one


def test_positions_in_errors():
    with pytest.raises(ParseError) as err:
        parsing.parse_superfunction("x1 + * 2", SuperSpace(1, 0))
    assert err.value.line == 1 and err.value.column == 6
    with pytest.raises(ParseError):
        parsing.parse_grassmann("g1 @ g2", 2)
    with pytest.raises(ParseError):
        parsing.parse_grassmann("g9", 2)
    with pytest.raises(ParseError):
        parsing.parse_superfunction("x1 x1 +", SuperSpace(1, 0))
    # a term's atoms fold into one monomial; an atom or a division is still
    # refused at its own column, with the value context's own message
    s11, s22 = SuperSpace(1, 1), SuperSpace(2, 2)
    for parse, text, message, column in (
            (partial(parsing.parse_superfunction, space=s11), "x1 + 1/0",
             "body coefficient is identically zero", 7),
            (partial(parsing.parse_grassmann, rank=1), "g1 + 1/0",
             "element has zero body, hence no inverse", 7),
            (partial(parsing.parse_body_polynomial, nvars=1), "x1 + 1/0", "division by zero", 7),
            (partial(parsing.parse_superfunction, space=s22), "x3*t1",
             "no even coordinate x3 on SuperSpace(2|2)", 1),
            (partial(parsing.parse_superfunction, space=s22), "2*t3",
             "no odd coordinate t3 on SuperSpace(2|2)", 3),
            (partial(parsing.parse_superfunction, space=s22), "g1",
             "generators are not allowed in coordinate expressions", 1),
            (partial(parsing.parse_superfunction, space=s11), "x1/t1",
             "only even superfunctions are invertible", 3)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, 1, column), text


# -- the parser against operator arithmetic -----------------------------------
# An expression tree is drawn once and read in all three value contexts: its
# text must parse to the value the ring operators give for the tree, and where
# those raise, the parse must raise ParseError with the same message.  A
# variable leaf is a slot 0..5, named per context.

_NAMES = {"superfunction": ("x1", "x2", "x3", "t1", "t2", "t3"),
          "grassmann": ("g1", "g2", "g3") * 2,
          "polynomial": ("x1", "x2", "x3") * 2}
_PARSE = {"superfunction": lambda text: parsing.parse_superfunction(text, S33),
          "grassmann": lambda text: parsing.parse_grassmann(text, 3),
          "polynomial": lambda text: parsing.parse_body_polynomial(text, 3)}
_NUMBER = {"superfunction": lambda n: SuperFunction.constant(S33, n),
           "grassmann": lambda n: G.scalar(3, n),
           "polynomial": lambda n: Polynomial.constant(3, n)}
_VARIABLE = {"superfunction": lambda s: (SuperFunction.even_coordinate(S33, s + 1) if s < 3
                                         else SuperFunction.odd_coordinate(S33, s - 2)),
             "grassmann": lambda s: G.generator(3, s % 3 + 1),
             "polynomial": lambda s: Polynomial.variable(3, s % 3)}


def _num(n):
    return ("num", n)


def _var(slot):
    return ("var", slot)


def _is_var_atom(tree):
    return tree[0] == "var" or tree[0] == "pow" and tree[1][0] == "var"


def _render(tree, names):
    """(text, precedence) of a tree: 0 for an atom, 1 for a power, 2 for a
    factor (unary minus, juxtaposition), 3 for a term, 4 for a sum."""
    kind = tree[0]

    def wrapped(sub, above):
        text, level = _render(sub, names)
        return f"({text})" if level > above else text

    if kind == "num":
        return str(tree[1]), 0
    if kind == "var":
        return names[tree[1]], 0
    if kind == "paren":
        return f"({_render(tree[1], names)[0]})", 0
    if kind == "pow":
        return f"{wrapped(tree[1], 0)}^{tree[2]}", 1
    if kind == "neg":
        text = wrapped(tree[1], 2)
        return f"-({text})" if text.startswith("-") else f"-{text}", 2
    if kind == "mul":
        a, b, sep = tree[1:]
        if sep in (" ", "") and _is_var_atom(b):  # juxtaposition
            left, level = _render(a, names)
            if level == 4 or a[0] == "div":  # a divisor would take b in
                left, level = f"({left})", 0
            return left + sep + _render(b, names)[0], max(level, 2)
        sep = sep if "*" in sep else "*"
        return wrapped(a, 3) + sep + wrapped(b, 2), 3
    if kind == "div":
        return f"{wrapped(tree[1], 3)}/{wrapped(tree[2], 2)}", 3
    return f"{_render(tree[1], names)[0]} {tree[3]} {wrapped(tree[2], 3)}", 4


def _evaluate(tree, context):
    kind = tree[0]
    if kind == "num":
        return _NUMBER[context](tree[1])
    if kind == "var":
        return _VARIABLE[context](tree[1])
    if kind in ("paren", "neg", "pow"):
        value = _evaluate(tree[1], context)
        return value if kind == "paren" else -value if kind == "neg" else value ** tree[2]
    a, b = _evaluate(tree[1], context), _evaluate(tree[2], context)
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    return a + b if tree[3] == "+" else a - b


_ATOM = st.one_of(st.integers(0, 12).map(_num), st.integers(0, 5).map(_var))
_LEAF = st.one_of(_ATOM, st.tuples(st.just("pow"), _ATOM, st.integers(0, 4)))


def _trees(depth):
    if depth == 0:
        return _LEAF
    sub = _trees(depth - 1)
    divisor = st.one_of(st.integers(0, 12).map(_num), st.integers(0, 5).map(_var),
                        st.tuples(st.just("paren"), st.tuples(st.just("add"), sub, sub,
                                                              st.sampled_from("+-"))),
                        sub)
    return st.one_of(_LEAF,
                     st.tuples(st.just("neg"), sub),
                     st.tuples(st.just("pow"), sub, st.integers(0, 4)),
                     st.tuples(st.just("mul"), sub, sub, st.sampled_from(["*", " * ", " ", ""])),
                     st.tuples(st.just("div"), sub, divisor),
                     st.tuples(st.just("add"), sub, sub, st.sampled_from("+-")),
                     st.tuples(st.just("paren"), sub))


@settings(max_examples=300, deadline=None)
@given(_trees(3))
@example(("mul", _var(4), _var(3), "*"))                                    # t2*t1
@example(("mul", ("mul", _var(3), _var(4), "*"), _var(3), "*"))             # t1*t2*t1
@example(("pow", _var(3), 2))                                               # t1^2
@example(("pow", _var(3), 0))                                               # t1^0
@example(("mul", ("mul", ("mul", _num(2), _var(0), " "), _var(4), " "), _var(3), " "))
@example(("mul", _var(0), ("neg", _num(2)), " * "))                         # x1 * -2
@example(("add", ("mul", ("div", ("neg", _num(3)), _num(2)), _num(1), "*"),
          ("mul", _num(2), ("mul", _var(5), _var(3), ""), "*"), "-"))       # -3/2*1 - 2*g3g1
def test_parse_equals_operator_evaluation(tree):
    for context, names in _NAMES.items():
        text = _render(tree, names)[0]
        try:
            expected = _evaluate(tree, context)
        except SuperskelError as exc:
            with pytest.raises(ParseError) as err:
                _PARSE[context](text)
            assert err.value.message == str(exc), (context, text)
            continue
        value = _PARSE[context](text)
        assert value == expected and value.format() == expected.format(), (context, text)
        if context == "superfunction":
            assert value.domain.excluded == expected.domain.excluded, text


# -- long flat sums --------------------------------------------------------------
# An expression's monomial terms are summed at once, and its terms with a ring
# part (a parenthesis, a division by a non-number) are added after them.  A
# flat sum of up to 40 terms, drawn once and read in all three contexts, must
# give the value, the printed form and the excluded zero sets of the operator
# sum in reading order.  A monomial is (coefficient n/d or None, atoms
# (slot, exponent), separator); slots repeat and come in any order.

_MONOMIALS = st.tuples(
    st.one_of(st.none(), st.tuples(st.integers(0, 12), st.sampled_from([1, 1, 2, 3, 7]))),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2)), max_size=4),
    st.sampled_from(["*", " * ", " ", ""]))


@st.composite
def _flat_sums(draw):
    """[(sign, term)]: a term is ("monomial", m), ("paren", m1, op, m2, m3)
    for (m1 op m2)*m3, or ("div", m, c, slot) for m/(c + slot^2); some sums
    have no division, so the polynomial context reads them too."""
    kinds = ["monomial"] * 6 + ["paren"] + ["div"] * draw(st.integers(0, 1))
    terms = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "monomial":
            term = (kind, draw(_MONOMIALS))
        elif kind == "paren":
            term = (kind, draw(_MONOMIALS), draw(st.sampled_from("+-")),
                    draw(_MONOMIALS), draw(_MONOMIALS))
        else:
            term = (kind, draw(_MONOMIALS), draw(st.integers(1, 3)), draw(st.integers(0, 2)))
        terms.append((draw(st.sampled_from("+-")), term))
    return terms


def _monomial_text(monomial, names):
    coeff, atoms, sep = monomial
    parts = [] if coeff is None else [str(coeff[0]) if coeff[1] == 1 else f"{coeff[0]}/{coeff[1]}"]
    if atoms:
        parts.append(sep.join(names[slot] + ("" if k == 1 else f"^{k}") for slot, k in atoms))
    return "*".join(parts) or "1"


def _monomial_value(monomial, context):
    coeff, atoms, _ = monomial
    value = _NUMBER[context](1 if coeff is None else F(*coeff))
    for slot, k in atoms:
        value = value * _VARIABLE[context](slot) ** k
    return value


def _term_text(term, names):
    text = partial(_monomial_text, names=names)
    if term[0] == "monomial":
        return text(term[1])
    if term[0] == "paren":
        return f"({text(term[1])} {term[2]} {text(term[3])})*{text(term[4])}"
    return f"{text(term[1])}/({term[2]} + {names[term[3]]}^2)"


def _term_value(term, context):
    value = partial(_monomial_value, context=context)
    if term[0] == "monomial":
        return value(term[1])
    if term[0] == "paren":
        a, b = value(term[1]), value(term[3])
        return (a + b if term[2] == "+" else a - b) * value(term[4])
    return value(term[1]) / (_NUMBER[context](term[2]) + _VARIABLE[context](term[3]) ** 2)


def _sum_text(terms, names):
    (sign, first), rest = terms[0], terms[1:]
    text = ("-" if sign == "-" else "") + _term_text(first, names)
    return text + "".join(f" {sign} {_term_text(term, names)}" for sign, term in rest)


def _sum_value(terms, context):
    value = None
    for sign, term in terms:
        term = _term_value(term, context)
        if value is None:
            value = -term if sign == "-" else term
        else:
            value = value - term if sign == "-" else value + term
    return value


@settings(max_examples=150, deadline=None)
@given(_flat_sums())
@example([("+", ("monomial", (None, [(0, 1), (3, 1)], ""))),
          ("-", ("monomial", (None, [(3, 1), (0, 1)], "")))])      # x1t1 - t1x1
@example([("+", ("div", ((1, 1), [], "*"), 1, 0)),
          ("+", ("monomial", (None, [(0, 1)], "*"))),
          ("-", ("monomial", (None, [(0, 1)], "*")))])             # 1/(1 + x1^2) + x1 - x1
def test_long_sums_equal_operator_sums(terms):
    for context, names in _NAMES.items():
        text = _sum_text(terms, names)
        try:
            expected = _sum_value(terms, context)
        except SuperskelError as exc:
            with pytest.raises(ParseError) as err:
                _PARSE[context](text)
            assert err.value.message == str(exc), (context, text)
            continue
        value = _PARSE[context](text)
        assert value == expected and value.format() == expected.format(), (context, text)
        if context == "superfunction":
            assert value.domain.excluded == expected.domain.excluded, text


def test_summed_terms_pinned():
    s11, s10 = SuperSpace(1, 1), SuperSpace(1, 0)
    for value in (parsing.parse_superfunction("x1t1 - t1x1", s11),
                  parsing.parse_grassmann("g1g2 + g2g1", 2),
                  parsing.parse_superfunction("(x1+1)*t1 - x1*t1 - t1", s11)):
        assert value.is_zero() and value.format() == "0"
    # the ring term keeps its excluded zero set when the monomials cancel
    value = parsing.parse_superfunction("1/(1+x1^2) + x1 - x1", s10)
    x1 = SuperFunction.even_coordinate(s10, 1)
    expected = SuperFunction.constant(s10, 1) / (1 + x1 ** 2)
    assert value == expected and value.format() == expected.format()
    assert value.domain.excluded == expected.domain.excluded == (Polynomial(1, {(2,): 1, (0,): 1}),)
    # a fault in a later term is reported at its own column
    with pytest.raises(ParseError) as err:
        parsing.parse_superfunction("x1 + x1 + t9", s11)
    assert (err.value.message, err.value.line, err.value.column) == \
        ("no odd coordinate t9 on SuperSpace(1|1)", 1, 11)


def test_rendered_examples():
    """The pinned examples above render to the texts they stand for."""
    for tree, context, text in (
            (("mul", ("mul", ("mul", _num(2), _var(0), " "), _var(4), " "), _var(3), " "),
             "superfunction", "2 x1 t2 t1"),
            (("mul", _var(0), ("neg", _num(2)), " * "), "polynomial", "x1 * -2"),
            (("add", ("mul", ("div", ("neg", _num(3)), _num(2)), _num(1), "*"),
              ("mul", _num(2), ("mul", _var(5), _var(3), ""), "*"), "-"),
             "grassmann", "-3/2*1 - 2*g3g1")):
        assert _render(tree, _NAMES[context])[0] == text


def test_grassmann_format_spec():
    value = G.scalar(3, 2) + G.monomial(3, (1, 2))
    assert value.format() == "2*1 + 1*g1g2"
    assert G.zero(3).format() == "0"
    assert (-G.monomial(3, (1,), F(1, 2))).format() == "-1/2*g1"
    assert parsing.parse_grassmann("2*1 + 1*g1g2", 3) == value


def test_superfunction_format_spec():
    minus = parsing.parse_superfunction("t2*t1", SuperSpace(0, 2))
    assert minus.format() == "-1*t1*t2"
    assert SuperFunction.zero(S12).format() == "0"


def test_round_trip_many_values():
    rng = random.Random(42)
    for case in range(200):
        kind = case % 3
        if kind == 0:
            rank = rng.randint(0, 6)
            value = randgen.random_grassmann(rng, rank, terms=4)
            assert parsing.parse_grassmann(value.format(), rank) == value
        elif kind == 1:
            space = randgen.random_spaces(rng, 3, 3)
            value = randgen.random_superfunction(rng, space, degree=3, terms=4,
                                                 rational=case % 6 == 0)
            assert parsing.parse_superfunction(value.format(), space) == value
        else:
            space = randgen.random_spaces(rng, 2, 2)
            value = randgen.random_point(rng, space, rng.randint(0, 5))
            assert parsing.parse_point_file(parsing.format_point(value), space) == value


def test_point_file_features():
    text = """
# a comment
rank 3
x1 = 2*1 + 1*g1g2
t1 = 1*g3
"""
    point = parsing.parse_point_file(text, SuperSpace(1, 1))
    assert point.rank == 3
    assert point.even_values[0] == G.scalar(3, 2) + G.monomial(3, (1, 2))
    # rank inferred from generators when not declared
    inferred = parsing.parse_point_file("x1 = 1*g1g2\n", SuperSpace(1, 0))
    assert inferred.rank == 2
    # missing coordinates default to zero
    sparse = parsing.parse_point_file("rank 2\nx1 = 1*1\n", SuperSpace(1, 2))
    assert sparse.odd_values == (G.zero(2), G.zero(2))
    with pytest.raises(ParseError):
        parsing.parse_point_file("x1 = 1*g1\nbogus line\n", SuperSpace(1, 0))
    with pytest.raises(ParseError):
        parsing.parse_point_file("t1 = 1*1\n", SuperSpace(0, 1))  # parity violation
    with pytest.raises(ParseError) as err:
        parsing.parse_point_file("x1 = 1*1\nx1 = 2*1\n", SuperSpace(1, 0))
    assert err.value.line == 2 and "repeated" in str(err.value)
    for text, line, message in (("rank 2\nrank 3\nx1 = 1*1\n", 2, "repeated rank"),
                                ("x1 = 1*1\nrank -1\n", 2, "non-negative"),
                                ("rank 9\nx1 = 1*1\n", 1, "exceeds the cap")):
        with pytest.raises(ParseError) as err:
            parsing.parse_point_file(text, SuperSpace(1, 0))
        assert err.value.line == line and message in str(err.value), text


def test_skeleton_file_round_trip_and_domains():
    text = """\
source 1|2
target 1|0
box 0 inf
exclude x1 - 1
y1 = x1^2 + 2*x1*t1*t2
"""
    skeleton = parsing.parse_skeleton_file(text)
    assert skeleton.source_space == S12
    assert skeleton.target_space == SuperSpace(1, 0)
    assert skeleton.source_domain.boxes == (((F(0), None),),)
    assert skeleton.source_domain.excluded == (Polynomial.variable(1, 0) - 1,)
    assert parsing.format_skeleton(skeleton) == text
    again = parsing.parse_skeleton_file(parsing.format_skeleton(skeleton))
    assert all(a == b for a, b in zip(again.components, skeleton.components))


def test_multi_box_domain_round_trip():
    text = """\
source 2|0
target 1|0
box 0 1 -inf inf
box 5 9 0 inf
exclude x1 - 1/2
y1 = x1 + x2
"""
    skeleton = parsing.parse_skeleton_file(text)
    assert len(skeleton.source_domain.boxes) == 2
    assert parsing.format_skeleton(skeleton) == text
    again = parsing.parse_skeleton_file(parsing.format_skeleton(skeleton))
    assert again.source_domain == skeleton.source_domain


def test_exclude_lines_print_monic():
    """Excluded polynomials are stored monic and constants are dropped, so
    the printed file is the normalized one, and it reads back unchanged."""
    text = "source 1|0\ntarget 1|0\nexclude 2*x1 - 2\nexclude 5\ny1 = x1\n"
    printed = parsing.format_skeleton(parsing.parse_skeleton_file(text))
    assert printed == "source 1|0\ntarget 1|0\nexclude x1 - 1\ny1 = x1\n"
    assert parsing.format_skeleton(parsing.parse_skeleton_file(printed)) == printed


def test_many_exclude_lines_parse_once():
    """Each exclude line is validated on its own and the domain is built
    once, so 500 lines parse quickly, in a skeleton file and in a manifold
    overlap, to the domain of one constructor call."""
    space = SuperSpace(2, 0)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    polys = [x1 ** 2 + k * x2 - 1 for k in range(1, 501)]
    expected = DeWittDomain(space, DeWittDomain.full(space).boxes, polys)
    lines = "".join(f"exclude {poly.format()}\n" for poly in polys)
    for parse, text, domain in (
            (parsing.parse_skeleton_file, "source 2|0\ntarget 1|0\n" + lines + "y1 = x1\n",
             lambda skeleton: skeleton.source_domain),
            (parsing.parse_manifold_file, "chart A 2|0\nchart B 2|0\noverlap A B\n" + lines,
             lambda data: data.overlaps[("A", "B")])):
        start = time.perf_counter()
        parsed = domain(parse(text))
        assert time.perf_counter() - start < 2
        assert parsed == expected and parsed.excluded == tuple(polys)


def test_many_box_lines_parse_once():
    """2000 box lines, none inside another, parse quickly to all 2000 boxes
    in file order: squares apart on both axes, and strips that share their
    first interval, in a skeleton file and in a manifold overlap."""
    squares = [((F(2 * k), F(2 * k + 1)),) * 2 for k in range(2000)]
    strips = [((None, None), (F(2 * k), F(2 * k + 1))) for k in range(2000)]
    for boxes in (squares, strips):
        lines = "".join("box " + " ".join(f"{'-inf' if lo is None else lo} {'inf' if hi is None else hi}"
                                          for lo, hi in box) + "\n" for box in boxes)
        for parse, text, domain in (
                (parsing.parse_skeleton_file, "source 2|0\ntarget 1|0\n" + lines + "y1 = x1\n",
                 lambda skeleton: skeleton.source_domain),
                (parsing.parse_manifold_file, "chart A 2|0\nchart B 2|0\noverlap A B\n" + lines,
                 lambda data: data.overlaps[("A", "B")])):
            start = time.perf_counter()
            parsed = domain(parse(text))
            assert time.perf_counter() - start < 2
            assert parsed.boxes == tuple(boxes)


def test_file_errors_count_columns_from_the_line():
    """In a file, an error's column counts from the start of its line; a
    direct expression parse counts from the start of its text."""
    head = "source 1|0\ntarget 1|0\n"
    for parse, text, line, column in (
            (parsing.parse_skeleton_file, head + "box 0 1e5\ny1 = x1\n", 3, 7),
            (parsing.parse_skeleton_file, head + "y1 = x1 + $\n", 3, 11),
            (parsing.parse_skeleton_file, head + "y1 = x1 + x9\n", 3, 11),
            (parsing.parse_skeleton_file, head + "exclude x1 + $\ny1 = x1\n", 3, 14),
            (lambda text: parsing.parse_point_file(text, SuperSpace(1, 0)),
             "rank 2\n  x1 = 1 + g3\n", 2, 12),
            (parsing.parse_manifold_file, "chart A 1|0\ntransition A A\ny1 = x1 * x2\n",
             3, 11)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column), text
    with pytest.raises(ParseError) as err:
        parsing.parse_superfunction("x1 + x9", SuperSpace(1, 0))
    assert (err.value.line, err.value.column) == (1, 6)


def test_bounds_are_grammar_literals():
    """Box bounds are ``inf`` or the grammar's integer and fraction literals;
    every bound the printer writes reads back."""
    for value in (F(0), F(5), F(-3, 2), F(7, 4), F(10) ** 3999):
        assert parsing.parse_bound(parsing._number_text(value), 1, 1) == value
    assert parsing.parse_bound("+7/4", 1, 1) == F(7, 4)
    assert [parsing.parse_bound(t, 1, 1) for t in ("inf", "+inf", "-inf")] == [None] * 3
    for token in ("1e5", "1e1000000", "1.5", "1/0", "0x10", "1/-2", "7" * 4001):
        with pytest.raises(ParseError):
            parsing.parse_bound(token, 1, 1)


def test_powers_obey_the_literal_cap():
    """A number written as a power obeys the cap of one written out: a power
    whose lex-leading or lex-trailing coefficient would pass
    MAX_LITERAL_DIGITS is refused at its ``^`` before anything is computed,
    in every value context."""
    head = "source 1|0\ntarget 1|0\n"
    start = time.perf_counter()
    for text, column in (("y1 = 3^10000000*x1", 7), ("y1 = x1 + (2*x1)^99999999999", 17),
                         ("y1 = x1/10^4000", 11), ("y1 = (x1/3)^8400", 12),
                         ("y1 = (x1 + 3)^9000", 14), ("y1 = 1/(x1 + 3)^9000", 16)):
        with pytest.raises(ParseError) as err:
            parsing.parse_skeleton_file(head + text + "\n")
        assert (err.value.line, err.value.column) == (3, column), text
        assert "longer than 4000 digits" in err.value.message
    for parse in (lambda text: parsing.parse_grassmann(text, 2),
                  lambda text: parsing.parse_superfunction(text, SuperSpace(1, 2)),
                  lambda text: parsing.parse_body_polynomial(text, 1)):
        with pytest.raises(ParseError):
            parse("(1/3 + 0)^10000")
        assert parse("(1/3 + 0)^8000") == parse("1/3^8000")
    assert time.perf_counter() - start < 1
    # at the cap: 10^3999 has 4000 digits, 3^8383 has 4000 and 3^8384 4001
    skeleton = parsing.parse_skeleton_file(head + "y1 = 10^3999*x1 + x1^1000000000\n")
    assert skeleton.components[0].coefficient(()).num.terms == {
        (1,): F(10) ** 3999, (1000000000,): F(1)}
    assert parsing.parse_body_polynomial("3^8383", 1) == 3 ** 8383
    with pytest.raises(ParseError):
        parsing.parse_body_polynomial("3^8384", 1)
    # a nilpotent base has no body to grow: its powers vanish
    assert parsing.parse_grassmann("(2*g1g2)^10000000", 2) == G.scalar(2, 0)


def test_body_polynomial_directives():
    poly = parsing.parse_body_polynomial("x1/2 - 1", 1)
    assert poly == Polynomial.variable(1, 0) * F(1, 2) - 1
    with pytest.raises(ParseError):
        parsing.parse_body_polynomial("1/x1", 1)  # nonconstant divisor
    with pytest.raises(ParseError):
        parsing.parse_body_polynomial("t1", 1)  # odd variables not allowed


def test_skeleton_file_errors():
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("target 1|0\ny1 = 1\n")  # no source
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\n")  # missing y1
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|1\ntarget 1|0\ny1 = t1\n")  # parity
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|0\ntarget 0|1\nh1 = x1\n")  # parity
    with pytest.raises(ParseError):
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\ny1 = x2\n")  # range
    with pytest.raises(ParseError) as err:
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\ny1 = x1\ny1 = x1^2\n")
    assert err.value.line == 4 and "repeated" in str(err.value)
    with pytest.raises(ParseError) as err:
        parsing.parse_skeleton_file("source 1|0\ntarget 1|0\ny1 = x1\nh3 = x1\n")
    assert err.value.line == 4 and "exceeds" in str(err.value)
    # single-valued headers may not repeat; bad domain lines name their line
    for text, line, message in (
            ("source 1|0\nbox 0 1\nsource 1|0\ntarget 1|0\ny1 = x1\n", 3, "repeated source"),
            ("source 1|0\ntarget 1|0\ntarget 1|0\ny1 = x1\n", 3, "repeated target"),
            ("source 1|0\ntarget 1|0\nbox 1 0\ny1 = x1\n", 3, "empty interval"),
            ("source 1|0\ntarget 1|0\nexclude 0\ny1 = x1\n", 3, "zero polynomial"),
            ("source 1|0\ntarget 1|0\ntarget_box 0 1\ntarget_box 2 2\ny1 = x1\n", 4,
             "empty interval")):
        with pytest.raises(ParseError) as err:
            parsing.parse_skeleton_file(text)
        assert err.value.line == line and message in str(err.value), text


def test_skeleton_random_round_trip():
    rng = random.Random(43)
    for case in range(40):
        src = randgen.random_spaces(rng, 2, 2)
        tgt = randgen.random_spaces(rng, 2, 2)
        domain = DeWittDomain.full(src)
        if case % 3 == 0 and src.even_dim:
            domain = DeWittDomain.box(
                src, *[(F(-2), F(2))] * src.even_dim).with_excluded(
                [Polynomial.variable(src.even_dim, 0)])
        f = randgen.random_skeleton(rng, src, tgt, degree=3,
                                    rational=case % 4 == 0, domain=domain)
        text = parsing.format_skeleton(f)
        back = parsing.parse_skeleton_file(text)
        assert all(a == b for a, b in zip(back.components, f.components))
        assert back.source_domain == f.source_domain
        assert parsing.format_skeleton(back) == text


def test_manifold_file_round_trip():
    from superskel.atlas import check_cocycle, projective_superline

    line = projective_superline()
    text = parsing.format_manifold(line)
    back = parsing.parse_manifold_file(text)
    assert parsing.format_manifold(back) == text
    assert check_cocycle(back, random.Random(0), samples=8, rank=3).ok
    assert back.overlaps[("A", "B")].excluded == (Polynomial.variable(1, 0),)


def test_manifold_file_errors():
    with pytest.raises(ParseError):
        parsing.parse_manifold_file("overlap A B\n")  # unknown charts
    with pytest.raises(ParseError):
        parsing.parse_manifold_file("chart A 1|1\ntransition A A\ny1 = x1\n")  # missing h1
    with pytest.raises(ParseError):
        parsing.parse_manifold_file("box 0 1\n")  # directive outside any section
    # components beyond the target dimensions, as in skeleton files
    for extra, line in (("y2 = x1^2\n", 4), ("h3 = x1\n", 4)):
        with pytest.raises(ParseError) as err:
            parsing.parse_manifold_file("chart A 1|0\ntransition A A\ny1 = x1\n" + extra)
        assert err.value.line == line and "exceeds" in str(err.value)
    with pytest.raises(ParseError) as err:
        parsing.parse_manifold_file("chart A 1|0\ntransition A A\ny1 = x1\ny1 = x1\n")
    assert err.value.line == 4 and "repeated" in str(err.value)
    with pytest.raises(ParseError) as err:
        parsing.parse_manifold_file("chart A 1|1\ntransition A A\ny1 = x1\nh1 = x1\n")
    assert err.value.line == 4 and "parity-odd" in str(err.value)
    # a repeated section header would silently replace the earlier section
    two = "chart A 1|0\nchart B 1|0\n"
    for text, line, message in (
            ("chart A 1|0\nbox 0 1\nchart A 1|0\n", 3, "repeated chart A"),
            (two + "overlap A B\nbox 0 1\noverlap A B\n", 5, "repeated overlap A B"),
            (two + "transition A B\ny1 = x1\ntransition B A\ny1 = x1\n"
             "transition A B\ny1 = x1 + 1\n", 7, "repeated transition A B"),
            ("chart A 1|0\nbox 1 0\n", 2, "empty interval"),
            (two + "overlap A B\nexclude 0\n", 4, "zero polynomial")):
        with pytest.raises(ParseError) as err:
            parsing.parse_manifold_file(text)
        assert err.value.line == line and message in str(err.value), text
