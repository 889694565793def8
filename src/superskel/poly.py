"""Sparse multivariate polynomials and rational functions over exact rationals.

These are the coefficient functions of superfunctions: every even coordinate
dependency is a quotient of polynomials with rational coefficients, so every
identity in the library is decidable by exact arithmetic.  A polynomial is
stored as a positive rational content times a primitive integer part (int
coefficients with gcd 1), so its kernels run on plain ints: a product
multiplies the integer parts and the two contents (Gauss's lemma: the
product of primitive polynomials is primitive), scaling by a rational
changes only the content, and GCDHEU and exact division read the integer
parts as stored.  ``Polynomial.terms`` is a Fraction view built on each
read.  A rational function keeps its denominator as a coprime base of monic
factors with multiplicities, and its numerator coprime to each factor.  Greatest common
divisors come from the heuristic GCDHEU (``Polynomial.gcd``), whose every
candidate is checked by exact division, after one trial division
(``Polynomial.exact_quotient``) for the common case of an argument that
divides the other; when GCDHEU gives up, the affected factor is kept
whole, so a value is never wrong, only possibly not in lowest terms.
Within one composition call (``_gcd_memo``, entered by ``compose_subst``
and ``compose_formula``, each with its own) each gcd question and each
coprime base of two factor lists is decided once and then looked up by
value; nothing is kept across calls.
Equality compares numerators over equal factor lists and otherwise
tests whether the difference is zero.

This bottom layer also holds the sparse-term kernel behind every finite sum
in the library, with its one reader, its one power and its one integer
accumulation (``_add_multiple``).  Only public constructors validate
outside input, and ``Polynomial`` and ``GrassmannElement`` read it with
``_read_numerators``: int numerators over the lcm of the denominators, with
integer keys.  Internal results are built by the kernel and handed to a
trusted ``_make``.  ``_power``, the one square-and-multiply, is behind every
``**`` and the point evaluator's powers.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from fractions import Fraction
from operator import add as _add, index as _index

from .errors import DigitCapError, DomainError, NotInvertibleError, SuperskelError

_ONE = Fraction(1)

# The parser refuses integer literals longer than this, below Python's own
# int-to-text limit (sys.get_int_max_str_digits(), 4300 by default); printed
# numbers obey the same cap, so every output parses back.
MAX_LITERAL_DIGITS = 4000
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS
_LITERAL_BITS = _LITERAL_BOUND.bit_length()


def _power_over_cap(number, n: int) -> bool:
    """True when the numerator or denominator of ``number ** n`` (an int or
    Fraction) would be longer than ``MAX_LITERAL_DIGITS``, decided from n
    and bit lengths before anything large is computed: the cap that the
    parser and the point evaluator put on a power."""
    for part in number.as_integer_ratio():
        bits = abs(part).bit_length()
        # |part| ** n >= 2 ** (n (bits - 1)); when that is below the bound,
        # |part| ** n < 2 ** (2 n (bits - 1)) has under twice its bits
        if bits > 1 and (n * (bits - 1) >= _LITERAL_BITS or abs(part) ** n >= _LITERAL_BOUND):
            return True
    return False


def _refuse_power(value, n: int) -> None:
    """Raise ``DigitCapError`` when ``value ** n`` is over the cap of
    ``_power_over_cap``."""
    if _power_over_cap(value, n):
        raise DigitCapError(f"a value raised to the power {n} would hold a number "
                            f"longer than {MAX_LITERAL_DIGITS} digits")


def _as_fraction(value):
    # int first: ``isinstance`` against Fraction, an abstract base class, is
    # slow for other types
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# -- sparse-term kernel ------------------------------------------------------
# A ``terms`` dict maps keys (exponent tuples of a polynomial's integer part,
# label tuples for Grassmann elements and superfunctions) to coefficients of
# a ring whose zero is falsy, in canonical form: each key once, no zero
# coefficient; ``__eq__``, ``__hash__`` and ``RationalFunction.__bool__``
# rely on it.  ``_accumulate`` updates a dict in place; the others return
# new ones.


def _accumulate(terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place, dropping the entry when it cancels."""
    old = terms.get(key)
    new = coeff if old is None else old + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def _numerators(terms: dict) -> tuple[dict, int]:
    """(ints, den) for a canonical dict of int or Fraction coefficients:
    each coefficient's numerator over ``den``, the lcm of the denominators."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return {k: c.numerator for k, c in terms.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _read_numerators(terms, key) -> tuple[dict, int]:
    """(ints, den) for the raw input of a public constructor, the one reader
    of ``Polynomial`` and ``GrassmannElement``: each nonzero coefficient's
    numerator over ``den``, the lcm of the denominators, under the key
    ``key(raw key)``, which validates it.  Coefficients must be ints or
    Fractions.  Numerators and the lcm come in one pass; only a denominator
    other than 1 costs a second, and two raw keys of one key (such as
    ``range(1, 3)`` and ``(1, 2)``) are summed in a pass of their own."""
    ints, dens = {}, []
    for raw, coeff in (terms or {}).items():
        if not isinstance(coeff, (int, Fraction)):
            raise TypeError(f"expected an exact rational, got {type(coeff).__name__}")
        n, d = coeff.as_integer_ratio()
        if not n:
            continue
        k = key(raw)
        if k in ints:
            merged = {}
            for raw, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff:
                    _accumulate(merged, key(raw), coeff)
            return _numerators(merged)
        ints[k] = n
        dens.append(d)
    den = math.lcm(*dens)
    if den != 1:
        ints = {k: n * (den // d) for (k, n), d in zip(ints.items(), dens)}
    return ints, den


def _add_multiple(total: dict, ints: dict, k: int) -> None:
    """total += k * ints in place for int coefficients and a nonzero int k,
    dropping the entries that cancel: the one integer accumulation behind
    every sum over a common denominator."""
    get = total.get
    for key, c in ints.items():
        new = get(key, 0) + c * k
        if new:
            total[key] = new
        else:
            del total[key]


def _sum(a: dict, b: dict) -> dict:
    terms = dict(a)
    for key, coeff in b.items():
        _accumulate(terms, key, coeff)
    return terms


def _negate(terms: dict) -> dict:
    return {k: -c for k, c in terms.items()}


def _scale(terms: dict, factor) -> dict:
    if not factor:
        return {}
    return {k: c * factor for k, c in terms.items()}


def _power(base, n, one):
    """``base ** n`` by square-and-multiply, in any ring with ``*``: the one
    power of the library, behind every ``__pow__``.  ``one`` is the ring's
    unit, returned for n = 0."""
    if not isinstance(n, int) or n < 0:
        raise SuperskelError("powers must be non-negative integers")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


# -- heuristic gcd -----------------------------------------------------------
# GCDHEU (Char, Geddes, Gonnet, J. Symb. Comput. 7, 1989; Geddes, Czapor,
# Labahn, *Algorithms for Computer Algebra*, ch. 7).  For primitive integer
# polynomials a, b and an integer xi >= 2 min(|a|, |b|) + 2 (max-norms), the
# primitive part G of the xi-adic reading of gcd(a(xi), b(xi)) is gcd(a, b)
# whenever G divides both; several variables are evaluated one at a time,
# recursively.  Integer polynomials are term dicts with int coefficients,
# such as the integer part ``Polynomial._ints``.

_HEU_TRIES = 6
# Give up when xi's bit length times the degree passes this, GCL's bound of
# 5000 decimal digits on the evaluated integers.
_HEU_MAX_BITS = 16000


def _evaluate_at(terms: dict, var: int, value) -> dict:
    """``terms`` with variable ``var`` replaced by ``value``, an int or a
    Fraction: GCDHEU's evaluation at xi, and ``Polynomial.partial_eval``."""
    out = {}
    for exps, coeff in terms.items():
        e = exps[var]
        if e:
            coeff *= value ** e
            exps = exps[:var] + (0,) + exps[var + 1:]
        _accumulate(out, exps, coeff)
    return out


def _xi_adic(ints: dict, var: int, xi: int) -> dict:
    """Read each coefficient's signed base-``xi`` digits as the coefficients
    of powers of variable ``var`` (the ``genpoly`` of GCDHEU)."""
    half = xi // 2
    out = {}
    for exps, coeff in ints.items():
        power = 0
        while coeff:
            coeff, digit = divmod(coeff, xi)
            if digit > half:
                digit -= xi
                coeff += 1
            if digit:
                out[exps[:var] + (power,) + exps[var + 1:]] = digit
            power += 1
    return out


def _lex_quotient(terms: dict, dterms: dict, room: int) -> dict | None:
    """terms / dterms for integer polynomials by lex leading-term division,
    or None when it is not exact: a quotient monomial is not a monomial of
    total degree at most ``room``, or a quotient coefficient is not an
    integer (for a primitive divisor, exactly when it does not divide over
    Q, by Gauss's lemma)."""
    dlead = max(dterms)
    dcoeff = dterms[dlead]
    rest = [(e, -c) for e, c in dterms.items() if e != dlead]
    rem = dict(terms)
    quotient = {}
    while rem:
        lead = max(rem)
        mono = tuple(a - b for a, b in zip(lead, dlead))
        if any(m < 0 for m in mono) or sum(mono) > room:
            return None
        coeff = rem.pop(lead)
        if dcoeff != 1:
            coeff, r = divmod(coeff, dcoeff)
            if r:
                return None
        quotient[mono] = coeff
        for e, c in rest:
            _accumulate(rem, tuple(a + b for a, b in zip(mono, e)), coeff * c)
    return quotient


def _heuristic_gcd(a: dict, b: dict, variables):
    """GCDHEU for nonzero integer polynomials in ``variables`` (a tuple of
    indices covering every variable that occurs): (g, qa, qb), where g is
    the gcd with its integer content and qa, qb are the primitive parts of
    a and b divided by g's primitive part; or None when GCDHEU gives up."""
    if not a or not b:  # a value can vanish at xi, below the top level
        return a or b, None, None
    ca, cb = math.gcd(*a.values()), math.gcd(*b.values())
    content = math.gcd(ca, cb)
    if ca != 1:
        a = {e: c // ca for e, c in a.items()}
    if cb != 1:
        b = {e: c // cb for e, c in b.items()}
    degree = 0
    while variables and not degree:
        var, variables = variables[0], variables[1:]
        degree = max(max([e[var] for e in a]), max([e[var] for e in b]))
    zero = (0,) * len(next(iter(a)))
    if not degree:  # two constants
        return {zero: content}, a, b
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * degree > _HEU_MAX_BITS:
            return None
        found = _heuristic_gcd(_evaluate_at(a, var, xi), _evaluate_at(b, var, xi),
                               variables)
        g = found and _xi_adic(found[0], var, xi)
        if g:
            if len(g) == 1 and zero in g:  # a constant divides both
                return {zero: content}, a, b
            g_content = math.gcd(*g.values())
            if g_content != 1:
                g = {e: c // g_content for e, c in g.items()}
            g_degree = max(map(sum, g))
            qa = _lex_quotient(a, g, max(map(sum, a)) - g_degree)
            qb = None if qa is None else _lex_quotient(b, g, max(map(sum, b)) - g_degree)
            if qb is not None:
                return (g if content == 1 else {e: c * content for e, c in g.items()}), qa, qb
        xi = xi * 73794 // 27011  # the next xi, as in GCL
    return None


def _coprime_at_one_value(a: dict, b: dict) -> bool:
    """True when one GCDHEU evaluation proves two univariate primitive
    integer polynomials coprime: every root of a common divisor is below
    1 + min(|a|, |b|) in size, so at xi = 2 min(|a|, |b|) + 2 a nonconstant
    common divisor exceeds xi / 2, and gcd(a(xi), b(xi)) <= xi / 2 proves
    gcd 1.  This runs for every rational function read."""
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    degree = max(max(a)[0], max(b)[0])
    if xi.bit_length() * degree > _HEU_MAX_BITS:
        return False
    common = 0
    for ints in (a, b):
        value = 0
        for (e, ), n in ints.items():
            value += n * xi ** e
        common = math.gcd(common, value)
    return common <= xi >> 1


# The gcd memo of the composition call in progress, or None outside one: a
# pair of dicts, the answers of ``_gcd_cofactors`` by (p, q) and those of
# ``_common_base`` by (fa, fb).  A context variable, so a second thread or
# an asynchronous task sees only the memo that it set itself.
_MEMO = contextvars.ContextVar("superskel_gcd_memo", default=None)
_MISSING = object()


@contextmanager
def _gcd_memo():
    """A fresh gcd memo for the block, dropped when it ends, by a return or
    a raise, and the enclosing memo (if any) restored.  ``compose_subst``
    and ``compose_formula`` each run in one of their own, so no answer
    passes from one call or route to another.  Memoised answers are shared,
    so they are immutable: polynomials, tuples and None."""
    token = _MEMO.set(({}, {}))
    try:
        yield
    finally:
        _MEMO.reset(token)


def _gcd_cofactors(p: "Polynomial", q: "Polynomial"):
    """(gcd, p / gcd, q / gcd) for nonzero polynomials, with the gcd monic
    and None in its place when it is 1, or None when GCDHEU gives up: the
    gcd that ``Polynomial.gcd`` returns, with the quotients its division
    check computed.  Inside ``_gcd_memo`` each (p, q) is decided once, by
    value; a coprime answer returns the arguments themselves."""
    memo = _MEMO.get()
    if memo is None:
        return _gcd_parts(p, q)
    answers = memo[0]
    parts = answers.get((p, q), _MISSING)
    if parts is _MISSING:
        parts = answers[p, q] = _gcd_parts(p, q)
    elif parts is not None and parts[0] is None:
        return None, p, q
    return parts


def _gcd_parts(p: "Polynomial", q: "Polynomial"):
    """``_gcd_cofactors`` without the memo.  Cheaper tests come first: a
    one-evaluation coprimality certificate for univariate pairs, constant
    arguments, and trial division of p by q.  GCDHEU reads the primitive
    integer parts as they are stored."""
    nvars = p.nvars
    a, b = p._ints, q._ints
    if nvars == 1 and _coprime_at_one_value(a, b):
        return None, p, q
    zero = (0,) * nvars
    if len(a) == 1 and zero in a or len(b) == 1 and zero in b:
        return None, p, q
    # q divides p in about 30% of the gcds of rational compositions, and trial
    # division settles those faster than GCDHEU: without this test the
    # compose-rational benchmark ran 8% slower (2-core VM, 5 run pairs)
    quotient = p.exact_quotient(q)
    if quotient is not None:
        lead, g = _monic(q)
        return g, quotient * lead if lead != 1 else quotient, Polynomial.constant(nvars, lead)
    found = _heuristic_gcd(a, b, (0,) if nvars == 1 else tuple(
        v for v in range(nvars) if any(e[v] for e in a) or any(e[v] for e in b)))
    if found is None:
        return None
    g, qa, qb = found
    if len(g) == 1 and zero in g:
        return None, p, q
    # a = g * qa and b = g * qb with all five primitive (Gauss's lemma); the
    # monic gcd is g / top, so p / gcd = content(p) * top * qa
    top = g[max(g)]
    if top < 0:
        top, g, qa, qb = -top, _negate(g), _negate(qa), _negate(qb)
    return (Polynomial._make(nvars, g, _ONE if top == 1 else Fraction(1, top)),
            Polynomial._make(nvars, qa, p._content * top if top != 1 else p._content),
            Polynomial._make(nvars, qb, q._content * top if top != 1 else q._content))


def _primitive(nvars: int, ints: dict, scale) -> "Polynomial":
    """``scale`` times an integer polynomial, for a dict of nonzero ints and
    a positive rational ``scale``: its content moves into ``scale``."""
    if not ints:
        return Polynomial._make(nvars, {})
    g = math.gcd(*ints.values())
    if g != 1:
        ints = {e: c // g for e, c in ints.items()}
        scale = scale * g
        if scale == 1:
            scale = _ONE
    return Polynomial._make(nvars, ints, scale)


def _combine(a: "Polynomial", b: "Polynomial", sign: int) -> "Polynomial":
    """a + sign * b, with both integer parts raised to one common
    denominator and the content of the common numerator taken out."""
    if not b._ints:
        return a
    if not a._ints:
        return b if sign > 0 else -b
    # ca = g (na/g) / da and cb = g (nb/g) / db over the common denominator
    # da db / h: the integer multipliers of a and b
    ca, cb = a._content, b._content
    na, da, nb, db = ca.numerator, ca.denominator, cb.numerator, cb.denominator
    g, h = math.gcd(na, nb), math.gcd(da, db)
    sa, sb = na // g * (db // h), sign * (nb // g) * (da // h)
    scale = Fraction(g, da // h * db)
    terms = dict(a._ints) if sa == 1 else {e: c * sa for e, c in a._ints.items()}
    _add_multiple(terms, b._ints, sb)
    return _primitive(a.nvars, terms, scale)


class Polynomial:
    """Polynomial in ``nvars`` commuting variables over the rationals.

    Stored as a rational content times a primitive integer part: ``_ints``
    maps exponent tuples (length ``nvars``) to nonzero ints whose gcd is 1,
    and ``_content`` is a positive Fraction; the zero polynomial is ``{}``
    with content 1.  That form is unique, so ``__eq__`` and ``__hash__``
    compare (content, ints).  By Gauss's lemma a product of primitive parts
    is primitive, so a product multiplies ints and the two contents, and
    scaling by a rational changes only the content.

    ``terms``, the map from exponent tuples to Fraction coefficients, is a
    view built on each read and not kept.  Instances are immutable by
    convention (polynomials that differ by a positive factor may share one
    integer part) and hashable.
    """

    __slots__ = ("nvars", "_ints", "_content", "_hash")

    def __init__(self, nvars: int, terms=None):
        def exponents(key):
            exps = tuple(map(_index, key))
            if len(exps) != nvars or nvars and min(exps) < 0:
                raise SuperskelError(f"bad exponent tuple {exps} for {nvars} variables")
            return exps

        ints, den = _read_numerators(terms, exponents)
        g = math.gcd(*ints.values()) if ints else den
        if g != 1 and ints:
            ints = {e: c // g for e, c in ints.items()}
        self.nvars = nvars
        self._ints = ints
        self._content = _ONE if g == den else Fraction(g, den)
        self._hash = None

    @classmethod
    def _make(cls, nvars, ints, content=_ONE):
        # trusted constructor for internal use: ints primitive, content > 0
        # (1 for the zero polynomial)
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._ints = ints
        poly._content = content
        poly._hash = None
        return poly

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict) -> "Polynomial":
        # trusted: terms a canonical dict from exponent tuples of nvars
        # ints >= 0 to ints or Fractions
        ints, den = _numerators(terms)
        return _primitive(nvars, ints, _ONE if den == 1 else Fraction(1, den))

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        value = _as_fraction(value)
        n, d = value.as_integer_ratio()
        if not n:
            return cls._make(nvars, {})
        if d == 1 and (n == 1 or n == -1):
            content = _ONE
        else:
            content = value if n > 0 else -value
        return cls._make(nvars, {(0,) * nvars: 1 if n > 0 else -1}, content)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The coordinate polynomial for 0-based variable ``index``."""
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._make(nvars, {exps: 1})

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._make(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls._make(nvars, {(0,) * nvars: 1})

    @property
    def terms(self) -> dict:
        """A new dict from exponent tuples to the nonzero Fraction
        coefficients; changing it does not change the polynomial."""
        content = self._content
        return {e: content * c for e, c in self._ints.items()}

    def is_zero(self) -> bool:
        return not self._ints

    def is_constant(self) -> bool:
        ints = self._ints
        return not ints or len(ints) == 1 and not any(next(iter(ints)))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SuperskelError("polynomial is not constant")
        return self._content * self._ints.get((0,) * self.nvars, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._ints:
            return -1
        return max(map(sum, self._ints))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise SuperskelError("polynomials over different variable sets")

    def _scaled(self, factor) -> "Polynomial":
        """self * factor for an int or Fraction: a new content, and a negated
        integer part for a negative factor."""
        if not factor:
            return Polynomial._make(self.nvars, {})
        if not self._ints:
            return self
        content = self._content * factor
        ints = self._ints
        if content < 0:
            content, ints = -content, _negate(ints)
        return Polynomial._make(self.nvars, ints, _ONE if content == 1 else content)

    def _operand(self, other):
        """``other`` as a polynomial over the same variables, or None for a
        foreign type.  The own type is tested first: ``isinstance`` against
        ``Fraction``, an abstract base class, is slow for other types."""
        if isinstance(other, Polynomial):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.nvars, _negate(self._ints), self._content)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else _combine(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other)
            return NotImplemented
        self._check(other)
        a, b = self._ints, other._ints
        if not a or not b:
            return Polynomial._make(self.nvars, {})
        terms = {}
        get = terms.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(_add, e1, e2))
                terms[key] = get(key, 0) + c1 * c2
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
        ca, cb = self._content, other._content
        return Polynomial._make(self.nvars, terms,
                                cb if ca is _ONE else ca if cb is _ONE else ca * cb)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, Polynomial.one(self.nvars))

    def __truediv__(self, other):
        """Division by a nonzero constant only."""
        if isinstance(other, Polynomial):
            if not other.is_constant():
                raise SuperskelError("polynomials can only be divided by constants")
            other = other.constant_value()
        other = _as_fraction(other)
        if other == 0:
            raise NotInvertibleError("division by zero")
        return self._scaled(_ONE / other)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._content == other._content and \
                self._ints == other._ints
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self._content, frozenset(self._ints.items())))
        return self._hash

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to 0-based variable ``index``."""
        # lowering one exponent is injective on the surviving terms
        ints = {}
        for exps, coeff in self._ints.items():
            e = exps[index]
            if e:
                ints[exps[:index] + (e - 1,) + exps[index + 1:]] = coeff * e
        return _primitive(self.nvars, ints, self._content)

    def exact_quotient(self, divisor: "Polynomial") -> "Polynomial | None":
        """``self / divisor`` when ``divisor`` divides ``self`` exactly, else None.

        Lex leading-term division of the primitive integer parts, whose
        quotient, when there is one, is a primitive integer polynomial by
        Gauss's lemma; the contents divide.  Cheap tests reject first: the
        quotient's total degree, and the lex-leading and lex-trailing
        monomials, which must each be divisible by the divisor's; when the
        degrees are equal the integer parts must be equal or opposite.
        """
        self._check(divisor)
        dterms = divisor._ints
        if not dterms:
            raise NotInvertibleError("division by the zero polynomial")
        terms = self._ints
        if not terms:
            return self
        room = self.degree() - divisor.degree()
        if room < 0:
            return None
        lead, dlead = max(terms), max(dterms)
        if any(a < b for a, b in zip(lead, dlead)) or \
                any(a < b for a, b in zip(min(terms), min(dterms))):
            return None
        if room == 0:
            if terms == dterms:
                quotient = {(0,) * self.nvars: 1}
            elif terms.keys() == dterms.keys() and \
                    all(terms[e] == -c for e, c in dterms.items()):
                quotient = {(0,) * self.nvars: -1}
            else:
                return None
        else:
            quotient = _lex_quotient(terms, dterms, room)
            if quotient is None:
                return None
        return Polynomial._make(self.nvars, quotient, self._content / divisor._content)

    def gcd(self, other: "Polynomial") -> "Polynomial | None":
        """The monic greatest common divisor, or None when GCDHEU gives up.

        An ``other`` that divides ``self`` is found by trial division first.
        Otherwise GCDHEU runs on the two primitive integer parts; gcd(0, 0)
        is 0, and a nonzero constant argument gives 1.  A nonconstant
        candidate is returned only after it divided both inputs exactly.
        """
        self._check(other)
        if not self._ints or not other._ints:
            nonzero = self if self._ints else other
            return _monic(nonzero)[1] if nonzero._ints else nonzero
        parts = _gcd_cofactors(self, other)
        if parts is None:
            return None
        return Polynomial.one(self.nvars) if parts[0] is None else parts[0]

    def eval(self, values) -> Fraction:
        """Evaluate at a tuple of Fractions.  A power whose numerator or
        denominator would be longer than ``MAX_LITERAL_DIGITS`` is refused
        with ``DigitCapError`` before it is computed (``_power_over_cap``).
        Each value's bit length is read once per call; only a power whose
        exponent times that length reaches the cap's bit length is tested."""
        bits = [max(abs(v.numerator), v.denominator).bit_length() for v in values]
        acc = 0
        for exps, coeff in self._ints.items():
            term = coeff
            for v, b, e in zip(values, bits, exps):
                if e:
                    if e * b >= _LITERAL_BITS:
                        _refuse_power(v, e)
                    term *= v ** e
            acc += term
        return self._content * acc

    def eval_in(self, values, one):
        """Evaluate at elements of an arbitrary commutative-enough ring.

        ``values[i]`` substitutes variable i; ``one`` is the ring unit, the
        value of the constant monomial. Ring elements must support +, * and
        int and Fraction scaling from the left.  The callers and their
        rings: ``SuperFunction.substitute`` (through
        ``RationalFunction.eval_in``) with superfunctions, for
        ``compose_subst``; ``compose_formula`` with rational functions, the
        body maps; and tests with Grassmann elements, calling ``substitute``
        as the reference for ``SuperFunction.eval``, whose own evaluator at
        a lambda-point (``grassmann._PointEvaluator``) does not come here.
        ``substitute`` and ``compose_formula`` keep one ``_Substitution``
        per call, so the powers of the values are built once per call; this
        method builds a fresh one, kept for this call only.
        """
        return _Substitution(values, one).polynomial(self)

    def partial_eval(self, assignment: dict[int, Fraction]) -> "Polynomial":
        """Substitute Fractions for a subset of variables (0-based indices).

        The arity is preserved; substituted variables simply no longer occur.
        """
        terms = self._ints
        for i, value in assignment.items():
            terms = _evaluate_at(terms, i, value)
        return Polynomial(self.nvars, terms) * self._content

    def divide_by_variable(self, index: int) -> "Polynomial":
        """Exact quotient by x_index; every monomial must contain it."""
        ints = {}
        for exps, coeff in self._ints.items():
            if exps[index] == 0:
                raise SuperskelError("polynomial is not divisible by the variable")
            ints[exps[:index] + (exps[index] - 1,) + exps[index + 1:]] = coeff
        return Polynomial._make(self.nvars, ints, self._content)

    def pad(self, new_nvars: int) -> "Polynomial":
        """Reinterpret over a larger variable set (existing indices kept)."""
        if new_nvars < self.nvars:
            raise SuperskelError("cannot shrink a polynomial's variable set")
        extra = (0,) * (new_nvars - self.nvars)
        return Polynomial._make(new_nvars, {e + extra: c for e, c in self._ints.items()},
                                self._content)

    def _print_order(self):
        """(exponents, negative, magnitude) of each term in printing order,
        total degree first, then lex from the top.  The sign is the stored
        int's, as the content is positive; the magnitude is that int when
        the content is 1, else a Fraction."""
        content, ints = self._content, self._ints
        unit = content == 1
        for exps in sorted(ints, key=lambda e: (sum(e), e), reverse=True):
            c = ints[exps]
            yield exps, c < 0, abs(c) if unit else content * abs(c)

    def format(self) -> str:
        """Canonical rendering, e.g. ``x1^2 - 2*x1*x2 + 1``."""
        return _signed_sum([(negative, monomial_text(c, exps))
                            for exps, negative, c in self._print_order()])

    def __repr__(self):
        return f"Polynomial({self.format()!r})"


def monomial_text(coeff: Fraction, exps, extra: list[str] | None = None,
                  force_coeff: bool = False) -> str:
    """Render ``coeff * prod x_i^e_i [* extra...]`` without a leading sign."""
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i + 1}")
        elif e > 1:
            factors.append(f"x{i + 1}^{_number_text(e)}")
    if extra:
        factors.extend(extra)
    if not factors:
        return _number_text(coeff)
    if coeff != 1 or force_coeff:
        factors.insert(0, _number_text(coeff))
    return "*".join(factors)


def _number_text(value) -> str:
    """``str`` of an int or Fraction, refused with ``DigitCapError`` when its
    numerator or denominator is longer than ``MAX_LITERAL_DIGITS``: the text
    of every printed number goes through here, so all output parses back."""
    if abs(value.numerator) >= _LITERAL_BOUND or value.denominator >= _LITERAL_BOUND:
        raise DigitCapError(f"cannot print a number longer than {MAX_LITERAL_DIGITS} "
                            "digits, the parser's literal cap")
    return str(value)


def _signed_sum(parts) -> str:
    """Join (negative, unsigned text) pairs as ``a - b + c``; ``0`` when empty."""
    if not parts:
        return "0"
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for negative, text in parts[1:]:
        out += (" - " if negative else " + ") + text
    return out


def _monic(poly: Polynomial):
    """(lead, poly / lead) for the lex-leading coefficient ``lead``: the
    integer part over its leading int."""
    ints, content = poly._ints, poly._content
    top = ints[max(ints)]
    if top == 1:
        if content == 1:
            return _ONE, poly
        return content, Polynomial._make(poly.nvars, ints)
    lead = content * top
    if top < 0:
        top, ints = -top, _negate(ints)
    return lead, Polynomial._make(poly.nvars, ints, _ONE if top == 1 else Fraction(1, top))


def _expand(nvars: int, pairs) -> Polynomial:
    """The product of f^m over (f, m) pairs."""
    result = None
    for factor, mult in pairs:
        power = factor if mult == 1 else factor ** mult
        result = power if result is None else result * power
    return Polynomial.one(nvars) if result is None else result


def _refine(items):
    """A coprime base of monic factors (factor refinement: Bach, Driscoll,
    Shallit, J. Algorithms 15, 1993).

    Each item is (monic nonconstant factor, tuple of multiplicities), one
    multiplicity per operand, and the product of f^m[i] is kept for every
    operand i: two factors f, g with a nonconstant gcd d become d, f/d and
    g/d until no such pair is left.  Two items that are both absent from
    some operand divide factors of the other operand only; when that
    operand's factors are a coprime base, so are such pieces, and their gcd
    is not taken.  A pair whose gcd is undecided stays as it is.
    """
    base = []
    work = list(items)
    while work:
        g, k = work.pop()
        for i, (f, m) in enumerate(base):
            if 0 in map(max, m, k):
                continue
            parts = _gcd_cofactors(f, g)
            if parts is None or parts[0] is None:
                continue
            d, f_rest, g_rest = parts
            del base[i]
            work.append((d, tuple(map(int.__add__, m, k))))
            work.extend((piece, mult) for piece, mult in ((f_rest, m), (g_rest, k))
                        if not piece.is_constant())
            break
        else:
            base.append((g, k))
    return base


def _common_base(fa, fb):
    """A coprime base for two coprime bases of factors: a tuple of (piece,
    (ma, mb)), where the product of piece^ma is prod(fa) and that of
    piece^mb is prod(fb).  Shared factors need no gcd.  Inside
    ``_gcd_memo`` each (fa, fb) is refined once, by value."""
    memo = _MEMO.get()
    if memo is None:
        return _base_of(fa, fb)
    bases = memo[1]
    base = bases.get((fa, fb))
    if base is None:
        base = bases[fa, fb] = _base_of(fa, fb)
    return base


def _base_of(fa, fb):
    """``_common_base`` without the memo."""
    only_b = dict(fb)
    shared, items = [], []
    for factor, mult in fa:
        other = only_b.pop(factor, 0)
        (shared if other else items).append((factor, (mult, other)))
    if not items or not only_b:
        return tuple(shared + items + [(g, (0, k)) for g, k in only_b.items()])
    return tuple(shared + _refine([(g, (0, k)) for g, k in only_b.items()] + items))


def _cancel(num: Polynomial, factors, keep=()):
    """(num', kept): num / prod(f^m) in lowest terms, for a coprime base of
    ``factors``.  ``keep`` lists further factors already coprime to ``num``;
    a zero ``num`` keeps none.  This is the one reduction of a rational
    function: the public constructor, sums, products and ``derivative``
    all end here.

    A gcd equal to the factor cancels one copy; a proper divisor d of f
    splits f^m into d^(m-1) (f/d)^m, refined and cancelled in turn.  When
    the gcd is undecided, the factor is kept whole.
    """
    if not num._ints:
        return num, ()
    if num.is_constant():
        return num, tuple(factors) + tuple(keep)
    kept = []
    work = list(factors)[::-1]
    while work:
        factor, mult = work.pop()
        while mult:
            parts = _gcd_cofactors(num, factor)
            if parts is None or parts[0] is None:
                break
            d, num_rest, factor_rest = parts
            num = num_rest
            mult -= 1
            if not factor_rest.is_constant():
                pieces = [(factor_rest, (mult + 1,))]
                if mult:
                    pieces.append((d, (mult,)))
                work.extend((piece, m) for piece, (m,) in _refine(pieces))
                mult = 0
        if mult:
            kept.append((factor, mult))
    return num, tuple(kept) + tuple(keep)


class RationalFunction:
    """Quotient ``num / den`` of polynomials with a factored denominator.

    ``factors`` is a tuple of (monic factor, multiplicity) pairs; a factor is
    monic when its lex-leading coefficient is 1, and constants fold into
    ``num``.  A polynomial has no factors (``()``).  A value is exactly the
    pair (``num``, ``factors``); ``den``, the product of the factors, is
    expanded on each read.

    Every value is kept in lowest terms by two invariants:

    (I1) the factors are pairwise coprime (a coprime base), and
    (I2) ``num`` is coprime to every factor.

    Values are reduced by ``_cancel``: the public constructor cancels
    ``num`` against ``den`` there, and arithmetic tests only the factors
    that can cancel: in a product, a factor of one operand only is
    cancelled against the other operand's numerator, and shared factors
    just add multiplicities; a sum over the common denominator can be
    divisible only by a factor of equal multiplicity in both operands;
    inverses and powers of reduced values are reduced.
    Gcds come from ``Polynomial.gcd``; where it gives up, a factor is kept
    whole, so the value stays exact but the invariants may not hold for
    it.  Equality compares numerators over equal factor lists, and
    otherwise tests whether the difference is zero.
    """

    __slots__ = ("num", "factors")
    __hash__ = None  # equal values may have different factor lists

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        factors = ()
        if den is not None:
            if num.nvars != den.nvars:
                raise SuperskelError("numerator/denominator variable sets differ")
            if den.is_zero():
                raise NotInvertibleError("denominator is identically zero")
            if num._ints:
                lead, den = _monic(den)
                if lead != 1:
                    num = num * (_ONE / lead)
                if not den.is_constant():
                    num, factors = _cancel(num, ((den, 1),))
        self.num = num
        self.factors = factors

    @classmethod
    def _raw(cls, num: Polynomial, factors) -> "RationalFunction":
        # trusted: factors monic, (I1) and (I2) hold, () when num is zero
        rf = object.__new__(cls)
        rf.num = num
        rf.factors = factors
        return rf

    @classmethod
    def constant(cls, nvars: int, value) -> "RationalFunction":
        return cls(Polynomial.constant(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "RationalFunction":
        return cls(Polynomial.variable(nvars, index))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def den(self) -> Polynomial:
        return _expand(self.num.nvars, self.factors)

    def is_zero(self) -> bool:
        return not self.num._ints

    def __bool__(self) -> bool:
        return bool(self.num._ints)

    def is_polynomial(self) -> bool:
        return not self.factors

    def is_constant(self) -> bool:
        return not self.factors and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise SuperskelError("rational function is not constant")
        return self.num.constant_value()

    def _parts(self, other):
        """(num, factors) of an operand, or None for a foreign type."""
        if isinstance(other, RationalFunction):
            return other.num, other.factors
        if isinstance(other, Polynomial):
            return other, ()
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.num.nvars, other), ()
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        a, fa = self.num, self.factors
        if fa == fb:
            if not fa:
                return RationalFunction._raw(a + b, ())
            return RationalFunction._raw(*_cancel(a + b, fa))
        # over the lcm, a factor of higher multiplicity on one side is
        # coprime to the sum (I1, I2): only equal multiplicities are tested
        raise_a, raise_b, test, keep = [], [], [], []
        for piece, (ma, mb) in _common_base(fa, fb):
            if ma == mb:
                test.append((piece, ma))
            elif ma < mb:
                raise_a.append((piece, mb - ma))
                keep.append((piece, mb))
            else:
                raise_b.append((piece, ma - mb))
                keep.append((piece, ma))
        nvars = a.nvars
        num = (a * _expand(nvars, raise_a) if raise_a else a) + \
            (b * _expand(nvars, raise_b) if raise_b else b)
        return RationalFunction._raw(*_cancel(num, test, keep))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.factors)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        return self + RationalFunction._raw(-b, fb)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RationalFunction) and isinstance(other, (int, Fraction)):
            if not other:
                return RationalFunction._raw(Polynomial.zero(self.num.nvars), ())
            return RationalFunction._raw(self.num * other, self.factors)
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        a, fa = self.num, self.factors
        if not fa and not fb or not a._ints or not b._ints:
            return RationalFunction._raw(a * b, ())
        # a factor of one operand only can cancel only against the other
        # operand's numerator (I2); shared pieces add their multiplicities
        shared, cancel_b, cancel_a = [], [], []
        for piece, (ma, mb) in _common_base(fa, fb):
            if ma and mb:
                shared.append((piece, ma + mb))
            elif ma:
                cancel_b.append((piece, ma))
            else:
                cancel_a.append((piece, mb))
        b, kept_b = _cancel(b, cancel_b, shared)
        a, kept_a = _cancel(a, cancel_a)
        return RationalFunction._raw(a * b, kept_b + kept_a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        if not parts[0]._ints:
            raise NotInvertibleError("division by the zero rational function")
        return self * RationalFunction._raw(*parts).invert()

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        if self.is_zero():
            raise NotInvertibleError("division by the zero rational function")
        return self.invert() * other

    def __pow__(self, n: int):
        num = self.num ** n  # checks n
        return RationalFunction._raw(num, tuple((f, m * n) for f, m in self.factors) if n else ())

    def invert(self) -> "RationalFunction":
        """``den / num``: the numerator becomes one monic factor, coprime to
        the new numerator by (I2)."""
        if self.is_zero():
            raise NotInvertibleError("the zero rational function has no inverse")
        lead, factor = _monic(self.num)
        num = self.den if lead == 1 else self.den * (_ONE / lead)
        return RationalFunction._raw(num, () if factor.is_constant() else ((factor, 1),))

    def __eq__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        b, fb = parts
        if self.factors == fb:
            return self.num == b
        return not (self - other)

    def derivative(self, index: int) -> "RationalFunction":
        """(a/D)' = (a'F - a * sum m f' F/f) / (D F), where D = prod f^m and
        F is the product of the factors that depend on the variable."""
        num = self.num.derivative(index)
        if not self.factors:
            return RationalFunction._raw(num, ())
        moving = [(f, m, df) for f, m in self.factors if (df := f.derivative(index))._ints]
        if moving:
            nvars = self.num.nvars
            num = num * _expand(nvars, [(f, 1) for f, _, _ in moving])
            for i, (_, m, df) in enumerate(moving):
                others = [(g, 1) for j, (g, _, _) in enumerate(moving) if j != i]
                term = self.num * df * m
                num = num - (term * _expand(nvars, others) if others else term)
        raised = {f: m + 1 for f, m, _ in moving}
        return RationalFunction._raw(
            *_cancel(num, tuple((f, raised.get(f, m)) for f, m in self.factors)))

    def eval(self, values) -> Fraction:
        den = _ONE
        for factor, mult in self.factors:
            value = factor.eval(values)
            if mult > 1:
                _refuse_power(value, mult)
            den *= value ** mult
        if den == 0:
            raise DomainError(f"denominator vanishes at body point {tuple(map(str, values))}")
        return self.num.eval(values) / den

    def eval_in(self, values, one):
        """Evaluate at ring elements; each factor's value is inverted on its
        own by its ``invert``, so the result's denominators keep the factor
        structure.  The callers pass rational functions (``compose_formula``),
        superfunctions (``SuperFunction.substitute``) or Grassmann elements
        (tests); ``eval`` takes Fraction points.  Powers and inverted factor
        images are memoised in a fresh ``_Substitution``, for this call
        only."""
        return _Substitution(values, one).rational(self)

    def format(self) -> str:
        if not self.factors:
            return self.num.format()
        return f"({self.num.format()})/({self.den.format()})"

    def __repr__(self):
        return f"RationalFunction({self.format()!r})"


class _Substitution:
    """Ring values put in for the variables of polynomials and rational
    functions, with a memo that lives as long as one call.

    ``values[i]`` substitutes variable i and ``one`` is the ring unit, the
    value of the constant monomial.  Ring elements must support +, *, int
    and Fraction scaling from the left and, for denominators, ``invert``.
    ``powers`` holds values[i]**e by (i, e), ``images`` the value of each
    denominator factor and ``inverses`` its inverse, so each is computed
    once however many coefficients share it.  The caller builds a context,
    uses it for one call and drops it: nothing is kept across calls, where
    the values differ, and an inversion that raises stores nothing.
    """

    __slots__ = ("values", "one", "powers", "images", "inverses")

    def __init__(self, values, one):
        self.values = values
        self.one = one
        self.powers = {}
        self.images = {}
        self.inverses = {}

    def polynomial(self, poly: Polynomial):
        """The value of ``poly`` at the values."""
        one, powers = self.one, self.powers
        # a power not built yet is the polynomial's next lower exponent's
        # power times values[i]**gap (one product for a gap of 1)
        for i in range(poly.nvars):
            last = 0
            for e in sorted({exps[i] for exps in poly._ints} - {0}):
                if (i, e) not in powers:
                    step = _power(self.values[i], e - last, one)
                    powers[i, e] = step if last == 0 else powers[i, last] * step
                last = e
        acc = None
        for exps, coeff in poly._ints.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    term = powers[i, e] if term is None else term * powers[i, e]
            term = coeff * (one if term is None else term)
            acc = term if acc is None else acc + term
        if acc is None:
            return 0 * one
        return acc if poly._content == 1 else poly._content * acc

    def image(self, factor: Polynomial):
        """The value of a denominator factor, computed once."""
        image = self.images.get(factor)
        if image is None:
            image = self.images[factor] = self.polynomial(factor)
        return image

    def inverse(self, factor: Polynomial):
        """The inverse of the factor's value, computed once; the value's
        ``invert`` raises when it has none."""
        inverse = self.inverses.get(factor)
        if inverse is None:
            inverse = self.inverses[factor] = self.image(factor).invert()
        return inverse

    def rational(self, rf: RationalFunction):
        """The value of ``rf``: its numerator's value times the inverse of
        each factor's value to the factor's multiplicity."""
        value = self.polynomial(rf.num)
        for factor, mult in rf.factors:
            inverse = self.inverse(factor)
            value = value * (inverse if mult == 1 else inverse ** mult)
        return value
