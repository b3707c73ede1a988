"""Exact arithmetic in GF(q) for prime-power q.

Elements are addressed by integer codes in [0, q).  For GF(p) the code is the
residue itself; for GF(p^e) the code reads as a base-p vector of polynomial
coefficients, lowest degree first.  Extension fields precompute lookup tables
once, so every operation stays exact integer work.  Polynomials over a field
carry the irreducibility and primitivity tests used to pick companion-matrix
generators deterministically.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FactorizationTooLarge,
    FieldMismatch,
    NonMonic,
    NotPrime,
    Reducible,
    ReducibleModulus,
)

__all__ = [
    "DEFAULT_FACTOR_BUDGET",
    "FieldSpec",
    "Poly",
    "factorize",
    "field_from_order",
    "field_make",
    "find_primitive_poly",
    "is_irreducible",
    "is_prime",
    "is_primitive",
    "iter_primitive_polys",
    "poly_from_text",
    "poly_to_text",
]

DEFAULT_FACTOR_BUDGET = 10**6

# Extension arithmetic is table backed; the cap keeps table construction at
# desk scale.
_TABLE_LIMIT = 1 << 10


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> dict[int, int]:
    """Factor ``n`` by trial division with divisors capped at ``budget``.

    Raises FactorizationTooLarge rather than returning a possibly incomplete
    factorization once the remaining cofactor can no longer be certified
    prime with divisors up to the budget.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        if d > budget:
            raise FactorizationTooLarge(
                f"factoring {n}: cofactor {m} needs trial divisors beyond {budget}"
            )
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class FieldSpec:
    """The finite field GF(p^e), operating on integer element codes."""

    __slots__ = ("p", "e", "q", "modulus", "_add_t", "_mul_t", "_neg_t", "_inv_t")

    def __init__(self, p: int, e: int = 1, modulus: Poly | Sequence[int] | None = None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if e < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {e}")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            if modulus is not None:
                raise DegreeMismatch("prime fields take no modulus")
            self.modulus = None
            self._add_t = self._mul_t = self._neg_t = self._inv_t = None
            return
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"GF({p}^{e}) exceeds the supported table size")
        base = FieldSpec(p)
        if modulus is None:
            mod = _smallest_irreducible(base, e)
        else:
            mod = modulus if isinstance(modulus, Poly) else Poly(base, modulus)
            if mod.field != base:
                raise FieldMismatch("modulus must be defined over the prime field")
            if not mod.is_monic:
                raise NonMonic("modulus must be monic")
            if mod.degree != e:
                raise DegreeMismatch(
                    f"modulus degree {mod.degree} != extension degree {e}"
                )
            if not is_irreducible(mod):
                raise ReducibleModulus(f"{mod!r} is reducible over GF({p})")
        self.modulus = mod
        self._build_tables()

    # -- element-code arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._add_t[a][b]

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self._add_t[a][self._neg_t[b]]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._neg_t[a]

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self._mul_t[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._inv_t[a]

    # -- validation -----------------------------------------------------------

    def codes_of(self, values: Iterable[int]) -> tuple[int, ...]:
        """Validate one row of int element codes.

        Every entry must be an int; GF(p) reduces entries mod p, GF(p^e)
        rejects codes outside [0, q).  A row of plain in-range ints costs one
        type scan and one min/max range check, with no per-entry call.
        """
        row = tuple(values)
        if not row:
            return row
        if set(map(type, row)) != {int}:
            for v in row:
                if not isinstance(v, int):
                    raise TypeError(f"entry {v!r} is not an int element code of {self}")
            row = tuple(map(int, row))
        if min(row) >= 0 and max(row) < self.q:
            return row
        if self.e == 1:
            return tuple(v % self.p for v in row)
        bad = next(v for v in row if not 0 <= v < self.q)
        raise ValueError(f"element code {bad} out of range for {self}")

    # -- internals ----------------------------------------------------------

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        mod = self.modulus.coeffs
        # red[j] holds the coefficients of x^(e+j) reduced modulo the modulus
        head = [(-c) % p for c in mod[:e]]
        red = [head]
        for _ in range(e - 2):
            prev = red[-1]
            nxt = [0] + prev[:-1]
            carry = prev[-1]
            if carry:
                nxt = [(a + carry * b) % p for a, b in zip(nxt, head)]
            red.append(nxt)

        digs = [self._digits(a) for a in range(q)]
        add_t = [[0] * q for _ in range(q)]
        mul_t = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digs[a]
            for b in range(a, q):
                db = digs[b]
                s = self._code([(x + y) % p for x, y in zip(da, db)])
                add_t[a][b] = add_t[b][a] = s
                conv = [0] * (2 * e - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            if y:
                                conv[i + j] = (conv[i + j] + x * y) % p
                acc = conv[:e]
                for j in range(e, 2 * e - 1):
                    c = conv[j]
                    if c:
                        rj = red[j - e]
                        acc = [(x + c * y) % p for x, y in zip(acc, rj)]
                m = self._code(acc)
                mul_t[a][b] = mul_t[b][a] = m
        self._add_t = add_t
        self._mul_t = mul_t
        self._neg_t = [self._code([(p - d) % p for d in digs[a]]) for a in range(q)]
        inv_t = [0] * q
        for a in range(1, q):
            inv_t[a] = mul_t[a].index(1)
        self._inv_t = inv_t

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        if self.p != other.p or self.e != other.e:
            return False
        if self.modulus is None:
            return other.modulus is None
        return other.modulus is not None and self.modulus.coeffs == other.modulus.coeffs

    def __hash__(self) -> int:
        mod = None if self.modulus is None else self.modulus.coeffs
        return hash((self.p, self.e, mod))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


class Poly:
    """Dense polynomial over GF(q); coefficient codes stored lowest degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable[int]):
        codes = list(field.codes_of(coeffs))
        while codes and codes[-1] == 0:
            codes.pop()
        self.field = field
        self.coeffs = tuple(codes)

    @classmethod
    def zero(cls, field: FieldSpec) -> Poly:
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> Poly:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> Poly:
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: Poly) -> None:
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __sub__(self, other: Poly) -> Poly:
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = [
            f.sub(
                self.coeffs[i] if i < len(self.coeffs) else 0,
                other.coeffs[i] if i < len(other.coeffs) else 0,
            )
            for i in range(n)
        ]
        return Poly(f, out)

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            factor = f.mul(c, lead_inv)
            quot[i - d] = factor
            for j, oc in enumerate(other.coeffs):
                if oc:
                    rem[i - d + j] = f.sub(rem[i - d + j], f.mul(factor, oc))
        return Poly(f, quot), Poly(f, rem)

    def __mod__(self, other: Poly) -> Poly:
        return self.divmod(other)[1]

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        f = self.field
        inv = f.inv(self.coeffs[-1])
        if inv == 1:
            return self
        return Poly(f, [f.mul(inv, c) for c in self.coeffs])

    @staticmethod
    def gcd(a: Poly, b: Poly) -> Poly:
        a._check(b)
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, n: int, mod: Poly) -> Poly:
        """Compute self**n modulo ``mod`` by binary exponentiation."""
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        result = Poly.one(self.field)
        base = self % mod
        while n:
            if n & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({_poly_term_text(self)} over {self.field})"


def field_make(
    p: int, e: int = 1, modulus: Poly | Sequence[int] | None = None
) -> FieldSpec:
    """Build the validated field GF(p^e); picks the smallest monic irreducible
    modulus (by integer code) when one is needed and not supplied."""
    return FieldSpec(p, e, modulus)


def field_from_order(q: int, budget: int = DEFAULT_FACTOR_BUDGET) -> FieldSpec:
    """Build GF(q) from the field order; q must be a prime power."""
    factors = factorize(q, budget)
    if len(factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, e),) = factors.items()
    return FieldSpec(p, e)


def _monic_poly_with_code(field: FieldSpec, d: int, m: int) -> Poly:
    """The monic degree-d polynomial whose lower coefficients encode m base q."""
    coeffs = []
    for _ in range(d):
        coeffs.append(m % field.q)
        m //= field.q
    coeffs.append(1)
    return Poly(field, coeffs)


def _smallest_irreducible(field: FieldSpec, d: int) -> Poly:
    for m in range(field.q**d):
        f = _monic_poly_with_code(field, d, m)
        if is_irreducible(f):
            return f
    raise Reducible(f"no irreducible polynomial of degree {d} over {field}")


def is_irreducible(f: Poly) -> bool:
    """True iff the monic polynomial ``f`` has no nontrivial factorization.

    Checks that gcd(f, x^(q^i) - x) is trivial for every i up to deg(f)/2;
    a factor of degree i would divide that binomial.
    """
    if not f.is_monic:
        raise NonMonic(f"{f!r} is not monic")
    d = f.degree
    if d < 1:
        raise DegreeMismatch("irreducibility needs degree >= 1")
    x = Poly.x(f.field)
    g = x
    for _ in range(d // 2):
        g = g.pow_mod(f.field.q, f)
        if Poly.gcd(f, g - x).degree != 0:
            return False
    return True


def is_primitive(f: Poly, budget: int = DEFAULT_FACTOR_BUDGET) -> bool:
    """True iff the residue of x modulo ``f`` has multiplicative order q^d - 1.

    Requires ``f`` monic irreducible of degree d; the order is certified by
    checking x^((q^d-1)/r) != 1 for every prime r dividing q^d - 1, with the
    prime factors found by budgeted trial division.
    """
    if not is_irreducible(f):
        raise Reducible(f"{f!r} is reducible")
    return _has_primitive_root(f, factorize(f.field.q**f.degree - 1, budget))


def _has_primitive_root(f: Poly, primes: Iterable[int]) -> bool:
    """is_primitive for an ``f`` already known to be irreducible, given the
    prime divisors of q^d - 1: the order test alone, which
    iter_primitive_polys runs after its own irreducibility test."""
    if f.coeffs[0] == 0:
        # f == x: the residue of x is zero, which generates nothing
        return False
    field = f.field
    m = field.q**f.degree - 1
    x = Poly.x(field)
    one = Poly.one(field)
    for r in primes:
        if x.pow_mod(m // r, f) == one:
            return False
    return True


def iter_primitive_polys(
    field: FieldSpec, d: int, budget: int = DEFAULT_FACTOR_BUDGET
) -> Iterator[Poly]:
    """Yield monic primitive degree-d polynomials in increasing code order.

    The code of a monic polynomial is its coefficient vector read as a base-q
    integer, lowest degree least significant, so the enumeration (and hence
    every construction that consumes it) is deterministic.
    """
    if d < 1:
        raise DegreeMismatch("degree must be >= 1")
    # every candidate shares q^d - 1, so it is factored once
    primes = tuple(factorize(field.q**d - 1, budget))
    for m in range(field.q**d):
        f = _monic_poly_with_code(field, d, m)
        if is_irreducible(f) and _has_primitive_root(f, primes):
            yield f


def find_primitive_poly(
    field: FieldSpec, d: int, budget: int = DEFAULT_FACTOR_BUDGET
) -> Poly:
    """The smallest monic primitive polynomial of degree d over the field."""
    return next(iter_primitive_polys(field, d, budget))


# -- text format --------------------------------------------------------------

_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?(?:,([^\s(),]+))?\)$")


@functools.lru_cache(maxsize=None)
def parse_field_name(token: str) -> FieldSpec:
    """Parse a field name such as ``GF(2)``, ``GF(3^2)`` or, for a modulus
    other than the default one, ``GF(2^3,x^3+x^2+1)``.

    Cached, so every matrix of a file naming the same field shares one
    FieldSpec and an extension field's tables are built once per process.
    """
    m = _FIELD_RE.match(token.strip())
    if not m:
        raise ValueError(f"cannot parse field name {token!r}")
    p = int(m.group(1))
    e = int(m.group(2) or 1)
    if m.group(3) is None:
        return field_make(p, e)
    if e == 1:
        raise ValueError(f"prime field with a modulus in {token!r}")
    return field_make(p, e, poly_from_text(m.group(3), field_make(p)))


def field_name(field: FieldSpec) -> str:
    """The field's name in the text format, which parse_field_name reads
    back as an equal field: ``GF(p)`` or ``GF(p^e)``, with the modulus
    appended only when it is not the default one, so files over default
    fields keep their plain names."""
    name = repr(field)
    if field.e == 1 or parse_field_name(name) == field:
        return name
    return f"{name[:-1]},{_poly_term_text(field.modulus)})"


def _poly_term_text(f: Poly) -> str:
    if f.is_zero:
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            terms.append(xs if c == 1 else f"{c}*{xs}")
    return "+".join(terms)


def poly_to_text(f: Poly) -> str:
    """Render a polynomial as ``x^3+x+1 over GF(2)``."""
    return f"{_poly_term_text(f)} over {f.field}"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?x(?:\^(\d+))?$")


def poly_from_text(text: str, field: FieldSpec | None = None) -> Poly:
    """Parse ``x^3+x+1 over GF(2)`` or the list form ``[1,1,0,1] @ GF(2)``.

    List coefficients are given lowest degree first.  A supplied field must
    agree with the one named in the text.
    """
    text = text.strip()
    if " over " in text:
        body, _, fname = text.rpartition(" over ")
        named = parse_field_name(fname)
    elif "@" in text:
        body, _, fname = text.rpartition("@")
        named = parse_field_name(fname)
    else:
        body, named = text, None
    if named is not None:
        if field is not None and field != named:
            raise FieldMismatch(f"text names {named}, caller supplied {field}")
        field = named
    if field is None:
        raise ValueError("no field named in polynomial text and none supplied")

    body = body.strip()
    if body.startswith("["):
        if not body.endswith("]"):
            raise ValueError(f"unterminated coefficient list in {text!r}")
        inner = body[1:-1].strip()
        coeffs = [int(t) for t in inner.split(",")] if inner else []
        return Poly(field, coeffs)

    coeffs: dict[int, int] = {}
    for raw in body.replace(" ", "").split("+"):
        if not raw:
            raise ValueError(f"empty term in {text!r}")
        m = _TERM_RE.match(raw)
        if m:
            c = int(m.group(1) or 1)
            i = int(m.group(2) or 1)
        elif raw.isdigit():
            c, i = int(raw), 0
        else:
            raise ValueError(f"cannot parse term {raw!r}")
        coeffs[i] = coeffs.get(i, 0) + c
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for i, c in coeffs.items():
        out[i] = c
    return Poly(field, out)
