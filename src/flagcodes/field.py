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
import itertools
import operator
import re
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FactorizationTooLarge,
    FieldMismatch,
    Frozen,
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
]

DEFAULT_FACTOR_BUDGET = 10**6

# Extension arithmetic is table backed; the cap keeps table construction at
# desk scale.
_TABLE_LIMIT = 1 << 10

# The largest p that a prime field tabulates and a pair scan runs over.  Two
# p x p tables and the source of the scan's kernel (subspace._odd_kernel)
# grow as p^2: at p = 509 the kernel's compile alone took 24.6 s and
# 1.74 GB (Python 3.11, 2 vCPUs).  A larger p computes each lookup mod p
# instead (_ModView), and its pair scan is refused.
_PRIME_TABLE_LIMIT = 257


def is_prime(n: int) -> bool:
    """Primality by factorize's trial division.  A number above 10^12,
    which the divisors up to DEFAULT_FACTOR_BUDGET cannot certify prime,
    raises FactorizationTooLarge before any division, prime or not."""
    if n > DEFAULT_FACTOR_BUDGET**2:
        raise FactorizationTooLarge(
            f"certifying a {n.bit_length()}-bit number prime needs trial divisors "
            f"beyond {DEFAULT_FACTOR_BUDGET}"
        )
    return n > 1 and factorize(n) == {n: 1}


def _shown(n: int) -> str:
    """``n`` for a message: its digits, or its bit length past 40 digits."""
    return str(n) if abs(n) < 10**40 else f"a {n.bit_length()}-bit number"


def factorize(n: int) -> dict[int, int]:
    """Factor ``n`` by trial division with divisors up to the fixed bound
    DEFAULT_FACTOR_BUDGET.

    Raises FactorizationTooLarge rather than returning a possibly incomplete
    factorization once the remaining cofactor can no longer be certified
    prime with divisors up to the bound, which needs n > 10^12: a generator
    set whose q or q^d - 1 is that large holds more than 10^12 flags.
    """
    if n < 1:
        raise ValueError(f"cannot factor {_shown(n)}")
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        if d > DEFAULT_FACTOR_BUDGET:
            raise FactorizationTooLarge(
                f"factoring {_shown(n)}: cofactor {_shown(m)} needs trial divisors "
                f"beyond {DEFAULT_FACTOR_BUDGET}"
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
        if e == 1:
            if modulus is not None:
                raise DegreeMismatch("prime fields take no modulus")
            self.q = p
            self.modulus = None
            self._add_t = self._mul_t = self._neg_t = self._inv_t = None  # tables()
            return
        # sized before p^e is formed, so a huge e is refused at once
        if e >= _TABLE_LIMIT.bit_length() or p**e > _TABLE_LIMIT:
            raise ValueError(f"GF({p}^{e}) exceeds the supported table size")
        self.q = p**e
        base = FieldSpec(p)
        if modulus is None:
            mod = next(_irreducibles(base, e))
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

    def tables(self) -> tuple:
        """(add, mul, neg, inv) indexed by codes, the field's one
        arithmetic: add[a][b] = a + b, mul[a][b] = a b, neg[a] = -a,
        inv[a] = 1/a and inv[0] = 0.  A prime field builds them on first
        use, or views them (_ModView) past the limit."""
        p = self.p
        if self._add_t is None and p <= _PRIME_TABLE_LIMIT:
            self._build_tables()
        elif self._add_t is None:
            self._add_t, self._mul_t = _ModView(p, operator.add, 2), _ModView(p, operator.mul, 2)
            self._neg_t = _ModView(p, operator.neg)
            self._inv_t = _ModView(p, functools.partial(pow, exp=p - 2, mod=p))
        return self._add_t, self._mul_t, self._neg_t, self._inv_t

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

    def _build_tables(self) -> None:
        """Fill the tables from three identities on codes, writing
        a = a0 + p a' with a0 the constant coefficient:
        a + b = (a0 + b0 mod p) + p (a' + b'); x c is c's lower digits moved
        up one place plus its top digit times x^e mod the modulus; and
        a b = a b0 + x (a b'), with a b0 the sum of b0 copies of a.  Every
        entry reads only entries made before it, so a table costs O(q^2).
        Over GF(p), q = p and a' = b' = 0."""
        p, e, q = self.p, self.e, self.q
        top = q // p
        add_t = [list(range(q))]
        for a in range(1, q):
            low = [(a % p + b0) % p for b0 in range(p)]
            add_t.append([p * s + s0 for s in add_t[a // p][:top] for s0 in low])
        # x^e = -(m0 + m1 x + ... + m_(e-1) x^(e-1)) mod the modulus
        xe = sum((-c) % p * p**i for i, c in enumerate(self.modulus.coeffs[:e])) if e > 1 else 0
        tops = [0]  # tops[t] = t x^e
        for _ in range(1, p):
            tops.append(add_t[tops[-1]][xe])
        times_x = [add_t[p * c][t] for t in tops for c in range(top)]
        mul_t = []
        for a in range(q):
            row = [0]
            for _ in range(1, p):
                row.append(add_t[row[-1]][a])
            for b in range(p, q):
                row.append(add_t[row[b % p]][times_x[row[b // p]]])
            mul_t.append(row)
        self._add_t = add_t
        self._mul_t = mul_t
        self._neg_t = [row.index(0) for row in add_t]
        self._inv_t = [0] + [row.index(1) for row in mul_t[1:]]

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


class _ModView:
    """A table computed mod p per lookup: view[a] = op(a), or view[a][b] = op(a, b) for arity 2."""

    __slots__ = ("p", "op", "arity")

    def __init__(self, p: int, op, arity: int = 1):
        self.p, self.op, self.arity = p, op, arity

    def __getitem__(self, a: int):
        if self.arity == 2:
            return _ModView(self.p, functools.partial(self.op, a))
        return self.op(a) % self.p


class Poly(Frozen):
    """Dense polynomial over GF(q); coefficient codes stored lowest degree
    first.  The arithmetic runs on plain code lists (_mul, _mod, _pow_mod
    and _gcd below); a Poly names a modulus or a search result."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable[int]):
        self._set_fields(field, tuple(_trim(list(field.codes_of(coeffs)))))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self) -> str:
        return f"Poly({_poly_term_text(self)} over {self.field})"


def field_make(
    p: int, e: int = 1, modulus: Poly | Sequence[int] | None = None
) -> FieldSpec:
    """Build the validated field GF(p^e); picks the smallest monic irreducible
    modulus (by integer code) when one is needed and not supplied."""
    return FieldSpec(p, e, modulus)


def field_from_order(
    q: int, modulus: Poly | Sequence[int] | None = None
) -> FieldSpec:
    """Build GF(q) from the field order, under ``modulus`` when given (as
    field_make takes it); q must be a prime power.  An order above 10^12
    raises FactorizationTooLarge before any division: no such field can be
    built, for a prime cannot be certified by trial divisors up to
    DEFAULT_FACTOR_BUDGET and an extension exceeds the table size."""
    return FieldSpec(*_prime_power(q), modulus)


def _prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, refused as field_from_order says."""
    if q > DEFAULT_FACTOR_BUDGET**2:
        raise FactorizationTooLarge(
            f"field order {_shown(q)} is above 10^12: a prime that large needs trial "
            f"divisors beyond {DEFAULT_FACTOR_BUDGET}, a prime power exceeds the table size"
        )
    factors = factorize(q)
    if len(factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, e),) = factors.items()
    return p, e


# -- polynomials as code lists, lowest degree first, no trailing zero


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mul(field: FieldSpec, a: Sequence, b: Sequence) -> list:
    add, mul, _, _ = field.tables()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            times = mul[x]
            for j, y in enumerate(b, i):
                if y:
                    out[j] = add[out[j]][times[y]]
    return out


def _mod(field: FieldSpec, a: list, f: Sequence) -> list:
    """a mod the monic f of degree d, dividing a in place: a[d:] ends as
    the quotient."""
    d = len(f) - 1
    add, mul, neg, _ = field.tables()
    terms = [(j, neg[c]) for j, c in enumerate(f[:d]) if c]
    for i in range(len(a) - 1, d - 1, -1):
        x = a[i]
        if x:
            times = mul[x]
            for j, c in terms:
                a[i - d + j] = add[a[i - d + j]][times[c]]
    return _trim(a[:d])


def _monic(field: FieldSpec, a: Sequence) -> Sequence:
    if not a:
        raise DivisionByZero("polynomial division by zero")
    _, mul, _, inv = field.tables()
    return a if a[-1] == 1 else list(map(mul[inv[a[-1]]].__getitem__, a))


def _gcd(field: FieldSpec, a: Sequence, b: Sequence) -> Sequence:
    """Monic gcd; a may end in zeros if b is nonzero."""
    while b:
        b = _monic(field, b)
        a, b = b, _mod(field, list(a), b)
    return _monic(field, a) if a else []


def _pow_mod(field: FieldSpec, a: Sequence, n: int, f: Sequence) -> list:
    """a^n mod the monic f, from the top bit of n down."""
    if not n:
        return [1]
    out = base = _mod(field, list(a), f)
    for bit in bin(n)[3:]:
        out = _mod(field, _mul(field, out, out), f)
        if bit == "1":
            out = _mod(field, _mul(field, out, base), f)
    return out


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
    field, mod = f.field, f.coeffs
    add, _, neg, _ = field.tables()
    g = [0, 1]
    for _ in range(d // 2):
        g = _pow_mod(field, g, field.q, mod)
        h = g + [0, 0]  # g - x
        h[1] = add[h[1]][neg[1]]
        if len(_gcd(field, h, mod)) != 1:
            return False
    return True


def is_primitive(f: Poly) -> bool:
    """True iff the residue of x modulo ``f`` has multiplicative order q^d - 1.

    Requires ``f`` monic irreducible of degree d; the order is certified by
    checking x^((q^d-1)/r) != 1 for every prime r dividing q^d - 1, with the
    prime factors found by trial division (factorize).
    """
    if not is_irreducible(f):
        raise Reducible(f"{f!r} is reducible")
    return _has_primitive_root(f, factorize(f.field.q**f.degree - 1))


def _has_primitive_root(f: Poly, primes: Iterable[int]) -> bool:
    """is_primitive for an ``f`` already known to be irreducible, given the
    prime divisors of q^d - 1: the order test alone, which
    iter_primitive_polys runs after its own irreducibility test."""
    if f.coeffs[0] == 0:
        # f == x: the residue of x is zero, which generates nothing
        return False
    m = f.field.q**f.degree - 1
    return all(_pow_mod(f.field, (0, 1), m // r, f.coeffs) != [1] for r in primes)


def iter_primitive_polys(field: FieldSpec, d: int) -> Iterator[Poly]:
    """Yield monic primitive degree-d polynomials in increasing code order.

    The code of a monic polynomial is its coefficient vector read as a base-q
    integer, lowest degree least significant, so the enumeration (and hence
    every construction that consumes it) is deterministic.
    """
    if d < 1:
        raise DegreeMismatch("degree must be >= 1")
    primes = _order_primes(field.q, d)
    for f in _irreducibles(field, d):
        if _has_primitive_root(f, primes):
            yield f


@functools.lru_cache(maxsize=None)
def _order_primes(q: int, d: int) -> tuple[int, ...]:
    """The prime divisors of q^d - 1, the order of GF(q^d)*.  Every candidate
    of a search shares them, and so does the count that a search is checked
    against first (_primitive_count), so they are factored once per (q, d);
    a failed factorization is not kept, and raises again."""
    return tuple(factorize(q**d - 1))


def _primitive_count(field: FieldSpec, d: int) -> int:
    """The number of monic primitive polynomials of degree d over the field,
    phi(q^d - 1)/d: each is the minimal polynomial of d conjugate primitive
    elements of GF(q^d) (Lidl and Niederreiter, Thm 3.5)."""
    m = field.q**d - 1
    for r in _order_primes(field.q, d):
        m = m // r * (r - 1)
    return m // d


def _irreducibles(field: FieldSpec, d: int) -> Iterator[Poly]:
    """Yield the monic irreducible degree-d polynomials over the field in
    increasing code order (see iter_primitive_polys)."""
    for lower in itertools.product(range(field.q), repeat=d):
        f = Poly(field, lower[::-1] + (1,))
        if is_irreducible(f):
            yield f


def find_primitive_poly(field: FieldSpec, d: int) -> Poly:
    """The smallest monic primitive polynomial of degree d over the field."""
    return next(iter_primitive_polys(field, d))


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
    return field_make(p, e, _poly_from_text(m.group(3), field_make(p), e))


def _misnamed_field(token: str, q: int) -> str | None:
    """The field that the name ``token`` names, as repr() shows it, if the
    order p^e it declares is not ``q``, read off the token alone: no field
    is built, so no table.  None if the order is ``q``, or if ``token`` is
    no field name (parse_field_name refuses it)."""
    m = _FIELD_RE.match(token.strip())
    if not m:
        return None
    p = int(m.group(1))
    e = int(m.group(2) or 1)
    # p^e > q unless p <= q and e <= log2(q): no large power is formed
    if 2 <= p <= q and e <= q.bit_length() and p**e == q:
        return None
    return f"GF({p})" if e == 1 else f"GF({p}^{e})"


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
    if not f.coeffs:
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


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?x(?:\^(\d+))?$")

# Polynomial text becomes a dense coefficient list as long as its largest
# exponent.  A modulus has degree at most 10 (_TABLE_LIMIT) and a family
# polynomial at most 40 (its q^d members stay below 10^12), so a term above
# this is refused before the list is built.
_MAX_EXPONENT = 1 << 10


def poly_from_text(text: str, field: FieldSpec | None = None) -> Poly:
    """Parse ``x^3+x+1 over GF(2)`` or the list form ``[1,1,0,1] @ GF(2)``.

    List coefficients are given lowest degree first.  A supplied field must
    agree with the one named in the text.
    """
    return _poly_from_text(text, field, None)


def _poly_from_text(text: str, field: FieldSpec | None, degree: int | None) -> Poly:
    """poly_from_text of the modulus of an extension of that ``degree``
    when it is not None: a term above it is refused before the dense
    coefficient list, as long as the term's exponent, is built."""
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
    if degree is not None:
        # the degree the dense list would trim to, in the message FieldSpec
        # gives for a modulus of another degree
        top = max((i for i, c in zip(coeffs, field.codes_of(coeffs.values())) if c), default=-1)
        if top > degree:
            raise DegreeMismatch(f"modulus degree {_shown(top)} != extension degree {degree}")
    if max(coeffs, default=0) > _MAX_EXPONENT:
        raise ValueError(f"term x^{_shown(max(coeffs))} is above x^{_MAX_EXPONENT}")
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for i, c in coeffs.items():
        out[i] = c
    return Poly(field, out)
