"""Finite fields F_q, q = p^f <= 2^16, with int-encoded elements.

An element is an int in [0, q) whose base-p digits are the coefficients of a
polynomial in the canonical generator, low degree first.  Multiplication runs
through exp/log tables built from a fixed primitive element, so all ops are
table lookups.  Subfield embeddings are computed by root-finding and cached.

Dense polynomials over an FqField (`fp_*`) are the package's one polynomial
layer: arithmetic, Rabin's irreducibility test (which picks the default
modulus) and factorization by trial division.  Tables of F_{p^f} are built
with the same helpers over the prime field F_p, whose own tables need none.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import xor

from .errors import CapExceeded, PreconditionError

_Q_CAP = 1 << 16


def _is_prime(n: int) -> bool:
    return _factor(n) == {n: 1}


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def split_prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f; PreconditionError unless q is a prime power >= 2,
    CapExceeded, before any trial division, for q above the 2^16 field cap."""
    if q < 2:
        raise PreconditionError(f"q = {q} must be a prime power >= 2")
    if q > _Q_CAP:
        raise CapExceeded(f"q = {q} exceeds the 2^16 field cap")
    fac = _factor(q)
    if len(fac) != 1:
        raise PreconditionError(f"q = {q} is not a prime power")
    [(p, f)] = fac.items()
    return p, f


# -- dense polynomials over an FqField: code lists, lowest degree first, ------
# -- no trailing zeros after fp_trim -----------------------------------------

def fp_trim(f):
    while f and not f[-1]:
        f = f[:-1]
    return list(f)


def fp_deg(f) -> int:
    f = fp_trim(f)
    return len(f) - 1 if f else -1


def fp_sub(field, f, g):
    n = max(len(f), len(g))
    f, g = list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g))
    return fp_trim([field.sub(a, b) for a, b in zip(f, g)])


def fp_mul(field, f, g):
    f, g = fp_trim(f), fp_trim(g)
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return fp_trim(out)


def fp_divmod(field, f, g):
    f, g = fp_trim(f), fp_trim(g)
    if not g:
        raise PreconditionError("division by zero polynomial")
    inv_lead = field.inv(g[-1])
    rem = list(f)
    quo = [0] * max(0, len(f) - len(g) + 1)
    while len(rem) >= len(g) and rem:
        c = field.mul(rem[-1], inv_lead)
        k = len(rem) - len(g)
        quo[k] = c
        for i, b in enumerate(g):
            rem[k + i] = field.sub(rem[k + i], field.mul(c, b))
        rem = fp_trim(rem)
    return fp_trim(quo), rem


def fp_powmod(field, f, e, g):
    """f^e mod g by repeated squaring."""
    out, base = [1], fp_divmod(field, f, g)[1]
    while e:
        if e & 1:
            out = fp_divmod(field, fp_mul(field, out, base), g)[1]
        base = fp_divmod(field, fp_mul(field, base, base), g)[1]
        e >>= 1
    return out


def fp_gcd(field, f, g):
    f, g = fp_trim(f), fp_trim(g)
    while g:
        f, g = g, fp_divmod(field, f, g)[1]
    return f


def fp_monic(field, f):
    f = fp_trim(f)
    if not f:
        return f
    inv_lead = field.inv(f[-1])
    return [field.mul(inv_lead, a) for a in f]


def monic_polys(field: "FqField", deg: int):
    """All monic polynomials of exactly the given degree."""
    for tail in product(range(field.q), repeat=deg):
        yield list(tail) + [1]


def factor(field: "FqField", f):
    """Full factorization of a nonzero polynomial by trial division.

    Trial division runs over all monic polynomials of at most half the
    degree, which is exact and fast at the degrees used here (<= 6 over
    fields with at most a few dozen elements).  Returns
    (unit_code, [(monic irreducible, multiplicity), ...]) sorted by
    (degree, coefficient tuple).
    """
    f = fp_trim(f)
    if not f:
        raise PreconditionError("cannot factor the zero polynomial")
    unit = f[-1]
    f = fp_monic(field, f)
    out = {}
    d = 1
    while fp_deg(f) > 0:
        if 2 * d > fp_deg(f):
            out[tuple(f)] = out.get(tuple(f), 0) + 1
            break
        for cand in monic_polys(field, d):
            if fp_deg(f) < d:
                break
            quo, rem = fp_divmod(field, f, cand)
            if not rem:
                # candidate divides; it is irreducible because all smaller
                # degrees were exhausted first
                mult = 0
                while not rem:
                    f = quo
                    mult += 1
                    if fp_deg(f) < d:
                        break
                    quo, rem = fp_divmod(field, f, cand)
                out[tuple(cand)] = out.get(tuple(cand), 0) + mult
        d += 1
    return unit, sorted(((list(k), v) for k, v in out.items()),
                        key=lambda kv: (len(kv[0]), kv[0]))


def _poly_irreducible(field: "FqField", g) -> bool:
    """Rabin's test for a monic g of degree f over F_q: x^(q^f) = x mod g, and
    gcd(x^(q^(f/l)) - x, g) = 1 for every prime l dividing f."""
    f = len(g) - 1
    if f < 1:
        return False
    x = [0, 1]
    if fp_divmod(field, fp_sub(field, fp_powmod(field, x, field.q ** f, g), x), g)[1]:
        return False
    for ell in _factor(f):
        h = fp_sub(field, fp_powmod(field, x, field.q ** (f // ell), g), x)
        if fp_deg(fp_gcd(field, h, g)) != 0:
            return False
    return True


@cache
def _default_modulus(p: int, f: int) -> tuple[int, ...]:
    """First monic irreducible of degree f over F_p in lexicographic order."""
    if f == 1:
        return (0, 1)
    for tail in product(range(p), repeat=f):   # constant term varies fastest
        g = (*reversed(tail), 1)
        if _poly_irreducible(FqField(p), g):
            return g
    raise AssertionError("no irreducible polynomial found")


class FqField:
    """The finite field with p^f elements, modulo `_default_modulus(p, f)`;
    instances are interned by (p, f)."""

    _cache: dict[tuple, "FqField"] = {}

    def __new__(cls, p: int, f: int = 1):
        if not _is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
        if f < 1:
            raise PreconditionError("extension degree must be >= 1")
        # p >= 2, so p^f > 2^16 once f reaches 17: refuse before the power
        if f >= _Q_CAP.bit_length() or p ** f > _Q_CAP:
            raise CapExceeded(f"q = {p}^{f} exceeds the 2^16 field cap")
        key = (p, f)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        self.p, self.f, self.modulus = p, f, _default_modulus(p, f)
        self.q = p ** f
        if f > 1:
            self._prime = FqField(p)
        self._build_tables()
        cls._cache[key] = self
        return self

    # elements are ints in [0, q); 0 and 1 are the ring constants

    def _digits(self, a: int):
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        a = 0
        for d in reversed(ds):
            a = a * self.p + (d % self.p)
        return a

    def _build_tables(self):
        p, q = self.p, self.q
        # addition table only for small q; otherwise add by digits.  The
        # table of p^(k+1) codes is p x p blocks of the table of p^k: codes
        # a + p^k d and b + p^k e add to (a + b) + p^k ((d + e) mod p)
        self._add_table = None
        if q <= 256:
            tbl = [[0]]
            for _ in range(self.f):
                size = len(tbl)
                tbl = [[x + size * ((d + e) % p) for e in range(p) for x in row]
                       for d in range(p) for row in tbl]
            self._add_table = tbl
        # exp/log from a primitive element
        gen = self._find_generator()
        exp = [1] * (q - 1)
        if self.f == 1:
            for i in range(1, q - 1):
                exp[i] = exp[i - 1] * gen % p
        else:
            # multiplication by gen is one F_p-linear map on digit vectors:
            # the image of a code is the sum of the images of its low and
            # high halves of digits, each read from a table spanned by the
            # images gen * x^k mod the modulus
            images = [self._raw_mul(gen, p ** k) for k in range(self.f)]
            c = (self.f + 1) // 2
            half = p ** c
            low, high = self._span_table(images[:c]), self._span_table(images[c:])
            add = xor if p == 2 else self.add
            for i in range(1, q - 1):
                a = exp[i - 1]
                exp[i] = add(low[a % half], high[a // half])
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        self._exp, self._log = exp, log

    # before the exp/log tables exist: polynomials over F_p mod the modulus

    def _span_table(self, images) -> list:
        """[sum of d_k * images[k] over the base-p digits d_k of v, for v <
        p^len(images)], by addition alone."""
        table = [0]
        for image in images:
            multiples = [0]
            for _ in range(self.p - 1):
                multiples.append(self.add(multiples[-1], image))
            table = [self.add(t, mult) for mult in multiples for t in table]
        return table

    def _raw_mul(self, a: int, b: int) -> int:
        """a * b for f > 1, as polynomials over F_p mod the modulus."""
        prod = fp_mul(self._prime, self._digits(a), self._digits(b))
        return self._undigits(fp_divmod(self._prime, prod, self.modulus)[1])

    def _raw_pow(self, a: int, e: int) -> int:
        if self.f == 1:
            return pow(a, e, self.p)
        return self._undigits(fp_powmod(self._prime, self._digits(a), e, self.modulus))

    def _find_generator(self) -> int:
        """The smallest c with c^((q-1)/l) != 1 for every prime l dividing q - 1."""
        n = self.q - 1
        return next(c for c in range(1, self.q)
                    if all(self._raw_pow(c, n // ell) != 1 for ell in _factor(n)))

    # -- public arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        p = self.p
        return self._undigits([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)  # p - 1 is the code of -1

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of 0 in F_q")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def frobenius(self, a: int, times: int = 1) -> int:
        """a^(p^times)."""
        return self.pow(a, pow(self.p, times, self.q - 1) if self.q > 2 else 1)

    def from_int(self, n: int) -> int:
        """Image of the rational integer n (prime-subfield element)."""
        return n % self.p

    def embedding(self, big: "FqField"):
        """Field embedding self -> big as a lookup list; requires f | big.f and same p.

        Deterministic: the canonical generator maps to the smallest root of the
        modulus in the big field.
        """
        if big.p != self.p or big.f % self.f:
            raise PreconditionError("no embedding: incompatible fields")
        key = self.f
        cache = getattr(big, "_emb_cache", None)
        if cache is None:
            cache = big._emb_cache = {}
        if key in cache:
            return cache[key]
        if self is big:
            table = list(range(self.q))
            cache[key] = table
            return table
        root = next((x for x in range(big.q) if not _horner(big, self.modulus, x)), None)
        assert root is not None, "modulus has no root in the extension"
        table = [_horner(big, self._digits(a), root) for a in range(self.q)]
        cache[key] = table
        return table

    def __repr__(self):
        return f"FqField(p={self.p}, f={self.f})"

    def describe(self) -> dict:
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}


def _horner(field: FqField, coeffs, x: int) -> int:
    """The polynomial with prime-field integer coefficients, low first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), field.from_int(c))
    return acc
