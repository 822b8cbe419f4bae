"""Finite fields F_q, q = p^f <= 2^16, with int-encoded elements.

An element is an int in [0, q) whose base-p digits are the coefficients of a
polynomial in the canonical generator, low degree first.  Multiplication runs
through exp/log tables built from a fixed primitive element, so all ops are
table lookups.  Subfield embeddings are computed by root-finding and cached.
"""

from __future__ import annotations

from functools import cache

from .errors import CapExceeded, PreconditionError

_Q_CAP = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --

def _pp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pp_add(a, b, p):
    n = max(len(a), len(b))
    return _pp_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                     for i in range(n)])


def _pp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_trim(out)


def _pp_mod(a, m, p):
    a = list(a)
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c = (a[-1] * inv_lead) % p
        if c:
            off = len(a) - len(m)
            for i, mi in enumerate(m):
                a[off + i] = (a[off + i] - c * mi) % p
        a.pop()
    return _pp_trim(a)


def _pp_powmod(a, e, m, p):
    r = [1]
    b = _pp_mod(a, m, p)
    while e:
        if e & 1:
            r = _pp_mod(_pp_mul(r, b, p), m, p)
        b = _pp_mod(_pp_mul(b, b, p), m, p)
        e >>= 1
    return r


def _pp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pp_mod(a, b, p)
    return a


def _poly_irreducible(g, p) -> bool:
    # g monic over F_p; Rabin test: x^(p^f) == x mod g and gcd(x^(p^(f/l)) - x, g) trivial.
    f = len(g) - 1
    if f < 1:
        return False
    x = [0, 1]
    if _pp_mod(_pp_add(_pp_powmod(x, p ** f, g, p), [0, p - 1], p), g, p):
        return False
    for ell in _factor(f):
        h = _pp_add(_pp_powmod(x, p ** (f // ell), g, p), [0, p - 1], p)
        if len(_pp_gcd(h, g, p)) != 1:
            return False
    return True


@cache
def _default_modulus(p: int, f: int) -> tuple[int, ...]:
    """First monic irreducible of degree f over F_p in lexicographic order."""
    if f == 1:
        return (0, 1)
    for code in range(p ** f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        g = coeffs + [1]
        if _poly_irreducible(g, p):
            return tuple(g)
    raise AssertionError("no irreducible polynomial found")


class FqField:
    """The finite field with p^f elements; instances are interned by (p, f, modulus)."""

    _cache: dict[tuple, "FqField"] = {}

    def __new__(cls, p: int, f: int = 1, modulus=None):
        if not _is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
        if f < 1:
            raise PreconditionError("extension degree must be >= 1")
        if p ** f > _Q_CAP:
            raise CapExceeded(f"q = {p}^{f} exceeds the 2^16 field cap")
        mod = tuple(modulus) if modulus is not None else _default_modulus(p, f)
        if len(mod) != f + 1 or mod[-1] != 1:
            raise PreconditionError("modulus must be monic of degree f")
        key = (p, f, mod)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        self.p, self.f, self.modulus = p, f, mod
        self.q = p ** f
        if f > 1 and not _poly_irreducible(list(mod), p):
            raise PreconditionError("modulus is reducible over F_p")
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
        # addition table only for small q; otherwise add by digits
        self._add_table = None
        if q <= 256:
            tbl = []
            for a in range(q):
                da = self._digits(a)
                row = []
                for b in range(q):
                    db = self._digits(b)
                    row.append(self._undigits([(x + y) % p for x, y in zip(da, db)]))
                tbl.append(row)
            self._add_table = tbl
        # exp/log from a primitive element
        gen = self._find_generator()
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._raw_mul(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        self._exp, self._log = exp, log

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _pp_mod(_pp_mul(_pp_trim(self._digits(a)), _pp_trim(self._digits(b)), self.p),
                       list(self.modulus), self.p)
        return self._undigits(prod + [0] * (self.f - len(prod)))

    def _find_generator(self) -> int:
        target = self.q - 1
        fac = _factor(target)
        for cand in range(2, self.q) if self.q > 2 else [1]:
            ok = True
            for ell in fac:
                # cand^((q-1)/ell) == 1 means not primitive
                e = target // ell
                acc, b = 1, cand
                while e:
                    if e & 1:
                        acc = self._raw_mul(acc, b)
                    b = self._raw_mul(b, b)
                    e >>= 1
                if acc == 1:
                    ok = False
                    break
            if ok:
                return cand
        return 1  # q == 2

    # -- public arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        p = self.p
        return self._undigits([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        p = self.p
        return self._undigits([(-x) % p for x in self._digits(a)])

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

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        lg = self._log[a]
        n = self.q - 1
        from math import gcd
        return n // gcd(n, lg)

    def elements(self):
        return range(self.q)

    def embedding(self, big: "FqField"):
        """Field embedding self -> big as a lookup list; requires f | big.f and same p.

        Deterministic: the canonical generator maps to the smallest root of the
        modulus in the big field.
        """
        if big.p != self.p or big.f % self.f:
            raise PreconditionError("no embedding: incompatible fields")
        key = (self.p, self.f, self.modulus)
        cache = getattr(big, "_emb_cache", None)
        if cache is None:
            cache = big._emb_cache = {}
        if key in cache:
            return cache[key]
        if self.q == big.q and self.modulus == big.modulus:
            table = list(range(self.q))
            cache[key] = table
            return table
        root = None
        for x in range(big.q):
            acc, xp = 0, 1
            for c in self.modulus:
                if c:
                    acc = big.add(acc, big.mul(big.from_int(c), xp))
                xp = big.mul(xp, x)
            if acc == 0:
                root = x
                break
        assert root is not None, "modulus has no root in the extension"
        table = []
        for a in range(self.q):
            acc, xp = 0, 1
            for c in self._digits(a):
                if c:
                    acc = big.add(acc, big.mul(big.from_int(c), xp))
                xp = big.mul(xp, root)
            table.append(acc)
        cache[key] = table
        return table

    def __repr__(self):
        return f"FqField(p={self.p}, f={self.f})"

    def describe(self) -> dict:
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}
