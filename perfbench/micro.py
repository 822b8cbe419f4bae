"""Seeded microbenchmarks of the arithmetic kernels, in nanoseconds per call.

    python perfbench/micro.py --seed N

Prints one JSON object of per-layer metrics.  Each kernel checks an
identity on the very outputs it timed (associativity, or conj(conj(x)) == x)
and exits 1 if it fails, so a wrong result is never reported as a time.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter as clock

from leveltower.chain import ChainRing
from leveltower.cyclotomic import Cyclotomic
from leveltower.formal import build_tower
from leveltower.fq import FqField
from leveltower.laurent import Laurent

REPEATS = 5


def timed_ns(op, operands):
    """Median over REPEATS passes of ns per call of op(*args); also the outputs."""
    samples = []
    for _ in range(REPEATS):
        t0 = clock()
        out = [op(*args) for args in operands]
        samples.append((clock() - t0) / len(operands) * 1e9)
    return statistics.median(samples), out


def bench_mul(name, mul, draw, count):
    """ns per mul(a, b); then (a*b)*c == a*(b*c) is checked on the timed products."""
    pairs = [(draw(), draw()) for _ in range(count)]
    ns, products = timed_ns(mul, pairs)
    for (a, b), ab in zip(pairs, products):
        c = draw()
        if mul(ab, c) != mul(a, mul(b, c)):
            raise SystemExit(f"{name}: associativity fails")
    return ns


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    out = {}

    fq = FqField(2, 4)
    out["fq.mul_ns"] = bench_mul("fq", fq.mul, lambda: rng.randrange(fq.q), 20000)

    f4 = FqField(2, 2)
    out["laurent.mul_ns"] = bench_mul(
        "laurent", lambda a, b: a * b,
        lambda: Laurent(f4, {e: rng.randrange(f4.q) for e in range(-2, 8)}), 400)

    ring = build_tower(3, 2, 1).ring   # top ring of tower (2,3,1)
    out["rings.mul_ns"] = bench_mul(
        "rings", lambda a, b: a * b, lambda: ring.random_element(rng, density=0.05), 8)

    ch = ChainRing(FqField(2, 1), 4)
    out["chain.matmul_ns"] = bench_mul(
        "chain", ch.matmul,
        lambda: tuple(tuple(rng.randrange(ch.size) for _ in range(3)) for _ in range(3)), 3000)

    def cyc():
        return Cyclotomic(24, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)])
    out["cyclotomic.mul_ns"] = bench_mul("cyclotomic", lambda a, b: a * b, cyc, 60)
    values = [(cyc(),) for _ in range(60)]
    ns, conj = timed_ns(Cyclotomic.conjugate, values)
    if any(c.conjugate() != x for (x,), c in zip(values, conj)):
        raise SystemExit("cyclotomic: conj(conj(x)) != x")
    out["cyclotomic.conjugate_ns"] = ns

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
