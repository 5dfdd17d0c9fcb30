#!/usr/bin/env python3
"""Survey random exterior perturbations: orders, shapes and zero counts."""
import argparse
import random
from fractions import Fraction

from melnikov.algebra import EIGHT_LOOP, OneForm, WeightedPoly
from melnikov.numerics import count_zeros, zero_bound
from melnikov.reduction import francoise_chain, m1_zero_forms


def random_forms(n, seed, count, constrained):
    rng = random.Random(seed)
    out = []
    if not constrained:
        monos = [(i, j, w) for i in range(n + 1) for j in range(n + 1) for w in (0, 1)
                 if i + j <= n]
        basis = []
        for (i, j, w) in monos:
            p = WeightedPoly.mono(1, i, j)
            basis.append(OneForm(p, WeightedPoly.zero()) if w == 0
                         else OneForm(WeightedPoly.zero(), p))
        while len(out) < count:
            w = OneForm(WeightedPoly.zero(), WeightedPoly.zero())
            for f in basis:
                if rng.random() < 0.4:
                    w = w + f.scale(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
            if not w.is_zero() and w.weighted_degree() == n:
                out.append(w)
        return out
    family = m1_zero_forms(EIGHT_LOOP, n)
    while len(out) < count:
        w = OneForm(WeightedPoly.zero(), WeightedPoly.zero())
        for g in family:
            if rng.random() < 0.5:
                cc = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                if cc:
                    w = w + g.scale(cc)
        if not w.is_zero() and w.weighted_degree() == n:
            out.append(w)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--zeros", action="store_true", help="also count zeros")
    args = ap.parse_args()
    forms = (random_forms(args.n, args.seed, args.count, False)
             + random_forms(args.n, args.seed + 1, args.count, True))
    for i, w in enumerate(forms):
        res = francoise_chain(w, EIGHT_LOOP, "exterior", k_max=5)
        if res.genfn is None:
            print(f"[{i}] all orders vanish up to {res.all_zero_up_to}")
            continue
        gf = res.genfn
        line = (f"[{i}] k={res.k} pole={gf.pole_order} "
                f"deg(alpha)={gf.alpha.degree} deg(gamma)={gf.gamma.degree}")
        if args.zeros:
            bound = zero_bound(EIGHT_LOOP, "exterior", args.n, res.k)
            zc = count_zeros(gf, EIGHT_LOOP, "exterior", (0.26, 10.0),
                             samples=200, bound=bound)
            line += f" zeros={zc.count} bound={bound}"
        print(line)


if __name__ == "__main__":
    main()
