#!/usr/bin/env python3
"""Scan cup-length searches against the reconciled value.

For every signature the certified cup-length minimum is min(n, 2r-1) and the
reconciled complexity is min(n+1, 2r); the open question is whether the
cup-length plus one always meets the complexity.  The generator-only search
is exact and cheap everywhere: by the symmetry of e1..e{n-1} it only
multiplies along two prefix chains.  The brute-force search over the full
spanning family (repetition allowed, one factor per symmetry orbit) runs
where n is at most --brute-cap.
"""

import argparse

from torustc.algebra import AlgebraSignature, zdcl_brute_force, zdcl_degree_one
from torustc.bounds import compute_bounds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--brute-cap", type=int, default=4)
    args = parser.parse_args()

    print(f"{'n':>3} {'r':>3} {'degree1':>8} {'brute':>6} {'tc':>4} {'cup+1==tc':>10}")
    for n in range(1, args.max_n + 1):
        for r in range(1, n + 1):
            sig = AlgebraSignature(n, r)
            degree_one = zdcl_degree_one(sig)
            tc = compute_bounds(n, r).tc
            brute = "-"
            best = degree_one
            if n <= args.brute_cap:
                rep = zdcl_brute_force(sig, cap=args.brute_cap)
                brute = str(rep.searched_length)
                best = max(best, rep.searched_length)
            verdict = "yes" if best + 1 == tc else "NO"
            print(f"{n:>3} {r:>3} {degree_one:>8} {brute:>6} {tc:>4} {verdict:>10}")


if __name__ == "__main__":
    main()
