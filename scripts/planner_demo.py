#!/usr/bin/env python3
"""Plan a few paths and print their sampled coordinates as a small table."""

import argparse
import random
from fractions import Fraction

from torustc import (
    AlgebraSignature,
    PlannerQuery,
    SkeletonPoint,
    Turn,
    plan_product,
    plan_skeleton,
    sample,
)
from torustc.planner import sample_times


def show(path, steps: int) -> None:
    print(f"mode={path.mode} domain={path.domain} agreement={sorted(path.agreement)}")
    for t in sample_times(steps, path.phase_boundaries()):
        point = path.evaluate(t)
        vals = list(point.base) if point.circle is None else [point.circle, *point.base]
        cells = []
        for v in vals:
            if isinstance(v, Turn):
                cells.append(f"{str(v):>8}")
            else:
                cells.append(f"{v:>8.4f}")
        print(f"  t={str(t):>6}  " + " ".join(cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=8)
    args = parser.parse_args()

    sig = AlgebraSignature(3, 2)
    fixed = PlannerQuery(
        SkeletonPoint((Turn(0), Turn(Fraction(1, 4)))),
        SkeletonPoint((Turn(Fraction(1, 2)), Turn(0))),
    )
    print("fixed skeleton query on (n, r) = (3, 2):")
    show(plan_skeleton(fixed, sig), args.steps)

    rng = random.Random(args.seed)
    sig2 = AlgebraSignature(4, 2)
    q = PlannerQuery(
        sample(sig2, rng, with_circle=True), sample(sig2, rng, with_circle=True)
    )
    print(f"\nrandom product query on (n, r) = (4, 2), seed {args.seed} "
          f"(first column is the circle factor):")
    show(plan_product(q, sig2), args.steps)


if __name__ == "__main__":
    main()
