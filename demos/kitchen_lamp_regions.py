"""Region demo: how the two-lamp tree carves the plane among its leaves.

Seq[go_to_kitchen, Fal[lamp_a, lamp_b]] over x = (position, brightness).
Each leaf owns the part of the state space where the delegation chain
lands on it; those operating regions are disjoint and cover everything.
The script prints an ASCII ownership map, then audits the partition on a
random sample and shows the closed forms for the influence regions.
"""

import numpy as np

from ctbt import (
    check_partition,
    dsl,
    leaf_memberships,
    operating_owners,
    pathway_sets,
    uniform_points,
)

GLYPHS = {1: ".", 3: "a", 4: "b"}


def ascii_map(bt, lo=-2.0, hi=2.0, cells=31):
    axis = np.linspace(lo, hi, cells)
    print(f"owner map over [{lo}, {hi}]^2 "
          f"(. go_to_kitchen, a lamp_a, b lamp_b):")
    for x1 in reversed(axis):
        row = ""
        for x0 in axis:
            owners = operating_owners(bt, (x0, x1))
            row += GLYPHS.get(owners[0], "?") if len(owners) == 1 else "!"
        print("  " + row)


def main():
    model = dsl.load(dsl.resolve_model_path("kitchen_lamp.btm"))
    bt = model.bt

    pw = pathway_sets(bt)
    print(f"success pathway nodes: {sorted(pw.success)}")
    print(f"failure pathway nodes: {sorted(pw.failure)}")
    print()

    ascii_map(bt)
    print()

    # the gate leaf's success region is the only door to the lamp subtree
    for x in [(-0.5, 0.0), (1.5, 0.0), (1.5, 1.5)]:
        leaves = leaf_memberships(bt, x)
        gates = [i for i, influence, _ in leaves if influence]
        owner = [i for i, _, operating in leaves if operating]
        print(f"x = {x}: influence open for leaves {gates}, owner {owner}")
    print()

    report = check_partition(bt, uniform_points([(-3, 3), (-3, 3)], 5000, seed=2))
    print(f"partition audit on {report.samples_tested} samples: "
          f"{'clean' if report.passed else report.to_dict()}")


if __name__ == "__main__":
    main()
