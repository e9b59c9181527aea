"""Shared fixtures: hand-built reference trees and a seeded random-tree factory."""

import importlib.util
from pathlib import Path

import numpy as np

# verdict lines appended by test_acceptance, echoed after the run
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from ctbt.core import (
    BehaviorTree,
    Fallback,
    Leaf,
    LeafBehavior,
    Plant,
    Sequence,
    Status,
)

SETPOINT = 21.0

# The slide_hold benchmark's model (c = 0.0, goal = 2.0): two controls and
# a plant term in the state.
SLIDE_HOLD = """\
model "slide_hold" {
  state 2;
  control 2;
  const c = 0.0;
  const goal = 2.0;
  plant { dx0 = u0 + 0.2 * sin(x1); dx1 = u1; }
  leaf at_goal { u = [0.0, 0.0]; status = if x1 >= goal then S else F; }
  leaf above { u = [0.0, 0.0]; status = if x0 + 0.5 * x1 > c then S else F; }
  leaf push_up { u = [1.0, 0.4]; status = R; }
  leaf push_down { u = [-1.0, 0.4]; status = R; }
  fal guard = [above, push_up];
  seq hold = [guard, push_down];
  fal reach = [at_goal, hold];
  root = reach;
}
"""


def thermostat_bt() -> BehaviorTree:
    """Bang-bang thermostat: Seq[Fal[above_setpoint, heat], cool].

    Ids follow depth-first order: 0 seq, 1 fal, 2 check, 3 heat, 4 cool.
    """
    check = Leaf(2, LeafBehavior(
        lambda x: (0.0,),
        lambda x: Status.SUCCESS if x[0] > SETPOINT else Status.FAILURE,
        "above_setpoint"))
    heat = Leaf(3, LeafBehavior(lambda x: (1.0,), lambda x: Status.RUNNING, "heat"))
    cool = Leaf(4, LeafBehavior(lambda x: (-1.0,), lambda x: Status.RUNNING, "cool"))
    return BehaviorTree(Sequence(0, (Fallback(1, (check, heat)), cool)), state_dim=1)


def thermostat_plant() -> Plant:
    return Plant(1, 1, lambda x, u: np.array([u[0]]))


def kitchen_bt() -> BehaviorTree:
    """Two-lamp fixture: Seq[go_to_kitchen, Fal[lamp_a, lamp_b]].

    Ids: 0 seq, 1 go_to_kitchen, 2 fal, 3 lamp_a, 4 lamp_b.  lamp_a has an
    empty failure region, so lamp_b's operating region is empty and the
    textbook closed forms for the operating regions hold as set identities.
    """
    def kitchen_status(x):
        if x[0] >= 1.0:
            return Status.SUCCESS
        if x[0] <= -1.0:
            return Status.FAILURE
        return Status.RUNNING

    def lamp_a_status(x):
        return Status.SUCCESS if x[1] >= 1.0 else Status.RUNNING

    def lamp_b_status(x):
        if x[1] >= 1.0:
            return Status.SUCCESS
        if x[1] <= -1.0:
            return Status.FAILURE
        return Status.RUNNING

    go = Leaf(1, LeafBehavior(lambda x: (1.0, 0.0), kitchen_status, "go_to_kitchen"))
    lamp_a = Leaf(3, LeafBehavior(lambda x: (0.0, 1.0), lamp_a_status, "lamp_a"))
    lamp_b = Leaf(4, LeafBehavior(lambda x: (0.0, 1.0), lamp_b_status, "lamp_b"))
    return BehaviorTree(
        Sequence(0, (go, Fallback(2, (lamp_a, lamp_b)))), state_dim=2)


def _slab_metadata(rng, state_dim):
    """Random metadata: one or two parallel cuts with shuffled status labels."""
    kind = rng.random()
    if kind < 0.1:
        return lambda x: Status.RUNNING
    a = rng.normal(size=state_dim)
    a = a / max(float(np.linalg.norm(a)), 1e-9)
    labels = [Status.RUNNING, Status.SUCCESS, Status.FAILURE]
    order = [labels[k] for k in rng.permutation(3)]
    if kind < 0.35:
        b = float(rng.uniform(-1.5, 1.5))
        lo, hi = order[0], order[1]

        def two_way(x, a=a, b=b, lo=lo, hi=hi):
            return lo if float(a @ x) < b else hi

        return two_way
    b1, b2 = sorted(rng.uniform(-2.0, 2.0, size=2).tolist())

    def three_way(x, a=a, b1=b1, b2=b2, order=tuple(order)):
        v = float(a @ x)
        if v < b1:
            return order[0]
        if v < b2:
            return order[1]
        return order[2]

    return three_way


def _random_shape(rng, depth, leaves_left, max_depth):
    if depth >= max_depth - 1 or leaves_left[0] <= 1 or rng.random() < 0.3:
        leaves_left[0] -= 1
        return "leaf"
    kind = "seq" if rng.random() < 0.5 else "fal"
    want = int(rng.integers(1, 5))
    kids = []
    for _ in range(want):
        if leaves_left[0] <= 0:
            break
        kids.append(_random_shape(rng, depth + 1, leaves_left, max_depth))
    if not kids:
        leaves_left[0] -= 1
        return "leaf"
    return (kind, kids)


def _count_nodes(shape) -> int:
    return 1 if shape == "leaf" else 1 + sum(_count_nodes(k) for k in shape[1])


def random_bt(seed, state_dim=2, max_depth=4, max_leaves=10,
              permute_ids=False) -> BehaviorTree:
    """Seeded random behavior tree with slab-predicate leaf metadata.

    Ids follow depth-first order unless permute_ids: then the root keeps 0
    and the other nodes get a seeded shuffle of 1..N-1, so id order and
    left-to-right leaf order differ while shape and metadata stay the same.
    """
    rng = np.random.default_rng(seed)
    leaves_left = [int(rng.integers(1, max_leaves + 1))]
    shape = _random_shape(rng, 0, leaves_left, max_depth)
    n = _count_nodes(shape)
    ids = list(range(n))
    if permute_ids:
        ids[1:] = (1 + np.random.default_rng(10_000 + seed).permutation(n - 1)).tolist()
    counter = [0]

    def build(s):
        nid = ids[counter[0]]
        counter[0] += 1
        if s == "leaf":
            behavior = LeafBehavior(
                lambda x, i=nid: (float(i),),
                _slab_metadata(rng, state_dim),
                f"leaf{nid}")
            return Leaf(nid, behavior)
        kind, kids = s
        children = tuple(build(k) for k in kids)
        return Sequence(nid, children) if kind == "seq" else Fallback(nid, children)

    return BehaviorTree(build(shape), state_dim=state_dim)


def bench_workloads():
    """bench/workloads.py, the benchmark's banks and workloads, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
