"""In-memory span tracing for the benchmark's traced run.

Spans are recorded from outside the program: around the benchmark's own
calls into each layer's public functions, and inside wrappers around the
callables the benchmark hands to the program (plant field, leaf
controllers and metadata, the tree's resolve/active_leaf, and the ordered
tree's uncle lookups).  A span's self time is its duration minus the time
covered by its child spans.

Coarse spans (one per public call the benchmark makes) are kept whole with
name, start, end, parent and operation id.  The fine spans inside them run
millions of times per run, so they are folded into (parent name, name)
aggregates of call count and total time instead of being kept one by one.
Everything stays in memory until `write` at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter
        self._origin = self._clock()
        # frame: [seconds covered by children, name, span id]
        self._stack = [[0.0, "run", 0]]
        self._next_id = 1
        self.op = None  # id of the operation the next kept spans belong to
        self.stats: dict = {}  # name -> [calls, inclusive s, self s]
        self.folded: dict = {}  # (parent name, name) -> [calls, inclusive s]
        self.spans: list = []  # kept spans as dicts

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def wrap(self, name: str, fn, keep: bool = False):
        """fn wrapped in a span; keep=True records each span individually."""
        stack, clock, stat, folded = self._stack, self._clock, self._stat(name), self.folded

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name, 0]
            if keep:
                frame[2] = self._next_id
                self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if keep:
                    self.spans.append({
                        "id": frame[2], "parent": parent[2], "op": self.op, "name": name,
                        "start": t0 - self._origin, "end": t1 - self._origin})
                else:
                    key = (parent[1], name)
                    agg = folded.get(key)
                    if agg is None:
                        folded[key] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn once inside a kept span."""
        return self.wrap(name, fn, keep=True)(*args, **kwargs)

    def write(self, path) -> None:
        doc = {
            "spans": self.spans,
            "folded": [{"parent": p, "name": n, "calls": c, "seconds": s}
                       for (p, n), (c, s) in sorted(self.folded.items())],
            "stats": {n: {"calls": c, "inclusive_s": i, "self_s": s}
                      for n, (c, i, s) in sorted(self.stats.items())},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def instrument(tracer: Tracer, plant, bt):
    """Copies of plant and bt whose callables report spans to tracer.

    The tree is rebuilt through the public node constructors with every
    leaf's controller and metadata wrapped; the new tree's resolve and
    active_leaf are wrapped on the instance.  plant may be None.
    """
    from ctbt import BehaviorTree, Leaf, LeafBehavior, Plant

    def copy(node):
        if isinstance(node, Leaf):
            b = node.behavior
            return Leaf(node.node_id, LeafBehavior(
                tracer.wrap("dsl.controller", b.controller),
                tracer.wrap("dsl.metadata", b.metadata), b.label))
        return type(node)(node.node_id, tuple(copy(c) for c in node.children))

    traced_bt = BehaviorTree(copy(bt.root), state_dim=bt.state_dim)
    traced_bt.resolve = tracer.wrap("core.resolve", traced_bt.resolve)
    traced_bt.active_leaf = tracer.wrap("core.active_leaf", traced_bt.active_leaf)
    traced_plant = None
    if plant is not None:
        traced_plant = Plant(plant.state_dim, plant.control_dim,
                             tracer.wrap("dsl.field", plant.field))
    return traced_plant, traced_bt


@contextmanager
def traced_uncles(tracer: Tracer):
    """Route OrderedTree.left_uncles/right_uncles through tracer spans."""
    from ctbt import OrderedTree

    saved = OrderedTree.left_uncles, OrderedTree.right_uncles
    OrderedTree.left_uncles = tracer.wrap("tree.left_uncles", saved[0])
    OrderedTree.right_uncles = tracer.wrap("tree.right_uncles", saved[1])
    try:
        yield
    finally:
        OrderedTree.left_uncles, OrderedTree.right_uncles = saved
