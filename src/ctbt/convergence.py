"""Empirical convergence certificates for batches of executions.

A batch of trajectories induces a directed "prepares" graph on the leaves:
an edge i -> j for every observed switch from i to j.  If that graph is
acyclic, the observed executions are consistent with a finite switching
order: every run walks down some chain of the graph, each leaf hands off to
one later in the order, and the number of switches is bounded by the
longest chain.  The certificate records the graph, a topological order or a
cycle witness, per-leaf worst-case dwell times, the longest chain length,
the corresponding settle-time bound (the largest dwell sum along any
chain), terminal statuses, and any ordering violations found by rescanning
the trajectories sample by sample.

This is evidence, not proof: it certifies the sampled batch, and the note
field says so.  Failed runs are carried along as unassessed and veto the
certificate rather than silently vanishing.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass

from .core import Status
from .executor import FailedRun, Trajectory

DEFAULT_NOTE = ("certified empirically from the supplied executions; "
                "covers the sampled initial states only, not a proof")


class MixedModels(ValueError):
    pass


class EmptyBatch(ValueError):
    pass


@dataclass(frozen=True)
class PreparesGraph:
    """Each node's sorted successors are tabled once, when the graph is
    made, and every walk reads that table, so later edits to edges are not
    seen.  An edge with an end outside nodes is a ValueError."""

    nodes: tuple  # sorted leaf ids observed in any sample
    edges: dict  # (from leaf, to leaf) -> switch count
    terminal_counts: dict  # leaf -> {status value: count of runs ending there}

    def __post_init__(self):
        succ = {n: [] for n in self.nodes}
        for edge in self.edges:
            a, b = edge
            if a not in succ or b not in succ:
                raise ValueError(f"PreparesGraph edge {edge!r} has an end outside "
                                 f"its nodes {self.nodes!r}")
            succ[a].append(b)
        object.__setattr__(self, "_succ", {n: tuple(sorted(s)) for n, s in succ.items()})

    def successors(self, i: int) -> tuple:
        return self._succ.get(i, ())

    def sinks(self) -> tuple:
        return tuple(n for n in self.nodes if not self._succ[n])


@dataclass(frozen=True)
class LambdaViolation:
    trajectory: int  # index into the batch
    t: float
    kind: str  # "order" (backward handoff) or "root_failure"
    from_leaf: int
    to_leaf: int
    x: tuple


def _assessed(runs) -> list:
    return [r for r in runs if isinstance(r, Trajectory)]


def build_prepares_graph(runs) -> PreparesGraph:
    """Aggregate switch events and terminal statuses over a batch."""
    trajs = _assessed(runs)
    if not trajs:
        raise EmptyBatch("no successfully executed trajectories to assess")
    models = {t.meta.get("model", "") for t in trajs}
    if len(models) > 1:
        raise MixedModels(f"trajectories from different models: {sorted(models)}")
    nodes = {s.leaf for traj in trajs for s in traj.samples}
    edges = Counter((e.info["from"], e.info["to"])
                    for traj in trajs for e in traj.events if e.kind == "Switch")
    ends = Counter((traj.samples[-1].leaf, traj.samples[-1].status.value) for traj in trajs)
    terminal = {leaf: {} for leaf, _label in ends}
    for (leaf, label), count in ends.items():
        terminal[leaf][label] = count
    return PreparesGraph(nodes=tuple(sorted(nodes)), edges=dict(edges),
                         terminal_counts=terminal)


def check_acyclic(graph: PreparesGraph):
    """Kahn's algorithm, taking the smallest ready node first.

    Returns (True, topological order) or (False, cycle witness).
    """
    indeg = dict.fromkeys(graph.nodes, 0)
    for _a, b in graph.edges:
        indeg[b] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in graph.successors(n):
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(order) == len(graph.nodes):
        return True, tuple(order)
    # trim until every leftover node keeps a successor, then follow the
    # smallest successors from the smallest node to the first repeat
    core = set(graph.nodes).difference(order)
    while dead := {n for n in core if core.isdisjoint(graph.successors(n))}:
        core -= dead
    walk, seen, n = [], {}, min(core)
    while n not in seen:
        seen[n] = len(walk)
        walk.append(n)
        n = next(m for m in graph.successors(n) if m in core)
    return False, tuple(walk[seen[n]:])


def reachable_sets(graph: PreparesGraph) -> dict:
    """Reflexive transitive closure: leaf -> frozenset of reachable leaves."""
    out = {}
    for n in graph.nodes:
        seen, stack = {n}, [n]
        while stack:
            for m in graph.successors(stack.pop()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        out[n] = frozenset(seen)
    return out


def check_lambda_invariance(graph: PreparesGraph, runs) -> tuple:
    """Rescan trajectories for handoffs that contradict the graph order.

    Every change of owner between consecutive samples must move to a leaf
    reachable from the previous one, and the root status must never be
    FAILURE.  Violations carry the trajectory index and state.
    """
    reach = reachable_sets(graph)
    violations = []
    for idx, run in enumerate(runs):
        if not isinstance(run, Trajectory):
            continue
        prev = None
        failed_flagged = False
        for s in run.samples:
            if s.status is Status.FAILURE and not failed_flagged:
                failed_flagged = True
                violations.append(LambdaViolation(
                    trajectory=idx, t=s.t, kind="root_failure",
                    from_leaf=s.leaf, to_leaf=s.leaf, x=s.x))
            if prev is not None and s.leaf != prev.leaf:
                if s.leaf not in reach.get(prev.leaf, frozenset((prev.leaf,))):
                    violations.append(LambdaViolation(
                        trajectory=idx, t=s.t, kind="order",
                        from_leaf=prev.leaf, to_leaf=s.leaf, x=s.x))
            prev = s
    return tuple(violations)


def dwell_times(runs) -> dict:
    """Per-leaf worst-case contiguous occupancy.

    A stint runs from its first sample to the sample that ends it (a change
    of owner or a root-success sample), so the value upper-bounds how long
    the leaf actually held the flow.  Samples taken after success never
    extend a stint.
    """
    best: dict = {}
    for run in _assessed(runs):
        leaf, start = None, 0.0
        # the last sample ends the run's last stint as a success sample would
        ends = [s._replace(status=Status.SUCCESS) for s in run.samples[-1:]]
        for s in (*run.samples, *ends):
            if s.leaf != leaf or s.status is Status.SUCCESS:
                if leaf is not None:
                    best[leaf] = max(best.get(leaf, 0.0), s.t - start)
                leaf, start = (None if s.status is Status.SUCCESS else s.leaf), s.t
    return best


def longest_chain(graph: PreparesGraph, weights: dict):
    """(max node count, max weight sum) over all chains of an acyclic graph."""
    ok, order = check_acyclic(graph)
    if not ok:
        raise ValueError("longest_chain needs an acyclic graph")
    count: dict = {}
    total: dict = {}
    for n in reversed(order):
        succs = graph.successors(n)
        count[n] = 1 + max((count[m] for m in succs), default=0)
        total[n] = weights.get(n, 0.0) + max((total[m] for m in succs), default=0.0)
    return max(count.values(), default=0), max(total.values(), default=0.0)


@dataclass
class ConvergenceCertificate:
    model: str
    graph: PreparesGraph
    acyclic: bool
    topological_order: tuple  # () when cyclic
    cycle: tuple  # () when acyclic
    lambda_violations: tuple
    dwell: dict  # leaf -> worst dwell time
    chain_length: int  # longest chain node count; None when cyclic
    settle_time_bound: float  # max dwell sum along a chain; None when cyclic
    assessed: int
    unassessed: tuple  # FailedRun entries
    passed: bool
    note: str

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "note": self.note,
            "passed": self.passed,
            "assessed": self.assessed,
            "unassessed": [
                {"index": f.index, "x0": list(f.x0), "error": f.error,
                 "message": f.message}
                for f in self.unassessed
            ],
            "nodes": list(self.graph.nodes),
            "edges": [
                {"from": a, "to": b, "count": self.graph.edges[(a, b)]}
                for (a, b) in sorted(self.graph.edges)
            ],
            "acyclic": self.acyclic,
            "topological_order": list(self.topological_order) if self.acyclic else None,
            "cycle": list(self.cycle) if not self.acyclic else None,
            "lambda_violations": [
                {"trajectory": v.trajectory, "t": v.t, "kind": v.kind,
                 "from": v.from_leaf, "to": v.to_leaf, "x": list(v.x)}
                for v in self.lambda_violations
            ],
            "dwell_times": {str(k): self.dwell[k] for k in sorted(self.dwell)},
            "chain_length": self.chain_length,
            "settle_time_bound": self.settle_time_bound,
            "terminal_counts": {
                str(k): dict(sorted(self.graph.terminal_counts[k].items()))
                for k in sorted(self.graph.terminal_counts)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def certify(runs) -> ConvergenceCertificate:
    """Build the full certificate for a batch of executions.

    Passing requires: at least one assessed run and no unassessed ones, an
    acyclic prepares graph, no ordering or root-failure violations, every
    sink visited terminally, and every run ending in root SUCCESS.
    """
    graph = build_prepares_graph(runs)
    trajs = _assessed(runs)
    failures = tuple(r for r in runs if isinstance(r, FailedRun))
    acyclic, order_or_cycle = check_acyclic(graph)
    violations = check_lambda_invariance(graph, runs)
    dwell = dwell_times(runs)
    chain_n, settle = longest_chain(graph, dwell) if acyclic else (None, None)
    all_success = all(t.samples[-1].status is Status.SUCCESS for t in trajs)
    sinks_terminal = all(s in graph.terminal_counts for s in graph.sinks())
    passed = (acyclic and not violations and not failures
              and all_success and sinks_terminal)
    return ConvergenceCertificate(
        model=trajs[0].meta.get("model", ""), graph=graph, acyclic=acyclic,
        topological_order=order_or_cycle if acyclic else (),
        cycle=() if acyclic else order_or_cycle,
        lambda_violations=violations, dwell=dwell,
        chain_length=chain_n, settle_time_bound=settle,
        assessed=len(trajs), unassessed=failures,
        passed=passed, note=DEFAULT_NOTE)
