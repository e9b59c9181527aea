"""Uncle relations on the ordered skeleton of a behavior tree.

BehaviorTree validates its node graph and builds this skeleton: node ids
are dense 0..N-1 with the root 0, and each node's children are kept left
to right.  Two orders hang off it: the parent order (ancestor-or-self) and
the strict sibling order (same parent, left to right).  Composing them
gives the left/right "uncle" relations: j is a left uncle of i when j is a
strict left sibling of some ancestor-or-self of i.  Uncles are what decide
which other subtrees must have already succeeded or failed for node i to
be reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


class InvalidNodeId(ValueError):
    """A node id that is not an int in 0..N-1 for its tree."""

    def __init__(self, node_id):
        super().__init__(f"node id out of range (node {node_id!r})")
        self.node_id = node_id


@dataclass(frozen=True)
class OrderedTree:
    """Immutable rooted ordered tree, built by BehaviorTree.

    parent[i] is the parent id of node i (None for the root).
    children[i] is the tuple of i's children, left to right.
    """

    parent: tuple
    children: tuple

    def _check_id(self, i) -> int:
        """i itself if it is a node id of this tree, else InvalidNodeId."""
        if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < len(self.parent)):
            raise InvalidNodeId(i)
        return i

    def ancestors_or_self(self, i: int) -> Iterator[int]:
        """Yield i, parent(i), ..., root."""
        node = self._check_id(i)
        while node is not None:
            yield node
            node = self.parent[node]

    def left_uncles(self, i: int) -> tuple:
        """Nodes j with j a strict left sibling of some ancestor-or-self of i.

        This is the composition of the strict sibling order with the parent
        order; it includes i's own left siblings, its parent's left siblings,
        and so on up to the root.  Sorted ascending.
        """
        out = set()
        for a in self.ancestors_or_self(i):
            p = self.parent[a]
            if p is None:
                continue
            sibs = self.children[p]
            out.update(sibs[: sibs.index(a)])
        return tuple(sorted(out))

    def right_uncles(self, i: int) -> tuple:
        """Mirror image of left_uncles: strict right siblings of ancestors-or-self."""
        out = set()
        for a in self.ancestors_or_self(i):
            p = self.parent[a]
            if p is None:
                continue
            sibs = self.children[p]
            out.update(sibs[sibs.index(a) + 1 :])
        return tuple(sorted(out))
