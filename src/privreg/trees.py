"""K-ary domain-labeled trees, ancestor sets, attachment, and growth from leaf paths.

A tree node either is a leaf (point_index is None, no children) or carries a
point label and a full set of K children keyed by edge labels 1..K.  Augmented
trees are the same structure except the root keeps exactly one child.  Leaves
are addressed by their edge-label path from the root; leaf enumeration is
depth-first in edge-label order, which is the deterministic iteration order
used throughout.  The leaf walk ANDs a class's masks down the tree, so each
leaf arrives with the class restricted to a(v) as one int.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TreeError(ValueError):
    pass


@dataclass
class KTree:
    point_index: "int | None" = None
    children: dict = field(default_factory=dict)  # edge label -> KTree

    @staticmethod
    def leaf() -> "KTree":
        return KTree()

    @property
    def is_leaf(self) -> bool:
        return self.point_index is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children.values())

    def node_at(self, path: tuple) -> "KTree":
        node = self
        for k in path:
            if node.is_leaf or k not in node.children:
                raise TreeError(f"no node at path {path}")
            node = node.children[k]
        return node

    def leaves(self, G):
        """Yield (path, pairs, mask) for every leaf v, depth-first in
        edge-label order.  pairs are a(v)'s (point_index, edge_label) pairs in
        path order; mask is G's rows that agree with all of them, so
        G.with_mask(mask) is G restricted to a(v)."""
        eq = G.bits.eq
        stack = [((), (), G.mask, self)]
        while stack:
            path, pairs, mask, node = stack.pop()
            if node.is_leaf:
                yield path, pairs, mask
            else:
                i = node.point_index
                for k in sorted(node.children, reverse=True):
                    stack.append((path + (k,), pairs + ((i, k),), mask & eq[i][k],
                                  node.children[k]))

    def grow(self, leaves, K: int) -> "KTree":
        """Extend the tree in place along each (pairs, mask) leaf's pairs and
        return it; a leaf on the way takes the pair's point and K leaves."""
        for pairs, _ in leaves:
            node = self
            for i, k in pairs:
                if node.is_leaf:
                    node.point_index = i
                    node.children = {j: KTree.leaf() for j in range(1, K + 1)}
                node = node.children[k]
        return self

    def ancestor_set(self, path: tuple) -> tuple:
        """The set a(v) of (point_index, edge_label) pairs along the root path."""
        pairs = set()
        node = self
        for k in path:
            if node.is_leaf:
                raise TreeError(f"path {path} runs past a leaf")
            pairs.add((node.point_index, k))
            node = node.children[k]
        return tuple(sorted(pairs))

    def attach(self, sub: "KTree", path: tuple) -> None:
        """Give the leaf at `path` sub's root label and children, in place.

        The tree takes over sub's nodes rather than copying them, so sub must
        not be attached anywhere else or changed afterwards.
        """
        node = self.node_at(path)
        if not node.is_leaf:
            raise TreeError(f"node at {path} is not a leaf")
        if sub.is_leaf:
            raise TreeError("cannot attach a bare leaf")
        node.point_index = sub.point_index
        node.children = sub.children

    def to_json(self, domain):
        if self.is_leaf:
            return None
        return {
            "point": domain.points[self.point_index],
            "children": {str(k): c.to_json(domain) for k, c in sorted(self.children.items())},
        }


def augmented_root(point_index: int, edge_label: int) -> KTree:
    """Root of an augmented tree: a single child reached via `edge_label`."""
    return KTree(point_index, {edge_label: KTree.leaf()})


def validate_kary(tree: KTree, npoints: int, K: int, augmented: bool = False) -> None:
    """Check the structural tree conditions: point indices in 0..npoints-1,
    edge labels in 1..K, full K-way branching below the root, and a root with
    exactly one child when `augmented`."""
    if tree.is_leaf and augmented:
        raise TreeError("augmented tree must have a rooted pair")
    stack = [(tree, 1 if augmented else K)]
    while stack:
        node, width = stack.pop()
        if node.is_leaf:
            continue
        if len(node.children) != width:
            raise TreeError(f"node has {len(node.children)} children, expected {width}")
        if not 0 <= node.point_index < npoints:
            raise TreeError(f"point index {node.point_index} outside 0..{npoints - 1}")
        for k, child in node.children.items():
            if not 1 <= k <= K:
                raise TreeError(f"edge label {k} outside 1..{K}")
            stack.append((child, K))
