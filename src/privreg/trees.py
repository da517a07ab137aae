"""K-ary domain-labeled trees, ancestor sets, and tree attachment.

A tree node either is a leaf (point_index is None, no children) or carries a
point label and a full set of K children keyed by edge labels 1..K.  Augmented
trees are the same structure except the root keeps exactly one child.  Leaves
are addressed by their edge-label path from the root; leaf enumeration is
depth-first in edge-label order, which is the deterministic iteration order
used throughout.
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

    def leaves(self):
        """Yield (path, a(v)) for every leaf v, depth-first in edge-label
        order; a(v) is built on the way down and equals ancestor_set(path)."""
        stack = [((), (), self)]
        while stack:
            path, pairs, node = stack.pop()
            if node.is_leaf:
                yield path, tuple(sorted(set(pairs)))
            else:
                for k in sorted(node.children, reverse=True):
                    stack.append((path + (k,), pairs + ((node.point_index, k),),
                                  node.children[k]))

    def nodes(self):
        """Yield (path, node) for every node including the root."""
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            if not node.is_leaf:
                for k in sorted(node.children, reverse=True):
                    stack.append((path + (k,), node.children[k]))

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

    @staticmethod
    def from_json(obj, domain) -> "KTree":
        if obj is None:
            return KTree.leaf()
        children = {int(k): KTree.from_json(v, domain) for k, v in obj["children"].items()}
        return KTree(domain.index(obj["point"]), children)


def augmented_root(point_index: int, edge_label: int) -> KTree:
    """Root of an augmented tree: a single child reached via `edge_label`."""
    return KTree(point_index, {edge_label: KTree.leaf()})


def validate_kary(tree: KTree, K: int, augmented: bool = False) -> None:
    """Check the structural tree conditions (full K-way branching below the
    root; the root has exactly one child when `augmented`)."""
    if tree.is_leaf:
        if augmented:
            raise TreeError("augmented tree must have a rooted pair")
        return
    expected_root = 1 if augmented else K
    if len(tree.children) != expected_root:
        raise TreeError(f"root has {len(tree.children)} children, expected {expected_root}")
    for _, node in tree.nodes():
        if node is tree or node.is_leaf:
            continue
        if len(node.children) != K or set(node.children) != set(range(1, K + 1)):
            raise TreeError("internal node lacks full K-way branching")
