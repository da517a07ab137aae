import pytest

from privreg import KTree, TreeError
from privreg.classes import canonical_restriction
from privreg.trees import augmented_root, validate_kary

from helpers import X2, dclass, full_node, ktree_from_json


def test_leaf_and_depth():
    leaf = KTree.leaf()
    assert leaf.is_leaf and leaf.depth() == 0
    node = full_node(0, 4)
    assert node.depth() == 1 and len(node.children) == 4


def test_attach_identity():
    base = KTree.leaf()
    sub = full_node(1, 3)
    base.attach(sub, ())
    assert base.point_index == 1
    assert sorted(base.children) == [1, 2, 3]
    with pytest.raises(TreeError):
        base.attach(sub, ())          # no longer a leaf
    with pytest.raises(TreeError):
        base.attach(KTree.leaf(), (1,))


def test_attach_takes_over_subtree():
    base = full_node(0, 2)
    sub = full_node(1, 2)
    sub.attach(full_node(0, 2), (2,))
    base.attach(sub, (1,))
    node = base.node_at((1,))
    assert node.point_index == 1
    assert all(node.children[k] is sub.children[k] for k in (1, 2))
    assert base.node_at((1, 2)) is sub.children[2]


def test_ancestor_sets():
    t = full_node(0, 2)
    t.attach(full_node(1, 2), (2,))
    assert t.ancestor_set((2, 1)) == ((0, 2), (1, 1))
    assert t.ancestor_set(()) == ()
    with pytest.raises(TreeError):
        t.ancestor_set((1, 1, 1))


def test_leaves_order_deterministic():
    t = full_node(0, 3)
    paths = [p for p, _, _ in t.leaves(dclass([(1, 1)], K=3))]
    assert paths == [(1,), (2,), (3,)]


def test_leaves_yield_ancestor_sets():
    t = full_node(1, 2)
    t.attach(full_node(0, 2), (2,))
    t.attach(full_node(1, 2), (2, 1))
    # Rows in bit order: (1,1), (1,2), (2,1), (2,2).
    G = dclass([(1, 1), (1, 2), (2, 1), (2, 2)], K=2)
    assert list(t.leaves(G)) == [
        ((1,), ((1, 1),), 0b0101),
        ((2, 1, 1), ((1, 2), (0, 1), (1, 1)), 0),
        ((2, 1, 2), ((1, 2), (0, 1), (1, 2)), 0b0010),
        ((2, 2), ((1, 2), (0, 2)), 0b1000),
    ]
    for H in (G, G.restrict([(0, 1)]), G.restrict([(0, 2), (1, 1)])):
        for p, pairs, mask in t.leaves(H):
            assert canonical_restriction(pairs) == t.ancestor_set(p)
            assert mask == H.restrict(t.ancestor_set(p)).mask


def test_validate_kary():
    validate_kary(KTree.leaf(), 2, 4)
    validate_kary(full_node(0, 4), 2, 4)
    bad = KTree(0, {1: KTree.leaf()})
    with pytest.raises(TreeError):
        validate_kary(bad, 2, 4)
    validate_kary(augmented_root(0, 2), 2, 4, augmented=True)
    with pytest.raises(TreeError):
        validate_kary(KTree.leaf(), 2, 4, augmented=True)
    with pytest.raises(TreeError):
        validate_kary(full_node(0, 4), 2, 4, augmented=True)
    deep = full_node(0, 2)
    deep.attach(full_node(1, 2), (2,))
    validate_kary(deep, 2, 2)
    for tree, augmented in ((KTree(0, {0: KTree.leaf(), 2: KTree.leaf()}), False),
                            (KTree(0, {1: KTree.leaf(), 3: KTree.leaf()}), False),
                            (full_node(2, 2), False),
                            (augmented_root(0, 0), True),
                            (augmented_root(-1, 1), True)):
        with pytest.raises(TreeError):
            validate_kary(tree, 2, 2, augmented=augmented)
    for path in ((1,), (2, 1), (2, 2)):
        for sub in (full_node(-1, 2), full_node(2, 2),
                    KTree(0, {1: KTree.leaf(), -1: KTree.leaf()})):
            tree = full_node(0, 2)
            tree.attach(full_node(1, 2), (2,))
            tree.attach(sub, path)
            with pytest.raises(TreeError):
                validate_kary(tree, 2, 2)


def test_json_roundtrip():
    t = full_node(0, 2)
    t.attach(full_node(1, 2), (1,))
    obj = t.to_json(X2)
    back = ktree_from_json(obj, X2)
    assert back.to_json(X2) == obj
    assert ktree_from_json(None, X2).is_leaf
