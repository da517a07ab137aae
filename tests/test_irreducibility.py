import itertools
import random

import pytest

from privreg import (INFINITE, build_reducing_tree, irreducibility_level,
                     is_l_irreducible, reduction_witness_tree, sfat2, soa,
                     soa_partial, validate_reducing_tree, validate_witness_tree)
from privreg.classes import (DiscreteClass, DomainError, canonical_restriction,
                             enumerate_restriction_subclasses)
from privreg.irreducibility import reducing_leaves, witness_leaves
from privreg.oracles import irreducible_bruteforce
from privreg.trees import KTree, TreeError, augmented_root

from helpers import (F_TOY, build_reducing_tree_rescan, class_stream, dclass, full_node,
                     irreducibility_level_bounded, is_l_irreducible_bounded,
                     leaves_match_up_to_runs, reduction_witness_tree_recursive)


def test_is_l_irreducible_conventions():
    assert is_l_irreducible(F_TOY, 0)
    assert is_l_irreducible(dclass([], nx=2), 3)
    low = dclass(list(itertools.product((1, 2), repeat=2)))
    assert is_l_irreducible(low, 5)
    assert not is_l_irreducible(F_TOY, 1)
    with pytest.raises(DomainError):
        is_l_irreducible(F_TOY, -1)


def test_irreducibility_monotone_in_level():
    for F in itertools.islice(class_stream(7), 60):
        for l in range(1, 4):
            if not is_l_irreducible(F, l):
                assert not is_l_irreducible(F, l + 1)


def test_irreducibility_matches_bruteforce_with_constant_point():
    rng = random.Random(31)
    seen = set()
    for _ in range(60):
        nx, K = rng.choice([(2, 4), (3, 3), (3, 4)])
        c = rng.randint(1, K)
        hyps = {(c,) + tuple(rng.randint(1, K) for _ in range(nx - 1))
                for _ in range(rng.randint(1, 10))}
        F = dclass(hyps, K=K, nx=nx)
        for l in (1, 2):
            expected = irreducible_bruteforce(F, l)
            assert is_l_irreducible(F, l) == expected, (F.hyps, l)
            seen.add((sfat2(F) > 0, expected))
    assert seen == {(True, True), (True, False), (False, True)}


def test_is_l_irreducible_large_level_with_constant_point():
    F = dclass([(2, 1, 1), (2, 1, 3), (2, 3, 1), (2, 3, 3)], nx=3)
    assert not is_l_irreducible(F, 1)
    assert not is_l_irreducible(F, 10 ** 4)
    assert irreducibility_level(F) == 0


def test_irreducibility_level():
    assert irreducibility_level(dclass([(1, 2)])) == INFINITE
    assert irreducibility_level(F_TOY) == 0
    for F in itertools.islice(class_stream(9), 40):
        level = irreducibility_level(F)
        if level == INFINITE:
            assert sfat2(F) <= 0
        else:
            assert is_l_irreducible(F, level)
            assert not is_l_irreducible(F, level + 1)
            assert level < len(F.hyps)


def test_level_matches_the_bounded_recursion():
    # The memoized level against the bounded recursion on (mask, l) that it
    # replaced, on every restriction subclass; the reference runs on a copy
    # of each class, so they share no memo.
    levels = set()
    for nx, K in [(2, 3), (3, 3), (4, 3), (3, 4), (4, 4), (2, 5), (3, 5), (4, 6)]:
        for F in itertools.islice(class_stream(113 + 10 * nx + K, nx=nx, K=K, max_h=14), 150):
            ref_F = DiscreteClass(F.domain, F.K, F.hyps)
            for H, R in zip(enumerate_restriction_subclasses(F),
                            enumerate_restriction_subclasses(ref_F)):
                memo: dict = {}
                assert ([is_l_irreducible(H, l) for l in range(len(H.hyps) + 3)]
                        == [is_l_irreducible_bounded(R, l, memo)
                            for l in range(len(H.hyps) + 3)]), H.hyps
                assert irreducibility_level(H) == irreducibility_level_bounded(R), H.hyps
                levels.add(irreducibility_level(H))
    assert levels == {0, 1, 2, INFINITE}


def test_soa_examples():
    f = (2, 4)
    assert soa(dclass([f])) == f
    low = dclass(list(itertools.product((1, 2), repeat=2)))
    assert soa(low) == (1, 1)
    with pytest.raises(DomainError):
        soa(dclass([], nx=2))
    with pytest.raises(DomainError):
        soa(F_TOY)


def test_soa_defining_property():
    for F in itertools.islice(class_stream(13), 60):
        if not is_l_irreducible(F, 1):
            continue
        g = soa(F)
        d = sfat2(F)
        for i in range(2):
            assert sfat2(F.restrict([(i, g[i])])) == d


def test_soa_partial():
    # No single label at either point preserves sfat2 = 2.
    assert soa_partial(F_TOY) == (None, None)
    for F in itertools.islice(class_stream(17), 40):
        assert (None not in soa_partial(F)) == is_l_irreducible(F, 1)
        if is_l_irreducible(F, 1):
            assert soa_partial(F) == soa(F)
    with pytest.raises(DomainError):
        soa_partial(dclass([], nx=2))


def test_reduction_witness_tree():
    tree = reduction_witness_tree(F_TOY, 1)
    assert tree is not None and tree.depth() == 1
    assert tree.point_index == 0
    validate_witness_tree(F_TOY, tree, 1)
    assert reduction_witness_tree(dclass([(1, 2)]), 2) is None
    with pytest.raises(DomainError):
        reduction_witness_tree(F_TOY, 0)


def test_witness_tree_iff_reducible():
    for F in itertools.islice(class_stream(19), 60):
        for l in (1, 2):
            tree = reduction_witness_tree(F, l)
            if is_l_irreducible(F, l):
                assert tree is None
            else:
                assert tree is not None
                validate_witness_tree(F, tree, l)


def test_validate_witness_tree_rejects():
    tree = reduction_witness_tree(F_TOY, 1)
    with pytest.raises(TreeError):
        validate_witness_tree(F_TOY, tree, 0)   # depth exceeds level
    keep = dclass([(1, 2)])
    with pytest.raises(TreeError):
        validate_witness_tree(keep, tree, 1)    # leaves keep sfat2 = 0


def test_validators_reject_bad_labels_and_points():
    F = dclass([(1, 1), (2, 2), (3, 3), (1, 3)], K=3)
    leaf = KTree.leaf
    full = {k: leaf() for k in (1, 2, 3)}
    bad_witness = [
        # eq[0][0] is 0, so a leaf walk alone would take the 0-leaf as an
        # empty, reducing leaf and accept this tree.
        KTree(0, {0: leaf(), 2: leaf(), 3: leaf()}),
        KTree(0, {-1: leaf(), 2: leaf(), 3: leaf()}),   # -1 would alias label K
        KTree(5, dict(full)),
        KTree(0, {1: KTree(-1, dict(full)), 2: leaf(), 3: leaf()}),
    ]
    for tree in bad_witness:
        with pytest.raises(TreeError):
            validate_witness_tree(F, tree, 2)
    for tree in (augmented_root(0, 0), augmented_root(0, 4), augmented_root(2, 1)):
        with pytest.raises(TreeError):
            validate_reducing_tree(F, tree, [1, 2])


def test_build_reducing_tree_empty_pair():
    tree = build_reducing_tree(F_TOY, 0, 2, [1, 2, 4])
    assert tree.depth() == 1
    assert F_TOY.restrict(tree.ancestor_set((2,))).is_empty
    validate_reducing_tree(F_TOY, tree, [1, 2, 4])


def test_build_reducing_tree_contract():
    import random
    rng = random.Random(23)
    checked = 0
    for F in class_stream(29, max_h=10):
        d = sfat2(F)
        if d < 0:
            continue
        x = rng.randrange(2)
        ys = [y for y in range(1, 5) if sfat2(F.restrict([(x, y)])) < d]
        if not ys:
            continue
        ell_seq = [2 ** t for t in range(d + 1)]
        tree = build_reducing_tree(F, x, rng.choice(ys), ell_seq)
        validate_reducing_tree(F, tree, ell_seq)
        checked += 1
        if checked >= 40:
            break
    assert checked == 40


def test_build_reducing_tree_preconditions():
    with pytest.raises(DomainError):
        build_reducing_tree(dclass([], nx=2), 0, 1, [1])
    with pytest.raises(DomainError):
        build_reducing_tree(F_TOY, 0, 1, [1])      # sequence too short
    with pytest.raises(DomainError):
        # sfat2 = 0 class; the pair (x1,1) keeps sfat2 at 0, so no reduction.
        build_reducing_tree(dclass([(1,), (2,)], nx=1, K=4), 0, 1, [1, 1])


def test_build_reducing_tree_matches_rescan():
    rng = random.Random(59)
    checked = {True: 0, False: 0, "shortened": 0}
    for F in itertools.islice(class_stream(61, nx=3, K=4, max_h=12), 80):
        d = sfat2(F)
        for x in range(3):
            for y in range(1, 5):
                reduces = sfat2(F.restrict([(x, y)])) < d
                # Learner-style levels on reducing pairs; filter-style
                # (ell(r, t) = (r+2)^t) on every pair without the check.
                for require, ell_seq in ((True, [2 ** t for t in range(d + 1)]),
                                         (False, [rng.choice((2, 3)) ** t
                                                  for t in range(d + 1)])):
                    if require and not reduces:
                        continue
                    tree = build_reducing_tree(F, x, y, ell_seq, require_reduction=require)
                    ref = build_reducing_tree_rescan(F, x, y, ell_seq)
                    # The reference repeats a constant point's pair once per
                    # level; the library writes it at most twice in a row.
                    leaves = [(pairs, m) for _, pairs, m in tree.leaves(F) if m]
                    ref_run = leaves_match_up_to_runs(leaves, ref, F)
                    if ref_run < 2:
                        assert tree.to_json(F.domain) == ref.to_json(F.domain)
                    checked[require] += tree.depth() > 1
                    checked["shortened"] += ref_run > 2
    assert checked[True] >= 20 and checked[False] >= 20 and checked["shortened"] >= 10


@pytest.mark.parametrize("nx, K", [(2, 4), (3, 5), (4, 6)])
def test_leaf_paths_match_the_tree_references(nx, K):
    # Witness trees against the KTree recursion, and reducing-tree leaves
    # against the rescan reference, which grows its tree by that recursion.
    # The references run on a copy of each class, so they share no memo.
    rng = random.Random(97 + nx)
    checked = {"witness": 0, "reducing": 0, "shortened": 0}
    for F in itertools.islice(class_stream(101 + nx, nx=nx, K=K, max_h=12), 25):
        ref_F = DiscreteClass(F.domain, F.K, F.hyps)
        d = sfat2(F)
        for l in (1, 2, 3):
            tree = reduction_witness_tree(F, l)
            ref = reduction_witness_tree_recursive(ref_F, l)
            assert (tree is None) == (ref is None)
            if tree is not None:
                leaves = [(pairs, m) for _, pairs, m in tree.leaves(F) if m]
                ref_run = leaves_match_up_to_runs(leaves, ref, ref_F)
                if ref_run < 2:
                    assert tree.to_json(F.domain) == ref.to_json(F.domain)
                checked["shortened"] += ref_run > 2
                checked["witness"] += tree.depth() > 1
        for x in range(nx):
            for y in range(1, K + 1):
                for ell_seq in ([2 ** t for t in range(d + 1)],
                                [rng.choice((2, 3, 4)) ** t for t in range(d + 1)]):
                    leaves = reducing_leaves(F, x, y, ell_seq)
                    ref = build_reducing_tree_rescan(ref_F, x, y, ell_seq)
                    checked["shortened"] += leaves_match_up_to_runs(leaves, ref, ref_F) > 2
                    checked["reducing"] += ref.depth() > 2
    assert checked["witness"] >= 5 and checked["reducing"] >= 20 and checked["shortened"] >= 3


def test_trees_are_fresh_and_the_memo_holds_leaf_tuples():
    # _reduce_tree attaches witness trees into its own tree, so a memo that
    # handed out a stored KTree would let one run change the next one's.
    F = next(F for F in class_stream(71, nx=3, K=4, max_h=12)
             if witness_leaves(F, 3) and max(len(p) for p, _ in witness_leaves(F, 3)) > 1)
    first = reduction_witness_tree(F, 3)
    want = first.to_json(F.domain)
    second = reduction_witness_tree(F, 3)
    assert second is not first and second.to_json(F.domain) == want
    deep = max((p for p, _, _ in first.leaves(F)), key=len)
    first.attach(full_node(0, F.K), deep)
    assert first.to_json(F.domain) != want
    assert second.to_json(F.domain) == want
    assert reduction_witness_tree(F, 3).to_json(F.domain) == want
    assert type(F.memo[("witness_leaves", F.mask, 3)]) is tuple
    assert not any(isinstance(v, KTree) for v in F.memo.values())


def test_reducing_tree_leaves_yield_ancestor_sets():
    revisits = 0
    for F in itertools.islice(class_stream(67, nx=3, K=4, max_h=12), 60):
        d = sfat2(F)
        for x in range(3):
            for y in range(1, 5):
                if sfat2(F.restrict([(x, y)])) >= d:
                    continue
                tree = build_reducing_tree(F, x, y, [2 ** t for t in range(d + 1)])
                for path, pairs, mask in tree.leaves(F):
                    av = tree.ancestor_set(path)
                    assert canonical_restriction(pairs) == av
                    assert mask == F.restrict(av).mask
                    if len({i for i, _ in av}) < len(av):
                        # A point met twice with two labels: the class is empty.
                        assert mask == 0
                        revisits += 1
    assert revisits > 0
