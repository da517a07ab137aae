"""Shared instance builders for the test suite."""

import random

from privreg import DiscreteClass, Domain, KTree, RealClass, reduction_witness_tree, sfat2
from privreg.trees import augmented_root


def make_domain(n: int) -> Domain:
    return Domain(tuple(f"x{i}" for i in range(1, n + 1)))


X1 = make_domain(1)
X2 = make_domain(2)
X3 = make_domain(3)


def dclass(hyps, K=4, nx=2) -> DiscreteClass:
    return DiscreteClass(make_domain(nx), K, tuple(tuple(h) for h in hyps))


# Product class {1,3}^2: sfat2 = 2, not 1-irreducible.
F_TOY = dclass([(1, 1), (1, 3), (3, 1), (3, 3)])

# Desk-scale end-to-end instance; discretizes at eta=0.5 to
# {(1,3),(2,1),(3,4),(4,1)}, whose four values at x1 are all distinct.
H_DESK = RealClass(X2, ((-0.75, 0.25), (-0.25, -0.75), (0.25, 0.75),
                        (0.75, -0.75)))
F_DESK = dclass([(1, 3), (2, 1), (3, 4), (4, 1)])


def random_class(rng: random.Random, nx=2, K=4, min_h=1, max_h=8) -> DiscreteClass:
    n = rng.randint(min_h, max_h)
    hyps = {tuple(rng.randint(1, K) for _ in range(nx)) for _ in range(n)}
    return DiscreteClass(make_domain(nx), K, tuple(hyps))


def class_stream(seed: int, nx=2, K=4, min_h=1, max_h=8):
    """Endless deterministic stream of random nonempty classes."""
    rng = random.Random(seed)
    while True:
        yield random_class(rng, nx=nx, K=K, min_h=min_h, max_h=max_h)


def full_node(point_index: int, K: int) -> KTree:
    """Internal node with K fresh leaf children."""
    return KTree(point_index, {k: KTree.leaf() for k in range(1, K + 1)})


def build_reducing_tree_rescan(H: DiscreteClass, x_index: int, y: int, ell_seq) -> KTree:
    """Reference for build_reducing_tree: rescan every leaf, rebuilding its
    class from the root, until no leaf takes a witness tree."""
    d = sfat2(H)
    tree = augmented_root(x_index, y)
    changed = True
    while changed:
        changed = False
        for path, _, _ in list(tree.leaves(H)):
            G = H.restrict(tree.ancestor_set(path))
            if G.is_empty:
                continue
            sub = reduction_witness_tree(G, ell_seq[d - sfat2(G)])
            if sub is None:
                continue
            tree.attach(sub, path)
            changed = True
    return tree


def sfat2_tuples(F: DiscreteClass) -> int:
    """Reference for sfat2: the threshold recursion on hypothesis tuples,
    with no pruning, memoized per call."""
    memo: dict = {}

    def rec(hyps: tuple) -> int:
        if not hyps:
            return -1
        if hyps in memo:
            return memo[hyps]
        best = 0
        for i in range(F.domain.size):
            for s in range(2, F.K):
                up = tuple(h for h in hyps if h[i] >= s + 1)
                down = tuple(h for h in hyps if h[i] <= s - 1)
                if up and down:
                    best = max(best, 1 + min(rec(up), rec(down)))
        memo[hyps] = best
        return best

    return rec(F.hyps)
