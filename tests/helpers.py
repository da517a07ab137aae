"""Shared instance builders for the test suite."""

import random

from privreg import (BOTTOM, DiscreteClass, Domain, EmpiricalDistribution, KTree,
                     PrivacyParams, RealClass, ReduceTreeError, ReduceTreeParams,
                     RunFailure, SelectionInstance, compute_parameters,
                     discretize_class, discretize_dataset, noisy_opt_error,
                     reduce_tree_reg, reduction_witness_tree, reg_learn, rng_stream,
                     sfat2, soa, sparse_select, undisc_hypothesis)
from privreg.classes import class_order
from privreg.pipeline import _member_ids
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


def reg_learn_per_group(H: RealClass, data, cfg, seed: int):
    """Reference for reg_learn: each group's errors from its own empirical
    distribution, through reduce_tree_reg, one group at a time.  Returns
    (transcript, g_hat, L_hat rows), g_hat and L_hat None on BOTTOM."""
    rng = rng_stream(seed)
    params = compute_parameters(H, cfg)
    F = discretize_class(H, cfg.eta_bar)
    need = params.n1 + params.m * params.n0
    if callable(data):
        data = data(need, rng)
    disc = discretize_dataset(data[:need], cfg.eta_bar)
    T = disc[: params.n1]
    groups = [disc[params.n1 + j * params.n0: params.n1 + (j + 1) * params.n0]
              for j in range(params.m)]

    eta_hat = noisy_opt_error(F, EmpiricalDistribution.from_samples(T),
                              cfg.epsilon, params.n1, rng)
    alpha1 = eta_hat + params.alpha_delta / 2 + params.d * params.alpha_delta
    rt_params = ReduceTreeParams(alpha1, params.alpha_delta, params.ell_prime)

    group_sets, s_sizes, abstained = [], [], []
    id_to_class: dict = {}
    for j, g in enumerate(groups):
        try:
            out = reduce_tree_reg(F, EmpiricalDistribution.from_samples(g), rt_params)
        except ReduceTreeError:
            abstained.append(j)
            s_sizes.append(0)
            group_sets.append([])
            continue
        s_sizes.append(len(out.candidate_set))
        ids = set()
        for g_hat in out.candidate_set:
            for cid, L in _member_ids(F, g_hat, params.schedule):
                ids.add(cid)
                prev = id_to_class.get(cid)
                if prev is None or class_order(L) < class_order(prev):
                    id_to_class[cid] = L
        group_sets.append(sorted(ids))

    sparsity = max(1, max((len(s) for s in group_sets), default=1))
    inst = SelectionInstance(group_sets, sparsity)
    winner = sparse_select(inst, PrivacyParams(cfg.epsilon, cfg.delta), rng)
    transcript = {
        "eta_hat": eta_hat,
        "alpha1": alpha1,
        "s_sizes": s_sizes,
        "r_sizes": [len(s) for s in group_sets],
        "abstained": abstained,
        "sparsity": sparsity,
        "truncated_users": inst.truncated_users,
        "winner": None if winner is BOTTOM else winner,
    }
    if winner is BOTTOM:
        return transcript, None, None
    L_hat = id_to_class[winner]
    return transcript, soa(L_hat), L_hat.hyps


def reg_learn_result(H: RealClass, data, cfg, seed: int):
    """reg_learn's (transcript, g_hat, L_hat rows), g_hat and L_hat None on
    BOTTOM, the form reg_learn_per_group returns."""
    try:
        out = reg_learn(H, data, cfg, seed=seed)
    except RunFailure as failure:
        return failure.transcript, None, None
    assert undisc_hypothesis(out.g_hat, out.params.K) == out.h_hat
    return out.transcript, out.g_hat, out.L_hat.hyps
