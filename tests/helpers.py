"""Shared instance builders for the test suite."""

import random

from privreg import (BOTTOM, DiscreteClass, Domain, EmpiricalDistribution, KTree,
                     PrivacyParams, RealClass, ReduceTreeError, ReduceTreeParams,
                     RunFailure, SelectionInstance, build_reducing_tree,
                     compute_parameters, discretize_class, discretize_dataset,
                     filter_step, is_l_irreducible, noisy_opt_error, reduce_tree_reg,
                     reg_learn, rng_stream, sfat2, soa,
                     sparse_select, sup_distance, undisc_hypothesis)
from privreg.classes import DomainError, canonical_restriction, class_order, sample_cells
from privreg.irreducibility import _keepers, soa_partial
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


def ktree_from_json(obj, domain) -> KTree:
    """The tree that KTree.to_json(domain) wrote as obj."""
    if obj is None:
        return KTree.leaf()
    children = {int(k): ktree_from_json(v, domain) for k, v in obj["children"].items()}
    return KTree(domain.index(obj["point"]), children)


def reduction_witness_tree_recursive(F: DiscreteClass, l: int) -> "KTree | None":
    """Reference for reduction_witness_tree: the same point search written as
    a KTree recursion that builds each node, with no leaf paths and no memo."""
    if l < 1:
        raise DomainError(f"witness tree needs level >= 1, got {l}")
    if F.is_empty or is_l_irreducible(F, l):
        return None
    d = sfat2(F)
    for i, eq in enumerate(F.bits.eq):
        keep = _keepers(F, eq, d)
        if any(is_l_irreducible(G, l - 1) for G in keep.values()):
            continue
        # Here every child keeping sfat2 = d is not (l-1)-irreducible, so l >= 2
        # and its own witness tree exists.
        return KTree(i, {k: reduction_witness_tree_recursive(keep[k], l - 1) if k in keep
                         else KTree.leaf() for k in range(1, F.K + 1)})
    raise AssertionError("non-irreducible class must have a failing point")


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
            sub = reduction_witness_tree_recursive(G, ell_seq[d - sfat2(G)])
            if sub is None:
                continue
            tree.attach(sub, path)
            changed = True
    return tree


def soa_filter_rebuild(F: DiscreteClass, g_hat: tuple, schedule, trace=None) -> tuple:
    """Reference for soa_filter: a fresh reducing tree for every queued
    (H, x_a, y), and a fresh sorted, per-entry scan of the filtered classes.
    Returns the members in canonical order; trace as in soa_filter."""
    d = sfat2(F)
    r0 = schedule.r_max // (d + 1)
    tau0 = schedule.tau_max // (d + 1)
    filtered = filter_step(F, schedule, schedule.r_max)
    result: dict = {}
    for j in range(d + 1):
        r = schedule.r_max - j * r0 - 1
        tau = j * tau0 + 2 + schedule.chi
        queue = {(): F}
        for s in range(d + 1):
            if trace is not None:
                trace.extend((j, s, a) for a in queue)
            next_queue: dict = {}
            for a, H in queue.items():
                soa_h = soa_partial(H)
                t = d - sfat2(H)
                gaps = [float("inf") if soa_h[i] is None else abs(soa_h[i] - g_hat[i])
                        for i in range(F.domain.size)]
                if max(gaps) <= tau:
                    for L in sorted(filtered.levels[d - t], key=class_order):
                        if not is_l_irreducible(L, schedule.ell(r, t)):
                            continue
                        sl = soa(L)
                        if all(sl[i] == y for i, y in a):
                            result[L.mask] = L
                            break
                    continue
                x_a = next(i for i in range(F.domain.size) if gaps[i] >= tau + 1)
                k = g_hat[x_a]
                ell_seq = [schedule.ell(r, t + tt) for tt in range(d - t + 1)]
                for y in range(max(1, k - tau + 1), min(F.K, k + tau - 1) + 1):
                    tree = build_reducing_tree(H, x_a, y, ell_seq, require_reduction=False)
                    for _, pairs, m in tree.leaves(H):
                        if m and all(abs(g_hat[i] - yy) <= tau - 1 for i, yy in pairs):
                            next_queue[canonical_restriction(a + pairs)] = H.with_mask(m)
            queue = next_queue
    members = [L for L in result.values() if sup_distance(soa(L), g_hat) <= schedule.tau_max]
    return tuple(sorted(members, key=class_order))


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


def _midpoint_thresholds(values) -> list:
    """Candidate witness values: midpoints of realized value pairs."""
    vals = sorted(set(values))
    out = set()
    for a in vals:
        for b in vals:
            out.add((a + b) / 2.0)
    return sorted(out)


def fat_alpha_tuples(H: RealClass, alpha: float) -> int:
    """Reference for fat_alpha: every point subset, one midpoint threshold per
    point, each candidate set checked sign pattern by sign pattern on the
    hypothesis tuples."""
    if not H.hyps:
        return -1
    n = H.domain.size
    hyps = H.hyps

    usable = []
    for i in range(n):
        cands = [s for s in _midpoint_thresholds(h[i] for h in hyps)
                 if any(h[i] >= s + alpha for h in hyps)
                 and any(h[i] <= s - alpha for h in hyps)]
        if cands:
            usable.append((i, cands))

    def shattered(points_thresholds) -> bool:
        d = len(points_thresholds)
        for b in range(2 ** d):
            bits = [(b >> j) & 1 for j in range(d)]
            if not any(
                all((h[i] >= s + alpha) if bit else (h[i] <= s - alpha)
                    for (i, s), bit in zip(points_thresholds, bits))
                for h in hyps
            ):
                return False
        return True

    best = 0

    def search_exact(start: int, chosen: list) -> None:
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + (len(usable) - start) <= best:
            return
        for idx in range(start, len(usable)):
            i, cands = usable[idx]
            for s in cands:
                trial = chosen + [(i, s)]
                if shattered(trial):
                    search_exact(idx + 1, trial)

    search_exact(0, [])
    return best


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

    eta_hat = noisy_opt_error(F, sample_cells(T, F.domain.size, F.K),
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
