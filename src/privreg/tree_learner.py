"""Grow the K-ary reduction tree over low-error classes and emit candidate
labelings from its irreducible leaves.

The learner runs d = sfat2(F) rounds.  Each round looks at the leaves whose
restricted low-error class attains the maximum sfat2; it breaks as soon as one
of them is irreducible at the round's level and stable under the alpha step,
and otherwise expands those leaves with witness trees that strictly reduce
sfat2 below them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import (DiscreteClass, DomainError, EmpiricalDistribution, empirical_errors,
                      memoized)
from .dimensions import sfat2, sfat2_mask
from .irreducibility import is_l_irreducible, reduction_witness_tree, soa
from .trees import KTree

# Empirical errors are correctly rounded integers over n; thresholds carry >= 1
# slack, so a fixed tiny tolerance on the comparison cannot flip any semantics.
_ERR_SLACK = 1e-9


class ReduceTreeError(RuntimeError):
    """The maximum leaf dimension went negative: every leaf's low-error class
    is empty, i.e. alpha1 was too small for this dataset."""


@dataclass(frozen=True)
class ReduceTreeParams:
    alpha1: float
    alpha_delta: float
    ell_prime: int

    def __post_init__(self):
        if self.alpha_delta <= 0:
            raise DomainError("alpha_delta must be positive")
        if self.ell_prime < 1:
            raise DomainError("ell_prime must be >= 1")

    def alpha(self, t: int) -> float:
        return self.alpha1 - (t - 1) * self.alpha_delta

    def ell(self, t: int) -> int:
        return self.ell_prime * 2 ** t


@dataclass
class ReduceTreeOutput:
    candidate_set: tuple     # sorted label vectors
    tree: KTree
    leaves: tuple            # paths of the output leaf set
    t_final: int


def level_class(F: DiscreteClass, P: EmpiricalDistribution, alpha: float) -> DiscreteClass:
    """The subclass of F with empirical error at most alpha."""
    masks, _ = _level_masks(F, empirical_errors(F, P), [alpha])
    return F.with_mask(masks[0][0])


def _level_masks(F: DiscreteClass, errs: np.ndarray, alphas: list) -> tuple:
    """For each row of errs (the errors of F.hyps in order on one dataset) and
    each alpha, the mask of F's hypotheses with error at most alpha; rows that
    give the same masks share one entry.  Returns (masks, index): row r's
    masks are masks[index[r]], one int per alpha."""
    within = errs[:, None, :] <= np.array(alphas)[:, None] + _ERR_SLACK
    patterns: dict = {}
    index = [patterns.setdefault(row.tobytes(), len(patterns)) for row in within]
    bits = [F.bits.bit[f] for f in F.hyps]
    masks = [tuple(sum(b for b, keep in zip(bits, row) if keep)
                   for row in np.frombuffer(p, dtype=bool).reshape(len(alphas), -1).tolist())
             for p in patterns]
    return masks, index


def reduce_tree_reg(F: DiscreteClass, P_hat: EmpiricalDistribution,
                    params: ReduceTreeParams) -> ReduceTreeOutput:
    results, _ = reduce_tree_rows(F, empirical_errors(F, P_hat), params)
    if isinstance(results[0], ReduceTreeError):
        raise results[0]
    return results[0]


def reduce_tree_rows(F: DiscreteClass, errs: np.ndarray, params: ReduceTreeParams):
    """reduce_tree_reg on each of several datasets, given as the rows of errs:
    row r holds the empirical errors of F.hyps, in order, on dataset r.

    Returns (results, index): dataset r's result is results[index[r]], a
    ReduceTreeOutput or the ReduceTreeError its run raised.
    """
    if F.is_empty:
        raise DomainError("reduce_tree_reg requires a nonempty class")
    d = sfat2(F)
    # Alpha enters only through the level classes at the 2(d+1) thresholds the
    # run can touch, so runs inducing the same subclasses share one result.
    # The first d+2 masks are at alpha(1..d+2); the other d+1 are
    # 2*alpha_delta/3 below alpha(1..d+1).  The level classes themselves are
    # built only on a memo miss.
    alphas = ([params.alpha(t) for t in range(1, d + 3)]
              + [params.alpha(t) - 2 * params.alpha_delta / 3 for t in range(1, d + 2)])
    masks, index = _level_masks(F, errs, alphas)
    results = []
    for m in masks:
        levels, out_levels = m[:d + 2], m[d + 2:]
        key = ("reduce_tree_reg", F.mask, params.ell_prime, levels, out_levels)
        try:
            results.append(memoized(F.memo, key, lambda: _reduce_tree(
                tuple(map(F.with_mask, levels)), tuple(map(F.with_mask, out_levels)),
                params, d)))
        except ReduceTreeError as e:
            results.append(e)
    return results, index


def _max_dim_leaves(tree: KTree, level: DiscreteClass):
    """The highest sfat2 of level at a leaf, and the (path, mask of level's
    rows there) of the leaves attaining it, in leaf order."""
    leaves = [(p, m) for p, _, m in tree.leaves(level)]
    dims = [sfat2_mask(level, m) for _, m in leaves]
    w_star = max(dims)
    return w_star, [leaf for leaf, w in zip(leaves, dims) if w == w_star]


def _reduce_tree(levels: tuple, out_levels: tuple, params: ReduceTreeParams,
                 d: int) -> ReduceTreeOutput:
    tree = KTree.leaf()
    t_final = d
    for t in range(1, d + 1):
        w_star, front = _max_dim_leaves(tree, levels[t - 1])
        if w_star < 0:
            raise ReduceTreeError(f"all leaf classes empty at round {t}")
        # Each front leaf's class one alpha step down, a subclass of its class
        # at this round's level (levels[t] is inside levels[t-1]): sfat2 <= w_star.
        lows = [(p, levels[t].with_mask(levels[t].mask & m)) for p, m in front]
        if any(sfat2(lo) == w_star and is_l_irreducible(lo, params.ell(t)) for _, lo in lows):
            t_final = t - 1
            break
        for p, lo in lows:
            if sfat2(lo) < w_star:
                continue
            ell_v = next(l for l in range(1, params.ell(t) + 1)
                         if not is_l_irreducible(lo, l))
            witness = reduction_witness_tree(lo, ell_v)
            assert witness is not None and witness.depth() <= ell_v
            tree.attach(witness, p)

    _, front = _max_dim_leaves(tree, levels[t_final])
    # out_levels[t_final] is inside levels[t_final], whose leaf masks front has.
    last = out_levels[t_final]
    candidates = []
    for _, m in front:
        cls = last.with_mask(last.mask & m)
        if not cls.is_empty and is_l_irreducible(cls, params.ell_prime):
            candidates.append(soa(cls))
    return ReduceTreeOutput(tuple(sorted(set(candidates))), tree,
                            tuple(p for p, _ in front), t_final)
