"""Grow the K-ary reduction tree over low-error classes and emit candidate
labelings from its irreducible leaves.

The learner runs d = sfat2(F) rounds.  Each round looks at the leaves whose
restricted low-error class attains the maximum sfat2; it breaks as soon as one
of them is irreducible at the round's level and stable under the alpha step,
and otherwise expands those leaves with witness trees that strictly reduce
sfat2 below them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classes import (DiscreteClass, DomainError, EmpiricalDistribution, abs_error,
                      memoized)
from .dimensions import sfat2
from .irreducibility import is_l_irreducible, reduction_witness_tree, soa
from .trees import KTree

# Empirical errors are finite sums of rationals; thresholds carry >= 1 slack,
# so a fixed tiny tolerance on the comparison cannot flip any semantics.
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
    params: ReduceTreeParams = field(repr=False, default=None)


def level_class(F: DiscreteClass, P: EmpiricalDistribution, alpha: float) -> DiscreteClass:
    """The subclass of F with empirical error at most alpha."""
    return F.with_hyps(f for f in F.hyps if abs_error(f, P) <= alpha + _ERR_SLACK)


def reduce_tree_reg(F: DiscreteClass, P_hat: EmpiricalDistribution,
                    params: ReduceTreeParams) -> ReduceTreeOutput:
    if F.is_empty:
        raise DomainError("reduce_tree_reg requires a nonempty class")
    d = sfat2(F)
    # Alpha enters only through the level classes at the 2(d+1) thresholds the
    # run can touch, so runs inducing the same subclasses share one result.
    levels = tuple(level_class(F, P_hat, params.alpha(t)).hyps for t in range(1, d + 3))
    out_levels = tuple(
        level_class(F, P_hat, params.alpha(t) - 2 * params.alpha_delta / 3).hyps
        for t in range(1, d + 2))
    return memoized(F.memo, ("reduce_tree_reg", F.hyps, params.ell_prime, levels, out_levels),
                    _reduce_tree, F, P_hat, params, d)


def _reduce_tree(F: DiscreteClass, P_hat: EmpiricalDistribution, params: ReduceTreeParams,
                 d: int) -> ReduceTreeOutput:
    def G(alpha: float, path: tuple) -> DiscreteClass:
        return level_class(F, P_hat, alpha).restrict(
            tree.ancestor_set(path))

    tree = KTree.leaf()
    t_final = d
    for t in range(1, d + 1):
        alpha_t = params.alpha(t)
        leaf_paths = [p for p, _ in tree.leaves()]
        dims = [sfat2(G(alpha_t, p)) for p in leaf_paths]
        w_star = max(dims)
        front = [p for p, w in zip(leaf_paths, dims) if w == w_star]
        if w_star < 0:
            raise ReduceTreeError(f"all leaf classes empty at round {t}")
        broke = False
        for p in front:
            lo = G(alpha_t - params.alpha_delta, p)
            if sfat2(lo) == w_star >= 0 and is_l_irreducible(lo, params.ell(t)):
                broke = True
                break
        if broke:
            t_final = t - 1
            break
        for p in front:
            hi = G(alpha_t, p)
            lo = G(alpha_t - params.alpha_delta, p)
            if hi.is_empty or sfat2(lo) < sfat2(hi):
                continue
            ell_v = next(l for l in range(1, params.ell(t) + 1)
                         if not is_l_irreducible(lo, l))
            witness = reduction_witness_tree(lo, ell_v)
            assert witness is not None and witness.depth() <= ell_v
            tree.attach(witness, p)

    alpha_out = params.alpha(t_final + 1)
    leaf_paths = [p for p, _ in tree.leaves()]
    dims = [sfat2(G(alpha_out, p)) for p in leaf_paths]
    w_star = max(dims)
    front = tuple(p for p, w in zip(leaf_paths, dims) if w == w_star)
    candidates = []
    for p in front:
        cls = G(alpha_out - 2 * params.alpha_delta / 3, p)
        if not cls.is_empty and is_l_irreducible(cls, params.ell_prime):
            candidates.append(soa(cls))
    return ReduceTreeOutput(tuple(sorted(set(candidates))), tree, front, t_final, params)


def output_tree_depth(out: ReduceTreeOutput) -> int:
    return out.tree.depth()
