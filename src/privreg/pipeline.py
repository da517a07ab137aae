"""End-to-end private regression learner.

Discretizes the real class, privately estimates the optimal error, runs the
reduction-tree learner on m disjoint sample groups, filters each group's
candidates into strongly stable representative sets, and privately selects a
consensus labeling.  Theoretical sample sizes are astronomically large, so the
resolver refuses to run without explicit overrides when the formulas exceed
the desk-scale cutoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .classes import (DiscreteClass, DomainError, EmpiricalDistribution, RealClass,
                      abs_error, class_order, discretize_class, discretize_dataset,
                      group_errors, label_count, memoized, sample_cells,
                      undisc_hypothesis)
from .dimensions import fat_alpha, sfat2
from .dp import (BOTTOM, PrivacyParams, SelectionInstance, candidate_id,
                 noisy_opt_error, rng_stream, sparse_select)
from .filtering import LadderSchedule, soa_filter
from .irreducibility import soa
from .tree_learner import ALPHA_DELTA, ReduceTreeError, ReduceTreeParams, reduce_tree_rows

_DESK_SCALE_CUTOFF = 10 ** 7
# The sample-size formulas' constants: C0 scales n0, n1 and ell_prime, C
# scales m, and c0 * eta is the margin of fat_alpha.
C0 = 4.0
C = 4.0
c0 = 0.25


class TheoreticalScaleError(RuntimeError):
    """A resolved sample-size formula exceeds the desk-scale cutoff and no
    explicit override was supplied."""


class RunFailure(RuntimeError):
    """Sparse selection returned BOTTOM; the transcript is attached."""

    def __init__(self, message, transcript):
        super().__init__(message)
        self.transcript = transcript


@dataclass(frozen=True)
class RegLearnConfig:
    epsilon: float
    delta: float
    eta_bar: float
    beta: float
    ell_bar: int
    m: "int | None" = None
    n0: "int | None" = None
    n1: "int | None" = None
    ell_prime: "int | None" = None
    chi: int = 5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if self.epsilon >= 1.0:
            warnings.warn(f"epsilon = {self.epsilon} is large for a privacy budget")
        for name in ("delta", "eta_bar", "beta"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must be in (0,1), got {v}")
        if self.ell_bar < 1:
            raise DomainError("ell_bar must be >= 1")
        for name in ("m", "n0", "n1", "ell_prime"):
            v = getattr(self, name)
            if v is not None and (type(v) is not int or v < 1):
                raise DomainError(f"override {name} must be a positive integer")


@dataclass
class ResolvedParams:
    K: int
    d: int
    m: int
    n0: int
    n1: int
    ell_prime: int
    schedule: LadderSchedule
    fat: int
    overridden: tuple = ()


@dataclass
class RegLearnOutput:
    h_hat: tuple
    L_hat: DiscreteClass
    g_hat: tuple               # soa(L_hat)
    transcript: dict
    params: ResolvedParams


def _resolve(name, formula_value, override):
    if override is not None:
        return override, True
    value = math.ceil(formula_value)
    if value > _DESK_SCALE_CUTOFF:
        raise TheoreticalScaleError(
            f"{name} resolves to {value:.3g}; supply an explicit {name} override "
            f"to run at desk scale")
    return value, False


def compute_parameters(H: RealClass, cfg: RegLearnConfig) -> ResolvedParams:
    F = discretize_class(H, cfg.eta_bar)
    K = label_count(cfg.eta_bar)
    d = sfat2(F)
    if d < 0:
        raise DomainError("empty hypothesis class")
    eta = cfg.eta_bar
    fat = fat_alpha(H, c0 * eta)
    logterm = math.log(1.0 / (cfg.epsilon * cfg.delta * cfg.beta * eta))
    m_f = C * cfg.ell_bar * (2 * d + 6) ** (d + 4) * logterm ** 2 / (cfg.epsilon * eta ** 2)
    m, m_ovr = _resolve("m", m_f, cfg.m)
    n0_f = C0 * (max(fat, 0) * math.log(1.0 / eta) + math.log(4 * m / cfg.beta)) / eta ** 2
    n0, n0_ovr = _resolve("n0", n0_f, cfg.n0)
    n1_f = (C0 * max(fat, 0) * math.log(1.0 / eta) + math.log(8 / cfg.beta)) / (cfg.epsilon * eta ** 2)
    n1, n1_ovr = _resolve("n1", n1_f, cfg.n1)
    ellp_f = max(cfg.ell_bar * (d + 3) ** d, C0 * K ** 2 * (d * math.log(K) + 1))
    ell_prime, ellp_ovr = _resolve("ell_prime", ellp_f, cfg.ell_prime)
    schedule = LadderSchedule(cfg.ell_bar, d + 1, 12 * (d + 1), cfg.chi)
    overridden = tuple(n for n, f in
                       (("m", m_ovr), ("n0", n0_ovr), ("n1", n1_ovr),
                        ("ell_prime", ellp_ovr)) if f)
    return ResolvedParams(K=K, d=d, m=m, n0=n0, n1=n1, ell_prime=ell_prime,
                          schedule=schedule, fat=fat, overridden=overridden)


def _member_ids(F: DiscreteClass, g_hat: tuple, schedule: LadderSchedule) -> tuple:
    """(candidate id, class) of each member of g_hat's filtered set, memoized
    on F."""
    return memoized(F.memo, ("member_ids", F.mask, schedule, g_hat), lambda: tuple(
        (candidate_id(soa(L)), L) for L in soa_filter(F, g_hat, schedule).members))


def reg_learn(H: RealClass, data, cfg: RegLearnConfig, seed: "int | None" = None,
              rng=None) -> RegLearnOutput:
    """Run the full pipeline.

    data is either a list of (point_index, y) pairs of size >= n1 + m*n0 or a
    callable sampler(n, rng) producing one.  Exactly one of seed/rng must be
    given; a passed rng is consumed sequentially (noise draws only).
    """
    if (seed is None) == (rng is None):
        raise DomainError("provide exactly one of seed or rng")
    if rng is None:
        rng = rng_stream(seed)
    params = compute_parameters(H, cfg)
    F = discretize_class(H, cfg.eta_bar)
    need = params.n1 + params.m * params.n0
    if callable(data):
        data = data(need, rng)
    if len(data) < need:
        raise DomainError(f"need {need} samples, got {len(data)}")
    disc = discretize_dataset(data[:need], cfg.eta_bar)
    cells = sample_cells(disc, F.domain.size, params.K)

    eta_hat = noisy_opt_error(F, cells[:params.n1], cfg.epsilon, rng)
    alpha1 = eta_hat + ALPHA_DELTA / 2 + params.d * ALPHA_DELTA
    rt_params = ReduceTreeParams(alpha1, ALPHA_DELTA, params.ell_prime)

    errs = group_errors(F, cells[params.n1:], params.n0)
    results, index = reduce_tree_rows(F, errs, rt_params)

    # Each distinct result's candidates are merged once, for all its groups.
    id_to_class: dict = {}
    merged = []
    for out in results:
        if isinstance(out, ReduceTreeError):
            merged.append(None)
            continue
        ids = set()
        for g_hat in out.candidate_set:
            for cid, L in _member_ids(F, g_hat, params.schedule):
                ids.add(cid)
                prev = id_to_class.get(cid)
                if prev is None or class_order(L) < class_order(prev):
                    id_to_class[cid] = L
        merged.append((len(out.candidate_set), sorted(ids)))
    group_sets = [[] if merged[r] is None else merged[r][1] for r in index]
    s_sizes = [0 if merged[r] is None else merged[r][0] for r in index]
    abstained = [j for j, r in enumerate(index) if merged[r] is None]

    sparsity = max(1, max((len(s) for s in group_sets), default=1))
    inst = SelectionInstance(group_sets, sparsity)
    priv = PrivacyParams(cfg.epsilon, cfg.delta)
    winner = sparse_select(inst, priv, rng)
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
        raise RunFailure("sparse selection returned BOTTOM", transcript)
    L_hat = id_to_class[winner]
    g_hat = soa(L_hat)
    h_hat = undisc_hypothesis(g_hat, params.K)
    return RegLearnOutput(h_hat, L_hat, g_hat, transcript, params)


def excess_risk(h_hat, test_data, H: RealClass) -> float:
    """err(h_hat) - min over H, both against the supplied samples or
    distribution (real labels)."""
    if isinstance(test_data, EmpiricalDistribution):
        Q = test_data
    else:
        Q = EmpiricalDistribution.from_samples(test_data)
    if not H.hyps:
        raise DomainError("empty comparison class")
    return abs_error(h_hat, Q) - min(abs_error(h, Q) for h in H.hyps)
