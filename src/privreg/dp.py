"""Laplace mechanism, private optimal-error estimate, sparse selection over an
unbounded candidate universe, and an empirical privacy audit.

All randomness flows through explicit numpy Generators; deterministic stream
splitting from a master seed is provided by rng_stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .classes import DiscreteClass, DomainError, group_errors


class Bottom:
    """Sentinel: no candidate cleared the selection threshold."""

    def __repr__(self):
        return "BOTTOM"


BOTTOM = Bottom()


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if self.epsilon >= 1.0:
            warnings.warn(f"epsilon = {self.epsilon} is large for a privacy budget")
        if not (0.0 < self.delta < 1.0):
            raise DomainError("delta must be in (0,1)")


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a fixed branch of the seed tree."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))


def laplace_sample(b: float, rng: np.random.Generator) -> float:
    """One Laplace(0, b) draw via inverse CDF on a single uniform."""
    if b <= 0:
        raise DomainError("Laplace scale must be positive")
    u = rng.random()
    while u == 0.0:  # log(0) below; only such a draw is taken again
        u = rng.random()
    u -= 0.5
    return -b * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def noisy_opt_error(F: DiscreteClass, cells: np.ndarray, epsilon: float,
                    n1: int, rng: np.random.Generator) -> float:
    """Minimum empirical error over F on the n1 samples given by their
    sample_cells, plus Laplace(2K/(epsilon*n1)) noise.

    The minimum has sensitivity at most K/n1 under single-sample replacement,
    so the release satisfies (epsilon/2, 0)-DP.
    """
    if n1 < 1 or len(cells) != n1:
        raise DomainError(f"need the cells of n1 >= 1 samples, got {len(cells)} for n1 = {n1}")
    if F.is_empty:
        raise DomainError("empty class has no minimum error")
    return float(group_errors(F, cells, n1).min()) + laplace_sample(2.0 * F.K / (epsilon * n1), rng)


def candidate_id(vector) -> str:
    """Stable content hash of a canonical label vector."""
    payload = json.dumps(list(vector), separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class SelectionInstance:
    user_sets: list            # list of lists of candidate ids
    sparsity: int
    truncated_users: list = field(default_factory=list)

    def __post_init__(self):
        if self.sparsity < 1:
            raise DomainError("sparsity must be >= 1")
        if len(self.user_sets) < 1:
            raise DomainError("need at least one user")
        trimmed = []
        self.truncated_users = []
        for i, s in enumerate(self.user_sets):
            uniq = sorted(set(s))
            if len(uniq) > self.sparsity:
                self.truncated_users.append(i)
                uniq = uniq[: self.sparsity]
            trimmed.append(uniq)
        self.user_sets = trimmed


def selection_threshold(sparsity: int, priv: PrivacyParams) -> float:
    return 1.0 + (2.0 * sparsity / priv.epsilon) * math.log(2.0 * sparsity / priv.delta)


def sparse_select(inst: SelectionInstance, priv: PrivacyParams,
                  rng: np.random.Generator):
    """Thresholded stable histogram over the users' candidate sets.

    Exact counts get per-bin Laplace(2s/epsilon) noise; bins at or below the
    threshold are dropped and the noisy argmax of the survivors is returned,
    BOTTOM if none survive.  Changing one user moves at most 2s bins by 1 each.
    """
    counts: dict = {}
    for s in inst.user_sets:
        for u in s:
            counts[u] = counts.get(u, 0) + 1
    tau = selection_threshold(inst.sparsity, priv)
    best = None
    best_noisy = None
    # Iterate in sorted id order so the draw sequence is input-deterministic.
    for u in sorted(counts):
        noisy = counts[u] + laplace_sample(2.0 * inst.sparsity / priv.epsilon, rng)
        if noisy <= tau:
            continue
        if best_noisy is None or noisy > best_noisy:
            best, best_noisy = u, noisy
    return BOTTOM if best is None else best


def _neighboring(D, D_prime) -> bool:
    if len(D) != len(D_prime):
        return False
    return sum(1 for a, b in zip(D, D_prime) if a != b) == 1


@dataclass
class AuditReport:
    events: list               # dicts {event, p, q, bound, flag}
    trials: int
    violation: bool


def dp_audit(mechanism, D, D_prime, priv: PrivacyParams, trials: int,
             master_seed: int) -> AuditReport:
    """Monte Carlo check of the privacy inequality over output-id events.

    mechanism(dataset, rng) must return a hashable output id.  Both directions
    of the inequality are tested for each event with a 3-sigma binomial slack;
    a pass is evidence, not proof.
    """
    if not _neighboring(D, D_prime):
        raise DomainError("datasets are not neighboring")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    counts_p: dict = {}
    counts_q: dict = {}
    for i in range(trials):
        out = mechanism(D, rng_stream(master_seed, 0, i))
        counts_p[out] = counts_p.get(out, 0) + 1
        out = mechanism(D_prime, rng_stream(master_seed, 1, i))
        counts_q[out] = counts_q.get(out, 0) + 1
    rows = []
    violation = False
    for e in sorted(set(counts_p) | set(counts_q), key=repr):
        p = counts_p.get(e, 0) / trials
        q = counts_q.get(e, 0) / trials
        flag = False
        for a, b in ((p, q), (q, p)):
            sigma = math.sqrt(a * (1 - a) / trials) + \
                math.exp(priv.epsilon) * math.sqrt(b * (1 - b) / trials)
            if a > math.exp(priv.epsilon) * b + priv.delta + 3 * sigma:
                flag = True
        violation = violation or flag
        rows.append({"event": repr(e), "p": p, "q": q,
                     "bound": math.exp(priv.epsilon) * q + priv.delta, "flag": flag})
    return AuditReport(rows, trials, violation)
