"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "criterion N (<name>): PASS" line when it succeeds.
The structural-invariant suite accumulates at least 500 qualifying instances
per invariant from a shared stream of random classes; all checks are exact.
"""

import collections
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from privreg import (BOTTOM, DiscreteClass, EmpiricalDistribution, LadderSchedule,
                     PrivacyParams, RealClass, RegLearnConfig, ReduceTreeParams,
                     RunFailure, SelectionInstance, abs_error, discretize_class,
                     discretize_dataset, discretize_value, dp_audit, excess_risk,
                     fat_alpha, filter_step,
                     is_l_irreducible, label_count, laplace_sample, min_error,
                     oracle_agreement_grid, reduce_tree_reg, reg_learn,
                     rng_stream, sfat2, sfat_alpha, soa, soa_filter, sparse_select,
                     strong_stability_target, sup_distance, weak_stability_target,
                     build_reducing_tree, validate_reducing_tree)
from privreg.classes import enumerate_restriction_subclasses
from privreg.cli import EXIT_OK, main as cli_main

from helpers import H_DESK, class_stream, dclass, make_domain

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_dimension_oracle_equivalence():
    dom2 = make_domain(2)
    all_hyps = list(itertools.product((1, 2, 3), repeat=2))
    exhaustive = [DiscreteClass(dom2, 3, combo)
                  for r in range(len(all_hyps) + 1)
                  for combo in itertools.combinations(all_hyps, r)]
    report = oracle_agreement_grid(exhaustive)
    assert report["checked"] == 512
    assert report["disagreements"] == []

    rng = random.Random(101)
    dom3 = make_domain(3)
    randoms = []
    for _ in range(200):
        n = rng.randint(0, 12)
        hyps = {tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(n)}
        randoms.append(DiscreteClass(dom3, 4, tuple(sorted(hyps))))
    report_r = oracle_agreement_grid(randoms)
    assert report_r["checked"] == 200
    assert report_r["disagreements"] == []
    print("criterion 1 (dimension oracle equivalence): PASS")


# ---------------------------------------------------------------- criterion 2

_INVARIANTS = (
    "adjacent-maximizers",
    "labeling-stability",
    "restriction-keeps-irreducibility",
    "irreducibility-lifts",
    "discretized-dimension-bounds",
    "error-sandwich",
    "reducing-tree-construction",
    "output-tree-depth",
    "candidate-set-size",
    "representative-closeness",
    "unique-consistent-representative",
    "queued-restriction-irreducibility",
    "queued-restriction-size",
    "filter-output-size",
)


def _fat2_discrete(F: DiscreteClass) -> int:
    """Fat-shattering dimension of an integer-labeled class at scale 2 under
    the same margin convention as fat_alpha: per-point thresholds s such that
    every above/below pattern is realized with h >= s+2 vs h <= s-2."""
    thresholds = [3 + half / 2 for half in range(2 * (F.K - 4) + 1)]
    best = 0
    for size in range(1, F.domain.size + 1):
        for pts in itertools.combinations(range(F.domain.size), size):
            for thr in itertools.product(thresholds, repeat=size):
                if all(any(all((h[p] >= s + 2) if e else (h[p] <= s - 2)
                               for p, s, e in zip(pts, thr, eps))
                           for h in F.hyps)
                       for eps in itertools.product((0, 1), repeat=size)):
                    best = max(best, size)
                    break
    return best


def _random_real(rng, nx, max_h) -> RealClass:
    n = rng.randint(1, max_h)
    hyps = {tuple(round(rng.uniform(-1, 1), 3) for _ in range(nx))
            for _ in range(n)}
    return RealClass(make_domain(nx), tuple(sorted(hyps)))


def _restriction_sets(nx, K):
    """All constraint sets over nx points with distinct points, smallest
    first."""
    out = [()]
    for size in range(1, nx + 1):
        for pts in itertools.combinations(range(nx), size):
            for labels in itertools.product(range(1, K + 1), repeat=size):
                out.append(tuple(zip(pts, labels)))
    return out


def test_criterion_2_structural_invariants():
    target = 500
    c = collections.Counter()

    def need(name):
        return c[name] < target

    rng = random.Random(8191)
    data_rng = random.Random(12289)
    deadline = time.time() + 15 * 60

    for F in itertools.islice(class_stream(555, max_h=8), 4000):
        if all(c[n] >= target for n in _INVARIANTS):
            break
        assert time.time() < deadline, f"structural suite over budget: {dict(c)}"
        d = sfat2(F)
        nx, K = F.domain.size, F.K
        subs = [G for G in enumerate_restriction_subclasses(F) if not G.is_empty]
        irred1 = [G for G in subs if is_l_irreducible(G, 1)]

        if need("adjacent-maximizers"):
            for G in irred1:
                dg = sfat2(G)
                for i in range(nx):
                    maxi = [k for k in range(1, K + 1)
                            if not (s := G.restrict([(i, k)])).is_empty
                            and sfat2(s) == dg]
                    assert len(maxi) <= 2
                    if len(maxi) == 2:
                        assert maxi[1] - maxi[0] == 1
                c["adjacent-maximizers"] += 1

        if need("labeling-stability") or need("irreducibility-lifts"):
            for H in irred1:
                hs = set(H.hyps)
                for G in subs:
                    if len(G.hyps) <= len(H.hyps) or not hs <= set(G.hyps):
                        continue
                    if sfat2(G) != sfat2(H):
                        continue
                    if need("irreducibility-lifts"):
                        for l in (1, 2):
                            if is_l_irreducible(H, l):
                                assert is_l_irreducible(G, l)
                        c["irreducibility-lifts"] += 1
                    if need("labeling-stability"):
                        assert is_l_irreducible(G, 1)
                        assert sup_distance(soa(H), soa(G)) <= 1
                        c["labeling-stability"] += 1

        if need("restriction-keeps-irreducibility"):
            for G in irred1:
                g = soa(G)
                graph = [(i, g[i]) for i in range(nx)]
                for l in (1, 2):
                    if not is_l_irreducible(G, l):
                        continue
                    for lp in range(0, min(l, nx) + 1):
                        for a in itertools.combinations(graph, lp):
                            Gp = G.restrict(a)
                            assert sfat2(Gp) == sfat2(G)
                            assert is_l_irreducible(Gp, l - lp)
                            c["restriction-keeps-irreducibility"] += 1

        if need("discretized-dimension-bounds") or need("error-sandwich"):
            H = _random_real(rng, 2, 6)
            for eta in (0.3, 0.5, 0.7):
                disc = discretize_class(H, eta)
                if need("discretized-dimension-bounds"):
                    assert _fat2_discrete(disc) <= fat_alpha(H, eta)
                    assert sfat2(disc) <= sfat_alpha(H, eta)
                    c["discretized-dimension-bounds"] += 1
                if need("error-sandwich"):
                    K_eta = label_count(eta)
                    samples = [(rng.randrange(2), round(rng.uniform(-1, 1), 3))
                               for _ in range(6)]
                    Q = EmpiricalDistribution.from_samples(samples)
                    Qd = EmpiricalDistribution.from_samples(
                        discretize_dataset(samples, eta))
                    for h in H.hyps:
                        hd = tuple(discretize_value(v, eta) for v in h)
                        err, errd = abs_error(h, Q), abs_error(hd, Qd)
                        assert K_eta * err / 2 - 1 - 1e-9 <= errd
                        assert errd <= K_eta * err / 2 + 1 + 1e-9
                    c["error-sandwich"] += 1

        if need("reducing-tree-construction") and d >= 1:
            ell_seq = [2 ** t for t in range(d + 1)]
            prefix = [0]
            for l in ell_seq:
                prefix.append(prefix[-1] + l)
            for i in range(nx):
                for y in range(1, K + 1):
                    if sfat2(F.restrict([(i, y)])) >= d:
                        continue
                    tree = build_reducing_tree(F, i, y, ell_seq)
                    validate_reducing_tree(F, tree, ell_seq)
                    by_gap = collections.Counter()
                    for path, _, _ in tree.leaves(F):
                        sub = F.restrict(tree.ancestor_set(path))
                        if not sub.is_empty:
                            by_gap[d - sfat2(sub)] += 1
                    for t in range(1, d + 1):
                        assert by_gap[t] <= K ** prefix[t]
                    c["reducing-tree-construction"] += 1

        if need("output-tree-depth") or need("candidate-set-size"):
            samples = [(data_rng.randrange(nx), data_rng.randint(1, K))
                       for _ in range(8)]
            P = EmpiricalDistribution.from_samples(samples)
            params = ReduceTreeParams(min_error(F, P) + (d + 1) * 2.0 + 0.5,
                                      2.0, 2)
            out = reduce_tree_reg(F, P, params)
            if need("output-tree-depth"):
                assert out.tree.depth() <= \
                    params.ell(out.t_final + 1) - params.ell_prime
                c["output-tree-depth"] += 1
            if need("candidate-set-size"):
                assert len(out.candidate_set) <= \
                    K ** (params.ell_prime * 2 ** (d + 1))
                c["candidate-set-size"] += 1

        sched = LadderSchedule(1, d + 1, 12 * (d + 1), 5)
        if need("representative-closeness") or need("unique-consistent-representative"):
            filtered = filter_step(F, sched, d + 1)
            if need("representative-closeness"):
                for hyps, rep in filtered.rep.items():
                    assert sup_distance(soa(F.with_hyps(hyps)), soa(rep)) <= 1
                    c["representative-closeness"] += 1
            if need("unique-consistent-representative"):
                for r in range(d + 2):
                    for t in range(d + 1):
                        ell_rt = sched.ell(r, t)
                        for a in _restriction_sets(nx, K):
                            if len(a) > ell_rt - 1:
                                continue
                            if sfat2(F.restrict(a)) != d - t:
                                continue
                            matches = [
                                L for L in filtered.levels[d - t]
                                if is_l_irreducible(L, ell_rt)
                                and all(soa(L)[i] == y for i, y in a)]
                            assert len(matches) <= 1
                            c["unique-consistent-representative"] += 1

        if (need("queued-restriction-irreducibility")
                or need("queued-restriction-size")
                or need("filter-output-size")):
            r0 = sched.r_max // (d + 1)
            for _ in range(2):
                g_hat = tuple(rng.randint(1, K) for _ in range(nx))
                trace = []
                rep = soa_filter(F, g_hat, sched, trace=trace)
                for j, s, a in trace:
                    if s < 1:
                        continue
                    H = F.restrict(a)
                    if H.is_empty:
                        continue
                    t = d - sfat2(H)
                    r = sched.r_max - j * r0 - 1
                    if need("queued-restriction-irreducibility"):
                        assert is_l_irreducible(H, sched.ell(r, t))
                        c["queued-restriction-irreducibility"] += 1
                    if need("queued-restriction-size"):
                        assert len(a) <= sum(sched.ell(r, tp) for tp in range(t))
                        c["queued-restriction-size"] += 1
                if need("filter-output-size"):
                    bound = sum(K ** sum(sched.ell(r, tp) for tp in range(d))
                                for r in range(sched.r_max + 1))
                    assert len(rep.members) <= bound
                    c["filter-output-size"] += 1

    short = {n: c[n] for n in _INVARIANTS if c[n] < target}
    assert not short, f"invariants below {target} instances: {short}"
    print("criterion 2 (structural invariants, >=500 instances each): PASS")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_weak_stability():
    for i in range(20):
        rng = random.Random(1000 + i)
        nx, K = rng.choice([2, 3]), 4
        nh = rng.randint(2, 6)
        hyps = {tuple(rng.randint(1, K) for _ in range(nx)) for _ in range(nh)}
        F = DiscreteClass(make_domain(nx), K, tuple(hyps))
        target_h = rng.choice(F.hyps)
        samples = []
        for _ in range(12):
            x = rng.randrange(nx)
            y = min(K, max(1, target_h[x] + rng.choice([-1, 0, 0, 0, 1])))
            samples.append((x, y))
        P = EmpiricalDistribution.from_samples(samples)
        d = sfat2(F)
        alpha_delta = 18.0
        params = ReduceTreeParams(min_error(F, P) + (d + 1) * alpha_delta + 1,
                                  alpha_delta, 6)
        out = reduce_tree_reg(F, P, params)
        t = out.t_final + 1
        tgt = weak_stability_target(F, P, params.alpha(t) - alpha_delta / 2,
                                    t, 6)
        assert tgt.nonempty, f"instance {i}: empty admissible set"
        assert any(sup_distance(g, tgt.sigma_star) <= 5
                   for g in out.candidate_set), \
            f"instance {i}: no candidate within 5 of the stable target"
    print("criterion 3 (weak stability on 20 instances): PASS")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_strong_stability():
    checked = 0
    for i in range(40):
        if checked >= 10:
            break
        rng = random.Random(2000 + i)
        nx, K = 2, 4
        nh = rng.randint(3, 8)
        hyps = {tuple(rng.randint(1, K) for _ in range(nx)) for _ in range(nh)}
        F = DiscreteClass(make_domain(nx), K, tuple(hyps))
        d = sfat2(F)
        if d < 0:
            continue
        need = 1 * (d + 3) ** d
        cands = [G for G in enumerate_restriction_subclasses(F)
                 if is_l_irreducible(G, need) and not G.is_empty]
        if not cands:
            continue
        G = rng.choice(cands)
        tgt = strong_stability_target(F, G, 5, 1)
        sched = LadderSchedule(1, d + 1, 12 * (d + 1), 5)
        sg = soa(G)
        member_sets = []
        for _ in range(5):
            g_hat = tuple(min(K, max(1, v + rng.randint(-5, 5))) for v in sg)
            rep = soa_filter(F, g_hat, sched)
            names = {L.hyps for L in rep.members}
            assert tgt.l_star.hyps in names, f"instance {i}: stable class missing"
            for L in rep.members:
                assert is_l_irreducible(L, 1)
                assert sup_distance(soa(L), g_hat) <= sched.tau_max
            member_sets.append(names)
        assert set.intersection(*member_sets), f"instance {i}: no common member"
        checked += 1
    assert checked == 10
    print("criterion 4 (strong stability on 10 instances x 5 perturbations): PASS")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_laplace_tails():
    rng = rng_stream(31415)
    b = 1.7
    xs = np.abs(np.array([laplace_sample(b, rng) for _ in range(10 ** 5)]))
    for t in (0.5, 1.0, 2.0):
        freq = float(np.mean(xs >= t * b))
        assert abs(freq - math.exp(-t)) <= 0.01, f"tail at t={t}: {freq}"
    print("criterion 5 (Laplace tail frequencies within 0.01): PASS")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_sparse_selection():
    priv = PrivacyParams(1.0, 1e-6)
    users = [["common", f"unique{i}"] for i in range(200)]
    wins = sum(
        sparse_select(SelectionInstance([list(s) for s in users], 2), priv,
                      rng_stream(606, trial)) == "common"
        for trial in range(1000))
    assert wins >= 990, f"consensus frequency {wins}/1000"

    small = [("common", f"u{i}") for i in range(12)]
    small_p = list(small)
    small_p[0] = ("other", "u0b")

    def mech(dataset, rng):
        got = sparse_select(SelectionInstance([list(s) for s in dataset], 2),
                            priv, rng)
        return "BOTTOM" if got is BOTTOM else got

    report = dp_audit(mech, small, small_p, priv, 10 ** 5, 4242)
    assert not report.violation, f"audit events: {report.events}"
    print("criterion 6 (sparse selection consensus + audit): PASS")


# ---------------------------------------------------------------- criterion 7

_DESK_CFG = RegLearnConfig(epsilon=1.0, delta=0.05, eta_bar=0.5, beta=0.2,
                           ell_bar=1, m=60, n0=40, n1=200, ell_prime=6)
_DESK_TARGET = H_DESK.hyps[0]


def _desk_sampler(n, rng):
    out = []
    for _ in range(n):
        i = int(rng.integers(0, 2))
        y = float(min(1.0, max(-1.0, _DESK_TARGET[i] + rng.uniform(-0.2, 0.2))))
        out.append((i, y))
    return out


def test_criterion_7_end_to_end_desk_run():
    test_data = _desk_sampler(2000, rng_stream(999))
    d = 2
    bound = 30 * (d + 2) * 0.5 + 2 * _DESK_CFG.C1 * 0.5   # = 62.0
    good = 0
    for s in range(50):
        try:
            out = reg_learn(H_DESK, _desk_sampler, _DESK_CFG, seed=s)
        except RunFailure:
            continue
        if excess_risk(out.h_hat, test_data, H_DESK) <= bound:
            good += 1
    assert good >= 40, f"risk bound met in only {good}/50 runs"

    D = _desk_sampler(2600, rng_stream(5))
    Dp = list(D)
    i0, y0 = Dp[0]
    Dp[0] = (i0, min(1.0, max(-1.0, y0 + 0.5 if y0 < 0.5 else y0 - 0.5)))

    def mech(dataset, rng):
        try:
            return reg_learn(H_DESK, list(dataset), _DESK_CFG,
                             rng=rng).transcript["winner"]
        except RunFailure:
            return "BOTTOM"

    priv = PrivacyParams(_DESK_CFG.epsilon, _DESK_CFG.delta)
    report = dp_audit(mech, D, Dp, priv, 2 * 10 ** 4, 77)
    assert not report.violation, f"audit events: {report.events}"
    print(f"criterion 7 (desk-scale learner, {good}/50 under risk bound "
          f"{bound} + pipeline audit): PASS")


# ---------------------------------------------------------------- criterion 8

def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _cli_body(tmp_path, argv, name):
    out = tmp_path / name
    assert cli_main(argv + ["--out", str(out)]) == EXIT_OK
    return json.dumps(json.loads(out.read_text())["body"], sort_keys=True)


def test_criterion_8_cli_determinism(tmp_path):
    F = dclass([(1, 1), (1, 3), (3, 1), (3, 3)])
    disc_file = _write(tmp_path / "disc.json", {
        "domain": ["x1", "x2"], "K": 4,
        "hypotheses": [list(h) for h in F.hyps]})
    real_file = _write(tmp_path / "real.json", {
        "domain": ["x1", "x2"], "real": True,
        "hypotheses": [list(h) for h in H_DESK.hyps]})
    data_file = _write(tmp_path / "data.json", {
        "samples": [["x1", 1], ["x2", 3], ["x1", 3]]})
    desk_data = _desk_sampler(2600, rng_stream(12))
    desk_file = _write(tmp_path / "desk.json", {
        "samples": [[("x1", "x2")[i], round(y, 6)] for i, y in desk_data]})

    runs = {
        "dims": ({"class": disc_file}, None),
        "irred": ({"class": disc_file, "l": 1}, None),
        "soa": ({"class": _write(tmp_path / "low.json", {
            "domain": ["x1", "x2"], "K": 4,
            "hypotheses": [[1, 1], [1, 2], [2, 1], [2, 2]]})}, None),
        "reduce-tree": ({"class": disc_file, "dataset": data_file,
                         "alpha1": 60.0, "alpha_delta": 18.0,
                         "ell_prime": 6}, None),
        "filter": ({"class": disc_file, "ell_bar": 1, "r_max": 3,
                    "tau_max": 36, "chi": 5}, None),
        "soafilter": ({"class": disc_file, "g_hat": [2, 2], "ell_bar": 1,
                       "r_max": 3, "tau_max": 36, "chi": 5}, None),
        "reglearn": ({"class": real_file, "dataset": desk_file,
                      "epsilon": 1.0, "delta": 0.05, "eta_bar": 0.5,
                      "beta": 0.2, "ell_bar": 1, "m": 60, "n0": 40,
                      "n1": 200, "ell_prime": 6}, 7),
        "audit": ({"users": [["a"], ["a"], ["a"]],
                   "users_prime": [["b"], ["a"], ["a"]], "sparsity": 1,
                   "epsilon": 0.5, "delta": 1e-6, "trials": 200}, 3),
        "oracle-check": ({"random_classes": 10}, 1),
    }
    for command, (cfg, seed) in runs.items():
        cfg_file = _write(tmp_path / f"{command}-cfg.json", cfg)
        argv = [command, "--config", cfg_file]
        if seed is not None:
            argv += ["--seed", str(seed)]
        first = _cli_body(tmp_path, argv, f"{command}-a.json")
        second = _cli_body(tmp_path, argv, f"{command}-b.json")
        assert first == second, f"{command}: report bodies differ"
    print("criterion 8 (CLI determinism, byte-identical report bodies): PASS")
