import hashlib
import itertools
import json
import random

import pytest

import privreg.dimensions
import privreg.filtering
import privreg.irreducibility
from privreg import (DiscreteClass, LadderSchedule, filter_step, is_l_irreducible, sfat2,
                     soa, soa_filter, strong_stability_target, sup_distance)
from privreg.classes import DomainError, class_order, enumerate_restriction_subclasses
from privreg.filtering import irreducible_subclasses

from helpers import F_DESK, F_TOY, class_stream, dclass, soa_filter_rebuild


def test_schedule():
    sched = LadderSchedule(1, 3, 12, 5)
    assert sched.ell(0, 2) == 4
    assert sched.ell(2, 3) == 64
    with pytest.raises(DomainError):
        LadderSchedule(0, 3, 12, 5)
    with pytest.raises(DomainError):
        LadderSchedule(1, 3, 12, 0)


def test_schedule_rejects_negative_r_max():
    # r_max = 0, the smallest allowed, gives r = -1 on every pass of
    # soa_filter, so each level ell(r, t) is ell_bar.
    with pytest.raises(DomainError, match="r_max"):
        LadderSchedule(1, -3, 3, 1)
    sched = LadderSchedule(1, 0, 3, 1)
    assert any(filter_step(F_DESK, sched, 0).levels.values())
    assert soa_filter(F_DESK, (2, 2), sched).members


def test_schedule_rejects_negative_tau_max():
    with pytest.raises(DomainError, match="tau_max"):
        LadderSchedule(1, 3, -3, 1)
    assert soa_filter(F_DESK, soa(F_DESK.restrict([(0, 1)])), LadderSchedule(1, 3, 0, 1)).members


def test_filter_step_singleton():
    F = dclass([(2, 3)])
    sched = LadderSchedule(1, 1, 2, 1)
    out = filter_step(F, sched, 1)
    assert out.levels[0] == (F,)
    assert out.representative(F).hyps == F.hyps


def test_filter_step_two_label_class():
    # All three subclasses share one representative: the full class enters
    # first (largest), and the empty agreement set suffices for the others.
    F = dclass([(1,), (2,)], K=3, nx=1)
    sched = LadderSchedule(1, 1, 2, 1)
    out = filter_step(F, sched, 1)
    assert [L.hyps for L in out.levels[0]] == [F.hyps]
    for H in (dclass([(1,)], K=3, nx=1), dclass([(2,)], K=3, nx=1)):
        assert out.representative(H).hyps == F.hyps


def test_filter_step_rejects_negative_r_max():
    F = dclass([(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 4)])
    with pytest.raises(DomainError, match="r_max"):
        filter_step(F, LadderSchedule(1, 3, 12, 5), -2)
    assert not [key for key in F.memo if key[0] == "filter_step"]


def test_filter_step_requires_nonempty():
    with pytest.raises(DomainError):
        filter_step(dclass([], nx=2), LadderSchedule(1, 1, 2, 1), 1)


def test_filter_step_level_structure():
    for F in itertools.islice(class_stream(61, max_h=8), 20):
        d = sfat2(F)
        sched = LadderSchedule(1, d + 1, 2 * (d + 1), 1)
        out = filter_step(F, sched, d + 1)
        for b, classes in out.levels.items():
            for L in classes:
                assert sfat2(L) == b
        for hyps, rep in out.rep.items():
            H = F.with_hyps(hyps)
            assert rep.hyps in {L.hyps for L in out.levels[sfat2(H)]}
            assert sup_distance(soa(H), soa(rep)) <= 1


def test_filter_step_levels_in_class_order():
    for nx, K in [(2, 4), (3, 5), (4, 6)]:
        for F in itertools.islice(class_stream(62 + K, nx=nx, K=K, max_h=10), 12):
            d = sfat2(F)
            for sched in (LadderSchedule(1, d + 1, 12 * (d + 1), 5),
                          LadderSchedule(1, d + 1, d + 1, 1)):
                for classes in filter_step(F, sched, d + 1).levels.values():
                    assert list(classes) == sorted(classes, key=class_order)


def test_irreducible_subclasses_canonical_order():
    subs = irreducible_subclasses(F_TOY, 1, 1)
    assert all(sfat2(H) == 1 and is_l_irreducible(H, 1) for H in subs)
    sizes = [len(H.hyps) for H in subs]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("nx, K", [(2, 4), (3, 5), (4, 6)])
def test_irreducible_subclasses_match_the_filter_over_all(nx, K):
    # The grouped memo entry against filtering every restriction subclass,
    # order included; the reference runs on a copy with a memo of its own.
    for F in itertools.islice(class_stream(89 + K, nx=nx, K=K, max_h=10), 8):
        ref_F = DiscreteClass(F.domain, F.K, F.hyps)
        d = sfat2(F)
        for b in range(-1, d + 2):
            for l in range(1, 5):
                expected = [H.hyps for H in enumerate_restriction_subclasses(ref_F)
                            if sfat2(H) == b and is_l_irreducible(H, l)]
                assert [H.hyps for H in irreducible_subclasses(F, l, b)] == expected


def test_memo_hits_on_falsy_values_compute_nothing(monkeypatch):
    calls = []

    def counting(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)
        return wrapper

    monkeypatch.setattr(privreg.dimensions, "_sfat", counting(privreg.dimensions._sfat))
    monkeypatch.setattr(privreg.irreducibility, "_level",
                        counting(privreg.irreducibility._level))
    F = dclass(F_TOY.hyps)  # a fresh memo
    empty, single = F.with_mask(0), F.with_mask(1)
    assert (sfat2(empty), sfat2(single), is_l_irreducible(F, 1)) == (-1, 0, False)
    assert calls
    del calls[:]
    assert (sfat2(empty), sfat2(single), is_l_irreducible(F, 1)) == (-1, 0, False)
    assert privreg.dimensions.sfat2_mask(F, 0) == -1
    assert calls == []

    grouped = []
    real = privreg.filtering.enumerate_restriction_subclasses
    monkeypatch.setattr(privreg.filtering, "enumerate_restriction_subclasses",
                        lambda G: grouped.append(G) or real(G))
    filter_step(F, LadderSchedule(1, 3, 36, 5), 3)
    filter_step(F, LadderSchedule(2, 2, 3, 1), 2)
    assert len(grouped) == 1


def test_soa_filter_divisibility():
    sched = LadderSchedule(1, 2, 12, 5)   # r_max = 2 not a multiple of d+1 = 3
    with pytest.raises(DomainError):
        soa_filter(F_TOY, (1, 1), sched)
    with pytest.raises(DomainError):
        soa_filter(dclass([], nx=2), (1, 1), LadderSchedule(1, 1, 2, 1))


@pytest.mark.parametrize("g_hat", [(2,), (2, 2, 2), (0, 2), (2, 9), (2, 2.0)])
def test_soa_filter_rejects_a_bad_g_hat(g_hat):
    F = dclass(F_DESK.hyps)  # a fresh memo
    sched = LadderSchedule(1, 3, 36, 5)
    with pytest.raises(DomainError, match="g_hat must be 2 labels in 1..4"):
        soa_filter(F, g_hat, sched)
    assert not [key for key in F.memo if key[0] == "soa_filter"]


def test_soa_filter_sfat0():
    F = dclass([(1,), (2,)], K=3, nx=1)
    sched = LadderSchedule(1, 1, 3, 1)
    rep = soa_filter(F, soa(F), sched)
    assert rep.members
    for L in rep.members:
        assert sup_distance(soa(L), soa(F)) <= sched.tau_max


def test_soa_filter_member_invariants():
    for F in itertools.islice(class_stream(67, max_h=8), 10):
        d = sfat2(F)
        sched = LadderSchedule(1, d + 1, 12 * (d + 1), 5)
        g_hat = tuple(min(4, max(1, v)) for v in (2, 3))
        rep = soa_filter(F, g_hat, sched)
        for L in rep.members:
            assert is_l_irreducible(L, sched.ell_bar)
            assert sup_distance(soa(L), g_hat) <= sched.tau_max


def test_soa_filter_trace():
    F = dclass([(1,), (2,)], K=3, nx=1)
    sched = LadderSchedule(1, 1, 3, 1)
    trace = []
    rep = soa_filter(F, (1,), sched, trace=trace)
    assert (0, 0, ()) in trace
    assert rep.members == soa_filter(F, (1,), sched).members


def _g_hats(F, rng: random.Random, count: int) -> list:
    """Labelings of random 1-irreducible subclasses of F, each label moved by
    at most 1."""
    stable = [H for H in enumerate_restriction_subclasses(F) if is_l_irreducible(H, 1)]
    return [tuple(min(F.K, max(1, v + rng.randint(-1, 1))) for v in soa(rng.choice(stable)))
            for _ in range(count)]


@pytest.mark.parametrize("tau0, chi", [(12, 5), (1, 1)])
def test_soa_filter_matches_rebuild(tau0, chi):
    # The learner's schedule and a tight one, against a reference that
    # builds every reducing tree afresh.  Each class is run cold, then warm
    # with its g_hats in the reverse order.
    rng = random.Random(73)
    classes = list(itertools.islice(class_stream(73, nx=4, K=5, min_h=8, max_h=15), 8))
    assert 3 in map(sfat2, classes)
    runs = []
    for F in classes:
        d = sfat2(F)
        sched = LadderSchedule(1, d + 1, tau0 * (d + 1), chi)
        ref_F = DiscreteClass(F.domain, F.K, F.hyps)
        expected = {}
        for g in _g_hats(F, rng, 4):
            trace = []
            expected[g] = ([L.hyps for L in soa_filter_rebuild(ref_F, g, sched, trace)], trace)
        for order in (list(expected), list(expected)[::-1]):
            for g in order:
                trace = []
                members = [L.hyps for L in soa_filter(F, g, sched, trace=trace).members]
                assert (members, trace) == expected[g]
                assert [L.hyps for L in soa_filter(F, g, sched).members] == members
        runs.extend(expected.values())
    assert any(members for members, _ in runs)
    assert any(s > 0 for _, trace in runs for _, s, _ in trace)


def test_soa_filter_reuses_reducing_trees(monkeypatch):
    # Under the learner's schedule the gap tests pass for every g_hat, so
    # four g_hats ask for the same reducing trees.  A memo keyed on g_hat,
    # or none, would build every one of them again.  reducing_leaves keeps
    # its own memo, so a build is a call of its miss path.
    built = []
    real = privreg.irreducibility._reducing_leaves

    def counting(*args, **kw):
        built.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(privreg.irreducibility, "_reducing_leaves", counting)
    F = next(F for F in class_stream(73, nx=4, K=5, min_h=8, max_h=15) if sfat2(F) == 3)
    sched = LadderSchedule(1, 4, 48, 5)
    g_hats = [(1, 2, 3, 4), (5, 4, 3, 2), (2, 2, 2, 2), (4, 1, 5, 3)]
    counts = []
    for g in g_hats:
        before = len(built)
        soa_filter(F, g, sched)
        counts.append(len(built) - before)
    assert counts[0] > 0 and all(c < counts[0] for c in counts[1:])
    before = len(built)
    soa_filter(F, g_hats[0], sched, trace=[])
    assert len(built) == before


def test_soa_filter_keeps_the_strong_stability_target():
    # Class 41 of this stream has a point that is constant on some reducing-
    # tree leaves; a witness tree that passed over such points would split
    # elsewhere and drop l_star.  Every G the oracle accepts, every g_hat
    # within 1 of soa(G), chi = 1.
    F = next(itertools.islice(class_stream(71, nx=3, K=4, max_h=12), 41, None))
    assert F.hyps == ((1, 1, 3), (1, 4, 3), (2, 1, 1), (2, 1, 4), (2, 2, 2), (2, 4, 3),
                      (3, 1, 2), (3, 3, 3), (4, 3, 3))
    d = sfat2(F)
    sched = LadderSchedule(1, d + 1, 4 * (d + 1), 1)
    checks = 0
    for G in enumerate_restriction_subclasses(F):
        if G.is_empty:
            continue
        try:
            l_star = strong_stability_target(F, G, 1, 1).l_star
        except DomainError:
            continue
        near = [sorted({min(F.K, max(1, v + e)) for e in (-1, 0, 1)}) for v in soa(G)]
        for g_hat in itertools.product(*near):
            members = {L.hyps for L in soa_filter(F, g_hat, sched).members}
            assert l_star.hyps in members, (G.hyps, g_hat)
            checks += 1
    assert checks >= 200


def test_soa_filter_members_on_sfat2_4_classes():
    # Members on the first 12 seeded classes of 24 distinct rows in
    # {1..6}^4 with sfat2 = 4, two g_hats near stable labelings per class
    # and schedule; the hash was taken before witness trees wrote a constant
    # point's pair once.
    records = []
    for seed in itertools.count():
        rng = random.Random(seed)
        hyps: set = set()
        while len(hyps) < 24:
            hyps.add(tuple(rng.randint(1, 6) for _ in range(4)))
        F = dclass(hyps, K=6, nx=4)
        if sfat2(F) != 4:
            continue
        for sched in (LadderSchedule(1, 5, 60, 5), LadderSchedule(1, 5, 5, 1)):
            for g in _g_hats(F, rng, 2):
                records.append([seed, list(g), [L.hyps for L in soa_filter(F, g, sched).members]])
        if len(records) == 48:
            break
    assert all(members for _, _, members in records)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "1f7b970b27f42e558b176a44b1b17dea7a05b6e8c09ea9c1760051484a04f308"
