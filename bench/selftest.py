"""Show that every benchmark check can fail.

    python3 bench/selftest.py

For each workload, one genuine output from the library must pass its check,
and each corrupted copy of it must be rejected.  Exits 1 if a genuine output
is rejected or a corrupted one accepted.
"""

import copy
import sys

import run
import workloads
from checks import (CheckError, check_certificate, check_desk, check_filter, check_ladder,
                    check_same_run, optimal_error)
from reference import RefClass, discretize


def desk_cases(lib):
    wl = workloads.Desk(lib, seed=0)
    inp = wl.make_input(0, 0)
    good = wl.plain(wl.run(inp))
    c = wl.CFG
    K = 4
    bound = 30 * 2 * K / (c["epsilon"] * c["n1"])

    def check(out):
        check_desk(wl.HYPS, c["eta_bar"], c["epsilon"], c["n1"], c["m"], inp[0], out)

    def corrupt(fn):
        out = copy.deepcopy(good)
        fn(out)
        return out

    other = next(r for r in [(1, 3), (2, 1), (3, 4), (4, 1)] if r != tuple(good["g_hat"]))
    yield "desk genuine", lambda: check(good), True
    yield "desk winner hash", lambda: check(corrupt(
        lambda o: o["transcript"].update(winner=o["transcript"]["winner"][::-1]))), False
    opt = optimal_error({tuple(discretize(v, K) for v in h) for h in wl.HYPS},
                        inp[0][:c["n1"]], K)
    yield "desk eta_hat just inside its bound", lambda: check(corrupt(
        lambda o: o["transcript"].update(eta_hat=opt + 0.99 * bound))), True
    yield "desk eta_hat just past its bound", lambda: check(corrupt(
        lambda o: o["transcript"].update(eta_hat=opt + 1.01 * bound))), False
    yield "desk h_hat", lambda: check(corrupt(
        lambda o: o.update(h_hat=(o["h_hat"][0] + 0.5,) + tuple(o["h_hat"][1:])))), False
    yield "desk L_hat row outside class", lambda: check(corrupt(
        lambda o: o.update(L_hat=o["L_hat"] + [(4, 4)]))), False
    yield "desk g_hat and L_hat disagree", lambda: check(corrupt(
        lambda o: o.update(L_hat=[other]))), False
    yield "desk group count", lambda: check(corrupt(
        lambda o: o["transcript"].update(s_sizes=o["transcript"]["s_sizes"][1:]))), False
    yield "desk BOTTOM with a hypothesis", lambda: check(corrupt(
        lambda o: o["transcript"].update(winner=None))), False
    yield "desk same seed, other output", lambda: check_same_run(good, corrupt(
        lambda o: o["transcript"]["r_sizes"].__setitem__(0, 3))), False


def ladder_cases(lib):
    wl = workloads.Ladder(lib, seed=0)
    inp = wl.make_input(0, 0)
    d, level, subs = wl.run(inp)
    hyps, K = inp[0], inp[1]
    good = {"sfat2": d, "level": level, "subclasses": [G.hyps for G in subs]}

    def with_(**kw):
        out = dict(good)
        out.update(kw)
        return out

    def check(out):
        check_ladder(hyps, K, out)

    ref = RefClass(hyps, K)
    cert = ref.certificate(ref.full)
    i, s, high, low = cert
    yield "ladder genuine", lambda: check(good), True
    yield "ladder sfat2 + 1", lambda: check(with_(sfat2=d + 1)), False
    yield "ladder sfat2 - 1", lambda: check(with_(sfat2=d - 1)), False
    yield "ladder level flipped", lambda: check(with_(level=0 if level >= 1 else 1)), False
    yield "ladder subclass missing", lambda: check(with_(subclasses=good["subclasses"][1:])), False
    yield "ladder subclass repeated", lambda: check(
        with_(subclasses=good["subclasses"] + good["subclasses"][-1:])), False
    yield "ladder subclass outside F", lambda: check(
        with_(subclasses=good["subclasses"] + [((K + 1,) * len(hyps[0]),)])), False
    yield "ladder certificate with a wrong threshold", lambda: _expect(
        check_certificate(hyps, (i, 1, high, low), d)), False


def filter_cases(lib):
    wl = workloads.Filter(lib, seed=0)
    inp = wl.make_input(0, 3)
    hyps, K, _, schedule, g_hats = inp
    ref = RefClass(hyps, K)
    filtered, reps = wl.run(inp)
    good = {"levels": {b: [G.hyps for G in v] for b, v in filtered.levels.items()},
            "members": [[L.hyps for L in rep.members] for rep in reps]}
    tau = schedule.tau_max

    def check(out, tau_max=tau):
        check_filter(hyps, K, tau_max, g_hats, out)

    def with_first_members(members):
        out = copy.deepcopy(good)
        out["members"][0] = members
        return out

    member = good["members"][0][0]
    reducible = next(ref.members(mk) for mk in sorted(ref.restriction_closure(ref.full))
                     if not ref.is_irreducible(mk, 1))
    outside = [h for h in hyps if h not in member]
    swapped = outside[:1] + list(member[1:])
    far = max(abs(a - b) for a, b in zip(ref.soa(ref.mask_of(member)), g_hats[0]))
    yield "filter genuine", lambda: check(good), True
    yield "filter member outside tau_max", lambda: check(good, tau_max=far - 1), False
    yield "filter member not 1-irreducible", lambda: check(
        with_first_members([reducible])), False
    if outside:
        yield "filter member with a hypothesis swapped", lambda: check(
            with_first_members([swapped])), False
    yield "filter member is F less one hypothesis", lambda: check(
        with_first_members([hyps[:-1]])), False
    bad_levels = copy.deepcopy(good)
    top = max(b for b, v in bad_levels["levels"].items() if v)
    bad_levels["levels"][top + 1] = bad_levels["levels"][top]
    yield "filter level with wrong sfat2", lambda: check(bad_levels), False
    yield from tight_filter_cases(wl)


def tight_filter_cases(wl):
    """On a chi-1 rung, at the workload's own tau_max, a stable subclass far
    from g_hat must be rejected as a member."""
    slot = next(i for i, rung in enumerate(wl.RUNGS) if rung[5] == 1)
    inp = wl.make_input(0, slot)
    hyps, K, _, schedule, g_hats = inp
    filtered, reps = wl.run(inp)
    good = {"levels": {b: [G.hyps for G in v] for b, v in filtered.levels.items()},
            "members": [[L.hyps for L in rep.members] for rep in reps]}
    ref = RefClass(hyps, K)

    def check(out):
        check_filter(hyps, K, schedule.tau_max, g_hats, out)

    far = next(ref.members(mk) for mk in sorted(ref.restriction_closure(ref.full))
               if ref.is_irreducible(mk, 1) and max(
                   abs(a - b) for a, b in zip(ref.soa(mk), g_hats[0])) > schedule.tau_max)
    bad = copy.deepcopy(good)
    bad["members"][0] = bad["members"][0] + [far]
    yield "filter chi-1 rung genuine", lambda: check(good), True
    yield "filter chi-1 rung member outside its tau_max", lambda: check(bad), False


def _expect(ok: bool) -> None:
    if not ok:
        raise CheckError("certificate rejected")


def main() -> int:
    lib = run.import_library()
    bad = 0
    for cases in (desk_cases, ladder_cases, filter_cases):
        for name, fn, should_pass in cases(lib):
            try:
                fn()
                verdict = "accepted"
            except CheckError as e:
                verdict = f"rejected ({e})"
            ok = verdict.startswith("accepted") == should_pass
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    print(f"{bad} unexpected verdicts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
