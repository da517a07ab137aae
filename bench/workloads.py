"""The benchmark's workloads: seeded inputs, the timed call, and its check.

A workload runs in rounds; a round is a fixed list of slots, each one
operation on a fresh input.  make_input builds the input outside the timed
span, run is the timed span, check validates the output against checks.py.

Inputs are made one at a time, just before their operation: building them
all up front dominated memory and set-up time and made both unsteady.
"""

from __future__ import annotations

import random
import warnings

import checks
from reference import RefClass

# epsilon = 1.0 is the desk configuration; the library warns about it on
# every config it builds.
warnings.filterwarnings("ignore", message="epsilon = .* is large")


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def random_hyps(rng: random.Random, nx: int, K: int, nf: int) -> list:
    """nf distinct label vectors in {1..K}^nx."""
    hyps: set = set()
    while len(hyps) < nf:
        hyps.add(tuple(rng.randint(1, K) for _ in range(nx)))
    return sorted(hyps)


def _domain(lib, nx: int):
    return lib.Domain(tuple(f"x{i}" for i in range(1, nx + 1)))


class Workload:
    """Hooks around the timed calls; see run.py for the loop.

    The library's process-wide memo is kept for the whole run, as in one
    long-lived process: desk reads it, ladder and filter add to it with
    every new class.  peak_rss_mb is read at the end of round rss_rounds,
    so it covers the same operations on a fast host and a slow one.
    """

    rss_rounds = 1

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def prepare(self) -> None:
        """Program-side set-up before the first timed operation."""

    def finish(self) -> None:
        """Checks that need the whole run."""


class Desk(Workload):
    """Repeated reg_learn on the criterion-7 desk configuration."""

    name = "desk"
    slots = 1
    rss_rounds = 200
    # Criterion-7 class: discretises at eta = 0.5 (K = 4) to
    # {(1,3),(2,1),(3,4),(4,1)}; the data follow its first hypothesis.
    HYPS = ((-0.75, 0.25), (-0.25, -0.75), (0.25, 0.75), (0.75, -0.75))
    TARGET = HYPS[0]
    CFG = dict(epsilon=1.0, delta=0.05, eta_bar=0.5, beta=0.2, ell_bar=1,
               m=60, n0=40, n1=200, ell_prime=6)
    N_SAMPLES = CFG["n1"] + CFG["m"] * CFG["n0"]

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self.H = lib.RealClass(_domain(lib, 2), self.HYPS)
        self.cfg = lib.RegLearnConfig(**self.CFG)
        self.first = None

    def make_input(self, round_index: int, slot: int):
        rng = _rng("desk", self.seed, round_index)
        samples = []
        for _ in range(self.N_SAMPLES):
            i = rng.randrange(2)
            y = min(1.0, max(-1.0, self.TARGET[i] + rng.uniform(-0.2, 0.2)))
            samples.append((i, y))
        return samples, rng.getrandbits(32)

    def run(self, inp):
        samples, op_seed = inp
        try:
            return self.lib.reg_learn(self.H, samples, self.cfg, seed=op_seed)
        except self.lib.RunFailure as failure:
            # BOTTOM is the selection's defined outcome when no candidate
            # clears its threshold; the transcript is still checked.
            return failure

    def plain(self, out) -> dict:
        if isinstance(out, self.lib.RunFailure):
            return {"transcript": dict(out.transcript)}
        return {"transcript": dict(out.transcript), "h_hat": tuple(out.h_hat),
                "g_hat": tuple(out.g_hat), "L_hat": [tuple(r) for r in out.L_hat.hyps]}

    def check(self, inp, out) -> None:
        c = self.CFG
        checks.check_desk(self.HYPS, c["eta_bar"], c["epsilon"], c["n1"], c["m"],
                          inp[0], self.plain(out))

    def prepare(self) -> None:
        """Program-side set-up: one untimed run that fills the memo."""
        inp = self.make_input(-1, 0)
        self.first = (inp, self.plain(self.run(inp)))

    def finish(self) -> None:
        """The set-up run, repeated on a warm memo, must give the same output."""
        inp, before = self.first
        checks.check_same_run(before, self.plain(self.run(inp)))


class Ladder(Workload):
    """sfat2, irreducibility level and restriction subclasses of new classes."""

    name = "ladder"
    # (|X|, K, |F|), roughly in order of cost: about 0.03 s at the bottom to
    # 1.5-2.5 s at the top on a 2-core VM.  A round takes two classes of each
    # of the ten cheaper rungs and one of each costlier rung.  With one class
    # per rung the median operation fell in the gaps between rungs and moved
    # with the seed; the costly rungs already hold most of the time.
    CHEAP = [(4, 6, 30), (4, 6, 40), (4, 7, 30), (5, 6, 30), (4, 8, 30),
             (5, 6, 40), (4, 7, 40), (5, 7, 30), (5, 6, 50), (4, 8, 40)]
    COSTLY = [(5, 8, 30), (5, 7, 40), (5, 7, 50), (5, 8, 40), (5, 8, 50)]
    RUNGS = CHEAP + CHEAP + COSTLY
    slots = len(RUNGS)
    # The memo's dicts double in steps: the third round's peak fell on
    # either side of one (100 or 123 MB by seed); the fourth's did not.
    rss_rounds = 4

    def make_input(self, round_index: int, slot: int):
        nx, K, nf = self.RUNGS[slot]
        hyps = random_hyps(_rng("ladder", self.seed, round_index, slot), nx, K, nf)
        return hyps, K, self.lib.DiscreteClass(_domain(self.lib, nx), K, tuple(hyps))

    def run(self, inp):
        lib = self.lib
        F = inp[2]
        return (lib.sfat2(F), lib.irreducibility_level(F),
                lib.classes.enumerate_restriction_subclasses(F))

    def check(self, inp, out) -> None:
        d, level, subs = out
        checks.check_ladder(inp[0], inp[1], {"sfat2": d, "level": level,
                                             "subclasses": [G.hyps for G in subs]})


class Filter(Workload):
    """filter_step, then soa_filter on perturbed labelings of stable subclasses."""

    name = "filter"
    # (|X|, K, |F|, d, tau0, chi): a random class of sfat2 d, drawn again
    # until the reference gives d, with schedule
    # LadderSchedule(1, d+1, tau0 (d+1), chi).  Left to chance, several
    # rungs gave sfat2 2 (about 40 ms) or 3 (about 200 ms), and the share of
    # each moved the median operation by 12% between seeds.  |F| <= 15
    # keeps sfat2 <= 3 (a depth-r shattering tree needs 2^r hypotheses); an
    # sfat2-4 class costs 2-5 s per soa_filter call and would dominate every
    # round.
    #
    # tau0 12, chi 5 is the learner's schedule (compute_parameters).  Its
    # gap tests compare gaps of at most K-1 with tau = 12j + 7, so at these
    # K the members do not depend on g_hat.  With tau0 1, chi 1, tau = 3+j
    # is below K-1 on every pass: g_hat decides the members, and the
    # closing tau_max cut removes some of them.
    RUNGS = [(3, 4, 10, 2, 12, 5), (3, 5, 12, 2, 12, 5), (4, 5, 12, 3, 12, 5),
             (3, 6, 14, 3, 12, 5), (4, 5, 15, 3, 12, 5), (4, 6, 15, 3, 12, 5),
             (5, 5, 15, 3, 12, 5), (5, 6, 15, 3, 12, 5),
             (3, 7, 12, 3, 1, 1), (4, 8, 14, 3, 1, 1), (4, 9, 15, 3, 1, 1)]
    slots = len(RUNGS)
    rss_rounds = 3
    G_HATS = 4

    def make_input(self, round_index: int, slot: int):
        nx, K, nf, d, tau0, chi = self.RUNGS[slot]
        rng = _rng("filter", self.seed, round_index, slot)
        while True:
            hyps = random_hyps(rng, nx, K, nf)
            ref = RefClass(hyps, K)
            if ref.sfat2(ref.full) == d:
                break
        schedule = self.lib.LadderSchedule(1, d + 1, tau0 * (d + 1), chi)
        stable = sorted(mk for mk in ref.restriction_closure(ref.full)
                        if ref.is_irreducible(mk, 1))
        g_hats = []
        for _ in range(self.G_HATS):
            g = ref.soa(rng.choice(stable))
            g_hats.append(tuple(min(K, max(1, v + rng.randint(-chi, chi))) for v in g))
        # The reference is rebuilt in check, so its memo is not alive
        # during the timed call.
        F = self.lib.DiscreteClass(_domain(self.lib, nx), K, tuple(hyps))
        return hyps, K, F, schedule, g_hats

    def run(self, inp):
        lib = self.lib
        F, schedule, g_hats = inp[2], inp[3], inp[4]
        filtered = lib.filter_step(F, schedule, schedule.r_max)
        return filtered, [lib.soa_filter(F, g, schedule) for g in g_hats]

    def check(self, inp, out) -> None:
        hyps, K, _, schedule, g_hats = inp
        filtered, reps = out
        checks.check_filter(
            hyps, K, schedule.tau_max, g_hats,
            {"levels": {b: [G.hyps for G in classes] for b, classes in filtered.levels.items()},
             "members": [[L.hyps for L in rep.members] for rep in reps]})


WORKLOADS = {w.name: w for w in (Desk, Ladder, Filter)}
