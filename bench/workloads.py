"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed.  A *task* is one
unit of its work: `prepare(k)` makes task k's inputs (untimed), `run` is the
timed call into photonsim, and `check` compares the output with a reference
(untimed) and returns the largest deviation it saw.  Task 0 is the warm-up.

Every call into the program goes through a module attribute at call time
(`self.ps.distribution`, `self.ps.cli.main`), so the tracer's patches see it.
See README.md in this directory for why each workload exists and which layer
it stresses.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import io
import json
import math

import numpy as np

MASK64 = (1 << 64) - 1


class CheckFailed(Exception):
    """A task's output disagrees with its reference."""


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def task_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


# -- references written here, independent of photonsim ----------------------


def splitmix64_doubles(seed: int, count: int) -> np.ndarray:
    """The first `count` SplitMix64 draws of `seed` as doubles in [0, 1).

    Vectorized over the stream: state k is seed + k * gamma (mod 2^64), and
    uint64 arithmetic wraps exactly as the scalar generator masks.
    """
    gamma = np.uint64(0x9E3779B97F4A7C15)
    z = np.uint64(seed & MASK64) + gamma * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def inverse_cdf_counts(keys: list, probabilities: list[float], shots: int, seed: int) -> dict:
    """Counts of `shots` inverse-CDF draws over `keys` in the given order."""
    cumulative = []
    acc = 0.0
    for p in probabilities:
        acc += p
        cumulative.append(acc)
    draws = splitmix64_doubles(seed, shots) * acc
    index = np.minimum(np.searchsorted(cumulative, draws, side="right"), len(keys) - 1)
    hits = np.bincount(index, minlength=len(keys))
    return {key: int(c) for key, c in zip(keys, hits) if c}


def canonical_items(entries: dict) -> list:
    """Fock outcomes in descending lexicographic order of occupations."""
    return sorted(entries.items(), key=lambda kv: tuple(-n for n in kv[0].occupations))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_input(ps, rng: np.random.Generator, modes: int = 10, photons: int = 5):
    """A Haar unitary and a normalized superposition of a collision-free and
    a bunched Fock term in the `photons`-photon sector."""
    u = haar_unitary(rng, modes)
    free = [0] * modes
    for m in rng.choice(modes, photons, replace=False):
        free[m] = 1
    while True:
        bunched = np.bincount(rng.integers(0, modes, photons), minlength=modes)
        if bunched.max() >= 2:
            break
    coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    coeffs /= np.linalg.norm(coeffs)
    terms = {
        ps.FockState(tuple(free)): complex(coeffs[0]),
        ps.FockState(tuple(int(v) for v in bunched)): complex(coeffs[1]),
    }
    return u, ps.StateVector(terms, channels=modes)


# -- reference kernels: fixed work timed next to every task -----------------
#
# On a shared host, load from outside the process slows a task by up to 2x for
# minutes at a time, so task seconds spread more from run to run than any
# useful bound.  The same load slows code of the same kind by about the same
# factor.  So each workload times one of these kernels just before every task
# and reports the task's time as a multiple of it.  Each kernel does the kind of
# work that dominates its workload's task, on fixed inputs.  They are written
# here and call nothing in photonsim, so a change to the program does not move
# them.


def ref_ryser_python(a) -> complex:
    """Ryser's permanent in Gray-code order, one Python loop per subset."""
    n = len(a)
    rows = [list(row) for row in a]
    sums = [0j] * n
    total = 0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = new_gray ^ gray
        j = bit.bit_length() - 1
        sign = 1.0 if new_gray & bit else -1.0
        for i in range(n):
            sums[i] += sign * rows[i][j]
        gray = new_gray
        prod = 1.0 + 0j
        for v in sums:
            prod *= v
        total += prod if (n - gray.bit_count()) % 2 == 0 else -prod
    return total


def ref_subset_sweep(u: np.ndarray, n: int, reductions: int) -> complex:
    """A (2^n x channels) array sweep of column-subset sums, then
    `reductions` products over n of its columns."""
    count = 1 << n
    channels = u.shape[0]
    sums = np.zeros((count, channels), dtype=complex)
    size = 1
    for j in range(n):
        sums[size : 2 * size] = sums[:size] + u[:, j]
        size *= 2
    total = 0j
    for t in range(reductions):
        acc = np.ones(count, dtype=complex)
        for j in range(n):
            acc *= sums[:, (j + t) % channels]
        total += complex(acc.sum())
    return total


def ref_inverse_cdf_python(cumulative: list[float], shots: int, seed: int) -> list[int]:
    """Scalar SplitMix64 draws located by bisection, one Python loop per shot."""
    counts = [0] * len(cumulative)
    state = seed & MASK64
    for _ in range(shots):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        u = ((z ^ (z >> 31)) >> 11) * 2.0**-53 * cumulative[-1]
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if u < cumulative[mid]:
                hi = mid
            else:
                lo = mid + 1
        counts[lo] += 1
    return counts


def ref_unitary(dim: int) -> np.ndarray:
    """The fixed Haar unitary the reference kernels work on."""
    return haar_unitary(np.random.default_rng(0), dim)


def ref_cumulative(outcomes: int) -> list[float]:
    """A fixed cumulative distribution over `outcomes` outcomes."""
    return np.cumsum(np.random.default_rng(0).random(outcomes)).tolist()


# -- workloads --------------------------------------------------------------


class Grover3q:
    """`dual_rail_grover_3q`: 20 modes, 17 photons, 56 admissible targets."""

    SHOTS = 1000
    SUCCESS = (2.0 / 27.0) ** 7

    def __init__(self, ps, seed: int, root):
        self.ps, self.seed = ps, seed
        self.ref_u = ref_unitary(20)

    def prepare(self, k: int):
        return int(task_rng(self.seed, k).integers(2**63))

    def reference(self):
        return ref_subset_sweep(self.ref_u, 17, 8)

    def run(self, shot_seed):
        return self.ps.dual_rail_grover_3q(shots=self.SHOTS, seed=shot_seed)

    def check(self, shot_seed, result) -> float:
        rel = abs(result.success_probability - self.SUCCESS) / self.SUCCESS
        pair = abs(result.data_probabilities.get("01", 0.0) - 1.0)
        require(rel <= 1e-12, f"success off by {rel:.3g} relative")
        require(pair <= 1e-12, f"P(01) off by {pair:.3g}")
        require(result.leak_probability <= 1e-12, f"leak {result.leak_probability:.3g}")
        require(sum(result.counts.values()) == self.SHOTS, "counts do not sum to shots")
        return max(rel, pair, result.leak_probability)

    def fingerprint(self, result) -> str:
        return repr((
            sorted(result.probabilities.items()), sorted(result.amplitudes.items()),
            sorted(result.data_probabilities.items()), result.success_probability,
            result.leak_probability, sorted(result.counts.items()),
        ))


class HaarDistribution:
    """Public `distribution(U, psi)` on a fresh Haar 10x10 unitary per task."""

    def __init__(self, ps, seed: int, root):
        self.ps, self.seed = ps, seed
        self.ref_u = ref_unitary(10)

    def prepare(self, k: int):
        return haar_input(self.ps, task_rng(self.seed, k))

    def reference(self):
        cols = [0, 2, 4, 6, 8]
        return sum(ref_ryser_python(self.ref_u[np.ix_(rows, cols)])
                   for rows in itertools.combinations(range(10), 5))

    def run(self, inputs):
        u, psi = inputs
        return self.ps.distribution(u, psi)

    def check(self, inputs, dist) -> float:
        u, psi = inputs
        total = dist.total()
        require(abs(total - 1.0) <= 1e-10, f"sum of p is {total!r}")
        oracle: dict = {}
        for term, coeff in psi.items():
            for state, amp in self.ps.oracle_evolve(u, term).items():
                oracle[state] = oracle.get(state, 0j) + coeff * amp
        err = 0.0
        for state in set(oracle) | set(dist.entries):
            err = max(err, abs(dist.probability(state) - abs(oracle.get(state, 0j)) ** 2))
        require(err <= 1e-12, f"|amplitude|^2 off the oracle by {err:.3g}")
        return err

    def fingerprint(self, dist) -> str:
        return repr([(s.occupations, p) for s, p in canonical_items(dist.entries)])


class ShotSampling:
    """`sample(dist, 1e5)` on a fixed exact distribution plus
    `run_grover(target, shots=1e5)`: both seeded inverse-CDF samplers."""

    SHOTS = 100_000

    def __init__(self, ps, seed: int, root):
        self.ps, self.seed = ps, seed
        u, psi = haar_input(ps, np.random.default_rng([seed, 2**32]))
        self.dist = ps.distribution(u, psi)
        ordered = canonical_items(self.dist.entries)
        self.states = [s for s, _ in ordered]
        self.probabilities = [p for _, p in ordered]
        self.ref_cumulative = ref_cumulative(len(ordered))

    def prepare(self, k: int):
        rng = task_rng(self.seed, k)
        return int(rng.integers(2**63)), str(rng.choice(self.ps.grover.TARGETS))

    def reference(self):
        return ref_inverse_cdf_python(self.ref_cumulative, 10_000, 1)

    def run(self, inputs):
        shot_seed, target = inputs
        return (
            self.ps.sample(self.dist, self.SHOTS, shot_seed),
            self.ps.run_grover(target, shots=self.SHOTS, seed=shot_seed),
        )

    def check(self, inputs, output) -> float:
        shot_seed, target = inputs
        counts, found = output
        want = inverse_cdf_counts(self.states, self.probabilities, self.SHOTS, shot_seed)
        require(counts.counts == want, "sample counts differ from the reference sampler")
        labels = sorted(found.probabilities)
        want = inverse_cdf_counts(labels, [found.probabilities[x] for x in labels], self.SHOTS, shot_seed)
        got = {label: c for label, c in found.counts.items() if c}
        require(got == want, "run_grover counts differ from the reference sampler")
        err = max(abs(p - (label == target)) for label, p in found.probabilities.items())
        require(err <= 1e-12, f"search probabilities off by {err:.3g}")
        return err

    def fingerprint(self, output) -> str:
        counts, found = output
        return repr((counts.items(), sorted(found.probabilities.items()), sorted(found.counts.items())))


BELL_INPUT = "|1,0,1,0>"
HERALDS = "[4]==1 & [5]==1"


class CliRoundtrip:
    """Six in-process `photonsim.cli.main` commands on tests/data circuits."""

    SHOTS = 1000

    def __init__(self, ps, seed: int, root):
        self.ps, self.seed = ps, seed
        self.data = root / "tests" / "data"
        for name in ("h", "bell_pair", "splitter_bench", "grover_target11"):
            if not (self.data / f"{name}.json").is_file():
                raise FileNotFoundError(self.data / f"{name}.json")
        # References built through the public API, not through the CLI.
        basis = ps.StateVector.basis
        self.unitary = ps.GateSequence(2).gate("H", 0).build().circuit.compile()
        bell = ps.GateSequence(2).gate("H", 0).cnot(0, 1, "heralded").build()
        bell_state = ps.FockState((1, 0, 1, 0) + bell.herald_input)
        self.bell, self.bell_success = ps.Processor(
            bell.circuit, basis(bell_state), ps.parse_postselect(HERALDS)
        ).run()
        splitter = ps.Circuit(3)
        for anchor, component in (
            (0, ps.BeamSplitter.bs1(math.pi / 4)),
            (2, ps.PhaseShifter(math.pi / 2)),
            (1, ps.BeamSplitter.h(1.9106332362490186, phi_tl=math.pi, phi_br=math.pi)),
            (0, ps.Permutation((2, 0, 1))),
            (1, ps.GenericUnitary([[0, 1], [1, 0]])),
        ):
            splitter = splitter.add(anchor, component)
        self.splitter_inputs = [ps.FockState(occ) for occ in ps.sector_basis(3, 3)]
        self.splitter = {
            s: ps.Processor(splitter, basis(s)).run()[0] for s in self.splitter_inputs
        }
        self.grover11 = ps.Processor(
            ps.grover_pipeline("11"), basis(ps.grover.PIPELINE_INPUT)
        ).run()[0]
        self.grover = {t: ps.run_grover(t).probabilities for t in ps.grover.TARGETS}
        bell_items = canonical_items(self.bell.entries)
        self.bell_states = [s for s, _ in bell_items]
        self.bell_probabilities = [p for _, p in bell_items]
        self.ref_text = (self.data / "bell_pair.json").read_text()
        self.ref_cumulative = ref_cumulative(len(bell_items))
        self.ref_u = ref_unitary(3)

    def prepare(self, k: int):
        rng = task_rng(self.seed, k)
        splitter_input = self.splitter_inputs[int(rng.integers(len(self.splitter_inputs)))]
        shot_seed = int(rng.integers(2**63))
        target = str(rng.choice(self.ps.grover.TARGETS))
        d = self.data
        argvs = [
            ["unitary", "--circuit", str(d / "h.json"), "--json"],
            ["simulate", "--circuit", str(d / "bell_pair.json"), "--input", BELL_INPUT,
             "--postselect", HERALDS, "--renormalize", "--json"],
            ["simulate", "--circuit", str(d / "splitter_bench.json"),
             "--input", self.ps.format_state(splitter_input), "--json"],
            ["simulate", "--circuit", str(d / "grover_target11.json"),
             "--input", "|0,{P:H},0,0>", "--json"],
            ["sample", "--circuit", str(d / "bell_pair.json"), "--input", BELL_INPUT,
             "--postselect", HERALDS, "--shots", str(self.SHOTS), "--seed", str(shot_seed), "--json"],
            ["grover", "--target", target, "--json"],
        ]
        return argvs, splitter_input, shot_seed, target

    def reference(self):
        """The mix of one pass over the six commands: argument parsers built
        and used, JSON round trips, a 1000-shot scalar sampler and a small
        permanent."""
        argv = ["sample", "--circuit", "bell_pair.json", "--input", BELL_INPUT,
                "--postselect", HERALDS, "--shots", "1000", "--json"]
        texts = []
        for _ in range(3):
            parser = argparse.ArgumentParser(prog="reference")
            commands = parser.add_subparsers(dest="command")
            for name in ("unitary", "simulate", "sample", "grover"):
                command = commands.add_parser(name, help=f"the {name} command")
                for flag in ("--circuit", "--input", "--postselect", "--shots", "--seed"):
                    command.add_argument(flag, help=f"the {flag[2:]} option")
                command.add_argument("--json", action="store_true")
            parser.parse_args(argv)
            texts.append(json.dumps(json.loads(self.ref_text), indent=2))
        return texts, ref_inverse_cdf_python(self.ref_cumulative, 1000, 1), ref_ryser_python(self.ref_u)

    def run(self, inputs):
        outputs = []
        for argv in inputs[0]:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.ps.cli.main(argv)
            outputs.append((code, buffer.getvalue()))
        return outputs

    def check(self, inputs, outputs) -> float:
        argvs, splitter_input, shot_seed, target = inputs
        for argv, (code, _) in zip(argvs, outputs):
            require(code == 0, f"{argv[0]} exited {code}")
        unitary, bell, splitter, grover11, sampled, grover = (json.loads(o) for _, o in outputs)
        parse = self.ps.parse_state
        errs = [0.0]
        matrix = np.array([[complex(re, im) for re, im in row] for row in unitary["unitary"]])
        errs.append(float(np.max(np.abs(matrix - self.unitary))))
        errs.append(abs(bell["success"] - self.bell_success))
        errs += [abs(o["probability"] - self.bell.probability(parse(o["state"]))) for o in bell["outcomes"]]
        for payload, dist in ((splitter, self.splitter[splitter_input]), (grover11, self.grover11)):
            errs += [
                abs(abs(complex(*o["amplitude"])) ** 2 - dist.probability(parse(o["state"])))
                for o in payload["outcomes"]
            ]
        errs += [abs(p - self.grover[target][x]) for x, p in zip(grover["labels"], grover["probabilities"])]
        err = max(errs)
        require(err <= 1e-12, f"CLI output off the API reference by {err:.3g}")
        counts = {parse(c["state"]): c["count"] for c in sampled["counts"]}
        want = inverse_cdf_counts(self.bell_states, self.bell_probabilities, self.SHOTS, shot_seed)
        require(counts == want, "sample counts differ from the reference sampler")
        return err

    def fingerprint(self, outputs) -> str:
        return repr(outputs)


WORKLOADS = {
    "grover3q": Grover3q,
    "haar_distribution": HaarDistribution,
    "shot_sampling": ShotSampling,
    "cli_roundtrip": CliRoundtrip,
}
