"""Workload definitions and the seeded data generator for the benchmark.

Each workload is one `ucompare compare` invocation on a synthetic CSV. The
CSV is the only thing the program sees; it is rebuilt from the workload seed
with numpy and written with the package's own `save_csv`, so `load_csv` and
the real command-line path run on every measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from ucompare.dataset import Dataset, save_csv

SAMPLED = "sampled"
COMPLETE = "complete"
GAUSSIAN = "gaussian-linear"
ATOMS = "discrete-atoms"

# Number of distinct (features, label) atoms in the duplicate-heavy data.
_ATOM_COUNT = 8


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # GAUSSIAN or ATOMS
    n: int
    d: int
    g: int
    learner_a: str
    learner_b: str
    mode: str  # SAMPLED or COMPLETE
    draws: int | None  # per-statistic budget in sampled mode, None when complete
    why: str

    @property
    def m(self) -> int:
        return self.g + 1

    def argv(self, data_path: str) -> list[str]:
        """Arguments of `ucompare compare` for this workload (without the command)."""
        args = [
            "compare",
            "--data", data_path,
            "--learner-a", self.learner_a,
            "--learner-b", self.learner_b,
            "--g", str(self.g),
            "--seed", "0",
            "--threads", "1",
        ]
        if self.mode == COMPLETE:
            args.append("--complete")
        else:
            args += ["--iterations", str(self.draws)]
        return args

    def nominal_draws(self, draws: int | None = None) -> int:
        """Work of one run as a count of kernel draws, computed from the inputs.

        Sampled: n_delta + m * n_kappa + n_theta2 with every budget equal to
        `draws`. Complete: every subset the enumeration visits,
        C(n, m) + sum_{c=1..m} C(n, 2m - c) + C(n, 2m).
        """
        m, n = self.m, self.n
        if self.mode == COMPLETE:
            return math.comb(n, m) + sum(math.comb(n, 2 * m - c) for c in range(m + 1))
        draws = self.draws if draws is None else draws
        return (m + 2) * draws


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sampled-small-g",
            data=GAUSSIAN, n=60, d=3, g=5,
            learner_a="knn:3", learner_b="stump",
            mode=SAMPLED, draws=300,
            why="Learner fits dominate and almost no phi0 request is reused: "
            "where a vectorized leave-one-out engine must win at small m.",
        ),
        Workload(
            name="sampled-large-g",
            data=GAUSSIAN, n=200, d=5, g=20,
            learner_a="knn:3", learner_b="centroid",
            mode=SAMPLED, draws=10,
            why="The north-star shape (draws up to 42 rows wide): fit, single-point "
            "predict and value-key hashing; the only centroid and large-m workload.",
        ),
        Workload(
            name="sampled-duplicates",
            data=ATOMS, n=60, d=3, g=5,
            learner_a="knn:3", learner_b="stump",
            mode=SAMPLED, draws=10_000,
            why="Rows repeat 8 atoms, so the value-keyed caches answer almost every "
            "phi0 request; a change to the caches must show no loss here.",
        ),
        Workload(
            name="complete-enum",
            data=GAUSSIAN, n=17, d=2, g=2,
            learner_a="knn:3", learner_b="stump",
            mode=COMPLETE, draws=None,
            why="The only complete-mode workload: full enumeration with "
            "_symmetrized_product and 0.9M phi0 index-cache lookups.",
        ),
    )
}


def make_dataset(workload: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features (n, d) and 0/1 labels (n,) for a workload, reproducible from seed."""
    rng = np.random.default_rng([seed, workload.n, workload.d])
    n, d = workload.n, workload.d
    if workload.data == GAUSSIAN:
        x = rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        score = x @ w + 0.5 * rng.standard_normal(n)
        y = (score > 0).astype(int)
    else:
        # Distinct grid points in {0,1,2}^d; the half with the larger linear
        # score is labelled 1, so both labels are present among the atoms.
        grid = np.array(np.meshgrid(*[np.arange(3)] * d, indexing="ij")).reshape(d, -1).T
        atoms = grid[rng.choice(len(grid), size=_ATOM_COUNT, replace=False)].astype(float)
        score = atoms @ rng.standard_normal(d)
        atom_labels = np.zeros(_ATOM_COUNT, dtype=int)
        atom_labels[np.argsort(score, kind="stable")[_ATOM_COUNT // 2 :]] = 1
        rows = rng.integers(_ATOM_COUNT, size=n)
        x, y = atoms[rows], atom_labels[rows]
    if len(set(y.tolist())) < 2:
        raise ValueError(f"{workload.name} seed {seed}: generated a single-class sample")
    return x, y


def write_dataset(workload: Workload, seed: int, path: str) -> None:
    """Write the workload's data as CSV with ucompare's own writer."""
    x, y = make_dataset(workload, seed)
    save_csv(Dataset.from_arrays(x.tolist(), y.tolist()), path)
