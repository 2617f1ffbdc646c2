"""Synthetic stand-ins for the paper's evaluation datasets (Table 2).

The paper evaluates on five SNAP graphs.  Offline, we regenerate each as
an R-MAT graph that preserves the dataset's *shape*: its vertex/edge
ratio and a skew parameter tuned so that derived statistics (block
occupancy N_avg of Table 1, non-empty block counts of Equation (9))
land near the published values.  Sizes are scaled down uniformly so the
full evaluation sweep runs on a laptop; energy totals scale linearly
with size, so every *ratio* the paper reports is preserved.

========  ============  ============  =========================
dataset   paper |V|     paper |E|     scaled (this reproduction)
========  ============  ============  =========================
YT        1.16 M        2.99 M        11,600 / 29,900
WK        2.39 M        5.02 M        23,900 / 50,200
AS        1.69 M        11.1 M        16,900 / 111,000
LJ        4.85 M        69.0 M        24,250 / 345,000
TW        41.7 M        1,470 M       27,800 / 980,000
========  ============  ============  =========================
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .generators import GENERATOR_VERSION, rmat
from .graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one evaluation dataset.

    Attributes:
        key: the two-letter tag the paper uses (YT, WK, AS, LJ, TW).
        full_name: SNAP name of the original dataset.
        paper_vertices: vertex count of the original graph.
        paper_edges: edge count of the original graph.
        num_vertices: vertex count of the scaled synthetic graph.
        num_edges: edge count of the scaled synthetic graph.
        rmat_a: R-MAT skew parameter (b = c = (1 - a) / 3).
        seed: deterministic generation seed.
    """

    key: str
    full_name: str
    paper_vertices: int
    paper_edges: int
    num_vertices: int
    num_edges: int
    rmat_a: float
    seed: int

    @property
    def scale_factor(self) -> float:
        """How much smaller the synthetic graph is than the original."""
        return self.paper_edges / self.num_edges

    def _rmat_args(self) -> dict:
        rest = (1.0 - self.rmat_a) / 3.0
        return {"num_vertices": self.num_vertices,
                "num_edges": self.num_edges, "a": self.rmat_a,
                "b": rest, "c": rest, "seed": self.seed, "name": self.key}

    def generate(self) -> Graph:
        """Generate (deterministically) the synthetic graph."""
        return rmat(**self._rmat_args())

    def record_key(self) -> str:
        """What the generated graph is a pure function of: the
        generator's version and its arguments (floats written
        exactly).  The run cache keys this dataset's record on it."""
        return json.dumps([GENERATOR_VERSION, self._rmat_args()],
                          sort_keys=True)


#: Registry of the five evaluation datasets, in the paper's order.
DATASETS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in [
        DatasetSpec("YT", "com-youtube", 1_160_000, 2_990_000,
                    11_600, 29_900, rmat_a=0.63, seed=1),
        DatasetSpec("WK", "wiki-talk", 2_390_000, 5_020_000,
                    23_900, 50_200, rmat_a=0.60, seed=2),
        DatasetSpec("AS", "as-skitter", 1_690_000, 11_100_000,
                    16_900, 111_000, rmat_a=0.695, seed=3),
        DatasetSpec("LJ", "live-journal", 4_850_000, 69_000_000,
                    24_250, 345_000, rmat_a=0.565, seed=4),
        DatasetSpec("TW", "twitter-2010", 41_700_000, 1_470_000_000,
                    27_800, 980_000, rmat_a=0.555, seed=5),
    ]
}

#: Dataset keys in the order the paper's figures list them.
DATASET_ORDER: tuple[str, ...] = ("YT", "WK", "AS", "LJ", "TW")

_CACHE: dict[str, Graph] = {}


def load(key: str) -> Graph:
    """Load (generating and caching on first use) a dataset by key."""
    key = key.upper()
    if key not in DATASETS:
        known = ", ".join(DATASET_ORDER)
        raise KeyError(f"unknown dataset {key!r}; known datasets: {known}")
    if key not in _CACHE:
        _CACHE[key] = DATASETS[key].generate()
    return _CACHE[key]


def load_all() -> dict[str, Graph]:
    """Load every evaluation dataset, keyed by tag, in paper order.

    The datasets this process has not loaded yet are read from the run
    cache's dataset records in one batched store read; only those the
    store does not hold are generated, and stored for the next process.
    """
    from ..perf.cache import get_run_cache

    missing = [DATASETS[key] for key in DATASET_ORDER if key not in _CACHE]
    if missing:
        _CACHE.update(get_run_cache().get_or_datasets(
            missing, lambda key: DATASETS[key].generate()))
    return {key: _CACHE[key] for key in DATASET_ORDER}


def clear_cache() -> None:
    """Drop cached graphs (used by tests that probe determinism)."""
    _CACHE.clear()
