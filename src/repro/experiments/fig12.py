"""Fig. 12: normalised preprocessing speed as the block count grows."""

from __future__ import annotations

from ..model.preprocessing import INTERVAL_SWEEP, preprocessing_speed_sweep
from .common import ExperimentResult, workloads


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig12",
        title="Normalized preprocessing speed vs number of blocks",
        headers=["Dataset", "Source"]
        + [f"{p}x{p}" for p in INTERVAL_SWEEP],
        notes=(
            "speed relative to the 2x2 partition; drops sharply past "
            "32x32 blocks when the bucket table stops fitting in cache"
        ),
    )
    for key, workload in workloads().items():
        edges = workload.reported_edges or workload.graph.num_edges
        modeled = preprocessing_speed_sweep(float(edges), key)
        result.rows.append(
            [key, "model"] + [row.normalized_speed for row in modeled]
        )
    return result
