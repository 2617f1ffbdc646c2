"""Shared infrastructure for the per-figure experiment drivers.

Every driver returns an :class:`ExperimentResult` — a titled table of
rows that prints exactly the series the paper's figure/table reports —
so the benchmark harness, the examples and EXPERIMENTS.md all consume
one representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..algorithms import BFS, ConnectedComponents, PageRank, SSSP, SpMV
from ..arch.config import Workload
from ..graph.datasets import DATASET_ORDER, load_all

#: Default directory where benchmark drivers drop their tables.
RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


@dataclass
class ExperimentResult:
    """A reproduced table or figure, as printable rows.

    Attributes:
        experiment: short id ("fig16", "table3"...).
        title: what the paper's caption says.
        headers: column names.
        rows: row values (mixed str/float; floats are formatted on
            output).
        notes: reproduction caveats worth printing with the data.
    """

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def add(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"{self.experiment}: row has {len(values)} values for "
                f"{len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def column(self, header: str) -> list[Any]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        """Render an aligned text table."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1000:
                    return f"{value:,.0f}"
                if abs(value) >= 10:
                    return f"{value:.1f}"
                return f"{value:.3g}"
            return str(value)

        table = [self.headers] + [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(row[col]) for row in table)
            for col in range(len(self.headers))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        for i, row in enumerate(table):
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def save(self, directory: Path | str = RESULTS_DIR) -> Path:
        """Write the formatted table under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment}.txt"
        path.write_text(self.format() + "\n")
        return path

    def to_csv(self) -> str:
        """Render as CSV (for spreadsheets and plotting pipelines)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save_csv(self, directory: Path | str = RESULTS_DIR) -> Path:
        """Write the CSV rendering under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment}.csv"
        path.write_text(self.to_csv())
        return path

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured Markdown table."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        lines = [
            "| " + " | ".join(self.headers) + " |",
            "|" + "|".join("---" for _ in self.headers) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        return "\n".join(lines)


# --- cached workloads and algorithm factories --------------------------------

_WORKLOADS: dict[str, Workload] = {}


def workloads() -> dict[str, Workload]:
    """The five evaluation workloads, cached, in paper order.

    The graphs come from the run cache's dataset records in one
    batched store read (:func:`~repro.graph.datasets.load_all`); only
    a miss generates one."""
    if not _WORKLOADS:
        load_all()
        for key in DATASET_ORDER:
            _WORKLOADS[key] = Workload.from_dataset(key)
    return dict(_WORKLOADS)


def attach_workloads(parent: dict[str, Workload]) -> None:
    """Pool-worker initializer: fill the workload cache if it is empty.

    ``parent`` is the parent's :func:`workloads` dict.  A forked worker
    inherits the parent's filled cache and keeps it (the argument is
    never pickled); under ``spawn``/``forkserver`` the dict is
    unpickled once per worker, so no worker regenerates the datasets.
    """
    if not _WORKLOADS:
        _WORKLOADS.update(parent)


#: Factories for the three main evaluation algorithms (Figs. 13-18).
CORE_ALGORITHM_FACTORIES: dict[str, Callable] = {
    "BFS": BFS,
    "CC": ConnectedComponents,
    "PR": PageRank,
}

#: Factories for the five GraphR-comparison algorithms (Fig. 21).
ALL_ALGORITHM_FACTORIES: dict[str, Callable] = {
    "BFS": BFS,
    "CC": ConnectedComponents,
    "PR": PageRank,
    "SSSP": SSSP,
    "SpMV": SpMV,
}


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    from ..arch.report import geomean as _geomean

    return _geomean(values)
