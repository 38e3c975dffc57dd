"""The benchmark's workloads: which sweep each one runs, at what size.

Each workload is a plan built through the public experiment API and
run with :func:`repro.api.run`, serially, in the exact engine (no
``mode=`` or ``snapshot=`` argument).  ``ycsb_read`` and
``ycsb_write`` together are exactly the fig6 quick sweep, so at the
default seed their rows reproduce the committed fig6 quick table.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    quick: bool
    #: YCSB rows of the fig6 grid (None: the experiment takes no
    #: ``workloads`` argument).
    rows: tuple = None
    scale: dict = field(default_factory=dict)
    #: The experiment's own default seed; references are recorded at it.
    default_seed: int = 42


WORKLOADS = {
    w.name: w for w in (
        # Read-dominated YCSB: the LSM read path, cache_ext hooks,
        # policy programs, BPF maps and stream generation.
        Workload("ycsb_read", "fig6", True,
                 rows=("B", "C", "D", "E", "uniform")),
        # 50% updates: memtable, WAL, flush and compaction beside reads.
        Workload("ycsb_write", "fig6", True,
                 rows=("A", "F", "uniform-rw")),
        # Repeated sequential scans: page cache, MGLRU and list churn
        # with no LSM, no BPF maps and no stream generation.  fig9's
        # full-scale corpus is 4x larger here, so that the corpus size
        # (which the seed draws) varies less between seeds, and is
        # searched 8 times, long enough to time steadily.
        Workload("file_search", "fig9", False,
                 scale={"nfiles": 2000, "passes": 8},
                 default_seed=1234),
    )
}


def make_plan(workload: Workload, seed: int):
    """The workload's :class:`~repro.experiments.harness.ExperimentSpec`
    for workload seed ``seed``."""
    module = importlib.import_module(f"repro.experiments."
                                     f"{workload.experiment}")
    kwargs = {"quick": workload.quick,
              "scale": {**workload.scale, "seed": seed}}
    if workload.rows is not None:
        kwargs["workloads"] = workload.rows
    return module.plan(**kwargs)


def row_id(experiment: str, row: list) -> str:
    """A table row's cell id (``"B/lfu"`` for fig6, ``"mru"`` for
    fig9)."""
    if experiment == "fig6":
        return f"{row[0]}/{row[1]}"
    return str(row[0])


def row_digest(row: list) -> str:
    """SHA-256 of the row's canonical JSON encoding."""
    text = json.dumps(row, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def table_rows(workload: Workload, result) -> dict:
    """``{row id: digest}`` for a merged experiment table."""
    return {row_id(workload.experiment, row): row_digest(row)
            for row in result.rows}
