"""Record the reference rows the benchmark checks its outputs against.

Usage (from the repository root)::

    python3 perfbench/record.py

Runs every workload once at its default seed through the same exact
path the benchmark measures, refuses to write unless the ``ycsb_read``
and ``ycsb_write`` rows together are the rows of the committed fig6
quick table (:data:`FIG6_QUICK_SHA256`), and writes one SHA-256 digest
per row to ``perfbench/references.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import (WORKLOADS, make_plan,  # noqa: E402
                                 table_rows)

#: ``table_sha256`` of fig6 at quick scale in ``BENCH_core.json``.
FIG6_QUICK_SHA256 = \
    "f0e0481114b9c66c1723228f00b77d8fd3c50ff01087be7241c06d6b2fb39133"


def check_fig6_union(*results) -> None:
    """Raise unless the rows of ``results`` together are exactly the
    rows of the committed fig6 quick table.

    The full fig6 quick sweep runs once more through the same facade;
    its formatted table must hash to :data:`FIG6_QUICK_SHA256`, and its
    rows must equal the union of the workloads' rows.
    """
    from repro import api
    from repro.experiments import fig6
    full = api.run(fig6.plan(quick=True)).result
    digest = hashlib.sha256(full.format_table().encode()).hexdigest()
    if digest != FIG6_QUICK_SHA256:
        raise SystemExit(f"fig6 quick table is {digest[:12]}, not the "
                         f"committed {FIG6_QUICK_SHA256[:12]}")
    union = sorted(row for result in results for row in result.rows)
    if union != sorted(full.rows):
        raise SystemExit("ycsb_read and ycsb_write rows are not the fig6 "
                         "quick table's rows")


def record() -> dict:
    from repro import api
    results = {}
    for name, workload in WORKLOADS.items():
        print(f"running {name} at seed {workload.default_seed}",
              flush=True)
        results[name] = api.run(make_plan(workload,
                                          workload.default_seed)).result
    print("running fig6 quick", flush=True)
    check_fig6_union(results["ycsb_read"], results["ycsb_write"])
    return {name: {str(WORKLOADS[name].default_seed):
                   table_rows(WORKLOADS[name], result)}
            for name, result in results.items()}


def main() -> int:
    references = record()
    path = os.path.join(HERE, "references.json")
    with open(path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
