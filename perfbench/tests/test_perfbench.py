"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The sweeps here are shrunk versions of the benchmark's workloads, so
the properties are checked in seconds; the reference-row test runs the
real ``ycsb_read`` and ``ycsb_write`` sweeps once.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers, probe as probe_mod  # noqa: E402
from perfbench.probe import Probe  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS, make_plan, table_rows  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def small_plans():
    """Shrunk sweeps covering the LSM (reads and writes), cache_ext
    policies with and without BPF maps, both kernel policies, and the
    file searcher."""
    from repro.experiments import fig6, fig9
    return [
        fig6.plan(quick=True, policies=("default", "mglru", "lfu", "mru"),
                  workloads=("A", "E"),
                  scale={"nkeys": 1500, "cgroup_pages": 64, "nops": 600,
                         "warmup_ops": 200, "nthreads": 2}),
        fig9.plan(scale={"nfiles": 60, "passes": 2}),
    ]


def run_plans(trace: bool):
    """(table texts, probe) for every small plan under one probe."""
    from repro import api
    probe = Probe(trace=trace)
    with probe:
        tables = [api.run(spec).result.format_table()
                  for spec in small_plans()]
    return tables, probe


def count_metrics(values: dict) -> dict:
    units = layers.units()
    return {name: value for name, value in values.items()
            if units[name] == "count"}


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = [m["name"] for m in bench["per_layer"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    for name in per_layer + end_to_end + list(WORKLOADS):
        assert NAME.match(name), name
    assert len(set(per_layer + end_to_end)) == len(per_layer + end_to_end)
    assert per_layer == list(layers.units())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == layers.units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(layers.MOVES) == set(per_layer)


def test_traced_tables_equal_untraced_tables():
    untraced, _ = run_plans(trace=False)
    traced, probe = run_plans(trace=True)
    assert traced == untraced
    assert probe.calls("apps.lsm.get") > 0
    assert probe.calls("policies.folio_added") > 0
    assert probe.outermost_calls("ebpf.map.") > 0


def test_wrappers_are_fully_removed():
    from repro.ebpf import maps
    from repro.experiments import fig9, harness
    from repro.kernel import list as klist
    watched = [vars(harness).copy(), vars(fig9).copy(),
               dict(vars(klist.IntrusiveList)), dict(vars(maps.HashMap))]
    _, probe = run_plans(trace=True)
    assert probe.leftovers() == []
    assert not probe.installed
    after = [vars(harness), vars(fig9), vars(klist.IntrusiveList),
             vars(maps.HashMap)]
    for before, now in zip(watched, after):
        for name, value in before.items():
            assert now.get(name) is value, name


def test_setup_timer_counts_the_outermost_call_once(monkeypatch):
    """make_db_env calls build_machine and attach_policy; with a clock
    that ticks once per read, one outermost call reads it exactly
    twice."""
    ticks = iter(range(10**6))
    monkeypatch.setattr(probe_mod, "_clock", lambda: float(next(ticks)))
    from repro.experiments import harness
    with Probe(trace=False) as probe:
        harness.make_db_env("lfu", cgroup_pages=64, nkeys=200)
        harness.build_machine("default")
    assert probe.setup_s == {"prepare": 0.0, "build": 2.0}


def test_traced_counts_repeat_and_crosscheck_passes():
    _, first = run_plans(trace=True)
    _, second = run_plans(trace=True)
    counts = count_metrics(layers.compute(first))
    assert counts == count_metrics(layers.compute(second))
    assert {s.name: s.calls for s in first.stats.values()} \
        == {s.name: s.calls for s in second.stats.values()}
    assert first.edges == second.edges
    for row in first.crosscheck():
        assert row["ok"], row
        assert row["program"] == row["wrappers"]


def test_references_reproduce_committed_fig6_quick_rows():
    from repro import api
    from perfbench.record import check_fig6_union
    with open(os.path.join(ROOT, "perfbench", "references.json")) as fh:
        references = json.load(fh)
    results = {}
    for name in ("ycsb_read", "ycsb_write"):
        workload = WORKLOADS[name]
        results[name] = api.run(make_plan(workload,
                                          workload.default_seed)).result
        assert table_rows(workload, results[name]) \
            == references[name][str(workload.default_seed)]
    check_fig6_union(results["ycsb_read"], results["ycsb_write"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_program_sources(tmp_path, trace):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "file_search",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_sampler_restores_the_alarm_handler():
    import signal
    import time
    from perfbench.calibrate import SpeedSampler
    before = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler().start()
    deadline = time.perf_counter() + 0.35
    while time.perf_counter() < deadline:
        pass
    sampler.stop()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.slices) >= 2
    assert sampler.slice_s > 0
