"""Per-layer metrics of a traced run, and what each one should move.

Every metric is derived from one :class:`~perfbench.probe.Probe` after
a traced sweep.  Counts repeat exactly between runs of one seed; the
``*_s`` metrics are host seconds.  ``MOVES`` records, for each metric,
the end-to-end metric and workload a change to that layer should move
(and where the prediction is "no change").
"""

from __future__ import annotations

from typing import Callable


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, value(probe), moves)
METRICS: tuple[tuple[str, str, str, Callable, str], ...] = (
    ("workloads.prepare_s", "s", "lower",
     lambda p: p.setup_s["prepare"],
     "setup_s on ycsb_read and ycsb_write (op streams); on file_search "
     "it is the corpus build"),
    ("experiments.build_s", "s", "lower",
     lambda p: p.setup_s["build"],
     "setup_s on ycsb_read and ycsb_write (machine build, bulk load, "
     "attach); small on file_search"),
    ("apps.lsm.get.calls", "count", "lower",
     lambda p: p.calls("apps.lsm.get"),
     "wall_s and sim_ops_per_s on ycsb_read; none on file_search"),
    ("apps.lsm.scan.calls", "count", "lower",
     lambda p: p.calls("apps.lsm.scan"),
     "wall_s on ycsb_read (workload E); none on file_search"),
    ("apps.lsm.put.calls", "count", "lower",
     lambda p: p.calls("apps.lsm.put"),
     "wall_s on ycsb_write; none on file_search"),
    ("apps.lsm.flush_memtable.calls", "count", "lower",
     lambda p: p.calls("apps.lsm.flush_memtable"),
     "wall_s on ycsb_write; none on file_search"),
    ("apps.lsm.compaction_step.calls", "count", "lower",
     lambda p: p.calls("apps.lsm.compaction_step"),
     "wall_s on ycsb_write; none on file_search"),
    ("apps.self_s", "s", "lower",
     lambda p: p.layer_self_s("apps"),
     "wall_s and sim_ops_per_s on ycsb_read (LSM store); on "
     "file_search it is the searcher only, unmoved by LSM changes"),
    ("apps.lsm.pages_per_get", "pages/op", "lower",
     lambda p: _ratio(p.edge("apps.lsm.get", "kernel.vfs.read_page"),
                      p.calls("apps.lsm.get")),
     "wall_s and sim_ops_per_s on ycsb_read"),
    ("apps.lsm.bloom_probes", "count", "lower",
     lambda p: p.calls("apps.lsm.bloom_probe"),
     "wall_s on ycsb_read; none on file_search"),
    ("apps.lsm.bloom_negative_ratio", "ratio", "higher",
     lambda p: _ratio(p.aux("apps.lsm.bloom_probe"),
                      p.calls("apps.lsm.bloom_probe")),
     "wall_s on ycsb_read; none on file_search"),
    ("cache_ext.hook_dispatches", "count", "lower",
     lambda p: p.hook_dispatches(),
     "wall_s on ycsb_read and ycsb_write; file_search only through "
     "its mru cell"),
    ("cache_ext.kfunc.calls", "count", "lower",
     lambda p: p.outermost_calls("cache_ext.kfunc."),
     "wall_s on ycsb_read and ycsb_write; file_search only through "
     "its mru cell"),
    ("cache_ext.registry.ops", "count", "lower",
     lambda p: p.outermost_calls("cache_ext.registry."),
     "wall_s on ycsb_read and ycsb_write; file_search only through "
     "its mru cell"),
    ("cache_ext.valid_candidate_ratio", "ratio", "higher",
     lambda p: _ratio(p.counter("ext_candidates")
                      - p.counter("ext_invalid_candidates"),
                      p.counter("ext_candidates")),
     "wall_s on ycsb_read and ycsb_write"),
    ("cache_ext.self_s", "s", "lower",
     lambda p: p.layer_self_s("cache_ext"),
     "wall_s on ycsb_read and ycsb_write; file_search only through "
     "its mru cell"),
    ("policies.self_s", "s", "lower",
     lambda p: p.layer_self_s("policies"),
     "wall_s on ycsb_read and ycsb_write; file_search only through "
     "its mru cell"),
    ("ebpf.map_ops", "count", "lower",
     lambda p: p.outermost_calls("ebpf.map."),
     "wall_s on ycsb_read and ycsb_write; none on file_search"),
    ("ebpf.self_s", "s", "lower",
     lambda p: p.layer_self_s("ebpf"),
     "wall_s on ycsb_read and ycsb_write; none on file_search (there "
     "it is only the attach-time verifier)"),
    ("kernel.vfs.read_page.calls", "count", "lower",
     lambda p: p.calls("kernel.vfs.read_page"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.vfs.read_range.calls", "count", "lower",
     lambda p: p.calls("kernel.vfs.read_range"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.vfs.write_page.calls", "count", "lower",
     lambda p: p.calls("kernel.vfs.write_page"),
     "wall_s on ycsb_write"),
    ("kernel.vfs.pages_per_read_range", "pages/op", "higher",
     lambda p: _ratio(p.units("kernel.vfs.read_range"),
                      p.calls("kernel.vfs.read_range")),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.vfs.self_s", "s", "lower",
     lambda p: p.layer_self_s("kernel.vfs"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.page_cache.lookup.calls", "count", "lower",
     lambda p: p.calls("kernel.page_cache.lookup"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.page_cache.add_folio.calls", "count", "lower",
     lambda p: p.calls("kernel.page_cache.add_folio"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.page_cache.reclaim.calls", "count", "lower",
     lambda p: p.calls("kernel.page_cache.reclaim"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.page_cache.evictions_per_reclaim", "pages/op", "higher",
     lambda p: _ratio(p.units("kernel.page_cache.reclaim"),
                      p.calls("kernel.page_cache.reclaim")),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.page_cache.hit_ratio", "ratio", "higher",
     lambda p: _ratio(p.counter("hits"), p.counter("lookups")),
     "wall_s on all three through fewer device reads (a policy change, "
     "not a host-time change)"),
    ("kernel.page_cache.self_s", "s", "lower",
     lambda p: p.layer_self_s("kernel.page_cache"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.list.ops", "count", "lower",
     lambda p: p.outermost_calls("kernel.list."),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.list.self_s", "s", "lower",
     lambda p: p.layer_self_s("kernel.list"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.mglru.self_s", "s", "lower",
     lambda p: p.layer_self_s("kernel.mglru"),
     "wall_s on file_search most (mglru cell); ycsb less"),
    ("kernel.default_policy.self_s", "s", "lower",
     lambda p: p.layer_self_s("kernel.default_policy"),
     "wall_s on file_search most; ycsb_read and ycsb_write less"),
    ("kernel.block.requests", "count", "lower",
     lambda p: p.calls("kernel.block.read") + p.calls("kernel.block.write"),
     "wall_s on all three, small"),
    ("kernel.block.pages_per_request", "pages/op", "higher",
     lambda p: _ratio(p.units("kernel.block.read")
                      + p.units("kernel.block.write"),
                      p.calls("kernel.block.read")
                      + p.calls("kernel.block.write")),
     "wall_s on all three, small"),
    ("kernel.block.self_s", "s", "lower",
     lambda p: p.layer_self_s("kernel.block"),
     "wall_s on all three, small"),
    ("sim.steps", "count", "lower",
     lambda p: p.counter("sim_steps"),
     "wall_s on all three"),
    ("sim.self_s", "s", "lower",
     lambda p: p.layer_self_s("sim"),
     "wall_s on all three"),
)

#: Metrics computed by the runner rather than from one probe.
RUN_METRICS = (
    ("host.wall_s", "s", "lower",
     "raw host seconds behind wall_ref (median of the run's untraced "
     "sweeps); moves with the host's load as much as with the code"),
    ("host.cpu_s", "s", "lower",
     "raw host CPU seconds behind cpu_ref"),
    ("host.sim_ops_per_s", "1/s", "higher",
     "raw simulated ops per host second behind sim_ops_per_ref"),
    ("host.slice_s", "s", "lower",
     "mean host seconds of one reference slice: how fast the host ran; "
     "no change of the program moves it"),
    ("trace.overhead", "x", "lower",
     "traced wall_ref over the untraced median in the same run; no "
     "end-to-end metric (tracing is off in timed runs)"),
    ("trace.crosscheck_mismatches", "count", "lower",
     "program counters the wrappers could not account for; a rise "
     "means an entry point was inlined or bypassed"),
)

MOVES = {name: moves for name, _, _, _, moves in METRICS}
MOVES.update({name: moves for name, _, _, moves in RUN_METRICS})


def compute(probe) -> dict:
    """``{metric name: value}`` for every entry of :data:`METRICS`."""
    return {name: value(probe) for name, _, _, value, _ in METRICS}


def units() -> dict:
    """``{metric name: unit}`` for every per-layer metric."""
    out = {name: unit for name, unit, _, _, _ in METRICS}
    out.update({name: unit for name, unit, _, _ in RUN_METRICS})
    return out
