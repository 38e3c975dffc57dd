"""Timing wrappers installed on the simulator from outside.

The benchmark never edits the program it measures.  A :class:`Probe`
replaces a fixed list of entry points -- class attributes and module
functions -- with wrappers, runs the sweep, and puts every original
back.  Two kinds of wrapper exist:

* set-up timers (always installed): stream generation, machine build,
  DB bulk load, corpus build and policy attach.  They time only the
  outermost call, because ``make_db_env`` calls ``build_machine`` and
  ``attach_policy`` itself.  Result taps on ``YcsbRunner.run`` and
  ``FileSearcher.run`` collect the simulated op counts.
* layer wrappers (traced runs only): every entry point of every layer
  counts calls and inclusive time; self time is inclusive time minus
  the time of nested wrapped calls.  Calls are also counted per
  (caller, callee) edge, which gives ratios such as page reads per
  ``LsmDb.get`` and lets nested calls inside one layer count once.

A module function is wrapped under every name a caller resolves: the
defining module and each ``repro`` module that imported it by name
(``from repro.cache_ext.kfuncs import list_add``).  Several hot paths
are inlined in the program, so the traced run cross-checks its counts
against the program's own counters (:meth:`Probe.crosscheck`) and names
what the wrappers missed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Optional

_clock = time.perf_counter


def _arg(args, kwargs, index: int, name: str, default=None):
    """Positional-or-keyword argument ``name`` (``args[0]`` is self)."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _hook_units(slot: str) -> Callable:
    """Program invocations one hook call dispatches: one when the
    policy fills ``slot``, none when the framework returns early."""
    def units(args, kwargs, result) -> int:
        return 1 if getattr(args[0].ops, slot, None) is not None else 0
    return units


def _folios_removed_units(args, kwargs, result) -> int:
    if args[0].ops.folio_removed is None:
        return 0
    return len(_arg(args, kwargs, 1, "folios", ()))


def _candidate_units(args, kwargs, result) -> int:
    if args[0].ops.evict_folios is None:
        return 0
    return _arg(args, kwargs, 1, "nr", 0)


def _npages_at(index: int, default: int = 1) -> Callable:
    def units(args, kwargs, result) -> int:
        return _arg(args, kwargs, index, "npages", default)
    return units


def _result_count(args, kwargs, result) -> int:
    return result or 0


def _is_false(args, kwargs, result) -> int:
    return 1 if result is False else 0


#: Set-up entry points: (group, module, attribute path).  ``prepare``
#: generates a workload's inputs (YCSB op streams, the file-search
#: corpus); ``build`` makes machines, bulk-loads databases and attaches
#: policies.
SETUP_ENTRIES = (
    ("prepare", "repro.workloads.ycsb", "YcsbRunner.prepare_streams"),
    ("prepare", "repro.workloads.streams", "ycsb_stream"),
    ("prepare", "repro.apps.filesearch", "make_source_tree"),
    ("build", "repro.experiments.harness", "make_db_env"),
    ("build", "repro.experiments.harness", "build_machine"),
    ("build", "repro.experiments.harness", "attach_policy"),
)

#: Layer entry points: (layer, metric stem, module, attribute path,
#: units, aux).  ``units(args, kwargs, result)`` counts the work one
#: call did where that is not one unit (pages, dispatches, evictions);
#: ``aux`` is a second count of the same kind (bloom probes that said
#: no, eviction candidates requested).
LAYER_ENTRIES = (
    ("sim", "sim.run", "repro.sim.engine", "Engine.run", None, None),
    ("experiments", "experiments.make_db_env",
     "repro.experiments.harness", "make_db_env", None, None),
    ("experiments", "experiments.build_machine",
     "repro.experiments.harness", "build_machine", None, None),
    ("experiments", "experiments.attach_policy",
     "repro.experiments.harness", "attach_policy", None, None),
    ("workloads", "workloads.prepare_streams", "repro.workloads.ycsb",
     "YcsbRunner.prepare_streams", None, None),
    ("workloads", "workloads.ycsb_stream", "repro.workloads.streams",
     "ycsb_stream", None, None),
    ("apps.filesearch", "apps.filesearch.make_source_tree",
     "repro.apps.filesearch", "make_source_tree", None, None),
    ("apps.lsm", "apps.lsm.get", "repro.apps.lsm.db", "LsmDb.get",
     None, None),
    ("apps.lsm", "apps.lsm.scan", "repro.apps.lsm.db", "LsmDb.scan",
     None, None),
    ("apps.lsm", "apps.lsm.put", "repro.apps.lsm.db", "LsmDb.put",
     None, None),
    ("apps.lsm", "apps.lsm.flush_memtable", "repro.apps.lsm.db",
     "LsmDb.flush_memtable", None, None),
    ("apps.lsm", "apps.lsm.compaction_step", "repro.apps.lsm.db",
     "LsmDb.compaction_step", None, None),
    ("apps.lsm", "apps.lsm.bulk_load", "repro.apps.lsm.db",
     "LsmDb.bulk_load", None, None),
    ("apps.lsm", "apps.lsm.bloom_probe", "repro.apps.lsm.format",
     "BloomFilter.test_chunks", None, _is_false),
    ("kernel.vfs", "kernel.vfs.read_page", "repro.kernel.vfs",
     "Filesystem.read_page", None, None),
    ("kernel.vfs", "kernel.vfs.read_range", "repro.kernel.vfs",
     "Filesystem.read_range", _npages_at(3, 0), None),
    ("kernel.vfs", "kernel.vfs.write_page", "repro.kernel.vfs",
     "Filesystem.write_page", None, None),
    # VFS reaches the page cache through the mapping, not through
    # PageCache.lookup.
    ("kernel.page_cache", "kernel.page_cache.lookup",
     "repro.kernel.address_space", "AddressSpace.lookup", None, None),
    ("kernel.page_cache", "kernel.page_cache.mark_accessed",
     "repro.kernel.page_cache", "PageCache.mark_accessed", None, None),
    ("kernel.page_cache", "kernel.page_cache.add_folio",
     "repro.kernel.page_cache", "PageCache.add_folio", None, None),
    ("kernel.page_cache", "kernel.page_cache.reclaim",
     "repro.kernel.page_cache", "PageCache.reclaim_cgroup",
     _result_count, None),
    ("kernel.page_cache", "kernel.page_cache.evict_folio",
     "repro.kernel.page_cache", "PageCache.evict_folio",
     _result_count, None),
    ("kernel.default_policy", "kernel.default_policy.folio_inserted",
     "repro.kernel.default_policy", "DefaultLruPolicy.folio_inserted",
     None, None),
    ("kernel.default_policy", "kernel.default_policy.folio_accessed",
     "repro.kernel.default_policy", "DefaultLruPolicy.folio_accessed",
     None, None),
    ("kernel.default_policy", "kernel.default_policy.folio_removed",
     "repro.kernel.default_policy", "DefaultLruPolicy.folio_removed",
     None, None),
    ("kernel.default_policy", "kernel.default_policy.evict_candidates",
     "repro.kernel.default_policy", "DefaultLruPolicy.evict_candidates",
     None, None),
    ("kernel.mglru", "kernel.mglru.folio_inserted", "repro.kernel.mglru",
     "MgLruPolicy.folio_inserted", None, None),
    ("kernel.mglru", "kernel.mglru.folio_accessed", "repro.kernel.mglru",
     "MgLruPolicy.folio_accessed", None, None),
    ("kernel.mglru", "kernel.mglru.folio_removed", "repro.kernel.mglru",
     "MgLruPolicy.folio_removed", None, None),
    ("kernel.mglru", "kernel.mglru.evict_candidates", "repro.kernel.mglru",
     "MgLruPolicy.evict_candidates", None, None),
    ("kernel.block", "kernel.block.read", "repro.kernel.block",
     "BlockDevice.read", _npages_at(2), None),
    ("kernel.block", "kernel.block.write", "repro.kernel.block",
     "BlockDevice.write", _npages_at(2), None),
    ("cache_ext", "cache_ext.load_policy", "repro.cache_ext.loader",
     "load_policy", None, None),
    ("cache_ext", "cache_ext.hook.admit", "repro.cache_ext.framework",
     "CacheExtPolicy.admit", _hook_units("admit"), None),
    ("cache_ext", "cache_ext.hook.readahead", "repro.cache_ext.framework",
     "CacheExtPolicy.readahead_hint", _hook_units("readahead"), None),
    ("cache_ext", "cache_ext.hook.folio_added", "repro.cache_ext.framework",
     "CacheExtPolicy.folio_added", _hook_units("folio_added"), None),
    ("cache_ext", "cache_ext.hook.folio_accessed",
     "repro.cache_ext.framework", "CacheExtPolicy.folio_accessed",
     _hook_units("folio_accessed"), None),
    ("cache_ext", "cache_ext.hook.folio_removed",
     "repro.cache_ext.framework", "CacheExtPolicy.folio_removed",
     _hook_units("folio_removed"), None),
    ("cache_ext", "cache_ext.hook.folios_removed",
     "repro.cache_ext.framework", "CacheExtPolicy.folios_removed",
     _folios_removed_units, None),
    ("cache_ext", "cache_ext.hook.evict_folios",
     "repro.cache_ext.framework", "CacheExtPolicy.propose_candidates",
     _hook_units("evict_folios"), _candidate_units),
) + tuple(
    ("cache_ext", f"cache_ext.kfunc.{name}", "repro.cache_ext.kfuncs",
     name, None, None)
    for name in ("list_create", "list_add", "list_del", "list_move",
                 "list_size", "list_iterate", "ctx_add_candidate",
                 "folio_key", "current_tid", "ktime_us")
) + tuple(
    ("cache_ext", f"cache_ext.registry.{name}", "repro.cache_ext.registry",
     f"FolioRegistry.{name}", None, None)
    for name in ("insert", "remove", "contains", "get_node", "set_node")
) + tuple(
    ("kernel.list", f"kernel.list.{name}", "repro.kernel.list",
     f"IntrusiveList.{name}", None, None)
    for name in ("add_head", "add_tail", "remove", "pop_head", "pop_tail",
                 "move_to_tail", "move_to_head")
) + tuple(
    ("ebpf", f"ebpf.map.{cls}.{name}", "repro.ebpf.maps", f"{cls}.{name}",
     None, None)
    for cls, names in (("HashMap", ("lookup", "update", "delete",
                                    "atomic_add")),
                       ("LruHashMap", ("lookup",)),
                       ("ArrayMap", ("lookup", "update", "atomic_add")),
                       ("QueueMap", ("push", "pop", "peek")),
                       ("StackMap", ("pop", "peek")))
    for name in names
) + (
    # Verifies every program of a policy at attach time.
    ("ebpf", "ebpf.struct_ops_register", "repro.ebpf.struct_ops",
     "StructOpsRegistry.register", None, None),
)

#: Modules whose import registers everything the sweeps reach; they are
#: imported before any wrapper goes in, so every by-name import of a
#: wrapped function already exists and gets patched.
PRELOAD = ("repro.api", "repro.experiments.harness",
           "repro.experiments.fig6", "repro.experiments.fig9",
           "repro.cache_ext.loader", "repro.cache_ext.kfuncs",
           "repro.workloads.ycsb", "repro.apps.filesearch")


def layer_of_module(module: str) -> str:
    """``repro.apps.lsm.db`` -> ``apps.lsm``; ``repro.workloads.ycsb``
    -> ``workloads``."""
    parts = module.split(".")[1:] or ["unknown"]
    if parts[0] in ("apps", "kernel") and len(parts) > 1:
        return ".".join(parts[:2])
    return parts[0]


class Stat:
    """Calls and host time of one wrapped entry point."""

    __slots__ = ("name", "layer", "calls", "incl_s", "self_s", "units",
                 "aux")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.units = 0
        self.aux = 0


class Probe:
    """Installs, aggregates and removes the benchmark's wrappers.

    ``trace=False`` installs only the set-up timers and result taps;
    ``trace=True`` adds every layer entry point.  Use as a context
    manager, or call :meth:`install` and :meth:`uninstall`.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.stats: dict[str, Stat] = {}
        #: (caller stem, callee stem) -> calls, for nested wrapped calls.
        self.edges: dict[tuple, int] = {}
        #: Host seconds in outermost set-up calls, per group.
        self.setup_s = {"prepare": 0.0, "build": 0.0}
        #: Simulated application ops (YcsbResult.ops, or pages scanned).
        self.sim_ops = 0
        #: Program counters of every machine the sweep built.
        self.counters: list[dict] = []
        self._stack: list[list] = []
        self._setup_depth = 0
        self._patches: list[tuple] = []
        self._programs: list[tuple] = []
        #: Every (owner, name, original) and (program, original fn)
        #: ever patched, for :meth:`leftovers`.
        self._history: list[tuple] = []
        self._live: Optional[dict] = None
        self.installed = False

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _stat(self, name: str, layer: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(name, layer)
        return stat

    def _timed(self, fn: Callable, stat: Stat, units=None,
               aux=None) -> Callable:
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [stat, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                stat.calls += 1
                stat.incl_s += dt
                stat.self_s += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    key = (parent[0].name, stat.name)
                    edges[key] = edges.get(key, 0) + 1
            if units is not None:
                stat.units += units(args, kwargs, result)
            if aux is not None:
                stat.aux += aux(args, kwargs, result)
            return result
        return wrapper

    def _setup_timed(self, fn: Callable, group: str) -> Callable:
        setup_s = self.setup_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._setup_depth:
                return fn(*args, **kwargs)
            self._setup_depth = 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                setup_s[group] += _clock() - t0
                self._setup_depth = 0
        return wrapper

    def _tapped(self, fn: Callable, post: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            post(args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(module: str, path: str) -> tuple:
        """(owner, attribute name, raw attribute) for ``path``."""
        owner = importlib.import_module(module)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            if name not in owner.__dict__:
                raise AttributeError(
                    f"{module}.{path} is inherited, not defined there")
            return owner, name, owner.__dict__[name]
        return owner, name, getattr(owner, name)

    def _replace(self, module: str, path: str,
                 make: Callable[[Callable], Callable]) -> None:
        owner, name, raw = self._resolve(module, path)
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        if isinstance(owner, type):
            self._patches.append((owner, name, raw))
            self._history.append((owner, name, raw))
            setattr(owner, name, new)
            return
        # A module function: rebind it under every name callers resolve.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, alias, raw))
                    self._history.append((mod, alias, raw))
                    setattr(mod, alias, new)

    def install(self) -> "Probe":
        if self.installed:
            raise RuntimeError("probe already installed")
        for module in PRELOAD:
            importlib.import_module(module)
        self.installed = True
        # Stacking order: the layer wrapper (outermost) sees set-up
        # calls as ordinary entry points of their layer.
        for group, module, path in SETUP_ENTRIES:
            self._replace(module, path,
                          lambda fn, g=group: self._setup_timed(fn, g))
        self._replace("repro.workloads.ycsb", "YcsbRunner.run",
                      lambda fn: self._tapped(fn, self._count_ycsb_ops))
        self._replace("repro.apps.filesearch", "FileSearcher.run",
                      lambda fn: self._tapped(fn, self._count_pages))
        if not self.trace:
            return self
        self._replace("repro.experiments.harness", "build_machine",
                      lambda fn: self._tapped(fn, self._machine_built))
        self._replace("repro.experiments.harness", "make_db_env",
                      lambda fn: self._tapped(fn, self._db_built))
        self._replace("repro.cache_ext.loader", "load_policy",
                      lambda fn: self._tapped(fn, self._policy_loaded))
        self._replace("repro.sim.engine", "Engine.spawn",
                      lambda fn: self._tapped(self._wrap_spawn(fn),
                                              self._thread_spawned))
        for layer, name, module, path, units, aux in LAYER_ENTRIES:
            stat = self._stat(name, layer)
            self._replace(module, path,
                          lambda fn, s=stat, u=units, v=aux:
                          self._timed(fn, s, u, v))
        return self

    def uninstall(self) -> None:
        """Restore every patched name and policy program."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)
        while self._programs:
            prog, fn = self._programs.pop()
            prog.fn = fn
        self.installed = False
        self._retire_machine()

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def leftovers(self) -> list[str]:
        """Names still bound to something other than their original
        (empty after a clean :meth:`uninstall`)."""
        first: dict = {}
        for owner, name, raw in self._history:
            first.setdefault((id(owner), name), (owner, name, raw))
        return [f"{getattr(owner, '__name__', type(owner).__name__)}.{name}"
                for owner, name, raw in first.values()
                if vars(owner).get(name) is not raw]

    # ------------------------------------------------------------------
    # taps
    # ------------------------------------------------------------------
    def _count_ycsb_ops(self, args, kwargs, result) -> None:
        self.sim_ops += result.ops

    def _count_pages(self, args, kwargs, result) -> None:
        self.sim_ops += result.pages_scanned

    def _wrap_spawn(self, spawn: Callable) -> Callable:
        """Engine.spawn with the step function wrapped, so each
        simulated step is a call of its own module's layer."""
        @functools.wraps(spawn)
        def wrapper(engine, name, step_fn, *args, **kwargs):
            return spawn(engine, name, self._wrap_step(step_fn), *args,
                         **kwargs)
        return wrapper

    def _wrap_step(self, step_fn: Callable) -> Callable:
        module = getattr(step_fn, "__module__", None) or "repro.unknown"
        layer = layer_of_module(module)
        return self._timed(step_fn, self._stat(f"{layer}.step", layer))

    def _policy_loaded(self, args, kwargs, result) -> None:
        """Wrap each slot program of a freshly attached policy.

        The programs are verified during the attach, so their functions
        are swapped only afterwards; ``policy_init`` has already run.
        """
        if self._live is not None:
            self._live["policy_inits"] += (
                result.ops.policy_init is not None)
        for slot, prog in result.ops.programs().items():
            fn = getattr(prog, "fn", None)
            if fn is None:
                continue
            self._programs.append((prog, fn))
            self._history.append((prog, "fn", fn))
            prog.fn = self._timed(fn, self._stat(f"policies.{slot}",
                                                 "policies"))

    # Per-machine program counters.  Cells run serially, so a machine
    # is finished when the next one is built; keeping only the live one
    # bounds the traced run's memory.
    def _machine_built(self, args, kwargs, machine) -> None:
        self._retire_machine()
        self._live = {"machine": machine, "threads": [], "dbs": [],
                      "policy_inits": 0}

    def _db_built(self, args, kwargs, env) -> None:
        if self._live is not None:
            self._live["dbs"].append(env.db)

    def _thread_spawned(self, args, kwargs, thread) -> None:
        if self._live is not None:
            self._live["threads"].append(thread)

    def _retire_machine(self) -> None:
        live, self._live = self._live, None
        if live is None:
            return
        metrics = live["machine"].metrics()
        policies = [cg.policy for cg in metrics.cgroups.values()
                    if cg.policy is not None]
        dbs = live["dbs"]
        self.counters.append({
            "lookups": metrics.stats["lookups"],
            "hits": metrics.stats["hits"],
            "evictions": metrics.stats["evictions"],
            "ext_candidates": metrics.stats["ext_candidates"],
            "ext_invalid_candidates":
                metrics.stats["ext_invalid_candidates"],
            "disk_total_pages": metrics.disk["total_pages"],
            "hook_dispatches": sum(p.hook_dispatches for p in policies),
            "candidate_requests": sum(p.candidate_requests
                                      for p in policies),
            "policy_inits": live["policy_inits"],
            "sim_steps": sum(t.steps for t in live["threads"]),
            "lsm_gets": sum(db.n_gets for db in dbs),
            "lsm_puts": sum(db.n_puts for db in dbs),
            "lsm_flushes": sum(db.n_flushes for db in dbs),
        })

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat is not None else 0

    def units(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.units if stat is not None else 0

    def aux(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.aux if stat is not None else 0

    def edge(self, caller: str, callee: str) -> int:
        return self.edges.get((caller, callee), 0)

    def outermost_calls(self, prefix: str) -> int:
        """Calls of entry points named ``prefix*`` that were not made
        from inside another such entry point (``pop_head`` calling
        ``remove`` is one list op, not two)."""
        total = sum(s.calls for n, s in self.stats.items()
                    if n.startswith(prefix))
        nested = sum(c for (a, b), c in self.edges.items()
                     if a.startswith(prefix) and b.startswith(prefix))
        return total - nested

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.stats.values()
                   if s.layer == layer or s.layer.startswith(layer + "."))

    def counter(self, name: str) -> int:
        return sum(c[name] for c in self.counters)

    def hook_dispatches(self) -> int:
        """Policy program invocations the hook wrappers saw, plus one
        ``policy_init`` per attach."""
        return (sum(s.units for n, s in self.stats.items()
                    if n.startswith("cache_ext.hook."))
                + self.counter("policy_inits"))

    def crosscheck(self) -> list[dict]:
        """Wrapper-derived counts against the program's own counters.

        Each row names a program counter, its value summed over every
        machine, the count the wrappers derive for it, and the entry
        points the derivation relies on; ``ok`` is False where a path
        the wrappers do not see did part of the work.
        """
        bulk_pages = (self.units("kernel.vfs.read_range")
                      - self.edge("kernel.vfs.read_range",
                                  "kernel.vfs.read_page"))
        bulk_hits = sum(
            self.edge("kernel.vfs.read_range", f"{policy}.folio_accessed")
            for policy in ("kernel.default_policy", "kernel.mglru"))
        rows = [
            ("CacheStats.lookups", self.counter("lookups"),
             self.calls("kernel.vfs.read_page")
             + self.calls("kernel.vfs.write_page") + bulk_pages,
             "kernel.vfs.read_page + write_page + read_range bulk pages"),
            ("CacheStats.hits", self.counter("hits"),
             self.calls("kernel.page_cache.mark_accessed") + bulk_hits,
             "kernel.page_cache.mark_accessed + read_range bulk hits"),
            ("CacheStats.evictions", self.counter("evictions"),
             self.units("kernel.page_cache.reclaim")
             + self.units("kernel.page_cache.evict_folio")
             - sum(c for (a, b), c in self.edges.items()
                   if b == "kernel.page_cache.evict_folio"
                   and a == "kernel.page_cache.reclaim"),
             "kernel.page_cache.reclaim + evict_folio"),
            ("PolicyMetrics.hook_dispatches", self.counter("hook_dispatches"),
             self.hook_dispatches(),
             "cache_ext.hook.* + cache_ext.load_policy (policy_init)"),
            ("PolicyMetrics.candidate_requests",
             self.counter("candidate_requests"),
             self.aux("cache_ext.hook.evict_folios"),
             "cache_ext.hook.evict_folios"),
            ("disk.total_pages", self.counter("disk_total_pages"),
             self.units("kernel.block.read")
             + self.units("kernel.block.write"),
             "kernel.block.read + write"),
            ("SimThread.steps", self.counter("sim_steps"),
             sum(s.calls for n, s in self.stats.items()
                 if n.endswith(".step")),
             "step functions wrapped at Engine.spawn"),
            ("LsmDb.n_gets", self.counter("lsm_gets"),
             self.calls("apps.lsm.get"), "apps.lsm.get"),
            ("LsmDb.n_puts", self.counter("lsm_puts"),
             self.calls("apps.lsm.put"), "apps.lsm.put"),
            ("LsmDb.n_flushes", self.counter("lsm_flushes"),
             self.calls("apps.lsm.flush_memtable"),
             "apps.lsm.flush_memtable"),
        ]
        return [{"counter": name, "program": program, "wrappers": seen,
                 "ok": program == seen, "via": via}
                for name, program, seen, via in rows]
