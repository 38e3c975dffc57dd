"""cache_ext reproduction: customizable page-cache eviction with eBPF.

A full-system Python reproduction of *cache_ext: Customizing the Page
Cache with eBPF* (SOSP 2025), built on a simulated Linux kernel
substrate.  Public API tour::

    from repro import api
    from repro.policies import make_lfu_policy

    machine = api.MachineConfig(cgroups=(("app", 1024),)).build()
    load_policy(machine, machine.cgroup("app"), make_lfu_policy())

    report = api.run("fig6", quick=True)
    print(report.result.format_table())

Subpackages:

* :mod:`repro.api` — the one-call facade (:class:`~repro.api.
  MachineConfig`, :func:`~repro.api.run`);

* :mod:`repro.sim` — virtual-time engine (threads, block device);
* :mod:`repro.kernel` — page cache, cgroups, default LRU, MGLRU, VFS;
* :mod:`repro.ebpf` — maps, ring buffers, verifier, struct_ops;
* :mod:`repro.cache_ext` — the paper's framework (eviction lists,
  kfuncs, folio registry, loader, fallback);
* :mod:`repro.policies` — the paper's eight policies;
* :mod:`repro.apps` — LSM KV store, file search, fio;
* :mod:`repro.workloads` — YCSB, Twitter profiles, GET-SCAN;
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.cache_ext import CacheExtOps, EvictionCtx, load_policy, \
    unload_policy
from repro.kernel import FAdvice, Machine, MemCgroup

__version__ = "1.0.0"

__all__ = [
    "Machine", "MemCgroup", "FAdvice",
    "CacheExtOps", "EvictionCtx", "load_policy", "unload_policy",
    "__version__",
]
