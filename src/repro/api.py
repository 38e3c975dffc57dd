"""One facade for building machines and running experiments.

Before this module, driving the reproduction meant knowing several
layers by name: ``Machine(...)`` plus post-construction setup
(a ``BlockDevice`` to build, cgroups to create),
``harness.make_db_env`` for DB cells, ``<experiment>.plan()`` +
``parallel.execute(...)`` for sweeps, ``machine.arm_faults`` for fault
plans.  This module collapses that to two entry points:

* :class:`MachineConfig` — a declarative machine description whose
  ``build()`` returns a ready :class:`~repro.kernel.machine.Machine`
  (kwargs that used to be scattered attribute pokes live here);
* :func:`run` — one call that takes an experiment (a name like
  ``"fig6"`` or a prepared
  :class:`~repro.experiments.harness.ExperimentSpec`), an optional
  policy filter and an optional fault plan, and returns the merged
  :class:`~repro.experiments.parallel.ExecutionReport`.

Example::

    from repro import api

    report = api.run("fig6", quick=True)
    print(report.result.format_table())

    machine = api.MachineConfig(
        kernel_policy="mglru", disk={"read_us": 95.0, "channels": 2},
        cgroups=(("app", 1000),)).build()

Every cell runs on the one exact engine.  Option rules:

* ``faults`` cannot be combined with ``trace`` or ``breakdown`` (they
  all claim the per-cell machine observer).
* ``snapshot=True`` restores each snapshot-capable cell from one
  shared post-load machine image (:mod:`repro.snapshot`) instead of
  re-running the load — byte-identical tables; combining with
  ``faults`` raises (``snapshot="auto"`` falls back to cold builds).
* ``timeseries`` (continuous telemetry frames,
  :mod:`repro.obs.timeseries`) composes with both ``faults`` and
  ``snapshot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.kernel.machine import Machine


@dataclass(frozen=True)
class MachineConfig:
    """Declarative description of one simulated host.

    Consolidates the constructor kwargs and the cgroups a machine
    starts with:

    * ``kernel_policy`` — ``"default"`` or ``"mglru"`` (Machine kwarg);
    * ``disk`` — :class:`~repro.kernel.block.BlockDevice` kwargs, e.g.
      ``{"read_us": 95.0, "write_us": 30.0, "channels": 2}``;
    * ``costs`` — a :class:`~repro.sim.resources.CpuCosts` override;
    * ``cgroups`` — ``(name, limit_pages)`` pairs created at build.

    Frozen, so one config can stamp out any number of machines (use
    ``dataclasses.replace`` to vary a field).
    """

    kernel_policy: str = "default"
    disk: Optional[dict] = None
    costs: Optional[object] = None
    cgroups: tuple = ()

    def build(self) -> Machine:
        from repro.kernel.block import BlockDevice
        machine = Machine(
            kernel_policy=self.kernel_policy,
            disk=BlockDevice(**self.disk) if self.disk else None,
            costs=self.costs)
        for name, limit_pages in self.cgroups:
            machine.new_cgroup(name, limit_pages=limit_pages)
        return machine


def _resolve_spec(spec, quick: bool):
    if isinstance(spec, str):
        import importlib
        module = importlib.import_module(f"repro.experiments.{spec}")
        if not hasattr(module, "plan"):
            raise ValueError(f"experiment {spec!r} has no plan()")
        return module.plan(quick=quick)
    return spec


def run(spec: Union[str, object], *,
        policy: Optional[str] = None, faults=None, quick: bool = False,
        jobs: Optional[int] = None, serial: Optional[bool] = None,
        trace: bool = False, breakdown: bool = False,
        timeout_s: Optional[float] = None, snapshot=False,
        timeseries=False):
    """Run one experiment end to end; returns the
    :class:`~repro.experiments.parallel.ExecutionReport` (merged table
    in ``.result``, per-cell timings, trace counts, breakdowns).

    Parameters
    ----------
    spec:
        An experiment name (``"fig6"``, ``"table3"``, ...) resolved
        through ``repro.experiments.<name>.plan(quick=quick)``, or a
        prepared :class:`~repro.experiments.harness.ExperimentSpec`.
    policy:
        Only run cells whose id matches this policy (grid cell ids are
        ``workload/policy``); any :func:`fnmatch` glob also works.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` armed on every machine
        the cells build.  Cannot be combined with ``trace`` or
        ``breakdown``.
    serial:
        Defaults to ``jobs is None`` — no explicit job count means
        in-process serial execution (the reference behaviour).
    snapshot:
        ``False`` (cold builds, the reference behaviour), ``True``
        (snapshot-capable cells restore one shared post-load machine
        image per sweep instead of re-running the load — byte-identical
        tables, see :mod:`repro.snapshot`), or ``"auto"`` (snapshots
        unless a fault plan needs pristine cold builds).  Combining
        ``snapshot=True`` with ``faults`` raises: a captured image
        cannot carry armed fault state.
    timeseries:
        ``False`` (no sampling, the zero-cost default), ``True``
        (continuous telemetry frames at the default 10 ms virtual
        cadence), or a positive sample interval in virtual µs (any
        other number raises ``ValueError``).  Frames land in
        ``report.timeseries`` (export with
        :func:`repro.experiments.parallel.timeseries_jsonl`, analyze
        with :mod:`repro.obs.analyze`).  Composes with ``faults`` (the
        sampler chains behind the fault-plan observer, so the injected
        windows appear in the frames' ``active_faults`` column) and
        with ``snapshot`` (frames are byte-identical cold vs
        restored).
    """
    from repro.experiments import harness
    from repro.experiments.parallel import (DEFAULT_TIMEOUT_S, execute,
                                            filter_cells)
    resolved = _resolve_spec(spec, quick)
    if policy is not None:
        pattern = policy if any(ch in policy for ch in "*?[") \
            else f"*/{policy}"
        resolved = filter_cells(resolved, pattern)
    if serial is None:
        serial = jobs is None
    if timeout_s is None:
        timeout_s = DEFAULT_TIMEOUT_S
    observer = None
    if faults is not None:
        if trace or breakdown:
            raise ValueError(
                "faults cannot be combined with trace/breakdown: both "
                "claim the per-cell machine observer")
        if snapshot in (True, "on"):
            raise ValueError(
                "fault injection cannot ride on snapshot restores: a "
                "captured image must be quiescent, and cold builds arm "
                "the plan before the load phase (use snapshot=False "
                "or snapshot='auto')")
        snapshot = False  # "auto" falls back to cold builds

        def observer(machine):
            machine.arm_faults(faults)

    previous = harness.set_cell_observer(observer) \
        if observer is not None else None
    try:
        return execute(resolved, jobs=jobs, serial=serial,
                       timeout_s=timeout_s, trace=trace,
                       breakdown=breakdown, snapshot=snapshot,
                       timeseries=timeseries)
    finally:
        if observer is not None:
            harness.set_cell_observer(previous)
