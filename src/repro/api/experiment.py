"""The declarative ``Experiment``: one entry point over all systems.

An experiment declares *what* to serve (model + workload), *where* (the
fleet a :class:`ClusterSpec` describes; one replica by default) and *under
which exit policy*; ``run`` executes any set of registered systems on that
configuration and returns a
:class:`~repro.api.result.RunReport` for cross-system comparison, while
``sweep`` runs a parameter grid (replica counts, balancers, seeds, …) in one
call.

>>> from repro.api import Experiment, WorkloadSpec, ClusterSpec
>>> exp = Experiment(model="resnet50",
...                  workload=WorkloadSpec("video", "urban-day", requests=2000))
>>> report = exp.run(systems=["vanilla", "apparate"])
>>> report.result("apparate").summary["p50_ms"]       # doctest: +SKIP
>>> sweep = exp.sweep(replicas=[1, 2, 4], balancer=["round_robin", "jsq"])
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Union)

from repro.api.registry import canonical_system_name, get_system
from repro.api.result import (KIND_CLASSIFICATION, KIND_GENERATIVE, RunReport,
                              RunResult, SweepPoint, SweepReport)
from repro.api.specs import ClusterSpec, ExitPolicySpec, WorkloadSpec
from repro.models.zoo import ModelSpec, get_model

__all__ = ["Experiment", "DEFAULT_SYSTEMS"]

#: Systems run when ``Experiment.run`` is called without an explicit list.
DEFAULT_SYSTEMS = ("vanilla", "apparate")

#: Sweepable parameter names, grouped by the spec they modify.
_CLUSTER_KEYS = ("replicas", "balancer", "fleet_mode", "sync_period",
                 "autoscaler", "min_replicas", "max_replicas", "profiles",
                 "prefill_in_slot",
                 "disaggregate", "prefill_replicas", "decode_replicas",
                 "prefill_balancer", "decode_balancer", "prefill_autoscaler",
                 "decode_autoscaler", "prefill_min_replicas",
                 "prefill_max_replicas", "decode_min_replicas",
                 "decode_max_replicas", "prefill_profiles", "decode_profiles",
                 "tenants", "tenant_policy", "faults", "kv_capacity")
_EE_KEYS = ("accuracy_constraint", "ramp_budget", "ramp_style",
            "initial_ramp_ids", "ramp_adjustment_enabled")
_WORKLOAD_KEYS = ("requests", "rate", "source", "prefix_groups",
                  "prefix_share", "prefix_tokens")
_TOP_KEYS = ("platform", "seed", "slo_ms", "max_batch_size", "drop_expired")
_SWEEP_KEYS = _CLUSTER_KEYS + _EE_KEYS + _WORKLOAD_KEYS + _TOP_KEYS


@dataclass
class Experiment:
    """A declarative serving experiment over the system registry.

    Attributes
    ----------
    model:
        Registered model name or a custom :class:`ModelSpec`.
    workload:
        A :class:`WorkloadSpec` (materialized lazily, enabling sweeps over
        workload parameters) or an already-built workload object.
    cluster:
        The :class:`ClusterSpec` fleet every system runs on.  The default
        (also what ``None`` becomes) is one replica: the paper's
        single-model serving setup is a fleet of one.
    ee:
        Early-exit policy knobs shared by the EE-capable systems.
    platform:
        Serving platform name (``clockwork`` or ``tfserve``).
    slo_ms:
        Response-time SLO; ``None`` uses the model's default.
    max_batch_size:
        ``None`` selects the per-kind default (16 classification, 8 generative).
    overrides:
        Per-system keyword overrides, e.g. ``{"static_ee": {"variant": ...}}``,
        for knobs that only one system understands.
    trace:
        Observability knob (:mod:`repro.obs`): ``None``/``False`` (default)
        runs untraced, ``True`` records spans + gauges with default settings,
        a :class:`~repro.obs.TraceSpec` (or its kwargs as a dict) customizes
        them.  Each traced system's :class:`~repro.obs.TraceRecorder` comes
        back on ``RunResult.trace`` with a JSON rollup in
        ``details["obs"]``; tracing never changes the reported metrics.
    """

    model: Union[str, ModelSpec]
    workload: Union[WorkloadSpec, Any]
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    ee: ExitPolicySpec = field(default_factory=ExitPolicySpec)
    platform: str = "clockwork"
    slo_ms: Optional[float] = None
    max_batch_size: Optional[int] = None
    drop_expired: bool = True
    seed: int = 0
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    trace: Any = None

    _workload_cache: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cluster is None:
            self.cluster = ClusterSpec()

    # ------------------------------------------------------------ properties
    @property
    def spec(self) -> ModelSpec:
        return get_model(self.model) if isinstance(self.model, str) else self.model

    @property
    def is_generative(self) -> bool:
        return bool(self.spec.is_generative)

    @property
    def kind(self) -> str:
        """``classification`` or ``generative``: the model family.  The
        topology is ``cluster``'s; generative-only cluster knobs on a
        classification model raise :class:`ValueError` here."""
        if self.is_generative:
            return KIND_GENERATIVE
        for key, value in (("disaggregate", self.cluster.disaggregate),
                           ("prefill_in_slot", self.cluster.prefill_in_slot),
                           ("kv_capacity", self.cluster.kv_capacity is not None)):
            if value:
                raise ValueError(f"{key} requires a generative model; "
                                 f"{self.spec.name!r} is not generative")
        return KIND_CLASSIFICATION

    # ---------------------------------------------------------- materialize
    def workload_obj(self) -> Any:
        """The materialized workload (built once and cached per experiment)."""
        if self._workload_cache is None:
            self._workload_cache = self._materialize_workload()
        return self._workload_cache

    def _materialize_workload(self) -> Any:
        spec = self.spec
        workload = self.workload
        if isinstance(workload, WorkloadSpec):
            if spec.is_generative != workload.is_generative:
                raise ValueError(
                    f"model {spec.name!r} is "
                    f"{'generative' if spec.is_generative else 'not generative'} "
                    f"but the workload kind is {workload.kind!r}")
            return workload.build(default_seed=self.seed)
        generative_workload = hasattr(workload, "sequences")
        if spec.is_generative and not generative_workload:
            raise ValueError(f"model {spec.name!r} is generative but the workload "
                             f"({type(workload).__name__}) is not")
        if not spec.is_generative and generative_workload:
            raise ValueError(f"model {spec.name!r} is not generative but the "
                             f"workload ({type(workload).__name__}) is")
        return workload

    def resolved_slo_ms(self) -> Optional[float]:
        return self.slo_ms if self.slo_ms is not None else self.spec.default_slo_ms

    def overrides_for(self, system: str) -> Dict[str, Any]:
        """Per-system overrides with every key resolved through the registry.

        Canonicalizing here means overrides keyed by an alias (``oracle``)
        reach the canonical system (``optimal``), and a typoed system name
        raises :class:`ValueError` instead of being silently dropped.
        """
        merged: Dict[str, Any] = {}
        for key, value in self.overrides.items():
            if canonical_system_name(key) == system:
                merged.update(value)
        return merged

    def batch_size(self, default: int) -> int:
        return int(self.max_batch_size) if self.max_batch_size is not None else default

    def describe(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the experiment configuration."""
        params: Dict[str, Any] = {
            "model": self.spec.name,
            "kind": self.kind,
            "platform": self.platform,
            "seed": int(self.seed),
            "slo_ms": self.resolved_slo_ms(),
            "max_batch_size": None if self.max_batch_size is None
            else int(self.max_batch_size),
            "drop_expired": bool(self.drop_expired),
        }
        if isinstance(self.workload, WorkloadSpec):
            params["workload"] = self.workload.describe()
        else:
            params["workload"] = {"kind": KIND_GENERATIVE if self.is_generative
                                  else "materialized",
                                  "name": getattr(self.workload, "name", "custom")}
        params["cluster"] = self.cluster.describe()
        params["ee"] = self.ee.describe()
        if self.trace is not None and self.trace is not False:
            from repro.obs import coerce_trace

            spec = coerce_trace(self.trace)
            if spec is not None:
                params["trace"] = spec.describe()
        return params

    # ------------------------------------------------------------------ run
    def run(self, systems: Optional[Sequence[str]] = None) -> RunReport:
        """Run every named system on this configuration; compare in one report.

        Raises :class:`ValueError` for unknown system names and for systems
        that do not support this experiment's kind (e.g. ``free`` on a
        classification workload).
        """
        import repro.api.systems  # noqa: F401  (ensure registrations ran)

        names: List[str] = []
        for name in (systems if systems is not None else DEFAULT_SYSTEMS):
            canonical = canonical_system_name(name)
            if canonical not in names:
                names.append(canonical)
        if not names:
            raise ValueError("systems must name at least one registered system")
        results: List[RunResult] = [get_system(name).run(self) for name in names]
        return RunReport(results=results, params=self.describe())

    # ---------------------------------------------------------------- sweep
    def sweep(self, systems: Optional[Sequence[str]] = None,
              workers: Optional[int] = None,
              executor: Union[str, "SweepExecutor", None] = None,
              progress: Optional[Callable[..., None]] = None,
              **grid: Any) -> SweepReport:
        """Run a full parameter grid, one ``RunReport`` per grid point.

        Grid keys may target the cluster spec (``replicas``, ``balancer``,
        ``fleet_mode``, ``sync_period``, ``disaggregate`` and the
        ``prefill_*``/``decode_*`` pool knobs — sweeping a pool knob implies
        ``disaggregate=True``), the exit policy
        (``accuracy_constraint``, ``ramp_budget``, …), the workload spec
        (``requests``, ``rate``, ``source`` — requires a
        :class:`WorkloadSpec` workload) or the experiment itself
        (``platform``, ``seed``, ``slo_ms``, ``max_batch_size``,
        ``drop_expired``).  Values may be scalars or lists; the grid is the
        cross product in the given key order, so sweeps are deterministic.

        ``workers``/``executor`` select the execution backend
        (:mod:`repro.api.executor`): the default runs points serially in this
        process; ``workers=N`` (N > 1) or ``executor="process"`` fans points
        out to a process pool.  Every run is seeded, and the report is
        reassembled in grid order regardless of completion order, so the
        parallel ``SweepReport`` is bit-identical to the serial one.  A grid
        point that raises at *run time* becomes a point with a structured
        ``error`` while its siblings complete; configuration errors (bad
        grid values, unknown systems) still raise here before anything runs.
        ``progress`` is called as ``progress(outcome, done, total)`` after
        each point completes.

        >>> Experiment(...).sweep(replicas=[1, 2, 4],
        ...                       balancer=["round_robin", "jsq"],
        ...                       workers=4)   # doctest: +SKIP
        """
        import repro.api.systems  # noqa: F401  (registrations, for name check)
        from repro.api.executor import (SweepTask, resolve_sweep_executor)

        if not grid:
            raise ValueError("sweep needs at least one parameter grid, "
                             f"e.g. replicas=[1, 2, 4]; valid keys: {_SWEEP_KEYS}")
        exec_ = resolve_sweep_executor(executor, workers)
        # Canonicalize system names up front: a typoed system is a config
        # error and must fail the sweep, not be captured per point.
        if systems is not None:
            systems = [canonical_system_name(name) for name in systems]
        axes: List[List[Any]] = []
        keys = list(grid)
        for key in keys:
            if key not in _SWEEP_KEYS:
                raise ValueError(f"unknown sweep parameter {key!r}; "
                                 f"valid keys: {_SWEEP_KEYS}")
            if key in _WORKLOAD_KEYS and not isinstance(self.workload, WorkloadSpec):
                raise ValueError(f"sweeping {key!r} requires the experiment to hold "
                                 "a WorkloadSpec, not an already-built workload")
            values = grid[key]
            if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
                values = [values]
            axes.append(list(values))

        # When nothing workload-shaping is swept, materialize the workload
        # once and share it across grid points instead of regenerating the
        # identical trace per point.
        if not any(key in _WORKLOAD_KEYS or key == "seed" for key in keys):
            self.workload_obj()

        # Build (and thereby validate) every grid point's specs before running
        # anything, so a bad value fails fast instead of aborting mid-sweep.
        combos = [dict(zip(keys, combo)) for combo in itertools.product(*axes)]
        variants = [(params, self._apply_sweep_params(params)) for params in combos]
        if exec_.strip_workload_cache:
            # Forked workers inherit the parent's trace cache copy-on-write;
            # dropping the materialized object from the pickled variant saves
            # the serialization freight without losing the shared trace.
            for _, variant in variants:
                if isinstance(variant.workload, WorkloadSpec):
                    variant._workload_cache = None
        tasks = [SweepTask(index=i, params=params, experiment=variant,
                           systems=systems)
                 for i, (params, variant) in enumerate(variants)]
        outcomes = exec_.map(tasks, progress=progress)
        points = [SweepPoint(params=o.params, report=o.report, error=o.error,
                             wall_s=o.wall_s, cache=o.cache)
                  for o in outcomes]
        return SweepReport(points=points, base_params=self.describe())

    def _apply_sweep_params(self, params: Mapping[str, Any]) -> "Experiment":
        """A copy of this experiment with one grid point's parameters applied."""
        top = {k: v for k, v in params.items() if k in _TOP_KEYS}
        cluster_updates = {k: v for k, v in params.items() if k in _CLUSTER_KEYS}
        ee_updates = {k: v for k, v in params.items() if k in _EE_KEYS}
        workload_updates = {k: v for k, v in params.items() if k in _WORKLOAD_KEYS}

        replacements: Dict[str, Any] = dict(top)
        if cluster_updates:
            # Sweeping a pool knob implies disaggregated serving; without
            # this, pool axes on a monolithic base spec would be rejected by
            # ClusterSpec as dead configuration.
            if any(key in ClusterSpec.POOL_KEYS for key in cluster_updates):
                cluster_updates.setdefault("disaggregate", True)
            # Unknown cluster keys never reach this replace: sweep() rejects
            # any key outside _SWEEP_KEYS up front, with a ValueError naming
            # the key.
            replacements["cluster"] = dataclasses.replace(self.cluster,
                                                          **cluster_updates)
        if ee_updates:
            replacements["ee"] = dataclasses.replace(self.ee, **ee_updates)
        if workload_updates:
            replacements["workload"] = dataclasses.replace(self.workload,
                                                           **workload_updates)
        variant = dataclasses.replace(self, **replacements)
        if not workload_updates and "seed" not in params:
            # dataclasses.replace resets the init=False cache; carry the
            # already-materialized workload over when this point cannot
            # change it.
            variant._workload_cache = self._workload_cache
        return variant
