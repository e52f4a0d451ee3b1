"""``repro.api`` — the declarative facade over every serving system.

One :class:`Experiment` describes a serving configuration (model, workload,
fleet, exit policy); the **system registry** maps short names
(``vanilla``, ``apparate``, ``free``, ``optimal``, ``static_ee``,
``two_layer``) to uniform runners; ``Experiment.run(systems=[...])`` returns
a :class:`RunReport` comparison and ``Experiment.sweep(replicas=[1, 2, 4])``
runs parameter grids in one line.

>>> from repro.api import Experiment, WorkloadSpec, list_systems
>>> exp = Experiment(model="resnet50", workload=WorkloadSpec("video"))
>>> report = exp.run(systems=["vanilla", "apparate"])      # doctest: +SKIP
>>> print(report.format_table())                           # doctest: +SKIP

New systems register with :func:`register_system` and become reachable from
``Experiment.run``, the CLI's ``--systems`` flag, and the benchmarks without
touching any of them.
"""

from repro.api.executor import (SWEEP_EXECUTORS, ProcessSweepExecutor,
                                SerialSweepExecutor, SweepExecutor,
                                SweepOutcome, SweepTask,
                                resolve_sweep_executor)
from repro.api.experiment import DEFAULT_SYSTEMS, Experiment
from repro.api.registry import (SystemRunner, canonical_system_name, get_system,
                                list_systems, register_system,
                                system_descriptions)
from repro.api.result import (KIND_CLASSIFICATION, KIND_GENERATIVE, RunReport,
                              RunResult, SweepPoint, SweepReport,
                              labels_for_kind)
from repro.api.specs import (WORKLOAD_KINDS, ClusterSpec, ExitPolicySpec,
                             TraceSpec, WorkloadSpec)

# Importing the runners registers every built-in system.
from repro.api import systems as _systems  # noqa: F401
from repro.api.systems import REGISTERED_SYSTEMS

__all__ = [
    "Experiment",
    "DEFAULT_SYSTEMS",
    "WorkloadSpec",
    "ClusterSpec",
    "ExitPolicySpec",
    "TraceSpec",
    "WORKLOAD_KINDS",
    "RunResult",
    "RunReport",
    "SweepPoint",
    "SweepReport",
    "KIND_CLASSIFICATION",
    "KIND_GENERATIVE",
    "SystemRunner",
    "register_system",
    "get_system",
    "list_systems",
    "canonical_system_name",
    "system_descriptions",
    "labels_for_kind",
    "REGISTERED_SYSTEMS",
    "SweepExecutor",
    "SerialSweepExecutor",
    "ProcessSweepExecutor",
    "SweepTask",
    "SweepOutcome",
    "SWEEP_EXECUTORS",
    "resolve_sweep_executor",
]
