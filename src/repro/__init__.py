"""repro — a full reproduction of Apparate (SOSP 2024).

Apparate automatically injects and manages early exits (EEs) in ML models to
lower per-request serving latency without harming platform throughput or
violating accuracy constraints.  This package reproduces the system and its
evaluation on top of a simulated model-execution and serving substrate (see
DESIGN.md for the substitution rationale).

Quickstart
----------
The declarative :class:`Experiment` facade runs any set of registered
systems — Apparate, vanilla serving, and the paper's baselines — on one
configuration and compares them:

>>> from repro import Experiment, WorkloadSpec
>>> exp = Experiment(model="resnet50", workload=WorkloadSpec("video", "urban-day",
...                                                          requests=2000))
>>> report = exp.run(systems=["vanilla", "apparate"])
>>> sweep = exp.sweep(replicas=[1, 2, 4])                  # doctest: +SKIP

Every run is a fleet: ``Experiment``'s default :class:`ClusterSpec` is one
replica, the paper's single-model serving setup, and ``report.kind`` is the
model family (``classification`` or ``generative``).  The object API
(:class:`Apparate`) mirrors the paper's register/serve workflow.

Every serving platform — the classification cluster, the generative
continuous-batching cluster and the disaggregated prefill/decode pools —
runs on the shared heap-scheduled discrete-event kernel in
:mod:`repro.serving.kernel` (see its docstring for the event-ordering
guarantees).  Simulation speed is benchmark-gated: ``BENCH_simspeed.json``
tracks simulated requests/sec against the preserved pre-kernel loops;
refresh it with ``BENCH_SIMSPEED=full PYTHONPATH=src python -m pytest -q -s
benchmarks/test_simspeed.py``.
"""

from repro.core import (
    Apparate,
    ApparateDeployment,
    ApparateController,
    ApparateClusterRunResult,
    FleetController,
    GenerativeClusterRunResult,
)
from repro.models import ModelSpec, Task, get_model, list_models, register_model
from repro.api import (
    ClusterSpec,
    Experiment,
    ExitPolicySpec,
    RunReport,
    RunResult,
    SweepReport,
    WorkloadSpec,
    list_systems,
    register_system,
)

__version__ = "1.1.0"

__all__ = [
    "Experiment",
    "WorkloadSpec",
    "ClusterSpec",
    "ExitPolicySpec",
    "RunResult",
    "RunReport",
    "SweepReport",
    "register_system",
    "list_systems",
    "Apparate",
    "ApparateDeployment",
    "ApparateController",
    "ApparateClusterRunResult",
    "FleetController",
    "GenerativeClusterRunResult",
    "ModelSpec",
    "Task",
    "get_model",
    "list_models",
    "register_model",
    "__version__",
]
