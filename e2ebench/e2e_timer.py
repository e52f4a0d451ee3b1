"""Outside-in per-layer wall-time accounting for the simulator.

:class:`LayerTimer` replaces the public entry points of each simulator layer
with thin wrappers that count calls and accumulate self time (inclusive time
minus the time of wrapped callees), then puts every original back.  Nothing
in ``src/`` knows about it: an entry point is patched where its callers look
it up (a method on the class that defines it, or a function on the module
whose globals the caller reads), so code outside the timer's ``with`` block
runs exactly as shipped.

    timer = LayerTimer(layer_targets())
    with timer:
        experiment.run(["apparate"])
    timer.stats()   # {"controller.observe_batch": (calls, self_s), ...}
"""

from __future__ import annotations

import functools
import time
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = ["LayerTimer", "Target", "layer_targets", "SPANS", "LAYERS"]

#: (span name, owner, attribute): ``owner.attribute`` is replaced while the
#: timer is installed.  ``owner`` is a class or a module.
Target = Tuple[str, Any, str]

#: Span names, grouped by the layer whose ``share.<layer>`` they add up to.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": ("workloads.materialize",),
    "api": ("api.result",),
    "kernel": ("kernel.drive",),
    "balancer": ("balancer.choose",),
    "platform": ("platform.select", "platform.complete"),
    "models": ("models.execute_batch",),
    "controller": ("controller.observe_batch", "exits.tune_thresholds_greedy",
                   "exits.adjuster_propose", "exits.window_latest",
                   "exits.window_record"),
    "engine": ("engine.decode_stream",),
    "policy": ("policy.decide", "policy.feedback"),
    "kv": ("kv.admit",),
    "tenancy": ("tenancy.reposition",),
    "metrics": ("metrics.record_batch",),
}
SPANS: Tuple[str, ...] = tuple(span for spans in LAYERS.values()
                               for span in spans)


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and every loaded subclass whose own ``__dict__`` defines
    ``attr`` (patching only those keeps each call wrapped exactly once)."""
    found: List[type] = []
    todo = [base]
    seen = set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def layer_targets() -> List[Target]:
    """The entry point of every layer, resolved on the loaded simulator."""
    # Registrations import every platform, balancer and policy module, so
    # the subclass walks below see all of them.
    import repro.api.systems  # noqa: F401
    from repro.api.experiment import Experiment
    from repro.api.specs import WorkloadSpec
    from repro.core import controller as controller_module
    from repro.core.controller import ApparateController
    from repro.core.generative import ApparateTokenPolicy
    from repro.exits import adjustment as adjustment_module
    from repro.exits.adjustment import RampAdjuster
    from repro.exits.evaluation import WindowBuffer
    from repro.generative.decoding import KVCacheAccountant
    from repro.models.execution import ModelExecutor
    from repro.serving.cluster import ClusterPlatform, LoadBalancer
    from repro.serving.disagg import DisaggregatedPlatform
    from repro.serving.generative_cluster import GenerativeClusterPlatform
    from repro.serving.hf_pipelines import ContinuousBatchingEngine
    from repro.serving.kernel import SimPlatform
    from repro.serving.metrics import ServingMetrics
    from repro.serving.platform import ServingPlatform
    from repro.tenancy.schedule import TenantRuntime

    targets: List[Target] = [
        ("workloads.materialize", WorkloadSpec, "materialize"),
        # api.result is Experiment.run minus every wrapped callee, in
        # particular the platform run below: registry dispatch, model stack
        # and controller construction, and RunResult/summary building.
        ("api.result", Experiment, "run"),
        # The kernel's drive loop plus the runner glue around it (platform
        # run: building replicas and runners, final metric rollups).
        ("kernel.drive", SimPlatform, "drive"),
        ("kernel.drive", ClusterPlatform, "run"),
        ("kernel.drive", GenerativeClusterPlatform, "run"),
        ("kernel.drive", DisaggregatedPlatform, "run"),
        # The per-batch model entry point of each system: vanilla prices a
        # batch with vanilla_batch_time_ms, the EE systems run execute_batch.
        ("models.execute_batch", ModelExecutor, "execute_batch"),
        ("models.execute_batch", ModelExecutor, "vanilla_batch_time_ms"),
        ("controller.observe_batch", ApparateController, "observe_batch"),
        # tune_thresholds_greedy is a module function: patch it in the
        # globals of both modules that call it.
        ("exits.tune_thresholds_greedy", controller_module,
         "tune_thresholds_greedy"),
        ("exits.tune_thresholds_greedy", adjustment_module,
         "tune_thresholds_greedy"),
        ("exits.adjuster_propose", RampAdjuster, "propose"),
        ("exits.window_latest", WindowBuffer, "latest"),
        ("exits.window_record", WindowBuffer, "record"),
        ("engine.decode_stream", ContinuousBatchingEngine, "decode_stream"),
        ("policy.decide", ApparateTokenPolicy, "decide"),
        ("policy.feedback", ApparateTokenPolicy, "feedback"),
        ("kv.admit", KVCacheAccountant, "admit"),
        ("tenancy.reposition", TenantRuntime, "reposition"),
        ("metrics.record_batch", ServingMetrics, "record_batch"),
    ]
    for name, base, attr in (("balancer.choose", LoadBalancer, "choose"),
                             ("platform.select", ServingPlatform, "select"),
                             ("platform.complete", ServingPlatform, "complete")):
        targets.extend((name, cls, attr)
                       for cls in _defining_classes(base, attr))
    return targets


class LayerTimer:
    """Counts calls and self time of the given entry points while installed.

    Use as a context manager; it is not re-entrant.  Self time is measured
    with ``time.perf_counter_ns``: each wrapper's inclusive time is charged
    to its span minus the inclusive time of wrapped calls made inside it, so
    the self times of all spans add up to the wrapped wall time without
    double counting.
    """

    def __init__(self, targets: Iterable[Target]) -> None:
        self.targets: List[Target] = list(targets)
        names = {name for name, _, _ in self.targets}
        #: span name -> [calls, self_ns]
        self._stats: Dict[str, List[int]] = {name: [0, 0] for name in names}
        #: inclusive ns of wrapped children, one slot per open wrapped call.
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- install
    def __enter__(self) -> "LayerTimer":
        if self._saved:
            raise RuntimeError("LayerTimer is already installed")
        try:
            for name, owner, attr in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _wrap(self, name: str, fn: Any) -> Any:
        if not callable(fn):
            raise TypeError(f"cannot time {name}: {fn!r} is not a function")
        stats = self._stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return timed

    # ---------------------------------------------------------------- results
    def reset(self) -> None:
        for stats in self._stats.values():
            stats[0] = stats[1] = 0

    def stats(self, spans: Sequence[str] = SPANS) -> Dict[str, Tuple[int, float]]:
        """``{span: (calls, self_s)}`` for each of ``spans`` (zeros if the
        span never ran or is not among this timer's targets)."""
        out: Dict[str, Tuple[int, float]] = {}
        for name in spans:
            calls, self_ns = self._stats.get(name, (0, 0))
            out[name] = (int(calls), self_ns / 1e9)
        return out
