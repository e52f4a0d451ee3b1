"""Sweep executor semantics: parallel/serial bit-identity and error capture.

The process backend's contract is that fan-out is an implementation detail:
for any experiment kind, ``SweepReport.to_json()`` from the process executor
must be byte-identical to the serial executor's, grid points that raise at
run time become structured errors while their siblings complete, and
configuration errors still fail the whole sweep up front.
"""

import json

import pytest

from repro.api import Experiment, WorkloadSpec
from repro.api.executor import (SWEEP_EXECUTORS, ProcessSweepExecutor,
                                SerialSweepExecutor, resolve_sweep_executor)


def _dumps(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _experiment_and_grid(kind):
    if kind == "classification":
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=200, seed=3))
        return exp, {"max_batch_size": [8, 16]}
    if kind == "generative_cluster":
        exp = Experiment(model="t5-large",
                         workload=WorkloadSpec("generative", requests=12, seed=3))
        return exp, {"replicas": [1, 2]}
    assert kind == "generative_disagg"
    exp = Experiment(model="t5-large",
                     workload=WorkloadSpec("generative", requests=12, seed=3))
    return exp, {"prefill_replicas": [1, 2]}


class TestBitIdentity:
    @pytest.mark.parametrize("kind", ["classification", "generative_cluster",
                                      "generative_disagg"])
    def test_process_report_is_byte_identical_to_serial(self, kind):
        exp, grid = _experiment_and_grid(kind)
        serial = exp.sweep(systems=["vanilla", "apparate"],
                           executor="serial", **grid)
        parallel = exp.sweep(systems=["vanilla", "apparate"],
                             executor="process", workers=2, **grid)
        assert _dumps(serial) == _dumps(parallel)

    def test_points_come_back_in_grid_order(self):
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=120, seed=0))
        report = exp.sweep(systems=["vanilla"], replicas=[1, 2, 3], workers=3)
        assert [p.params["replicas"] for p in report.points] == [1, 2, 3]


class TestErrorCapture:
    #: A ramp id outside the catalog passes sweep validation (the catalog is
    #: only built when the run starts) and raises inside the grid point — the
    #: runtime-failure class the executors must capture per point.
    GRID = {"initial_ramp_ids": [None, (999,)]}
    SYSTEMS = ["apparate"]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_failed_point_does_not_kill_siblings(self, executor):
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=120, seed=0))
        report = exp.sweep(systems=self.SYSTEMS, executor=executor,
                           workers=2 if executor == "process" else None,
                           **self.GRID)
        ok, failed = report.points
        assert ok.error is None and ok.report is not None
        assert failed.report is None
        assert failed.error["type"] == "ValueError"
        assert "ramp 999 not in catalog" in failed.error["message"]

    def test_error_points_are_bit_identical_across_backends(self):
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=120, seed=0))
        serial = exp.sweep(systems=self.SYSTEMS, executor="serial",
                           **self.GRID)
        parallel = exp.sweep(systems=self.SYSTEMS, executor="process",
                             workers=2, **self.GRID)
        assert _dumps(serial) == _dumps(parallel)

    def test_results_refuses_partial_columns(self):
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=120, seed=0))
        report = exp.sweep(systems=self.SYSTEMS, **self.GRID)
        assert len(report.errors()) == 1
        with pytest.raises(ValueError, match="sweep points failed"):
            report.results("apparate")

    def test_config_errors_still_fail_the_whole_sweep(self):
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=120, seed=0))
        # Bad grid value: caught by up-front spec validation, not captured.
        with pytest.raises(ValueError, match="replicas"):
            exp.sweep(systems=["vanilla"], workers=2, replicas=[1, 0])
        # Typoed system name: canonicalized before dispatch.
        with pytest.raises(ValueError):
            exp.sweep(systems=["vanillla"], workers=2, replicas=[1])


class TestResolution:
    def test_default_is_serial(self):
        assert isinstance(resolve_sweep_executor(), SerialSweepExecutor)

    def test_workers_alone_selects_process(self):
        exec_ = resolve_sweep_executor(workers=4)
        assert isinstance(exec_, ProcessSweepExecutor)
        assert exec_.workers == 4

    def test_workers_one_stays_serial(self):
        assert isinstance(resolve_sweep_executor(workers=1),
                          SerialSweepExecutor)

    def test_instance_passes_through(self):
        exec_ = ProcessSweepExecutor(workers=2)
        assert resolve_sweep_executor(exec_) is exec_

    def test_instance_plus_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_sweep_executor(ProcessSweepExecutor(workers=2), workers=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="thread"):
            resolve_sweep_executor("thread")

    def test_serial_with_workers_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            resolve_sweep_executor("serial", workers=4)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_sweep_executor("process", workers=0)

    def test_registry_names(self):
        assert set(SWEEP_EXECUTORS) == {"serial", "process"}


class TestProgress:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_progress_fires_once_per_point(self, executor):
        exp = Experiment(model="resnet50",
                         workload=WorkloadSpec("video", requests=120, seed=0))
        seen = []
        exp.sweep(systems=["vanilla"], replicas=[1, 2], executor=executor,
                  workers=2 if executor == "process" else None,
                  progress=lambda outcome, done, total:
                  seen.append((done, total, outcome.params["replicas"])))
        assert [(done, total) for done, total, _ in seen] == [(1, 2), (2, 2)]
        assert sorted(r for _, _, r in seen) == [1, 2]
