"""Tests for the command-line interface."""

import json

import pytest

from repro.api import get_system, list_systems
from repro.cli import build_parser, main


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_models_command_lists_zoo(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "resnet50" in out
    assert "t5-large" in out
    assert "bs=1" in out


def test_classify_command_runs_small_video_workload(capsys):
    code = main(["run", "--model", "resnet50", "--workload", "video:urban-day",
                 "--requests", "800", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "median latency win" in out
    assert "Apparate" in out


def test_classify_command_rejects_unknown_workload_kind():
    with pytest.raises(SystemExit):
        main(["run", "--model", "resnet50", "--workload", "audio:calls",
              "--requests", "100"])


def test_run_command_rejects_unknown_workload_source():
    """``--workload video:bogus`` used to serve the urban-day trace.  A
    string ``SystemExit`` exits the process with status 1."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--model", "resnet50", "--workload", "video:bogus",
              "--requests", "10"])
    assert isinstance(excinfo.value.code, str)
    assert str(excinfo.value).startswith("error: source must be a video "
                                         "preset")


def test_generate_command_runs_small_workload(capsys):
    code = main(["run", "--model", "t5-large", "--workload", "generative:squad",
                 "--requests", "30", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "median TPT win" in out
    assert "vanilla" in out and "Apparate" in out


def test_run_command_rejects_workload_of_the_other_kind():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--model", "resnet50", "--workload", "generative:squad",
              "--requests", "10"])
    assert "workload kind is 'generative'" in str(excinfo.value)


@pytest.mark.parametrize("flag,value,key", [("--platform", "tfserve", "platform"),
                                            ("--ramp-budget", "0.3", "ramp_budget")])
def test_generative_run_rejects_classification_flags(flag, value, key):
    for command in ("run", "sweep"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--model", "t5-large", flag, value, "--requests", "5"])
        assert str(excinfo.value).startswith(
            f"error: {key} requires a classification model")


def test_run_command_reports_unknown_model_as_an_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--model", "nope", "--requests", "10"])
    assert str(excinfo.value).startswith("error: unknown model 'nope'")


def test_classify_command_cluster_mode(capsys):
    code = main(["run", "--model", "resnet50", "--workload", "video:urban-day",
                 "--requests", "600", "--seed", "5", "--replicas", "2",
                 "--balancer", "join_shortest_queue", "--fleet-mode", "shared"])
    assert code == 0
    out = capsys.readouterr().out
    assert "replicas=2" in out
    assert "balancer=join_shortest_queue" in out
    assert "fleet throughput" in out
    assert "replica 0" in out and "replica 1" in out
    assert "fleet controllers: " in out and "(shared)" in out


def test_classify_command_rejects_bad_replicas():
    with pytest.raises(SystemExit):
        main(["run", "--model", "resnet50", "--requests", "100",
              "--replicas", "0"])


def test_classify_command_rejects_unknown_balancer():
    with pytest.raises(SystemExit):
        main(["run", "--model", "resnet50", "--requests", "100",
              "--replicas", "2", "--balancer", "coin-flip"])


def test_classify_command_autoscaled_fleet(capsys):
    code = main(["run", "--model", "resnet50", "--requests", "400",
                 "--seed", "5", "--replicas", "2", "--autoscaler", "reactive",
                 "--min-replicas", "1", "--max-replicas", "4",
                 "--systems", "vanilla", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["cluster"]["autoscaler"] == "reactive"
    assert payload["params"]["cluster"]["min_replicas"] == 1
    assert payload["params"]["cluster"]["max_replicas"] == 4
    result = payload["results"][0]
    assert result["summary"]["replica_seconds"] > 0
    assert result["details"]["fleet_timeline"][0][1] == 2


def test_classify_command_heterogeneous_profiles(capsys):
    code = main(["run", "--model", "resnet50", "--requests", "300",
                 "--seed", "5", "--replicas", "2", "--balancer",
                 "weighted_round_robin", "--replica-profiles", "2,0.5",
                 "--systems", "vanilla", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    profiles = payload["params"]["cluster"]["profiles"]
    assert [p["speed"] for p in profiles] == [2.0, 0.5]
    counts = payload["results"][0]["details"]["dispatch_counts"]
    assert counts[0] > counts[1], "weighted RR favours the fast replica"


def test_classify_command_rejects_mismatched_profiles():
    with pytest.raises(SystemExit):
        main(["run", "--model", "resnet50", "--requests", "100",
              "--replicas", "2", "--replica-profiles", "2,1,0.5"])


def test_classify_command_rejects_zero_fleet_bounds():
    """Regression: an explicit 0 must reach ClusterSpec validation instead of
    being dropped by truthiness."""
    with pytest.raises(SystemExit):
        main(["run", "--model", "resnet50", "--requests", "100",
              "--max-replicas", "0"])
    with pytest.raises(SystemExit):
        main(["run", "--model", "resnet50", "--requests", "100",
              "--min-replicas", "0"])


def test_nlp_workload_parsing(capsys):
    code = main(["run", "--model", "distilbert-base", "--workload", "nlp:imdb",
                 "--requests", "600", "--rate", "25", "--seed", "6"])
    assert code == 0
    assert "distilbert-base" in capsys.readouterr().out


# ------------------------------------------------------------ systems / json


@pytest.mark.parametrize("system", sorted(list_systems()))
def test_every_registered_system_is_cli_reachable(system, capsys):
    """Regression guard: no registered system may be unreachable from the CLI.

    Classification-capable systems run through ``run --systems`` on
    resnet50, generative-capable ones on t5-large — every system supports
    at least one of the two kinds.
    """
    runner = get_system(system)
    ran = False
    if runner.supports("classification"):
        assert main(["run", "--model", "resnet50", "--requests", "120",
                     "--systems", system, "--seed", "3"]) == 0
        ran = True
    if runner.supports("generative"):
        assert main(["run", "--model", "t5-large", "--workload",
                     "generative:squad", "--requests", "8", "--systems", system,
                     "--seed", "3"]) == 0
        ran = True
    assert ran, f"system {system!r} is reachable from no model kind"
    from repro.api.result import SYSTEM_DISPLAY_NAMES
    assert SYSTEM_DISPLAY_NAMES.get(system, system) in capsys.readouterr().out


def test_classify_rejects_unknown_system():
    with pytest.raises(SystemExit):
        main(["run", "--requests", "50", "--systems", "warp-drive"])


def test_classify_rejects_system_without_kind_support():
    with pytest.raises(SystemExit):
        main(["run", "--requests", "50", "--systems", "free"])


def test_classify_json_output_is_machine_readable(capsys):
    code = main(["run", "--model", "resnet50", "--requests", "150",
                 "--seed", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.run_report/v2"
    assert payload["params"]["cluster"]["replicas"] == 1
    assert [r["system"] for r in payload["results"]] == ["vanilla", "apparate"]
    assert payload["results"][0]["summary"]["num_served"] == 150.0


def test_generate_json_output(capsys):
    code = main(["run", "--model", "t5-large", "--workload", "generative:squad",
                 "--requests", "8", "--seed", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["kind"] for r in payload["results"]} == {"generative"}
    assert "tpt_p50_ms" in payload["results"][0]["summary"]


# ------------------------------------------------------------------- sweeps


def test_sweep_command_runs_grid(capsys):
    code = main(["sweep", "--model", "resnet50", "--requests", "150",
                 "--replicas", "1,2", "--balancer", "round_robin",
                 "--systems", "vanilla", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "replicas" in out and "vanilla" in out
    assert out.count("vanilla") >= 2   # one row per grid point


def test_sweep_command_json(capsys):
    code = main(["sweep", "--model", "resnet50", "--requests", "120",
                 "--replicas", "1,2", "--systems", "vanilla", "--seed", "4",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.sweep_report/v2"
    assert [p["params"]["replicas"] for p in payload["points"]] == [1, 2]


def test_sweep_command_over_autoscalers(capsys):
    code = main(["sweep", "--model", "resnet50", "--requests", "200",
                 "--replicas", "2", "--autoscaler", "none,reactive",
                 "--max-replicas", "4", "--systems", "vanilla", "--seed", "4",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["params"]["autoscaler"] for p in payload["points"]] \
        == ["none", "reactive"]
    for point in payload["points"]:
        assert point["report"]["results"][0]["summary"]["num_served"] == 200.0


def test_sweep_command_table_with_scalar_grid_values(capsys):
    """Regression: scalar grid entries (e.g. --max-replicas) must not break
    the non-JSON header, which counts grid-axis sizes."""
    code = main(["sweep", "--model", "resnet50", "--requests", "120",
                 "--replicas", "1,2", "--autoscaler", "reactive",
                 "--max-replicas", "4", "--systems", "vanilla", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid=2x1x1" in out
    assert out.count("vanilla") >= 2


def test_sweep_command_covers_generative_fleets(capsys):
    """Generative models sweep replica counts on the fleet control plane."""
    code = main(["sweep", "--model", "t5-large", "--replicas", "1,2",
                 "--requests", "10", "--systems", "vanilla", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "generative:cnn-dailymail" in out
    assert out.count("vanilla") >= 2   # one row per grid point


def test_generate_command_runs_cluster_with_autoscaler(capsys):
    code = main(["run", "--model", "t5-large", "--workload", "generative:squad",
                 "--requests", "30", "--rate", "40", "--replicas", "2",
                 "--balancer", "least_work_left", "--autoscaler", "reactive",
                 "--min-replicas", "2", "--max-replicas", "4", "--seed", "2",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {r["kind"] for r in payload["results"]} == {"generative"}
    for result in payload["results"]:
        assert result["summary"]["peak_replicas"] >= 2.0
        assert result["details"]["fleet_timeline"]


def test_sweep_command_rejects_malformed_replica_list():
    with pytest.raises(SystemExit):
        main(["sweep", "--replicas", "1,two"])
