"""Tests for the system registry behind the Experiment facade."""

import pytest

import repro
import repro.api as api
from repro.api import (KIND_CLASSIFICATION, REGISTERED_SYSTEMS,
                       canonical_system_name, get_system, list_systems,
                       register_system, system_descriptions)


def test_registry_matches_canonical_set():
    """Every built-in system is registered — no more, no fewer."""
    assert tuple(list_systems()) == tuple(sorted(REGISTERED_SYSTEMS))


def test_registry_completeness_vs_public_api():
    """The registry is the only public way to run a system.

    This is the guard against the pre-registry drift where systems grew
    ad-hoc ``run_*`` functions that no shared front end could reach: no
    public module exports one, and every registered system serves at least
    one experiment kind.
    """
    import repro.baselines
    import repro.core
    for module in (repro, repro.api, repro.core, repro.baselines):
        runners = [name for name in module.__all__ if name.startswith("run_")]
        assert runners == [], f"{module.__name__} exports {runners}"
    for name in list_systems():
        assert get_system(name).kinds, f"system {name!r} serves no kind"


def test_every_registered_name_is_exported():
    for name in ("Experiment", "WorkloadSpec", "ClusterSpec", "ExitPolicySpec",
                 "RunResult", "RunReport", "SweepReport", "register_system",
                 "list_systems"):
        assert name in api.__all__
        assert name in repro.__all__, f"{name} missing from repro.__all__"


def test_descriptions_are_nonempty():
    for name, description in system_descriptions().items():
        assert description, f"system {name!r} has no description"


def test_unknown_system_raises_value_error_naming_the_value():
    with pytest.raises(ValueError, match="coin-flip"):
        get_system("coin-flip")


def test_aliases_resolve_to_canonical_names():
    assert canonical_system_name("oracle") == "optimal"
    assert canonical_system_name("baseline") == "vanilla"
    assert canonical_system_name("static") == "static_ee"
    assert canonical_system_name("Two-Layer") == "two_layer"


def test_kind_filter_rejects_unknown_kind():
    with pytest.raises(ValueError, match="audio"):
        list_systems("audio")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_system("vanilla", kinds=(KIND_CLASSIFICATION,))(lambda e: None)


def test_registration_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="warp"):
        register_system("new-system", kinds=("warp",))(lambda e: None)
