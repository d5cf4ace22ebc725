"""The curated public surface of the ``repro`` package.

Everything in ``repro.__all__`` must import and be the supported way
in; nothing private (underscore names, submodule objects imported as a
side effect) may masquerade as public API.
"""

import importlib
import inspect

import repro


class TestAll:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        exported = {k for k in namespace if not k.startswith("__")}
        assert exported == set(repro.__all__) - {"__version__"}

    def test_nothing_private_leaks(self):
        for name in repro.__all__:
            assert not name.startswith("_") or name == "__version__"

    def test_no_module_objects_exported(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert not inspect.ismodule(getattr(repro, name)), (
                f"{name} is a module, not an API object"
            )

    def test_headline_names_present(self):
        # The ISSUE's required surface.
        for name in (
            "Experiment",
            "SystemConfig",
            "CampaignSpec",
            "FaultPlan",
            "trace_session",
        ):
            assert name in repro.__all__

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))


class TestEntryPoints:
    def test_experiment_is_the_api_class(self):
        from repro.api import Experiment

        assert repro.Experiment is Experiment

    def test_builder_reachable_from_systemconfig(self):
        builder = repro.SystemConfig.builder()
        assert isinstance(builder, repro.SystemConfigBuilder)

    def test_legacy_entry_points_still_import(self):
        # Old composition points stay importable (thin shims / direct).
        for module, attr in (
            ("repro.node.testbed", "Testbed"),
            ("repro.node.cluster", "Cluster"),
            ("repro.bench", "run_am_lat"),
        ):
            assert hasattr(importlib.import_module(module), attr)
