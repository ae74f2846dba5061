"""The public API surface: everything advertised must exist and work."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_exception_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.GraphError, repro.ReproError)
        assert issubclass(repro.SearchError, repro.ReproError)
        assert issubclass(repro.ConstructionError, repro.ReproError)
        assert issubclass(repro.DatasetError, repro.ReproError)
        assert issubclass(repro.DeviceError, repro.ReproError)
        assert issubclass(repro.FaultError, repro.ReproError)
        assert issubclass(repro.KernelTimeoutError, repro.FaultError)
        assert issubclass(repro.MemoryFaultError, repro.FaultError)
        assert issubclass(repro.DeviceMemoryError, repro.FaultError)

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.baselines", "repro.gpusim", "repro.graphs",
        "repro.datasets", "repro.metrics", "repro.bench",
        "repro.cli", "repro.serve", "repro.faults",
        "repro.observability", "repro.cluster", "repro.heal",
    ])
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.baselines", "repro.gpusim", "repro.bench",
        "repro.serve", "repro.faults",
        "repro.observability", "repro.cluster", "repro.heal",
    ])
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_every_public_module_has_docstring(self):
        import os
        import repro as pkg
        root = os.path.dirname(pkg.__file__)
        for dirpath, _dirnames, filenames in os.walk(root):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, filename),
                                      root)
                module_name = "repro." + rel[:-3].replace(os.sep, ".")
                module_name = module_name.replace(".__init__", "")
                mod = importlib.import_module(module_name)
                assert mod.__doc__, f"{module_name} lacks a docstring"


class TestMinimalEndToEnd:
    """The README quickstart, verbatim-ish, must work."""

    def test_readme_quickstart(self):
        from repro import GannsIndex, BuildParams, load_dataset, \
            recall_at_k

        dataset = load_dataset("sift1m", n_points=800, n_queries=20)
        index = GannsIndex.build(
            dataset.points,
            params=BuildParams(d_min=8, d_max=16, n_blocks=8))
        ids, dists = index.search(dataset.queries, k=10, l_n=64)
        recall = recall_at_k(ids, dataset.ground_truth(10))
        assert recall > 0.6
        report = index.search_report(dataset.queries, k=10, l_n=64)
        assert report.queries_per_second() > 0
