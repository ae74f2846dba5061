"""Typed errors from the index-family registry, at every entry point.

An unknown family name must surface as
:class:`~repro.errors.UnknownFamilyError` — a
:class:`~repro.errors.ConfigurationError`, *never* a bare
:class:`KeyError` — from each layer that resolves families by name:
``GannsIndex.build`` / ``from_graph``, :class:`ClusterEngine` and the
CLI (exit code 2, the typed-error path).
"""

import numpy as np
import pytest

from repro import GannsIndex
from repro.cli import main as cli_main
from repro.cluster import ClusterEngine
from repro.core import backend_families, get_backend
from repro.core.backend import IndexBackend, register_backend
from repro.core.params import BuildParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import (
    ConfigurationError,
    ReproError,
    UnknownFamilyError,
    UnsupportedOperationError,
)

POINTS = gaussian_mixture(120, 8, n_clusters=4, cluster_std=0.4,
                          intrinsic_dim=4, seed=5)


class TestUnknownFamilyIsTyped:
    def test_error_type_and_message(self):
        with pytest.raises(UnknownFamilyError, match="graph_type"):
            get_backend("bogus")
        assert issubclass(UnknownFamilyError, ConfigurationError)
        assert issubclass(UnknownFamilyError, ReproError)
        assert not issubclass(UnknownFamilyError, KeyError)

    def test_message_names_registered_families(self):
        with pytest.raises(UnknownFamilyError) as excinfo:
            get_backend("bogus")
        for family in backend_families():
            assert family in str(excinfo.value)

    def test_ganns_index_build(self):
        with pytest.raises(UnknownFamilyError):
            GannsIndex.build(POINTS, graph_type="bogus")

    def test_ganns_index_from_graph(self):
        index = GannsIndex.build(POINTS,
                                 params=BuildParams(d_min=4, d_max=8))
        with pytest.raises(UnknownFamilyError):
            GannsIndex(index.points, index.graph, "bogus", "euclidean")

    def test_cluster_engine(self):
        with pytest.raises(UnknownFamilyError):
            ClusterEngine(POINTS, n_shards=2, n_replicas=1,
                          family="bogus")

    def test_cli_build_exits_2_not_traceback(self, tmp_path, capsys):
        code = cli_main(["build", "sift1m", "--points", "200",
                         "--graph-type", "bogus",
                         "--output", str(tmp_path / "idx.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "graph_type" in err
        assert "Traceback" not in err


class TestUnsupportedOperation:
    def test_unsupported_operation_is_a_repro_error(self):
        assert issubclass(UnsupportedOperationError, ReproError)


class TestRegistration:
    def test_new_family_is_resolvable_and_listed(self):
        class _ToyBackend(IndexBackend):
            family = "toy-test-only"

            def build(self, points, params, metric="euclidean", **kwargs):
                raise NotImplementedError

        from repro.core import backend as backend_mod
        register_backend(_ToyBackend())
        try:
            assert "toy-test-only" in backend_families()
            assert isinstance(get_backend("toy-test-only"), _ToyBackend)
        finally:
            del backend_mod._REGISTRY["toy-test-only"]
        assert "toy-test-only" not in backend_families()

    def test_unnamed_backend_is_rejected(self):
        class _Anon(IndexBackend):
            def build(self, points, params, metric="euclidean", **kwargs):
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_backend(_Anon())
