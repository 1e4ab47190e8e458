"""fedcox calls scipy's LAPACK wrappers without importing scipy."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fedcox
from fedcox import _lapack

SRC = str(Path(fedcox.__file__).resolve().parent.parent)


def run_python(code, *path):
    """Run ``code`` in a fresh interpreter with ``path`` and ``src`` importable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), SRC]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_runtime_never_imports_scipy():
    # The finder lets scipy be found (fedcox looks its library up) but makes
    # loading any scipy module fail, and records the attempt in case some
    # caller swallows the ImportError.
    result = run_python("""
        import importlib.machinery
        import sys

        attempts = []

        class Refuse:
            def create_module(self, spec):
                attempts.append(spec.name)
                raise ImportError(f"scipy module imported: {spec.name}")

            def exec_module(self, module):
                raise AssertionError("unreachable")

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] != "scipy":
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path)
                if spec is not None:
                    spec.loader = Refuse()
                return spec

        sys.meta_path.insert(0, NoScipy())

        import numpy as np
        import fedcox
        import fedcox.cli
        from fedcox import (AggregationMethod, FedConfig, RbfSpec, run_training,
                            simulate_client, test_loglik)

        data = [simulate_client(20.0, RbfSpec(1.5, 0.2), 1.0, 3, seed)[0]
                for seed in (1, 2)]
        config = FedConfig(
            n_clients=2, participants_per_round=2, rounds=1, local_epochs=1,
            batch_size=2, step_size=0.01, straggle_period=1,
            aggregation=AggregationMethod("kl"), seed=3, n_inducing=3,
            quad_nodes=9, n_w_samples=2, hidden_dim=2, embed_dim=2,
        )
        history, server, clients = run_training(config, data, 1.0)
        score = test_loglik(clients[0], data[1], (0.0, 1.0))
        assert np.isfinite(score) and np.all(np.isfinite(server.theta.mean))
        loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
        print(attempts, loaded)
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[] []"


def test_library_without_the_routines_names_them():
    # scipy's BLAS wrappers: an f2py extension that loads, without dpotrf.
    from scipy.linalg import _fblas

    path = Path(_fblas.__file__)
    with pytest.raises(ImportError, match="dpotrf") as raised:
        _lapack.load(path)
    assert str(path) in str(raised.value)


def test_missing_library_fails_import_without_fallback(tmp_path):
    # A scipy package without linalg/_flapack: import fedcox must fail and
    # name what it searched for, and must not try to import scipy instead.
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text(
        "raise AssertionError('scipy was imported')\n"
    )
    result = run_python("""
        import sys
        try:
            import fedcox
        except ImportError as error:
            print(error)
        assert "scipy" not in sys.modules
    """, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "dpotrf" in result.stdout
    assert str(tmp_path / "scipy" / "linalg" / "_flapack") in result.stdout
