"""The benchmark's tracer wraps library functions under the module attributes
their callers look up.  A refactor that drops one of those bindings (for
example `qec.orthonormal_columns`) would break `bench/run.py --trace 1`
without failing any library test, so this test installs the tracer on the
real modules and restores them."""

import importlib.util
from pathlib import Path

import numpy as np

from qchannel import algebra, algorithms, channels, qec, serialize

MODULES = (channels, qec, algebra, algorithms, serialize)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_library_patches_and_restores_every_name():
    tracing = _load_tracing()
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracing.Tracer()
    try:
        # Raises AttributeError if a module no longer binds a wrapped name.
        tracing.install_library(tracer, *MODULES)
        wrapped = {
            f"{m.__name__.rsplit('.', 1)[-1]}.{name}"
            for m, saved in zip(MODULES, before)
            for name, value in vars(m).items()
            if saved.get(name) is not value
        }
        assert {"qec.build_recovery", "qec.complete_isometry", "qec.orthonormal_columns",
                "algebra.null_space_basis", "algebra.classify", "serialize.dumps"} <= wrapped
        qec.build_recovery(qec.builtin_code("repetition3"), [np.eye(8)], np.eye(1))
        names = {span[0] for span in tracer.spans}
        assert {"qec.build_recovery", "linalg.complete_isometry", "linalg.orthonormal_columns"} <= names
    finally:
        tracer.restore()
    for module, saved in zip(MODULES, before):
        assert all(vars(module)[name] is value for name, value in saved.items()), module.__name__
