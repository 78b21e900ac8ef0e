"""The benchmark's per-layer tracer (perfbench/tracing.py) binds the
package's public functions by name; a renamed or removed traced function
fails here as well as in the benchmark."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spherecon  # noqa: E402
import spherecon.cli  # noqa: E402,F401  (binds every submodule on the package)
import tracing  # noqa: E402


def _traced_attributes():
    return {(mod, fn): getattr(sys.modules[f"spherecon.{mod}"], fn)
            for mod, fns in tracing.TRACED.items() for fn in fns}


def test_tracer_installs_and_uninstalls():
    originals = _traced_attributes()
    tracer = tracing.Tracer(spherecon)
    tracer.install()
    try:
        for key, wrapper in _traced_attributes().items():
            assert wrapper.__wrapped__ is originals[key]
        c = spherecon.state.random_configuration(4, 3, seed=1)
        spherecon.state.tangent_basis(c)
        assert [span[2] for span in tracer.spans] == [
            "state.random_configuration", "state.tangent_basis"]
        a = spherecon.complete_graph(4)
        w = spherecon.weights.sample_sdd(a, 0.1, True, 2)
        rows, _, _, _ = spherecon.dynamics.run_batch(w.entries[None], c.rows[None])
        assert tracer.steps["dynamics.run_batch"][0] > 0
        assert np.all(np.isfinite(rows))
    finally:
        tracer.uninstall()
    assert _traced_attributes() == originals
