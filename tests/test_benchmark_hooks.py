"""The benchmark tracer (perfbench/tracer.py) must still hook the package.

The tracer wraps named functions and methods at their look-up sites.  A
rename or deletion in spinzeno that removes one of them breaks every
traced benchmark run, so this test resolves each hook point and installs
the tracer on the current package.
"""

import importlib.util
import pathlib

import pytest
from click.testing import CliRunner

from spinzeno.cli import main

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent \
    / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(tracer_module):
    for path, attr, _, _ in tracer_module.WRAP_POINTS:
        owner = tracer_module._resolve(path)
        assert callable(getattr(owner, attr)), f"{path}.{attr}"


def _traced_run(tracer_module, argv):
    """Invoke the CLI under an installed tracer; restore every hook."""
    owners = [(tracer_module._resolve(path), attr)
              for path, attr, _, _ in tracer_module.WRAP_POINTS]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in owners]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        result = CliRunner().invoke(main, argv)
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    assert result.exit_code == 0, result.output
    return tracer.summary()["layers"]


def test_tracer_installs_and_records(tracer_module, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\n"
                   "[bath]\ng = 0.5\nomega_c = 10.0\n"
                   "[run]\ntau_min = 0.1\ntau_max = 1.0\ntau_points = 3\n")
    layers = _traced_run(tracer_module, ["curve", "--config", str(cfg)])
    for layer in ("config.parse", "regimes.sample_curve", "survival.prob",
                  "quadrature.triangle", "tables.emit"):
        assert layers[layer]["calls"] > 0, layer


def test_oracle_note_reads_the_dimension(tracer_module, tmp_path):
    # the tracer's oracle.init note reads ExactEvolution.h.shape[0]
    cfg = tmp_path / "c.ini"
    cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.02\n"
                   "[bath]\nmodes = 1.0:0.2 2.0:0.25 3.0:0.3\n"
                   "[run]\ntau_min = 0.25\ntau_max = 5.0\ntau_points = 3\n"
                   "n_max = 5\nmodes = full removed_full\n")
    layers = _traced_run(tracer_module, ["oracle-check", "--config",
                                         str(cfg)])
    assert layers["oracle.init"]["notes"]["dim"] == [2 * 5 ** 3]
    assert layers["oracle.init"]["calls"] == 1      # one pass per run
    assert layers["oracle.survival"]["calls"] == 6
