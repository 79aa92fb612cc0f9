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


def test_tracer_installs_and_records(tracer_module, tmp_path):
    owners = [(tracer_module._resolve(path), attr)
              for path, attr, _, _ in tracer_module.WRAP_POINTS]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in owners]
    cfg = tmp_path / "c.ini"
    cfg.write_text("[system]\nepsilon = 1.0\ndelta = 0.2\n"
                   "[bath]\ng = 0.5\nomega_c = 10.0\n"
                   "[run]\ntau_min = 0.1\ntau_max = 1.0\ntau_points = 3\n")
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        result = CliRunner().invoke(main, ["curve", "--config", str(cfg)])
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    assert result.exit_code == 0, result.output
    layers = tracer.summary()["layers"]
    for layer in ("config.parse", "regimes.sample_curve", "survival.prob",
                  "quadrature.triangle", "tables.emit"):
        assert layers[layer]["calls"] > 0, layer
