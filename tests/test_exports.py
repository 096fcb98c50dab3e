"""The package's public surface."""

import importlib
from pathlib import Path

import photonsim

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in photonsim.__all__ if not hasattr(photonsim, name)]
    assert missing == []
    assert len(set(photonsim.__all__)) == len(photonsim.__all__)


def test_every_traced_layer_resolves(monkeypatch):
    # bench/tracing.py patches these names; the default test run does not
    # collect bench/, so a renamed layer would break only `--trace 1`.
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for layer in tracing.LAYERS:
        target = importlib.import_module(layer.module)
        for part in layer.attr.split("."):
            target = getattr(target, part)
        assert callable(target), layer.name
    generators = {layer.name for layer in tracing.LAYERS if layer.generator}
    assert generators == {"simulate.sector_basis", "postselect.admissible_outcomes"}
    for outcomes in (photonsim.simulate.sector_basis(2, 3),
                     photonsim.postselect.admissible_outcomes(3, False, 2, None)):
        assert iter(outcomes) is outcomes
        assert next(outcomes) == (2, 0, 0)
