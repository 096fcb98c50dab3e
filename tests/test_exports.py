"""The package's public surface."""

import importlib
import pkgutil
import re
import sys
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


def test_each_private_constant_has_one_owner():
    # A module reads another's tunable as an attribute of its owner, so one
    # monkeypatch reaches every reader; a second binding, as `from ._kernels
    # import _MAX_WORK` would make, is a copy that a patch misses.
    for info in pkgutil.iter_modules(photonsim.__path__):
        if info.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"photonsim.{info.name}")
    owners: dict = {}
    for name, module in sys.modules.items():
        if module is not None and name.startswith("photonsim."):
            for attr in vars(module):
                if re.fullmatch(r"_[A-Z][A-Z0-9_]*", attr):
                    owners.setdefault(attr, []).append(name)
    assert {"_MAX_WORK", "_STRUCTURES", "_ENUMERATION_BYTES", "_PRUNE_NORM", "_DRAW_CHUNK"} <= set(owners)
    assert {attr: names for attr, names in owners.items() if len(names) > 1} == {}
