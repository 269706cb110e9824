"""The benchmark's probes wrap package functions by module attribute name, so
every name they list must stay an attribute of its owner."""

import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(probes):
    missing = [(owner.__name__, attr) for owner, attr, _ in probes.TRACED if attr not in owner.__dict__]
    assert not missing


def test_capture_targets_exist(probes, monkeypatch):
    # record the targets Captures.install would wrap, without wrapping them
    targets = []
    monkeypatch.setattr(probes, "_replace", lambda owner, attr, make: targets.append((owner, attr)))
    probes.Captures().install()
    assert len(targets) == 3
    assert [(owner.__name__, attr) for owner, attr in targets if attr not in owner.__dict__] == []
