"""The benchmark's tracer still fits the package.

``bench/spans.py`` wraps module attributes of ``boostcap`` by name.  The
benchmark's own tests live outside this suite, so a refactor that renames
or removes one of those attributes would otherwise go unseen here.
"""

import importlib.util
from pathlib import Path

import pytest

from boostcap import channel, quadrature

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped(spans) -> list[tuple[object, str]]:
    return [(obj, attr) for obj, attr, _ in spans._TARGETS] + [
        (quadrature, "_gk15"), (channel, "phi_profile_closed"),
        (channel, "integrate"), (channel, "_frame_integrals")]


def test_every_traced_attribute_exists(spans):
    for obj, attr in _wrapped(spans):
        assert hasattr(obj, attr), f"{obj.__name__}.{attr}"


def test_install_then_uninstall_restores(spans):
    targets = _wrapped(spans)
    originals = [getattr(obj, attr) for obj, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        replaced = [getattr(obj, attr) is not fn for (obj, attr), fn in zip(targets, originals)]
    finally:
        tracer.uninstall()
    assert all(replaced)
    for (obj, attr), fn in zip(targets, originals):
        assert getattr(obj, attr) is fn, f"{obj.__name__}.{attr}"
