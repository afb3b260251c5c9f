"""Every name the traced benchmark wraps still exists in hbinom.

`perfbench/tracer.py` is loaded from its file and only its `TARGETS` table is
read; nothing is installed.  `tracer.install()` stops at the first target it
cannot find, so a renamed or removed function or operator breaks every
traced run.  A method must be defined on its class itself, since the tracer
reads it from the class `__dict__`."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name,path,span", TARGETS,
                         ids=[f"{m}:{p}" for m, p, _ in TARGETS])
def test_traced_target_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name)), path
    else:
        assert callable(getattr(owner, path, None)), path
