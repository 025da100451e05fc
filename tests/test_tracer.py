"""The benchmark tracer (``perfbench/tracer.py``) wraps ciph functions at the
names their callers look them up by. A name it wraps that ciph no longer
binds breaks every traced benchmark run, and one it fails to put back leaks
its wrapper into later calls; only a traced run would show either, so this
installs and restores the tracer directly. It is loaded by file path, so no
``perfbench`` package is imported."""

import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> list:
    """Every loaded ciph module and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "ciph" or name.startswith("ciph.")]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("ciph")}
    return [*modules, *classes.values()]


def test_install_then_restore_puts_every_original_back():
    tracer = load_tracer().Tracer()  # loading it imports the ciph modules it wraps
    before = [(owner, dict(vars(owner))) for owner in namespaces()]
    tracer.install()  # an AttributeError here names a binding ciph lost
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} is not wrapped"
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"
    # a method restored onto a class that inherits it becomes an own
    # attribute there, so names are looked up as the class resolves them
    for owner, names in before:
        moved = [k for k, v in names.items() if not k.startswith("__") and inspect.getattr_static(owner, k) is not v]
        assert moved == [], owner.__name__
