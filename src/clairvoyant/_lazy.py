"""numpy, imported the first time one of its attributes is read.

The exact solvers run on Python ints and Fractions, so a command that uses
only them never needs numpy.  Every module of the package takes ``np``
from here.  When numpy is already imported, ``np`` is numpy.  Otherwise
``np`` is registered as ``sys.modules["numpy"]`` by
`importlib.util.LazyLoader`, and its first attribute read runs numpy's
import in place, after which ``np`` is numpy.  Any attribute counts,
``__spec__`` and ``__version__`` included, so a plain ``import numpy``
loads it too.  ``type(np) is types.ModuleType`` tells whether numpy has
run, without loading it.
"""

import importlib.util
import sys


def _numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    # None when numpy is not installed, or when sys.modules["numpy"] is
    # None, which blocks its import
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _numpy()
