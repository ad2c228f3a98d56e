"""numpy, imported on the first attribute read: the package's one numpy boundary.

Modules bind it with ``from . import _numpy as np``.  Reading ``np.<name>``
imports numpy and caches that name here, so a path that reads no ``np.``
attribute (classify, and discord or decompose on a normal form) never loads
numpy.
"""

import importlib


def __getattr__(name: str):
    value = globals()[name] = getattr(importlib.import_module("numpy"), name)
    return value
