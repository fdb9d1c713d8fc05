"""CPU-only convolutional mixer for scene classification.

Layout convention for all image-shaped arrays is (n, y, x, c): sample,
row, column, channel, row-major. float32 is the working dtype; float64
is used only for gradient checking.

Heavy submodules are loaded lazily so the CLI can pin BLAS thread counts
before numpy is first imported.
"""

__version__ = "0.1.0"

_SUBMODULES = (
    "numerics",
    "fileio",
    "layers",
    "model",
    "train",
    "metrics",
    "analyzer",
    "data",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
