"""Arithmetic backend selection.

Two interchangeable implementations of the BLS12-381 group operations are
provided: a compiled C extension (``native``) for speed and a pure-Python
module (``pure``) that works without a compiler and serves as the reference
the tests compare the compiled one against.  The default is the
fastest one that imports; ``OTSSKE_BACKEND`` overrides the choice.
``NATIVE_STATUS`` says whether the compiled one loaded, and why not.
"""

from __future__ import annotations

import os
from types import ModuleType

from . import pure

_BACKENDS: dict[str, ModuleType] = {"pure": pure}

try:
    from . import _core  # compiled extension, optional

    _BACKENDS["native"] = _core
    NATIVE_STATUS = "native backend loaded"
except ImportError as exc:  # pragma: no cover - depends on the build environment
    NATIVE_STATUS = f"native backend not available: {exc}"
except Exception as exc:  # noqa: BLE001 - a stale build fails its init with any error
    # The extension exists but its init failed (a missing constant, the
    # pairing self-check): fall back to pure and keep the reason visible.
    NATIVE_STATUS = f"native backend failed its init, using pure: {type(exc).__name__}: {exc}"


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def load_backend(name: str | None = None) -> ModuleType:
    """Return a backend module by name, or the configured default."""
    if name is None:
        name = os.environ.get("OTSSKE_BACKEND")
    if name is None:
        name = "native" if "native" in _BACKENDS else "pure"
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}") from None
