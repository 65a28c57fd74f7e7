"""Locating the package under test and fingerprinting the machine.

The benchmark always measures the ``otsske`` sources of the checkout it
sits in (``<root>/src``), never an installed copy, and every result carries
the fingerprint below so that two results can only be compared when they
ran on the same backend.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


class MissingSourceError(RuntimeError):
    """The checkout holds no importable ``src/otsske``."""


def check_sources() -> None:
    if not (SRC / "otsske" / "__init__.py").is_file():
        raise MissingSourceError(f"no otsske sources under {SRC}")


def import_package():
    """Import ``otsske`` from this checkout's ``src`` directory."""
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import otsske

    if Path(otsske.__file__).resolve().parent != SRC / "otsske":
        raise MissingSourceError(f"otsske imported from {otsske.__file__}, not from {SRC}")
    return otsske


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the package's Python sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "otsske").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fingerprint(backend_name: str) -> dict:
    from otsske.backend import available_backends

    return {
        "backend": backend_name,
        "available_backends": list(available_backends()),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
    }
