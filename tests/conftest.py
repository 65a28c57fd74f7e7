import importlib.util
import struct
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXTENSION = ROOT / "src" / "otsske" / "backend" / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))


def _build_compiled_core():
    """Build ``otsske.backend._core`` in place when the suite runs from ``src``.

    It runs before anything imports ``otsske.backend``, because the set of
    available backends is fixed at that import.  ``build_ext`` skips the
    compile when the extension is newer than its source.  A failed build
    removes the extension left by an earlier build, so that the suite never
    tests stale code: only the pure backend loads, and
    ``test_both_backends_available`` reports it.  Returns one line for the
    report header.
    """
    spec = importlib.util.find_spec("otsske")
    if spec is None or spec.origin is None or not Path(spec.origin).resolve().is_relative_to(ROOT / "src"):
        return "compiled core: not built (otsske is not imported from src)"
    cmd = [sys.executable, "setup.py", "build_ext", "--inplace"]
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        log = out.stderr.splitlines()
        failed = [line for line in log if "UserWarning: compiled backend skipped" in line]
        if not (out.returncode or failed):
            return "compiled core: built in place by setup.py build_ext --inplace"
        reason = (failed or log or [f"exit status {out.returncode}"])[-1].strip()
    except (OSError, subprocess.TimeoutExpired) as exc:
        reason = str(exc)
    EXTENSION.unlink(missing_ok=True)
    return f"compiled core: build failed: {reason}"


BUILD_STATUS = _build_compiled_core()

from otsske import scheme  # noqa: E402 - must follow the build
from otsske.backend import NATIVE_STATUS  # noqa: E402
from otsske.groups import DeterministicRandomness, setup  # noqa: E402
from otsske.params import ORDER  # noqa: E402


def pytest_report_header(config):
    return [BUILD_STATUS, NATIVE_STATUS]


@pytest.fixture(scope="session")
def group():
    return setup(256)


@pytest.fixture(scope="session")
def toy_params():
    """Smallest exhaustively checkable configuration: t^n = 4 subsets."""
    return scheme.SchemeParams(sessions=2, symbols=2, radix=2)


@pytest.fixture(scope="session")
def medium_params():
    """Collision-safe subset space (2^32) at moderate cost."""
    return scheme.SchemeParams(sessions=4, symbols=16, radix=4)


@pytest.fixture(scope="session")
def toy_keys(toy_params, group):
    return scheme.keygen_setup(toy_params, DeterministicRandomness(101), group=group)


@pytest.fixture(scope="session")
def medium_keys(medium_params, group):
    return scheme.keygen_setup(medium_params, DeterministicRandomness(202), group=group)


@pytest.fixture(scope="session")
def old_layout_store():
    """Encodes a session store in the former layout, which held each
    session's index, 48-byte aux and n*t 96-byte subkeys, row by row."""

    def encode(params, pk, master, materials):
        fields = [scheme.encode_public_key(params, pk), master.alpha.to_bytes(32, "big"),
                  struct.pack(">Q", len(materials))]
        for material in materials:
            flat = b"".join(subkey.serialize() for row in material.subkeys for subkey in row)
            fields += [struct.pack(">Q", material.session), material.aux.serialize(), flat]
        return scheme._pack_fields(fields)

    return encode


def reuse_forger(signed):
    """(y, H, S_0) of a session from two of its compressed signatures, given
    as (selection value, signature).  Every aggregate of a session is
    H + [B]S_0, so S_0 = [(B1 - B2)^-1](z1 - z2) and H = z1 - [B1]S_0."""
    (b1, first), (b2, second) = signed
    s0 = first.z.mul(second.z.exp(-1)).exp(pow(b1 - b2, -1, ORDER))
    return first.y, first.z.mul(s0.exp(-b1)), s0


def forge(params, forger, message):
    """A compressed signature of ``message`` from ``reuse_forger``'s result."""
    y, head, s0 = forger
    selection = scheme.prp_select(params, b"forger", message)
    return scheme.CompressedSignature(y=y, z=head.mul(s0.exp(selection.value)), key=selection.key)


@pytest.fixture()
def rng():
    return DeterministicRandomness(0)


def make_rng(seed):
    return DeterministicRandomness(seed)
