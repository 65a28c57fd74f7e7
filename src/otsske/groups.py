"""Pairing-group abstraction used by the signature scheme.

The construction is written for a symmetric pairing; this layer realises
it over an asymmetric (type-3) curve.  A :class:`SourceElement` carries an
optional first-group point (usable as a left pairing argument) and an
optional second-group point (usable as a right pairing argument), and
holds only the sides its equations read: the generator ``g`` and the
master public value ``g1`` are *dual* (one copy in each source group,
raised to the same exponent), every other element has one side.  Group
law operations act on whichever sides both operands carry.

All hashing into the scalar field is domain-tagged and length-prefixed,
and randomness is injected through a small generator interface so
protocol runs can be replayed deterministically in tests.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from types import ModuleType
from typing import Iterable, Optional, Sequence

from . import backend as backend_registry
from . import params as curve
from .errors import DecodeError, RepresentationError, UnsupportedSecurityLevelError

Scalar = int

TAG_MESSAGE_HASH = b"OTSSKE/H"
TAG_PRP = b"OTSSKE/PRP"
TAG_MEASUREMENT = b"OTSSKE/MR"
TAG_EOT = b"OTSSKE/EOT"
TAG_PROTOCOL_MESSAGE = b"OTSSKE/MSG"
TAG_PROTOCOL_X = b"OTSSKE/X"

_G1_BYTES = 48
_G2_BYTES = 96
_DUAL_BYTES = _G1_BYTES + _G2_BYTES


# --------------------------------------------------------------- randomness


class SystemRandomness:
    """OS-entropy generator for production use."""

    def random_bytes(self, n: int) -> bytes:
        return os.urandom(n)

    def fork(self, label: bytes) -> "SystemRandomness":
        return self


class DeterministicRandomness:
    """Seeded SHA-256 counter stream; replayable and forkable.

    ``fork`` derives an independent stream for a named role (key
    generator, requests), so what one role draws does not shift the values
    another role sees.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big", signed=True)
        self._key = hashlib.sha256(b"OTSSKE/RNG" + seed).digest()
        self._counter = 0
        self._buffer = b""

    def random_bytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def fork(self, label: bytes) -> "DeterministicRandomness":
        return DeterministicRandomness(self._key + label)


# ----------------------------------------------------------- group params


@dataclass(frozen=True, repr=False)
class GroupParams:
    """Published pairing parameters for one security level."""

    security_level: int
    backend: ModuleType = field(compare=False)

    @property
    def backend_name(self) -> str:
        return self.backend.NAME

    def __repr__(self) -> str:
        return f"GroupParams(security_level={self.security_level}, backend={self.backend_name!r})"


def check_security_level(security_level: int) -> None:
    """Raise :class:`UnsupportedSecurityLevelError` for a level with no curve."""
    if security_level not in curve.SUPPORTED_SECURITY_LEVELS:
        raise UnsupportedSecurityLevelError(
            f"unsupported security level {security_level}; supported: {curve.SUPPORTED_SECURITY_LEVELS}"
        )


def setup(security_level: int, backend: str | None = None) -> GroupParams:
    """Return the fixed group parameters for a supported security level.

    Deterministic: the curve constants are published values, nothing is
    sampled.  Raises :class:`UnsupportedSecurityLevelError` otherwise.
    """
    check_security_level(security_level)
    return GroupParams(security_level, backend_registry.load_backend(backend))


# -------------------------------------------------------- pairing counter


class _PairingCounter:
    """Counts pairing evaluations; used by the structural-cost checks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def increment(self) -> None:
        with self._lock:
            self._count += 1

    def read(self) -> int:
        with self._lock:
            return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0


_COUNTER = _PairingCounter()


def pairing_counter() -> int:
    return _COUNTER.read()


def reset_pairing_counter() -> None:
    _COUNTER.reset()


# ------------------------------------------------------------- elements


@dataclass(frozen=True)
class SourceElement:
    """Element of the (conceptual) source group.

    ``first``/``second`` hold affine points in the two underlying groups,
    or ``None`` when the element is not carried on that side.  The empty
    tuple is the point at infinity (the group identity).
    """

    params: GroupParams = field(compare=False)
    first: Optional[tuple]
    second: Optional[tuple]

    def __post_init__(self) -> None:
        if self.first is None and self.second is None:
            raise RepresentationError("element carries no representation at all")

    def is_identity(self) -> bool:
        ok = True
        if self.first is not None:
            ok = ok and not self.first
        if self.second is not None:
            ok = ok and not self.second
        return ok

    def mul(self, other: "SourceElement") -> "SourceElement":
        """Group operation, on the sides both operands carry."""
        b = self.params.backend
        first = second = None
        if self.first is not None and other.first is not None:
            first = b.g1_add(self.first, other.first)
        if self.second is not None and other.second is not None:
            second = b.g2_add(self.second, other.second)
        if first is None and second is None:
            raise RepresentationError("operands share no source-group side")
        return SourceElement(self.params, first, second)

    def exp(self, k: Scalar) -> "SourceElement":
        b = self.params.backend
        k %= curve.ORDER
        first = b.g1_mul(self.first, k) if self.first is not None else None
        second = b.g2_mul(self.second, k) if self.second is not None else None
        return SourceElement(self.params, first, second)

    def first_only(self) -> "SourceElement":
        if self.first is None:
            raise RepresentationError("element has no first-group representation")
        return SourceElement(self.params, self.first, None)

    def second_only(self) -> "SourceElement":
        if self.second is None:
            raise RepresentationError("element has no second-group representation")
        return SourceElement(self.params, None, self.second)

    def serialize(self) -> bytes:
        """Canonical compressed encoding; dual elements concatenate both sides."""
        b = self.params.backend
        out = b""
        if self.first is not None:
            out += b.g1_compress(self.first)
        if self.second is not None:
            out += b.g2_compress(self.second)
        return out

    @classmethod
    def deserialize(cls, params: GroupParams, data: bytes) -> "SourceElement":
        """Decode by length (48 first-only, 96 second-only, 144 dual).

        Rejects wrong lengths, invalid or non-canonical encodings, points
        off the curve and points outside the prime-order subgroups.
        """
        b = params.backend
        try:
            if len(data) == _G1_BYTES:
                return cls(params, b.g1_decompress(data), None)
            if len(data) == _G2_BYTES:
                return cls(params, None, b.g2_decompress(data))
            if len(data) == _DUAL_BYTES:
                return cls(params, b.g1_decompress(data[:_G1_BYTES]), b.g2_decompress(data[_G1_BYTES:]))
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
        raise DecodeError(f"source element must be 48, 96 or 144 bytes, got {len(data)}")


@dataclass(frozen=True, eq=False)
class TargetElement:
    """Element of the pairing target group, kept as a product of pairing terms.

    ``terms`` holds one ``(first-group point, second-group point)`` pair per
    factor ``e(P, Q)``, and nothing is computed until the element is read:
    ``==`` evaluates ``lhs / rhs`` as one Miller loop over the terms of both
    sides with one final exponentiation.  Equality costs pairing work, so
    elements are unhashable.
    """

    params: GroupParams
    terms: tuple

    __hash__ = None

    def mul(self, other: "TargetElement") -> "TargetElement":
        return TargetElement(self.params, self.terms + other.terms)

    @property
    def value(self) -> tuple:
        """The finalized product, a flat 12-tuple of the backend's GT."""
        b = self.params.backend
        return b.final_exp(b.multi_miller_loop(self.terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetElement):
            return NotImplemented
        # e(-P, Q) = e(P, Q)^-1, so lhs == rhs iff the product of rhs and
        # the negated lhs terms finalizes to 1
        b = self.params.backend
        quotient = TargetElement(self.params, tuple((b.g1_neg(p), q) for p, q in self.terms) + other.terms)
        return quotient.value == b.GT_ONE


def pair(a: SourceElement, b: SourceElement) -> TargetElement:
    """Bilinear map, as a one-term product; ``a`` must carry a first-group side, ``b`` a second."""
    if a.first is None:
        raise RepresentationError("left pairing argument lacks a first-group representation")
    if b.second is None:
        raise RepresentationError("right pairing argument lacks a second-group representation")
    _COUNTER.increment()
    return TargetElement(a.params, ((a.first, b.second),))


# fixed base points -----------------------------------------------------


def generator(params: GroupParams) -> SourceElement:
    """The dual-represented source generator g."""
    return SourceElement(params, curve.G1_GENERATOR, curve.G2_GENERATOR)


def aux_generator(params: GroupParams) -> SourceElement:
    """Independent second-group base point with unknown discrete log."""
    return SourceElement(params, None, curve.G2_AUX_GENERATOR)


# ------------------------------------------------------------- hashing


def _length_prefixed(tag: bytes, parts: Iterable[bytes]) -> bytes:
    buf = len(tag).to_bytes(8, "big") + tag
    for part in parts:
        buf += len(part).to_bytes(8, "big") + part
    return buf


def hash_to_scalar(tag: bytes, parts: Sequence[bytes]) -> Scalar:
    """Domain-tagged hash onto the scalar field.

    512 bits of digest material are reduced mod the 255-bit order, leaving
    a negligible (~2^-257) deviation from uniform.
    """
    digest = hashlib.sha512(_length_prefixed(tag, parts)).digest()
    return int.from_bytes(digest, "big") % curve.ORDER


def tagged_hash(tag: bytes, parts: Sequence[bytes]) -> bytes:
    """Domain-tagged 256-bit digest for measurements and protocol values."""
    return hashlib.sha256(_length_prefixed(tag, parts)).digest()


def random_scalar(rng) -> Scalar:
    """Uniform scalar in [0, order); 128 bits of reduction margin."""
    material = rng.random_bytes((curve.ORDER.bit_length() + 128 + 7) // 8)
    return int.from_bytes(material, "big") % curve.ORDER


def random_nonzero_scalar(rng) -> Scalar:
    while True:
        k = random_scalar(rng)
        if k:
            return k
