"""Session-based one-time signatures that stay unforgeable under key leakage.

Each signing session owns a matrix of t subkeys for each of n symbol
positions.  A message selects, through a keyed hash, one subkey per
position; only that subset is ever released, and the aggregated subset is
the heart of the signature.  Leaking every released subset does not allow
signing any other message, because a different message selects a
different subset with overwhelming probability and the missing subkeys
cannot be reconstructed.

Two signature variants exist:

* full: randomized (x, y, z) triple, verified with three pairings;
* compressed: the released material itself, ``(aux, aggregated subkey)``,
  costing zero pairings to sign and exactly three to verify.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DecodeError, ParameterError
from .groups import (
    GroupParams,
    Scalar,
    SourceElement,
    TAG_EOT,
    TAG_MESSAGE_HASH,
    TAG_PRP,
    aux_generator,
    generator,
    hash_to_scalar,
    pair,
    random_nonzero_scalar,
    random_scalar,
    setup,
)
from .params import ORDER

SIG_TAG_FULL = 0x01
SIG_TAG_COMPRESSED = 0x02


# ----------------------------------------------------------------- types


@dataclass(frozen=True)
class SchemeParams:
    """Scheme dimensions: N signing sessions of n symbols in radix t."""

    sessions: int
    symbols: int
    radix: int
    security_level: int = 256

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ParameterError("need at least one session")
        if self.symbols < 1:
            raise ParameterError("need at least one symbol position")
        if self.radix < 2:
            raise ParameterError("radix must be at least 2")
        # t >= 2 makes t^n >= 2^n > ORDER from here on; checking first keeps
        # an untrusted symbol count from making t^n unboundedly expensive
        if self.symbols >= ORDER.bit_length() or self.sessions * self.radix**self.symbols >= ORDER:
            raise ParameterError("N * t^n must stay below the group order for index injectivity")

    @property
    def subkey_count(self) -> int:
        """Subkeys held per session (q = t*n)."""
        return self.radix * self.symbols

    @property
    def space(self) -> int:
        """Number of selectable subsets per session (t^n)."""
        return self.radix**self.symbols


@dataclass(frozen=True)
class PublicKey:
    """Universal verification key, shared by every session."""

    group: GroupParams
    g: SourceElement
    g1: SourceElement
    g2: SourceElement
    h: SourceElement


@dataclass(frozen=True)
class MasterSecret:
    alpha: Scalar
    g2_alpha: SourceElement  # g2^alpha, precomputed for session generation


@dataclass(frozen=True)
class SessionSecrets:
    """Generation transients, retained only when explicitly requested."""

    r: Scalar
    betas: tuple[Scalar, ...]


@dataclass(frozen=True)
class SessionKeyMaterial:
    """One session's n x t subkey matrix plus its published aux value."""

    session: int
    subkeys: tuple[tuple[SourceElement, ...], ...]  # [symbol][digit]
    aux: SourceElement
    secrets: Optional[SessionSecrets] = None


@dataclass(frozen=True)
class IndexSelection:
    """A selected subset: one subkey index per symbol position."""

    value: int
    digits: tuple[int, ...]
    indices: tuple[int, ...]
    key: bytes


@dataclass(frozen=True)
class FullSignature:
    x: SourceElement
    y: SourceElement
    z: SourceElement
    key: bytes


@dataclass(frozen=True)
class CompressedSignature:
    y: SourceElement
    z: SourceElement
    key: bytes


Signature = FullSignature | CompressedSignature


# ----------------------------------------------------------- key generation


def keygen_setup(
    params: SchemeParams, rng, group: GroupParams | None = None
) -> tuple[PublicKey, MasterSecret]:
    """Generate the universal public key and the master secret.

    ``g`` and ``g2`` are fixed base points; ``g1 = g^alpha`` for a random
    nonzero alpha and ``h = g^rho`` for a random rho that is immediately
    discarded, so neither discrete log is known to anyone.
    """
    group = group or setup(params.security_level)
    g = generator(group)
    g2 = aux_generator(group)
    alpha = random_nonzero_scalar(rng)
    g1 = g.exp(alpha)
    rho = random_nonzero_scalar(rng)
    h = g.exp(rho)
    return PublicKey(group, g, g1, g2, h), MasterSecret(alpha, g2.exp(alpha))


def index_point(pk: PublicKey, k: Scalar) -> SourceElement:
    """Map an index scalar into the source group: g1^k * h."""
    return pk.g1.exp(k).mul(pk.h)


def _session_randomness(params: SchemeParams, rng) -> tuple[Scalar, tuple[Scalar, ...]]:
    # draw order is fixed: r first, then the n-1 free beta values
    r = random_scalar(rng)
    betas = [random_scalar(rng) for _ in range(params.symbols - 1)]
    betas.append(-sum(betas) % ORDER)
    return r, tuple(betas)


def _blinding_points(pk: PublicKey, betas: Sequence[Scalar]) -> list[tuple]:
    # v_j = g^beta_j, needed only on the second-group side
    backend = pk.group.backend
    base = pk.g.second
    return [backend.g2_mul(base, beta) for beta in betas]


def _aux_element(pk: PublicKey, r: Scalar) -> SourceElement:
    return SourceElement(pk.group, pk.group.backend.g1_mul(pk.g.first, r), None)


def _subkey_matrix(
    pk: PublicKey,
    params: SchemeParams,
    master: MasterSecret,
    session: int,
    r: Scalar,
    blinding: Sequence[tuple],
) -> tuple[tuple[SourceElement, ...], ...]:
    """Fill the n x t matrix: entry (j, b) = g2^a * (g1^(i*t^n + b*n*t^j) h)^r * v_j.

    The g1/h powers of r are computed once and reused; walking b in order
    turns each row into t-1 group additions instead of t exponentiations.
    """
    backend = pk.group.backend
    group = pk.group
    n, t = params.symbols, params.radix
    w = backend.g2_mul(pk.g1.second, r)  # (g1^r)
    hr = backend.g2_mul(pk.h.second, r)  # (h^r)
    base = backend.g2_add(master.g2_alpha.second, hr)
    base = backend.g2_add(base, backend.g2_mul(w, session * params.space % ORDER))
    rows = []
    step = backend.g2_mul(w, n % ORDER)  # w^(n * t^0)
    for j in range(n):
        entry = backend.g2_add(base, blinding[j])
        row = [entry]
        for _ in range(t - 1):
            entry = backend.g2_add(entry, step)
            row.append(entry)
        rows.append(tuple(SourceElement(group, None, point) for point in row))
        step = backend.g2_mul(step, t)  # w^(n * t^(j+1))
    return tuple(rows)


def gen_session(
    pk: PublicKey,
    master: MasterSecret,
    params: SchemeParams,
    session: int,
    rng,
    retain_secrets: bool = False,
    phase_sink: Callable[[str], None] | None = None,
) -> SessionKeyMaterial:
    """Generate one session's key material.

    The generation transients (r and the blinding exponents) are dropped
    unless ``retain_secrets`` is set; retaining them exists for tests that
    check the subkey structure against the defining equation.

    ``phase_sink``, when given, is called with the name of each phase as it
    ends: ``"v"`` (blinding points), ``"aux"`` and ``"sk"`` (subkey matrix).
    The benchmark times the phases of a call with it, so that the phase
    times and the call's total come from the same run.
    """
    if not 0 <= session < params.sessions:
        raise ParameterError(f"session {session} outside [0, {params.sessions})")
    mark = phase_sink or (lambda _phase: None)
    r, betas = _session_randomness(params, rng)
    blinding = _blinding_points(pk, betas)
    mark("v")
    aux = _aux_element(pk, r)
    mark("aux")
    subkeys = _subkey_matrix(pk, params, master, session, r, blinding)
    mark("sk")
    secrets = SessionSecrets(r, betas) if retain_secrets else None
    return SessionKeyMaterial(session=session, subkeys=subkeys, aux=aux, secrets=secrets)


# ------------------------------------------------------------- index coding


def encode_index(params: SchemeParams, session: int, value: int) -> Scalar:
    """Combined session/subset index k = i*t^n + B; injective by construction."""
    if not 0 <= session < params.sessions:
        raise ParameterError(f"session {session} outside [0, {params.sessions})")
    if not 0 <= value < params.space:
        raise ParameterError(f"subset value {value} outside [0, t^n)")
    return session * params.space + value


def decompose(params: SchemeParams, value: int) -> tuple[int, ...]:
    """Little-endian radix-t digits of a subset value."""
    if not 0 <= value < params.space:
        raise ParameterError(f"subset value {value} outside [0, t^n)")
    digits = []
    for _ in range(params.symbols):
        digits.append(value % params.radix)
        value //= params.radix
    return tuple(digits)


def recompose(params: SchemeParams, digits: Sequence[int]) -> int:
    if len(digits) != params.symbols:
        raise ParameterError("digit count must equal the symbol count")
    value = 0
    for digit in reversed(digits):
        if not 0 <= digit < params.radix:
            raise ParameterError("digit outside [0, t)")
        value = value * params.radix + digit
    return value


def _selection_from_scalar(params: SchemeParams, scalar: Scalar, key: bytes) -> IndexSelection:
    value = scalar % params.space
    digits = decompose(params, value)
    indices = tuple(params.radix * j + b for j, b in enumerate(digits))
    return IndexSelection(value=value, digits=digits, indices=indices, key=key)


def prp_select(params: SchemeParams, key: bytes, message: bytes) -> IndexSelection:
    """Derive the subset a message selects under a signing key.

    The keyed hash output is truncated to the low n*log2(t) bits (reduced
    mod t^n), matching the subset space.
    """
    return _selection_from_scalar(params, hash_to_scalar(TAG_PRP, [key, message]), key)


def eot_select(params: SchemeParams, x: bytes, caller_digest: bytes) -> IndexSelection:
    """Subset derivation used by the oblivious key memory: binds the
    requesting enclave's measurement into the selection."""
    return _selection_from_scalar(params, hash_to_scalar(TAG_EOT, [x, caller_digest]), x)


def subkeys_at(material: SessionKeyMaterial, selection: IndexSelection) -> tuple[SourceElement, ...]:
    """Pick the selected subkey from each symbol position."""
    return tuple(material.subkeys[j][b] for j, b in enumerate(selection.digits))


def aggregate(params: SchemeParams, subkeys: Sequence[SourceElement]) -> SourceElement:
    """Product of one selected subkey per symbol position."""
    if len(subkeys) != params.symbols:
        raise ParameterError(f"expected {params.symbols} subkeys, got {len(subkeys)}")
    acc = subkeys[0]
    for sk in subkeys[1:]:
        acc = acc.mul(sk)
    return acc


# -------------------------------------------------------------- signing


def sign_full(
    pk: PublicKey,
    params: SchemeParams,
    session: int,
    subkeys: Sequence[SourceElement],
    selection: IndexSelection,
    aux: SourceElement,
    message: bytes,
    rng,
) -> FullSignature:
    """Randomized signature: x = g2^(n*s), y = aux^(n*(s+u)), z = sk^(s+u).

    Resamples s in the measure-zero event s + u = 0, which would otherwise
    degenerate y and z to the identity.
    """
    n = params.symbols
    sk_prod = aggregate(params, subkeys)
    while True:
        s = random_scalar(rng)
        x = pk.g2.exp(n * s)
        u = hash_to_scalar(TAG_MESSAGE_HASH, [message, x.serialize()])
        e = (s + u) % ORDER
        if e:
            break
    y = aux.exp(n * e)
    z = sk_prod.exp(e)
    return FullSignature(x=x, y=y, z=z, key=selection.key)


def sign_compressed(
    pk: PublicKey,
    params: SchemeParams,
    session: int,
    subkeys: Sequence[SourceElement],
    selection: IndexSelection,
    aux: SourceElement,
    message: bytes | None = None,
) -> CompressedSignature:
    """Deterministic signature: the released material itself.

    The binding to the message lives entirely in the selection, so the
    message parameter is accepted only for interface symmetry.  No
    randomness and no pairings are consumed.
    """
    return CompressedSignature(y=aux, z=aggregate(params, subkeys), key=selection.key)


# ------------------------------------------------------------ verification


def _selection_for(params: SchemeParams, sig: Signature, message: bytes,
                   selection: Optional[IndexSelection]) -> IndexSelection:
    return selection if selection is not None else prp_select(params, sig.key, message)


def verify_full(
    pk: PublicKey,
    params: SchemeParams,
    session: int,
    sig: FullSignature,
    message: bytes,
    selection: Optional[IndexSelection] = None,
) -> bool:
    """Check e(g, z) = e(g1, g2^(n*u) * x) * e(y, (g1^k h)) for k = i*t^n + B.

    Also rejects the degenerate s + u = 0 case, visible as
    g2^(n*u) * x being the identity.
    """
    if not 0 <= session < params.sessions:
        return False
    n = params.symbols
    u = hash_to_scalar(TAG_MESSAGE_HASH, [message, sig.x.serialize()])
    blinded = pk.g2.exp(n * u).mul(sig.x)
    if blinded.is_identity():
        return False
    sel = _selection_for(params, sig, message, selection)
    k = encode_index(params, session, sel.value)
    lhs = pair(pk.g, sig.z)
    rhs = pair(pk.g1, blinded).mul(pair(sig.y, index_point(pk, k)))
    return lhs == rhs


def verify_compressed(
    pk: PublicKey,
    params: SchemeParams,
    session: int,
    sig: CompressedSignature,
    message: bytes,
    selection: Optional[IndexSelection] = None,
) -> bool:
    """Check e(g, z) = e(g1, g2^n) * e(y, (g1^k h)^n); exactly 3 pairings."""
    if not 0 <= session < params.sessions:
        return False
    n = params.symbols
    sel = _selection_for(params, sig, message, selection)
    k = encode_index(params, session, sel.value)
    lhs = pair(pk.g, sig.z)
    rhs = pair(pk.g1, pk.g2.exp(n)).mul(pair(sig.y, index_point(pk, k).exp(n)))
    return lhs == rhs


def verify_signature_bytes(
    pk: PublicKey, params: SchemeParams, session: int, data: bytes, message: bytes
) -> bool:
    """Decode-and-verify; malformed encodings count as rejection."""
    try:
        sig = decode_signature(pk.group, data)
    except DecodeError:
        return False
    if isinstance(sig, FullSignature):
        return verify_full(pk, params, session, sig, message)
    return verify_compressed(pk, params, session, sig, message)


# ---------------------------------------------------------------- codecs
# Every serialized object is a sequence of length-prefixed fields
# (8-byte big-endian length, then the bytes) in declaration order;
# integers are 8-byte big-endian within their field.


def _pack_fields(fields: Sequence[bytes]) -> bytes:
    return b"".join(struct.pack(">Q", len(f)) + f for f in fields)


class _FieldReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, expect: int | None = None) -> bytes:
        if self._pos + 8 > len(self._data):
            raise DecodeError("truncated field header")
        (length,) = struct.unpack_from(">Q", self._data, self._pos)
        self._pos += 8
        if self._pos + length > len(self._data):
            raise DecodeError("truncated field body")
        body = self._data[self._pos : self._pos + length]
        self._pos += length
        if expect is not None and length != expect:
            raise DecodeError(f"field of {length} bytes where {expect} expected")
        return body

    def take_int(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


def encode_signature(sig: Signature) -> bytes:
    if isinstance(sig, FullSignature):
        tag = SIG_TAG_FULL
        fields = [sig.x.serialize(), sig.y.serialize(), sig.z.serialize(), sig.key]
    elif isinstance(sig, CompressedSignature):
        tag = SIG_TAG_COMPRESSED
        fields = [sig.y.serialize(), sig.z.serialize(), sig.key]
    else:
        raise TypeError(f"not a signature: {type(sig)!r}")
    return bytes([tag]) + _pack_fields(fields)


def decode_signature(group: GroupParams, data: bytes) -> Signature:
    if not data:
        raise DecodeError("empty signature")
    tag, reader = data[0], _FieldReader(data[1:])
    if tag == SIG_TAG_FULL:
        x = SourceElement.deserialize(group, reader.take(96))
        y = SourceElement.deserialize(group, reader.take(48))
        z = SourceElement.deserialize(group, reader.take(96))
        key = reader.take()
        reader.finish()
        return FullSignature(x=x, y=y, z=z, key=key)
    if tag == SIG_TAG_COMPRESSED:
        y = SourceElement.deserialize(group, reader.take(48))
        z = SourceElement.deserialize(group, reader.take(96))
        key = reader.take()
        reader.finish()
        return CompressedSignature(y=y, z=z, key=key)
    raise DecodeError(f"unknown signature tag 0x{tag:02x}")


def encode_public_key(params: SchemeParams, pk: PublicKey) -> bytes:
    ints = [params.security_level, params.sessions, params.symbols, params.radix]
    fields = [struct.pack(">Q", v) for v in ints]
    fields += [pk.g.serialize(), pk.g1.serialize(), pk.g2.serialize(), pk.h.serialize()]
    return _pack_fields(fields)


def decode_public_key(data: bytes, backend: str | None = None) -> tuple[SchemeParams, PublicKey]:
    reader = _FieldReader(data)
    security, sessions, symbols, radix = (reader.take_int() for _ in range(4))
    try:
        params = SchemeParams(sessions=sessions, symbols=symbols, radix=radix, security_level=security)
        group = setup(security, backend=backend)
    except ParameterError as exc:
        raise DecodeError(str(exc)) from exc
    # g and g2 are fixed base points that keygen_setup always emits; a key
    # carrying any other point is refused, and the constants are used as is
    g, g2 = generator(group), aux_generator(group)
    if reader.take(144) != g.serialize():
        raise DecodeError("public key base point g is not the fixed generator")
    g1 = SourceElement.deserialize(group, reader.take(144))
    if reader.take(96) != g2.serialize():
        raise DecodeError("public key base point g2 is not the fixed auxiliary generator")
    h = SourceElement.deserialize(group, reader.take(144))
    reader.finish()
    return params, PublicKey(group, g, g1, g2, h)


def encode_session_store(
    params: SchemeParams,
    pk: PublicKey,
    master: MasterSecret,
    materials: Sequence[SessionKeyMaterial],
) -> bytes:
    """Secret-side store: public key, master exponent and session material.

    The public key rides along because ``h`` has no stored exponent and
    cannot be rebuilt from the master secret.  Generation transients are
    never serialized.
    """
    fields = [encode_public_key(params, pk)]
    fields.append(master.alpha.to_bytes(32, "big"))
    fields.append(struct.pack(">Q", len(materials)))
    for material in materials:
        fields.append(struct.pack(">Q", material.session))
        fields.append(material.aux.serialize())
        flat = b"".join(
            material.subkeys[j][b].serialize()
            for j in range(params.symbols)
            for b in range(params.radix)
        )
        fields.append(flat)
    return _pack_fields(fields)


def decode_session_store(
    data: bytes, backend: str | None = None
) -> tuple[SchemeParams, PublicKey, MasterSecret, list[SessionKeyMaterial]]:
    reader = _FieldReader(data)
    params, pk = decode_public_key(reader.take(), backend=backend)
    group = pk.group
    alpha = int.from_bytes(reader.take(32), "big")
    if not 0 < alpha < ORDER:
        raise DecodeError("master exponent out of range")
    master = MasterSecret(alpha, pk.g2.exp(alpha))
    materials = []
    for _ in range(reader.take_int()):
        session = reader.take_int()
        if session >= params.sessions:
            raise DecodeError("stored session index out of range")
        aux = SourceElement.deserialize(group, reader.take(48))
        flat = reader.take(96 * params.subkey_count)
        rows = []
        for j in range(params.symbols):
            row = []
            for b in range(params.radix):
                offset = 96 * (j * params.radix + b)
                row.append(SourceElement.deserialize(group, flat[offset : offset + 96]))
            rows.append(tuple(row))
        materials.append(SessionKeyMaterial(session=session, subkeys=tuple(rows), aux=aux))
    reader.finish()
    return params, pk, master, materials
