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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from .errors import DecodeError, ParameterError, RepresentationError
from .groups import (
    GroupParams,
    Scalar,
    SourceElement,
    TAG_EOT,
    TAG_MESSAGE_HASH,
    TAG_PRP,
    aux_generator,
    check_security_level,
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

# A store load regenerates each session's t*n matrix from n scalars, so the
# store's size does not bound its work; this does, over all its sessions.
# It admits one session at t = 2^16, n = 4, the largest-radix t^n = 2^64
# point that is built in practice.
MAX_STORE_SUBKEYS = 2**18


# ----------------------------------------------------------------- types


@dataclass(frozen=True)
class SchemeParams:
    """Scheme dimensions: N signing sessions of n symbols in radix t."""

    sessions: int
    symbols: int
    radix: int
    security_level: int = 256

    def __post_init__(self) -> None:
        check_security_level(self.security_level)
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
    """Universal verification key, shared by every session.

    Only ``g1`` (dual) and ``h`` (second group only) are key material; the
    base points ``g`` and ``g2`` are fixed constants of the group.

    Every session multiplies ``h`` by its r, and every verify multiplies
    ``g1``'s second side by an index.  So the key builds a fixed-base comb
    table for each of the two points on its first use of it, and keeps it
    for as long as the key lives.
    """

    group: GroupParams
    g1: SourceElement
    h: SourceElement

    @property
    def g(self) -> SourceElement:
        return generator(self.group)

    @property
    def g2(self) -> SourceElement:
        return aux_generator(self.group)

    @cached_property
    def _h_table(self):
        return self.group.backend.g2_table(self.h.second)

    @cached_property
    def _g1_table(self):
        return self.group.backend.g2_table(self.g1.second)


@dataclass(frozen=True)
class MasterSecret:
    alpha: Scalar
    g2_alpha: SourceElement  # g2^alpha, precomputed for session generation


@dataclass(frozen=True)
class SessionKeyMaterial:
    """One session's n x t subkey matrix plus its published aux value.

    ``r`` and the n ``betas`` determine the rest (see ``gen_session``), so
    they are all that the session store keeps.  They stay out of ``repr``,
    and the co-processor's buffer copies ``subkeys`` alone.
    """

    session: int
    subkeys: tuple[tuple[SourceElement, ...], ...]  # [symbol][digit]
    aux: SourceElement
    r: Scalar = field(repr=False)
    betas: tuple[Scalar, ...] = field(repr=False)


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

    ``g1 = g^alpha`` for a random nonzero alpha, on both sides because it
    is a left pairing argument and a factor of the index point.  ``h =
    g^rho`` for a random rho that is immediately discarded, so its discrete
    log is known to no one; it only enters the index point, so it lives on
    the second-group side alone.
    """
    group = group or setup(params.security_level)
    alpha = random_nonzero_scalar(rng)
    rho = random_nonzero_scalar(rng)
    return _keys(group, alpha, generator(group).second_only().exp(rho))


def _keys(group: GroupParams, alpha: Scalar, h: SourceElement) -> tuple[PublicKey, MasterSecret]:
    """The public key g1 = g^alpha, h and the master secret of alpha."""
    pk = PublicKey(group, generator(group).exp(alpha), h)
    return pk, MasterSecret(alpha, pk.g2.exp(alpha))


def index_point(pk: PublicKey, k: Scalar) -> SourceElement:
    """Map an index scalar into the second source group: g1^k * h, with
    g1^k on the key's comb table of g1."""
    backend = pk.group.backend
    point = backend.g2_add(backend.g2_table_mul(pk._g1_table, k), pk.h.second)
    return SourceElement(pk.group, None, point)


def _session_randomness(params: SchemeParams, rng) -> tuple[Scalar, tuple[Scalar, ...]]:
    # draw order is fixed: r first, then the n-1 free beta values; r = 0
    # would make aux the identity and every subset's sum the same point
    r = random_nonzero_scalar(rng)
    return r, _blinding_exponents([random_scalar(rng) for _ in range(params.symbols - 1)])


def _blinding_exponents(free: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """beta_1..beta_n from the n-1 free ones: beta_n makes them sum to 0."""
    return (*free, -sum(free) % ORDER)


def _generator_terms(
    pk: PublicKey, params: SchemeParams, master: MasterSecret, session: int, r: Scalar, betas: Sequence[Scalar]
) -> tuple[list[tuple], tuple]:
    """The matrix's G2-generator multiples, in one ``g2_mul_many`` call.

    Since g1 = g^alpha, (g1^k)^r = g^(alpha r k).  So row j's blinding point
    v_j = g^beta_j takes the session offset (g1^(i t^n))^r as
    g^(beta_j + alpha r i t^n), and the first row step (g1^n)^r is
    g^(alpha r n).  Returns the n offset blinding points and that step.
    """
    ar = master.alpha * r
    offset = ar * session * params.space
    scalars = [(beta + offset) % ORDER for beta in betas] + [ar * params.symbols % ORDER]
    points = pk.group.backend.g2_mul_many(pk.g.second, scalars)
    return points[:-1], points[-1]


def _subkey_matrix(
    pk: PublicKey,
    master: MasterSecret,
    r: Scalar,
    blinding: Sequence[tuple],
    step: tuple,
    t: int,
) -> tuple[tuple[SourceElement, ...], ...]:
    """Fill the n x t matrix: entry (j, b) = g2^a * (g1^(i*t^n + b*n*t^j) h)^r * v_j.

    Requires pk.g1 = g^alpha for alpha = master.alpha.  Then every g1 power
    is a generator multiple that ``_generator_terms`` already folded into
    ``blinding`` (the offset v_j) and ``step`` (g^(alpha r n)), and h^r is
    read from the key's comb table of h: row j starts at head_j = C * v_j
    with C = g2^a * h^r, and entry (j, b) is head_j + b*S_j, with S_0 =
    step and S_(j+1) = t*S_j.  So each row is t-1 group additions instead
    of t exponentiations.  The n steps come from one ``g2_steps`` chain,
    and the rows advance side by side, one column per ``g2_add_many``
    call: each call shares one inversion.
    """
    backend = pk.group.backend
    c = backend.g2_add(master.g2_alpha.second, backend.g2_table_mul(pk._h_table, r))
    columns = [backend.g2_add_many([c] * len(blinding), blinding)]
    steps = backend.g2_steps(step, t, len(blinding))
    for _ in range(t - 1):
        columns.append(backend.g2_add_many(columns[-1], steps))
    return tuple(tuple(SourceElement(pk.group, None, column[j]) for column in columns) for j in range(len(blinding)))


def gen_session(
    pk: PublicKey,
    master: MasterSecret,
    params: SchemeParams,
    session: int,
    rng,
    phase_sink: Callable[[str], None] | None = None,
) -> SessionKeyMaterial:
    """Generate one session's key material.

    Requires pk.g1 = g^alpha for alpha = master.alpha, as ``keygen_setup``
    makes it and ``decode_session_store`` checks it: the g1 powers of the
    matrix are then computed as multiples of the G2 generator (see
    ``_subkey_matrix``).  The session's r and betas are kept in the
    material, for the store alone; the co-processor's buffer, the
    processor and the log never see them.

    ``phase_sink``, when given, is called with the name of each phase as it
    ends: ``"v"`` (drawing r and the betas, then the n offset blinding
    points and the first row step, all on the G2 generator's comb),
    ``"aux"`` (g^r) and ``"sk"`` (h^r on the key's table of h, the row
    heads and the row walk).
    The benchmark times the phases of a call with it, so that the phase
    times and the call's total come from the same run.
    """
    if not 0 <= session < params.sessions:
        raise ParameterError(f"session {session} outside [0, {params.sessions})")
    r, betas = _session_randomness(params, rng)
    return _session_material(pk, master, params, session, r, betas, phase_sink)


def _session_material(
    pk: PublicKey,
    master: MasterSecret,
    params: SchemeParams,
    session: int,
    r: Scalar,
    betas: tuple[Scalar, ...],
    mark: Callable[[str], None] | None = None,
) -> SessionKeyMaterial:
    """The session that r and the n betas determine: ``gen_session`` builds
    it from fresh draws and ``decode_session_store`` from stored ones, so a
    loaded session is the generated one by construction."""
    mark = mark or (lambda _phase: None)
    blinding, step = _generator_terms(pk, params, master, session, r, betas)
    mark("v")
    aux = SourceElement(pk.group, pk.group.backend.g1_mul(pk.g.first, r), None)
    mark("aux")
    subkeys = _subkey_matrix(pk, master, r, blinding, step, params.radix)
    mark("sk")
    return SessionKeyMaterial(session, subkeys, aux, r, betas)


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
    """Product of one selected subkey per symbol position.

    Subkeys live on the second-group side, and their n points are summed in
    one ``g2_sum`` call, which shares one inversion across the sum.
    """
    if len(subkeys) != params.symbols:
        raise ParameterError(f"expected {params.symbols} subkeys, got {len(subkeys)}")
    points = [sk.second for sk in subkeys]
    if None in points:
        raise RepresentationError("subkey has no second-group representation")
    group = subkeys[0].params
    return SourceElement(group, None, group.backend.g2_sum(points))


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
) -> CompressedSignature:
    """Deterministic signature: the released material itself.

    The binding to the message lives entirely in the selection.  No
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
    """Check e(g, z) = e(g1, g2^n) * e(y, (g1^k h)^n); exactly 3 pairings.

    By bilinearity the check runs as e(g, z) = e(g1^n, g2) * e(y^n, g1^k h):
    both multiplications by n are on the first-group side, the right
    argument g2 is a constant whose Miller-loop lines the backend reads
    from a table, and g1^k h is ``index_point``.  An identity y, which no
    honest session has, is rejected before any pairing.
    """
    if not 0 <= session < params.sessions or sig.y.is_identity():
        return False
    n = params.symbols
    sel = _selection_for(params, sig, message, selection)
    k = encode_index(params, session, sel.value)
    lhs = pair(pk.g, sig.z)
    rhs = pair(pk.g1.first_only().exp(n), pk.g2).mul(pair(sig.y.exp(n), index_point(pk, k)))
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
    """The parameters, then g1 (144 bytes, dual) and h (96 bytes)."""
    ints = [params.security_level, params.sessions, params.symbols, params.radix]
    fields = [struct.pack(">Q", v) for v in ints]
    fields += [pk.g1.serialize(), pk.h.serialize()]
    return _pack_fields(fields)


def _read_public_key(
    data: bytes, backend: str | None
) -> tuple[SchemeParams, GroupParams, bytes, SourceElement]:
    """Parse a public key's parameters and decode its h, which must not be
    the identity; the g1 field is returned undecoded."""
    reader = _FieldReader(data)
    security, sessions, symbols, radix = (reader.take_int() for _ in range(4))
    try:
        params = SchemeParams(sessions=sessions, symbols=symbols, radix=radix, security_level=security)
        group = setup(security, backend=backend)
    except ParameterError as exc:
        raise DecodeError(str(exc)) from exc
    g1, h = reader.take(144), reader.take(96)
    reader.finish()
    h = SourceElement.deserialize(group, h)
    if h.is_identity():
        raise DecodeError("h is the identity")
    return params, group, g1, h


def decode_public_key(data: bytes, backend: str | None = None) -> tuple[SchemeParams, PublicKey]:
    """Decode a public key whose g1 = (G1^a, G2^c) has a = c != 0 and whose
    h is not the identity.

    With g1 the identity, y = g and z = h^n verify for every message and
    session, so such a key is refused.  The sides are compared as
    e(g1_1, G2) == e(G1, g1_2): two pairing terms, the first on the
    generator's Miller-loop line table, and one final exponentiation.
    """
    params, group, g1, h = _read_public_key(data, backend)
    pk = PublicKey(group, SourceElement.deserialize(group, g1), h)
    if pk.g1.is_identity():
        raise DecodeError("g1 is the identity")
    if pair(pk.g1, pk.g) != pair(pk.g, pk.g1):
        raise DecodeError("the two sides of g1 disagree")
    return params, pk


def check_store_size(params: SchemeParams, sessions: int) -> None:
    """Refuse, with :class:`ParameterError`, a store of this many sessions
    whose load would regenerate more than ``MAX_STORE_SUBKEYS`` subkeys."""
    if sessions * params.subkey_count > MAX_STORE_SUBKEYS:
        raise ParameterError(
            f"a store holds at most {MAX_STORE_SUBKEYS} subkeys, "
            f"not {sessions} x {params.subkey_count} (sessions x t * n)"
        )


def encode_session_store(
    params: SchemeParams,
    pk: PublicKey,
    master: MasterSecret,
    materials: Sequence[SessionKeyMaterial],
) -> bytes:
    """Secret-side store: public key, master exponent and, per session, what
    determines it: its index, its r and its n-1 free betas.

    The public key rides along because ``h`` has no stored exponent and
    cannot be rebuilt from the master secret.  Each session is stored at
    most once, and only one that ``params`` has room for; a store that
    ``check_store_size`` refuses is not written.
    """
    check_store_size(params, len(materials))
    sessions = [material.session for material in materials]
    for session in sessions:
        if not 0 <= session < params.sessions:
            raise ParameterError(f"session {session} outside [0, {params.sessions})")
    if len(set(sessions)) != len(sessions):
        raise ParameterError("a session is stored more than once")
    fields = [encode_public_key(params, pk)]
    fields.append(master.alpha.to_bytes(32, "big"))
    fields.append(struct.pack(">Q", len(materials)))
    for material in materials:
        fields.append(struct.pack(">Q", material.session))
        fields.append(material.r.to_bytes(32, "big"))
        fields.append(b"".join(beta.to_bytes(32, "big") for beta in material.betas[:-1]))
    return _pack_fields(fields)


def decode_session_store(
    data: bytes, backend: str | None = None
) -> tuple[SchemeParams, PublicKey, MasterSecret, list[SessionKeyMaterial]]:
    """Decode a store written by ``encode_session_store``.

    The embedded key's g1 field must equal the encoding of g^alpha, byte for
    byte, for the stored exponent alpha: g1 is computed, never decoded, so
    the check needs no square root, subgroup check or pairing.  Per
    session, 0 < r < order and every stored beta lies in [0, order); the
    session is then regenerated from them by the code ``gen_session`` runs,
    so it is honest by construction.  A store that holds one session index
    twice, one whose h is the identity, or one that ``check_store_size``
    refuses (before any session is regenerated) is rejected with
    :class:`DecodeError`; so is a store in the former layout, which held
    each session's aux and n*t subkeys, as its 48-byte aux field is not r.
    """
    reader = _FieldReader(data)
    params, group, g1_bytes, h = _read_public_key(reader.take(), backend)
    alpha = int.from_bytes(reader.take(32), "big")
    if not 0 < alpha < ORDER:
        raise DecodeError("master exponent out of range")
    count = reader.take_int()
    try:
        check_store_size(params, count)
    except ParameterError as exc:
        raise DecodeError(str(exc)) from exc
    # g1 = g^alpha on both sides, or the stored key and exponent disagree
    pk, master = _keys(group, alpha, h)
    if pk.g1.serialize() != g1_bytes:
        raise DecodeError("master exponent does not match the public key")
    materials = []
    for _ in range(count):
        session = reader.take_int()
        if session >= params.sessions:
            raise DecodeError("stored session index out of range")
        if any(material.session == session for material in materials):
            raise DecodeError(f"session {session} is stored more than once")
        r = int.from_bytes(reader.take(32), "big")
        if not 0 < r < ORDER:
            raise DecodeError(f"session {session}'s r is out of range")
        free = reader.take(32 * (params.symbols - 1))
        betas = [int.from_bytes(free[i : i + 32], "big") for i in range(0, len(free), 32)]
        if any(beta >= ORDER for beta in betas):
            raise DecodeError(f"session {session}'s betas are out of range")
        materials.append(_session_material(pk, master, params, session, r, _blinding_exponents(betas)))
    reader.finish()
    return params, pk, master, materials
