"""Attestation flow built on the session signature scheme.

Actors
------
* :class:`CoProcessor` - isolated key generator.  Strictly one-directional:
  it takes no inputs from the rest of the system, it only emits per-session
  key material through a read-once :class:`ObliviousBuffer` and publishes
  the session's aux value.
* :class:`RAEnclave` - the signer.  Derives a request-specific selector,
  reads exactly one subkey subset from the buffer (erasing the rest) and
  emits a :class:`Quote`.
* :class:`RemoteVerifier` - issues nonces and checks quotes; re-derives
  the selection from its own nonce, so a quote only verifies against the
  exact request that produced it.

Everything that crosses the processor boundary is mirrored into an
:class:`AdversaryLog`, which models an observer that sees all digital
state.  The forgery harness replays that log through a catalogue of
attack strategies.
"""

from __future__ import annotations

import struct
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import scheme
from .errors import (
    BufferCorruptionError,
    DecodeError,
    ParameterError,
    ProtocolError,
    SessionBudgetError,
    SessionConsumedError,
)
from .groups import (
    DeterministicRandomness,
    GroupParams,
    SourceElement,
    TAG_MEASUREMENT,
    TAG_PROTOCOL_MESSAGE,
    TAG_PROTOCOL_X,
    tagged_hash,
)
from .scheme import (
    CompressedSignature,
    IndexSelection,
    PublicKey,
    SchemeParams,
    SessionKeyMaterial,
)

QUOTE_VERSION = 1
NONCE_BYTES = 16
# version, counter, signer and application measurements, result length
_QUOTE_HEADER = struct.Struct(">BQ32s32sQ")


# ------------------------------------------------------------ measurements


@dataclass(frozen=True)
class Measurement:
    """Digest identifying an enclave's code and configuration."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ParameterError("measurements are 32 bytes")


def measure(descriptor: bytes) -> Measurement:
    """Deterministic 256-bit measurement of an enclave descriptor."""
    return Measurement(tagged_hash(TAG_MEASUREMENT, [descriptor]))


def protocol_message(raenc_mr: Measurement, app_mr: Measurement, result: bytes) -> bytes:
    """The signed message: a digest binding both measurements to the result."""
    return tagged_hash(TAG_PROTOCOL_MESSAGE, [raenc_mr.digest, app_mr.digest, result])


def selector_input(nonce: bytes, message: bytes) -> bytes:
    """The request-specific value x = Hash(nonce, message)."""
    return tagged_hash(TAG_PROTOCOL_X, [nonce, message])


# --------------------------------------------------------------- ADSO log


@dataclass(frozen=True)
class SessionKeyEvent:
    session: int  # 0-based scheme index; its quote's label is session + 1
    aux: SourceElement


@dataclass(frozen=True)
class MemoryReadEvent:
    session: int
    x: bytes
    caller: Measurement
    selection: IndexSelection
    subkeys: tuple[SourceElement, ...]


@dataclass(frozen=True)
class RequestEvent:
    nonce: bytes
    result: bytes
    app_mr: Measurement


@dataclass(frozen=True)
class QuoteEvent:
    quote: "Quote"


@dataclass(frozen=True)
class SessionView:
    """Everything the observer has collected about one signing session."""

    session: int
    aux: SourceElement
    x: bytes
    caller: Measurement
    selection: IndexSelection
    subkeys: tuple[SourceElement, ...]
    nonce: bytes
    quote: "Quote"
    message: bytes


class AdversaryLog:
    """Append-only record of every value visible outside the co-processor.

    Never contains master-secret internals or unread buffer slots; it does
    contain every released subkey subset, aux value, nonce and quote.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list = []

    def append(self, event) -> None:
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def session_views(self) -> dict[int, SessionView]:
        """Correlate events into one view per completed session.

        Each quote answers the last request logged before it: a request
        that failed (say, with no session ready) logged no quote.
        """
        events = self.events
        aux_by_session = {e.session: e for e in events if isinstance(e, SessionKeyEvent)}
        reads = {e.session: e for e in events if isinstance(e, MemoryReadEvent)}
        views: dict[int, SessionView] = {}
        request = None
        for event in events:
            if isinstance(event, RequestEvent):
                request = event
            if not isinstance(event, QuoteEvent) or request is None:
                continue
            quote = event.quote
            session = quote.counter - 1
            if session not in aux_by_session or session not in reads:
                continue
            read = reads[session]
            views[session] = SessionView(
                session=session,
                aux=aux_by_session[session].aux,
                x=read.x,
                caller=read.caller,
                selection=read.selection,
                subkeys=read.subkeys,
                nonce=request.nonce,
                quote=quote,
                message=protocol_message(quote.raenc_mr, quote.app_mr, quote.result),
            )
        return views


# --------------------------------------------------------- oblivious memory


_ERASED = None


class ObliviousBuffer:
    """Read-once holder for one session's q = t*n subkeys.

    Slots hold the co-processor's own points: they never leave the trusted
    side, so a read serves them as they are, with no decoding.  The first
    read serves exactly the subset selected by the caller's request and
    erases everything else; any further read fails.
    """

    def __init__(self, params: SchemeParams, session: int, material: SessionKeyMaterial):
        self.session = session
        self.consumed = False
        self._params = params
        self._slots: list[Optional[SourceElement]] = [
            material.subkeys[j][b]
            for j in range(params.symbols)
            for b in range(params.radix)
        ]

    def read(
        self, x: bytes, caller: Measurement, log: AdversaryLog | None = None
    ) -> tuple[tuple[SourceElement, ...], IndexSelection]:
        if self.consumed:
            raise SessionConsumedError(f"session {self.session} already served its one read")
        selection = scheme.eot_select(self._params, x, caller.digest)
        picked = []
        for index in selection.indices:
            slot = self._slots[index]
            if slot is _ERASED:
                raise BufferCorruptionError(f"slot {index} erased before first read")
            picked.append(slot)
        keep = set(selection.indices)
        for index in range(len(self._slots)):
            if index not in keep:
                self._slots[index] = _ERASED
        self.consumed = True
        subkeys = tuple(picked)
        if log is not None:
            log.append(MemoryReadEvent(self.session, x, caller, selection, subkeys))
        return subkeys, selection

    def erased_indices(self) -> tuple[int, ...]:
        return tuple(i for i, slot in enumerate(self._slots) if slot is _ERASED)


# -------------------------------------------------------------- coprocessor


class CoProcessor:
    """Key-generation side: counter, master secret and the sessions not yet fetched."""

    def __init__(self, params: SchemeParams, rng, group: GroupParams | None = None,
                 log: AdversaryLog | None = None):
        self.params = params
        self.pk, self._master = scheme.keygen_setup(params, rng, group=group)
        self.counter = 0  # sessions generated so far; quote labels are 1-based
        self._ready: deque[tuple[int, ObliviousBuffer, SourceElement]] = deque()
        self.log = log

    def generate_next(self, rng) -> int:
        """Generate the next session, load its buffer, publish its aux.

        The session waits, oldest first, for :meth:`fetch_session`, so a
        caller may generate several ahead.  Returns the session's 1-based
        label.  Raises :class:`SessionBudgetError` once all sessions are
        spent, leaving the state untouched.
        """
        session = self.counter  # scheme indices are 0-based
        if session >= self.params.sessions:
            raise SessionBudgetError(f"all {self.params.sessions} sessions generated")
        material = scheme.gen_session(self.pk, self._master, self.params, session, rng)
        self.counter += 1
        if self.log is not None:
            self.log.append(SessionKeyEvent(session, material.aux))
        self._ready.append((self.counter, ObliviousBuffer(self.params, session, material), material.aux))
        return self.counter

    def fetch_session(self) -> tuple[int, ObliviousBuffer, SourceElement]:
        """The signer's read of {aux, ctr}: the oldest session not yet fetched."""
        try:
            return self._ready.popleft()
        except IndexError:
            raise ProtocolError("no generated session available") from None


# ------------------------------------------------------------------ quotes


@dataclass(frozen=True)
class Quote:
    """Attestation response: session label, signature body, measurements, result."""

    counter: int
    y: SourceElement
    z: SourceElement
    raenc_mr: Measurement
    app_mr: Measurement
    result: bytes


def quote_encode(quote: Quote) -> bytes:
    header = _QUOTE_HEADER.pack(
        QUOTE_VERSION, quote.counter, quote.raenc_mr.digest, quote.app_mr.digest, len(quote.result)
    )
    return header + quote.result + quote.y.serialize() + quote.z.serialize()


def quote_decode(group: GroupParams, data: bytes) -> Quote:
    if len(data) < _QUOTE_HEADER.size:
        raise DecodeError("quote too short")
    version, counter, raenc_mr, app_mr, rlen = _QUOTE_HEADER.unpack_from(data)
    if version != QUOTE_VERSION:
        raise DecodeError(f"unsupported quote version {version}")
    pos = _QUOTE_HEADER.size + rlen
    if len(data) != pos + 48 + 96:
        raise DecodeError("quote length does not match its result field")
    y = SourceElement.deserialize(group, data[pos : pos + 48])
    z = SourceElement.deserialize(group, data[pos + 48 :])
    return Quote(counter=counter, y=y, z=z, raenc_mr=Measurement(raenc_mr), app_mr=Measurement(app_mr),
                 result=data[_QUOTE_HEADER.size : pos])


# ----------------------------------------------------------------- signer


@dataclass(frozen=True)
class AttestationRequest:
    """A verifier nonce plus the application output to be attested."""

    nonce: bytes
    result: bytes
    app_mr: Measurement

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_BYTES:
            raise ParameterError(f"nonce must be {NONCE_BYTES} bytes")


class RAEnclave:
    """Signing enclave; combined measurement covers signer and application."""

    def __init__(self, pk: PublicKey, params: SchemeParams, measurement: Measurement):
        self.pk = pk
        self.params = params
        self.measurement = measurement

    def handle(
        self,
        coproc: CoProcessor,
        request: AttestationRequest,
        log: AdversaryLog | None = None,
    ) -> Quote:
        """Serve one attestation request, consuming one session."""
        if log is not None:
            log.append(RequestEvent(request.nonce, request.result, request.app_mr))
        message = protocol_message(self.measurement, request.app_mr, request.result)
        x = selector_input(request.nonce, message)
        counter, buffer, aux = coproc.fetch_session()
        subkeys, selection = buffer.read(x, self.measurement, log=log)
        sig = scheme.sign_compressed(self.pk, self.params, buffer.session, subkeys, selection, aux)
        quote = Quote(
            counter=counter,
            y=sig.y,
            z=sig.z,
            raenc_mr=self.measurement,
            app_mr=request.app_mr,
            result=request.result,
        )
        if log is not None:
            log.append(QuoteEvent(quote))
        return quote


# --------------------------------------------------------------- verifier


def user_verify(pk: PublicKey, params: SchemeParams, quote: Quote, nonce: bytes) -> bool:
    """Cryptographic quote check against the verifier's own nonce.

    Rebuilds the signed message from the quote fields, re-derives the
    subset selection from (nonce, message, signer measurement) and runs
    the compressed verification for the quoted session, which rejects a
    label outside 1..N.
    """
    message = protocol_message(quote.raenc_mr, quote.app_mr, quote.result)
    x = selector_input(nonce, message)
    selection = scheme.eot_select(params, x, quote.raenc_mr.digest)
    sig = CompressedSignature(y=quote.y, z=quote.z, key=x)
    return scheme.verify_compressed(
        pk, params, quote.counter - 1, sig, message, selection=selection
    )


class RemoteVerifier:
    """Nonce issuance plus freshness policy on top of :func:`user_verify`.

    Each issued nonce admits at most one accepted quote; unknown or spent
    nonces are rejected outright.
    """

    def __init__(self, pk: PublicKey, params: SchemeParams):
        self.pk = pk
        self.params = params
        self._issued: set[bytes] = set()
        self._spent: set[bytes] = set()

    def new_nonce(self, rng) -> bytes:
        nonce = rng.random_bytes(NONCE_BYTES)
        self._issued.add(nonce)
        return nonce

    def make_request(self, rng, result: bytes, app_mr: Measurement) -> AttestationRequest:
        return AttestationRequest(nonce=self.new_nonce(rng), result=result, app_mr=app_mr)

    def verify(self, quote: Quote, nonce: bytes) -> bool:
        if nonce not in self._issued or nonce in self._spent:
            return False
        ok = user_verify(self.pk, self.params, quote, nonce)
        if ok:
            self._spent.add(nonce)
        return ok


# ------------------------------------------------------------ demo driver


@dataclass
class ProtocolRun:
    params: SchemeParams
    pk: PublicKey
    log: AdversaryLog
    transcript: list[tuple[str, str]]
    verdicts: list[bool]
    quotes: list[Quote]
    nonces: list[bytes]

    @property
    def all_verified(self) -> bool:
        return bool(self.verdicts) and all(self.verdicts)

    def transcript_text(self) -> str:
        return "".join(f"{kind} {payload}\n" for kind, payload in self.transcript)


def run_protocol(
    params: SchemeParams,
    seed: int | bytes,
    sessions: int,
    group: GroupParams | None = None,
) -> ProtocolRun:
    """Drive the full flow for a number of sessions under a fixed seed.

    Each round generates one session, issues one request, has the enclave
    serve it and verifies the quote from its bytes.  Key generation draws
    from one forked rng stream and the verifier from another.
    """
    if not 1 <= sessions <= params.sessions:
        raise ParameterError(f"requested {sessions} sessions; 1 to {params.sessions} are provisioned")
    root = DeterministicRandomness(seed)
    keygen_rng = root.fork(b"keygen")
    request_rng = root.fork(b"requests")

    log = AdversaryLog()
    coproc = CoProcessor(params, keygen_rng, group=group, log=log)
    enclave_mr = measure(b"otsske demo enclave (signer+app combined)")
    enclave = RAEnclave(coproc.pk, params, enclave_mr)
    verifier = RemoteVerifier(coproc.pk, params)

    transcript: list[tuple[str, str]] = []
    verdicts: list[bool] = []
    quotes: list[Quote] = []
    nonces: list[bytes] = []
    for index in range(sessions):
        coproc.generate_next(keygen_rng)
        request = verifier.make_request(request_rng, b"app result %d" % index, enclave_mr)
        nonce = request.nonce
        transcript.append(("REQ", nonce.hex()))
        quote = enclave.handle(coproc, request, log=log)
        encoded = quote_encode(quote)
        transcript.append(("QUOTE", encoded.hex()))
        verdict = verifier.verify(quote_decode(coproc.pk.group, encoded), nonce)
        transcript.append(("VERDICT", "true" if verdict else "false"))
        verdicts.append(verdict)
        quotes.append(quote)
        nonces.append(nonce)

    return ProtocolRun(
        params=params,
        pk=coproc.pk,
        log=log,
        transcript=transcript,
        verdicts=verdicts,
        quotes=quotes,
        nonces=nonces,
    )


# --------------------------------------------------------- forgery harness


@dataclass(frozen=True)
class ForgeryAttempt:
    strategy: str
    session: int
    outcome: str  # "verified" | "rejected" | "insufficient"
    detail: str

    @property
    def verified(self) -> bool:
        return self.outcome == "verified"


_STRATEGIES = ("replay", "re-aggregation", "cross-session-substitution", "mix-and-match", "same-message-resign")
GAME_MESSAGES = 4  # new messages the security game tries to forge per session


def adversary_forge_attempts(
    log: AdversaryLog,
    pk: PublicKey,
    params: SchemeParams,
    session: int,
    new_message: bytes,
    rng=None,
) -> list[ForgeryAttempt]:
    """Run the forgery catalogue against one session using only logged values.

    Strategies (a)-(d) target ``new_message``; strategy (e) re-signs the
    session's own logged message, which the scheme deliberately allows.
    """
    views = log.session_views()
    view = views.get(session)
    if view is None:
        return [
            ForgeryAttempt(name, session, "insufficient", "no completed session in the log")
            for name in _STRATEGIES
        ]
    rng = rng or DeterministicRandomness(b"forgery-harness")

    # the verifier-side derivation for the forged message, keeping the
    # logged nonce (the adversary cannot influence a fresh verifier nonce)
    x_star = selector_input(view.nonce, new_message)
    selection_star = scheme.eot_select(params, x_star, view.caller.digest)
    attempts: list[ForgeryAttempt] = []
    # at toy parameters (small t^n) the new message can select the logged
    # subset, in which case the released material legitimately signs it
    collision = " [selection collision]" if selection_star.value == view.selection.value else ""

    def check_compressed(y: SourceElement, z: SourceElement) -> bool:
        sig = CompressedSignature(y=y, z=z, key=x_star)
        return scheme.verify_compressed(pk, params, session, sig, new_message, selection=selection_star)

    # (a) replay the logged quote body against the new message
    ok = check_compressed(view.quote.y, view.quote.z)
    attempts.append(ForgeryAttempt(
        "replay", session, "verified" if ok else "rejected",
        "logged signature body presented for a different message" + collision,
    ))

    # (b) re-aggregate the leaked subset for the selection the new message
    # demands: one subkey per position was released, so the best the
    # adversary has is that subset, lacking each position whose digit differs
    missing = sum(a != b for a, b in zip(selection_star.digits, view.selection.digits))
    ok = check_compressed(view.aux, scheme.aggregate(params, view.subkeys))
    attempts.append(ForgeryAttempt(
        "re-aggregation", session, "verified" if ok else "rejected",
        f"{missing} of {params.symbols} required subkeys were never released" + collision,
    ))

    # (c)/(d) cross-session material, if another session leaked
    others = [v for s, v in sorted(views.items()) if s != session]
    if not others:
        attempts.append(ForgeryAttempt("cross-session-substitution", session, "insufficient", "only one session logged"))
        attempts.append(ForgeryAttempt("mix-and-match", session, "insufficient", "only one session logged"))
    else:
        other = others[0]
        ok = check_compressed(view.aux, other.quote.z)
        attempts.append(ForgeryAttempt(
            "cross-session-substitution", session, "verified" if ok else "rejected",
            f"aggregate borrowed from session {other.session}",
        ))
        ok = check_compressed(other.aux, view.quote.z)
        attempts.append(ForgeryAttempt(
            "mix-and-match", session, "verified" if ok else "rejected",
            f"aux from session {other.session} with this session's aggregate",
        ))

    # (e) fresh randomized signature for the already-signed message
    resigned = scheme.sign_full(
        pk, params, session, view.subkeys, view.selection, view.aux, view.message, rng
    )
    ok = scheme.verify_full(pk, params, session, resigned, view.message, selection=view.selection)
    attempts.append(ForgeryAttempt(
        "same-message-resign", session, "verified" if ok else "rejected",
        "fresh signature over the logged subset for the logged message (allowed)",
    ))
    return attempts


@dataclass
class GameReport:
    attempts: list[ForgeryAttempt]

    @property
    def new_message_attempts(self) -> list[ForgeryAttempt]:
        return [a for a in self.attempts if a.strategy != "same-message-resign" and a.outcome != "insufficient"]

    @property
    def same_message_attempts(self) -> list[ForgeryAttempt]:
        return [a for a in self.attempts if a.strategy == "same-message-resign" and a.outcome != "insufficient"]

    @property
    def sound(self) -> bool:
        """True when every new-message attempt failed and re-signing succeeded."""
        news = self.new_message_attempts
        sames = self.same_message_attempts
        return (
            bool(news)
            and all(not a.verified for a in news)
            and bool(sames)
            and all(a.verified for a in sames)
        )

    def lines(self) -> list[str]:
        out = []
        for a in self.attempts:
            status = {"verified": "verified", "rejected": "rejected", "insufficient": "insufficient material"}[a.outcome]
            allowed = " (allowed)" if a.strategy == "same-message-resign" and a.verified else ""
            out.append(f"session {a.session:2d}  {a.strategy:28s} {status}{allowed}  [{a.detail}]")
        return out


def run_security_game(params: SchemeParams, seed: int | bytes) -> GameReport:
    """Honest run over all sessions, then the forgery catalogue per session
    against each of ``GAME_MESSAGES`` new messages."""
    run = run_protocol(params, seed, params.sessions)
    if not run.all_verified:
        raise ProtocolError("honest run failed; game preconditions not met")
    harness_rng = DeterministicRandomness(seed).fork(b"game")
    attempts: list[ForgeryAttempt] = []
    for session in range(params.sessions):
        for index in range(GAME_MESSAGES):
            target = b"forged result %d for session %d" % (index, session)
            new_message = protocol_message(
                measure(b"malicious enclave"), measure(b"malicious app"), target
            )
            per = adversary_forge_attempts(run.log, run.pk, params, session, new_message, rng=harness_rng)
            if index:
                per = [a for a in per if a.strategy != "same-message-resign"]
            attempts.extend(per)
    return GameReport(attempts)
