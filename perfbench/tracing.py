"""Span tracing of otsske's layers from outside the package.

:class:`Tracer` wraps the public functions of ``backend``, ``groups``,
``scheme`` and ``protocol`` while it is active.  Each wrapped name is
patched where callers look it up: module attributes (``scheme.pair`` as
well as ``groups.pair``, because ``scheme`` imported the name), class
attributes, and the attributes of the backend module, which
``SourceElement`` resolves on every call.  Leaving the ``with`` block
restores every original object.

Spans are kept in memory as ``[name, start, end, parent, request]`` and
written out only when the run ends.  A backend call made by another backend
function (``pure.g2_decompress`` calls ``g2_mul`` for its subgroup check) is
not recorded, so backend counts are the calls the upper layers make and the
inner work stays in the caller's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from otsske import groups, protocol, scheme
from otsske.groups import SourceElement

BACKEND_TIMED = (
    "pairing", "g1_decompress", "g2_decompress", "g1_mul", "g2_mul",
    "g1_add", "g2_add", "g1_compress", "g2_compress",
)
BACKEND_COUNTED = ("gt_mul",)
ELEMENT_METHODS = ("exp", "mul", "deserialize", "serialize")
SCHEME_FUNCS = (
    "gen_session", "sign_compressed", "sign_full", "verify_compressed", "verify_full",
    "index_point", "prp_select", "decode_signature", "encode_session_store",
    "decode_session_store",
)
PROTOCOL_SPANS = (
    (protocol.CoProcessor, "generate_next"),
    (protocol.ObliviousBuffer, "read"),
    (protocol.RAEnclave, "handle"),
    (protocol, "quote_encode"),
    (protocol, "quote_decode"),
    (protocol.RemoteVerifier, "verify"),
)
VERIFY_SPANS = ("scheme.verify_compressed", "scheme.verify_full")
SIGN_SPANS = ("scheme.sign_compressed", "scheme.sign_full")

# Which end-to-end metric each layer should move, and on which workload.
# The roles behind each metric name are listed in workloads.ROLES; for
# example latency_ms.p50 is verify_ms on `verify` and store_load_ms on
# `provision`.
MOVES = {
    "backend.pairing": "latency_ms+throughput on verify, latency_ms on attest, nothing on provision",
    "backend.g1_decompress": "latency_ms on provision and attest",
    "backend.g2_decompress": "latency_ms on provision and attest",
    "backend.g1_mul": "prepare_ms on provision, throughput on attest, latency_ms on verify",
    "backend.g2_mul": "prepare_ms on provision, throughput on attest, latency_ms on verify",
    "backend.g1_add": "latency_ms on verify",
    "backend.g2_add": "prepare_ms on verify and provision",
    "backend.g1_compress": "store save on provision (printed, not in the result)",
    "backend.g2_compress": "store save on provision (printed, not in the result)",
    "groups.SourceElement.exp": "prepare_ms on verify, latency_ms on provision",
    "groups.SourceElement.mul": "prepare_ms on verify, latency_ms on provision",
    "groups.SourceElement.deserialize": "latency_ms on provision and attest",
    "groups.SourceElement.serialize": "encoding on every workload (printed, not in the result)",
    "groups.hash_to_scalar": "prepare_ms and latency_ms on verify",
    "scheme.gen_session": "prepare_ms on provision and attest",
    "scheme.sign_compressed": "prepare_ms on verify",
    "scheme.verify_compressed": "latency_ms on verify and attest",
    "scheme.encode_session_store": "store save on provision (printed, not in the result)",
    "scheme.decode_session_store": "latency_ms on provision",
    "protocol.CoProcessor.generate_next": "prepare_ms and throughput on attest",
    "protocol.ObliviousBuffer.read": "latency_ms on attest",
    "protocol.RemoteVerifier.verify": "latency_ms on attest",
}


def targets(backend) -> list[tuple]:
    """(owner, attribute, span name, is backend) for every name a traced run patches."""
    out = [(backend, op, f"backend.{op}", True) for op in BACKEND_TIMED + BACKEND_COUNTED]
    for owner in (groups, scheme):
        out.append((owner, "pair", "groups.pair", False))
        out.append((owner, "hash_to_scalar", "groups.hash_to_scalar", False))
    out += [(SourceElement, m, f"groups.SourceElement.{m}", False) for m in ELEMENT_METHODS]
    out += [(scheme, f, f"scheme.{f}", False) for f in SCHEME_FUNCS]
    for owner, attr in PROTOCOL_SPANS + ((protocol.CoProcessor, "fetch_session"),):
        out.append((owner, attr, _protocol_name(owner, attr), False))
    return out


def current(owner, attr: str):
    """The object stored under ``attr``: a class's own descriptor, or a module attribute."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _protocol_name(owner, attr: str) -> str:
    return f"protocol.{attr}" if owner is protocol else f"protocol.{owner.__name__}.{attr}"


class Tracer:
    """Context manager that records spans around every wrapped call."""

    def __init__(self, backend, clock=time.perf_counter):
        self.backend = backend
        self.clock = clock
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._in_backend = False
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str, is_backend: bool):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if is_backend and self._in_backend:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.request])
            stack.append(index)
            self._in_backend = is_backend
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_backend = False
                stack.pop()
                spans[index][2] = clock()

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, is_backend in targets(self.backend):
                raw = current(owner, attr)
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, is_backend)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, is_backend))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(names, span)) for span in self.spans], fh)


def span_tree_errors(spans: list[list]) -> list[str]:
    """Problems that make a span list not a well-formed tree (empty when fine)."""
    errors = []
    for index, (name, start, end, parent, request) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {index} ({name}) is not closed")
            continue
        if parent is None:
            continue
        if not 0 <= parent < index:
            errors.append(f"span {index} ({name}) has parent {parent} that does not precede it")
            continue
        pname, pstart, pend, _, prequest = spans[parent]
        if pend is None or not pstart <= start <= end <= pend:
            errors.append(f"span {index} ({name}) lies outside its parent {parent} ({pname})")
        if prequest != request:
            errors.append(f"span {index} ({name}) has request {request}, its parent {prequest}")
    return errors


def _enclosing(spans: list[list], index: int, names: tuple[str, ...]) -> int | None:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return None


def summarize(spans: list[list]) -> dict:
    """Calls, self time and total time per span name, plus pairing structure."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[index]
        total_s[name] += end - start
    pairs_in = defaultdict(int)
    for index, span in enumerate(spans):
        if span[0] == "groups.pair":
            owner = _enclosing(spans, index, VERIFY_SPANS + SIGN_SPANS)
            if owner is not None:
                pairs_in[owner] += 1
    per_verify = [pairs_in[i] for i, s in enumerate(spans) if s[0] in VERIFY_SPANS]
    per_sign = [pairs_in[i] for i, s in enumerate(spans) if s[0] in SIGN_SPANS]
    return {"calls": calls, "self_s": self_s, "total_s": total_s,
            "pairs_per_verify": per_verify, "pairs_per_sign": per_sign}


def per_layer_metrics(summary: dict, overhead_ratio: float, factor: float) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json, as {name: (value, unit)}.

    Times are multiplied by ``factor``, the run's speed factor.
    """
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    out = {}

    def timed(name):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3 * factor, "ms")

    for op in BACKEND_TIMED:
        timed(f"backend.{op}")
    for op in BACKEND_COUNTED:
        out[f"backend.{op}.calls"] = (calls[f"backend.{op}"], "count")
    out["groups.pair.calls"] = (calls["groups.pair"], "count")
    for method in ELEMENT_METHODS:
        timed(f"groups.SourceElement.{method}")
    timed("groups.hash_to_scalar")
    for func in SCHEME_FUNCS:
        timed(f"scheme.{func}")
    for owner, attr in PROTOCOL_SPANS:
        timed(_protocol_name(owner, attr))
    out["protocol.CoProcessor.fetch_session.wait_ms"] = (
        total_s["protocol.CoProcessor.fetch_session"] * 1e3 * factor, "ms")
    requests = calls["protocol.RAEnclave.handle"]
    out["attest.g2_decompress_per_request"] = (
        calls["backend.g2_decompress"] / requests if requests else 0.0, "ratio")
    verifies = summary["pairs_per_verify"]
    out["verify.pair_calls_per_verify"] = (sum(verifies) / len(verifies) if verifies else 0.0, "ratio")
    out["sign.pair_calls"] = (sum(summary["pairs_per_sign"]), "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def structural_errors(summary: dict) -> list[str]:
    """The paper's cost claims: exactly 3 pairings per verify and none per sign."""
    errors = []
    bad = sorted(set(n for n in summary["pairs_per_verify"] if n != 3))
    if bad:
        errors.append(f"verify made {bad} pairings instead of 3")
    if any(summary["pairs_per_sign"]):
        errors.append(f"sign made {sum(summary['pairs_per_sign'])} pairings instead of 0")
    return errors
