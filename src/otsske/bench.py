"""Timing harness: session-signature costs against an ECDSA baseline.

Timed regions
-------------
* ``keygen.v``      blinding-factor phase: sampling the beta exponents and
                    computing the n blinding points g^beta.
* ``keygen.aux``    sampling r and computing the session's aux value g^r.
* ``keygen.sk``     filling the n x t subkey matrix.
* ``keygen.total``  one full session generation (the three phases plus glue).
* ``sign``          subset selection + compressed signing (zero pairings).
* ``verify``        compressed verification (exactly three pairings).
* ``ecdsa.*``       P-256 keygen / SHA-256 sign / verify via OpenSSL.

Absolute times are hardware- and backend-specific; the published reference
measurements (C++/MIRACL on an i7-7820HQ, SGX build) are embedded in the
report for orientation and are never asserted against.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field as dataclass_field

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from . import scheme
from .backend import available_backends
from .groups import (
    DeterministicRandomness,
    SystemRandomness,
    aux_generator,
    generator,
    pair,
    pairing_counter,
    reset_pairing_counter,
    setup,
)
from .scheme import SchemeParams

# Published reference timings (milliseconds), different hardware and library.
REFERENCE_MS = {
    "otsske.keygen.v_ms": 131.4,
    "otsske.keygen.aux_ms": 4.0,
    "otsske.keygen.sk_ms": 253.2,
    "otsske.keygen.total_ms": 388.6,
    "otsske.sign_ms": 3.4,
    "otsske.verify_ms": 127.3,
    "ecdsa.keygen_ms": 21.2,
    "ecdsa.sign_ms": 23.1,
    "ecdsa.verify_ms": 74.2,
}

MESSAGE_BYTES = 16  # 128-bit attestation messages


@dataclass(frozen=True)
class BenchConfig:
    params: SchemeParams
    repetitions: int = 100
    warmup: int = 3
    seed: int | None = None
    backend: str | None = None
    compare_backends: bool = True

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class OpStats:
    mean_ms: float
    median_ms: float
    stddev_ms: float | None  # None when only one sample was taken
    samples: int


@dataclass
class BenchReport:
    config: BenchConfig
    backend_name: str
    stats: dict[str, OpStats]
    pairing_counts: dict[str, int]
    backend_core: dict[str, dict[str, OpStats]] = dataclass_field(default_factory=dict)
    reference: dict[str, float] = dataclass_field(default_factory=lambda: dict(REFERENCE_MS))

    def to_kv(self) -> str:
        """Machine-readable key=value lines."""
        lines = [
            f"config.t={self.config.params.radix}",
            f"config.n={self.config.params.symbols}",
            f"config.N={self.config.params.sessions}",
            f"config.repetitions={self.config.repetitions}",
            f"config.backend={self.backend_name}",
        ]
        for key, stat in sorted(self.stats.items()):
            lines.append(f"{key}_ms={stat.mean_ms:.3f}")
            lines.append(f"{key}_median_ms={stat.median_ms:.3f}")
            stddev = "n/a" if stat.stddev_ms is None else f"{stat.stddev_ms:.3f}"
            lines.append(f"{key}_stddev_ms={stddev}")
        for key, count in sorted(self.pairing_counts.items()):
            lines.append(f"counts.{key}={count}")
        for name, ops in sorted(self.backend_core.items()):
            for op, stat in sorted(ops.items()):
                lines.append(f"backend.{name}.{op}_ms={stat.mean_ms:.3f}")
        for key, value in sorted(self.reference.items()):
            lines.append(f"reference.{key}={value}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Human-readable summary table."""
        rows = [
            ("keygen: blinding points", "otsske.keygen.v", "otsske.keygen.v_ms"),
            ("keygen: aux value", "otsske.keygen.aux", "otsske.keygen.aux_ms"),
            ("keygen: subkey matrix", "otsske.keygen.sk", "otsske.keygen.sk_ms"),
            ("keygen: total", "otsske.keygen.total", "otsske.keygen.total_ms"),
            ("sign (compressed)", "otsske.sign", "otsske.sign_ms"),
            ("verify (compressed)", "otsske.verify", "otsske.verify_ms"),
            ("ecdsa keygen", "ecdsa.keygen", "ecdsa.keygen_ms"),
            ("ecdsa sign", "ecdsa.sign", "ecdsa.sign_ms"),
            ("ecdsa verify", "ecdsa.verify", "ecdsa.verify_ms"),
        ]
        p = self.config.params
        head = (
            f"t={p.radix} n={p.symbols} N={p.sessions} "
            f"reps={self.config.repetitions} backend={self.backend_name}"
        )
        lines = [head, f"{'operation':28s} {'mean ms':>10s} {'median':>10s} {'stddev':>10s} {'published ref':>14s}"]
        for label, key, refkey in rows:
            stat = self.stats[key]
            stddev = "n/a" if stat.stddev_ms is None else f"{stat.stddev_ms:.2f}"
            ref = self.reference.get(refkey)
            refs = f"{ref:.1f}" if ref is not None else "-"
            lines.append(
                f"{label:28s} {stat.mean_ms:10.3f} {stat.median_ms:10.3f} {stddev:>10s} {refs:>14s}"
            )
        lines.append(
            f"pairing counts: sign={self.pairing_counts['sign_pairings']} "
            f"verify={self.pairing_counts['verify_pairings']}"
        )
        for name, ops in sorted(self.backend_core.items()):
            core = " ".join(f"{op}={stat.mean_ms:.3f}ms" for op, stat in sorted(ops.items()))
            lines.append(f"backend[{name}]: {core}")
        lines.append("published ref: different hardware/library; reported for orientation only")
        return "\n".join(lines) + "\n"


def _measure(func, repetitions: int, warmup: int) -> OpStats:
    for _ in range(warmup):
        func()
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            start = time.perf_counter_ns()
            func()
            samples.append((time.perf_counter_ns() - start) / 1e6)
    finally:
        if gc_was_enabled:
            gc.enable()
    return OpStats(
        mean_ms=statistics.fmean(samples),
        median_ms=statistics.median(samples),
        stddev_ms=statistics.stdev(samples) if len(samples) > 1 else None,
        samples=len(samples),
    )


def _keygen_stats(pk, master, params, rng, repetitions: int, warmup: int) -> dict[str, OpStats]:
    """Phase and total wall times for session generation.

    Each sample is one gen_session call: its phase sink stamps the end of
    each phase, so the phases and the total come from the same run and
    total minus the phase sum is only the call's glue.
    """
    for _ in range(warmup):
        scheme.gen_session(pk, master, params, 0, rng)
    v_ms: list[float] = []
    aux_ms: list[float] = []
    sk_ms: list[float] = []
    total_ms: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            stamps: list[int] = []
            t0 = time.perf_counter_ns()
            scheme.gen_session(
                pk, master, params, 0, rng, phase_sink=lambda _phase: stamps.append(time.perf_counter_ns())
            )
            t4 = time.perf_counter_ns()
            t1, t2, t3 = stamps
            v_ms.append((t1 - t0) / 1e6)
            aux_ms.append((t2 - t1) / 1e6)
            sk_ms.append((t3 - t2) / 1e6)
            total_ms.append((t4 - t0) / 1e6)
    finally:
        if gc_was_enabled:
            gc.enable()

    def pack(samples: list[float]) -> OpStats:
        return OpStats(
            mean_ms=statistics.fmean(samples),
            median_ms=statistics.median(samples),
            stddev_ms=statistics.stdev(samples) if len(samples) > 1 else None,
            samples=len(samples),
        )

    return {
        "otsske.keygen.v": pack(v_ms),
        "otsske.keygen.aux": pack(aux_ms),
        "otsske.keygen.sk": pack(sk_ms),
        "otsske.keygen.total": pack(total_ms),
    }


def _ecdsa_stats(config: BenchConfig, message: bytes) -> dict[str, OpStats]:
    reps, warm = config.repetitions, config.warmup
    algo = ec.ECDSA(hashes.SHA256())
    key = ec.generate_private_key(ec.SECP256R1())
    sig = key.sign(message, algo)
    public = key.public_key()
    return {
        "ecdsa.keygen": _measure(lambda: ec.generate_private_key(ec.SECP256R1()), reps, warm),
        "ecdsa.sign": _measure(lambda: key.sign(message, algo), reps, warm),
        "ecdsa.verify": _measure(lambda: public.verify(sig, message, algo), reps, warm),
    }


def _backend_core_stats(config: BenchConfig) -> dict[str, dict[str, OpStats]]:
    """Pairing (with its two halves), exponentiation and decoding costs on every available backend."""
    out: dict[str, dict[str, OpStats]] = {}
    reps = min(config.repetitions, 20)
    for name in available_backends():
        group = setup(config.params.security_level, backend=name)
        g = generator(group)
        g2 = aux_generator(group)
        exponent = group.order - 3
        b = group.backend
        f = b.miller_loop(g.first, g2.second)
        g1_bytes, g2_bytes = b.g1_compress(g.first), b.g2_compress(g2.second)
        out[name] = {
            "pairing": _measure(lambda: pair(g, g2), reps, 1),
            "miller_loop": _measure(lambda: b.miller_loop(g.first, g2.second), reps, 1),
            "final_exp": _measure(lambda: b.final_exp(f), reps, 1),
            "g2_exp": _measure(lambda: g2.exp(exponent), reps, 1),
            "g1_exp": _measure(lambda: g.first_only().exp(exponent), reps, 1),
            "g1_decompress": _measure(lambda: b.g1_decompress(g1_bytes), reps, 1),
            "g2_decompress": _measure(lambda: b.g2_decompress(g2_bytes), reps, 1),
        }
    return out


def bench_run(config: BenchConfig) -> BenchReport:
    """Measure every operation class and assemble the report."""
    params = config.params
    rng = DeterministicRandomness(config.seed) if config.seed is not None else SystemRandomness()
    group = setup(params.security_level, backend=config.backend)
    pk, master = scheme.keygen_setup(params, rng, group=group)
    message = rng.random_bytes(MESSAGE_BYTES)
    reps, warm = config.repetitions, config.warmup

    stats: dict[str, OpStats] = {}
    stats.update(_keygen_stats(pk, master, params, rng, reps, warm))

    material = scheme.gen_session(pk, master, params, 0, rng)
    signing_key = rng.random_bytes(16)

    def do_sign():
        selection = scheme.prp_select(params, signing_key, message)
        subkeys = scheme.subkeys_at(material, selection)
        return scheme.sign_compressed(pk, params, 0, subkeys, selection, material.aux, message)

    stats["otsske.sign"] = _measure(do_sign, reps, warm)
    signature = do_sign()
    stats["otsske.verify"] = _measure(
        lambda: scheme.verify_compressed(pk, params, 0, signature, message), reps, warm
    )

    # structural pairing counts for one operation of each kind
    reset_pairing_counter()
    do_sign()
    sign_pairings = pairing_counter()
    reset_pairing_counter()
    scheme.verify_compressed(pk, params, 0, signature, message)
    verify_pairings = pairing_counter()
    reset_pairing_counter()

    stats.update(_ecdsa_stats(config, message))
    core = _backend_core_stats(config) if config.compare_backends else {}

    return BenchReport(
        config=config,
        backend_name=group.backend_name,
        stats=stats,
        pairing_counts={"sign_pairings": sign_pairings, "verify_pairings": verify_pairings},
        backend_core=core,
    )
