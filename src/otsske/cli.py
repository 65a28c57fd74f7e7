"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/input error.
Every subcommand is deterministic under ``--seed``.
"""

from __future__ import annotations

import fcntl
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import bench as bench_mod
from . import protocol, scheme
from .backend import available_backends
from .errors import DecodeError, ParameterError
from .groups import DeterministicRandomness, SystemRandomness, setup
from .params import ORDER
from .scheme import SchemeParams

_params_options = [
    click.option("--t", "radix", type=int, default=4, show_default=True, help="subkeys per symbol position"),
    click.option("--n", "symbols", type=int, default=32, show_default=True, help="symbol positions per message"),
    click.option("--N", "sessions", type=int, default=8, show_default=True, help="provisioned signing sessions"),
]


# DeterministicRandomness encodes an integer seed as a signed 64-bit value
_SEED = click.IntRange(-2**63, 2**63 - 1)


def params_options(func):
    for option in reversed(_params_options):
        func = option(func)
    return func


def _build_params(radix: int, symbols: int, sessions: int) -> SchemeParams:
    try:
        return SchemeParams(sessions=sessions, symbols=symbols, radix=radix)
    except ParameterError as exc:
        raise click.UsageError(str(exc))


def _rng(seed: int | None):
    return DeterministicRandomness(seed) if seed is not None else SystemRandomness()


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")


def _write(path: str, data: bytes) -> None:
    """Write ``data`` beside ``path`` and move it over ``path`` in one step,
    each durable before this returns: a crash leaves the old file or the
    new one, and a store ``sign`` has rewritten stays rewritten."""
    new = f"{path}.new"
    try:
        with open(new, "wb") as out:
            out.write(data)
            out.flush()
            os.fsync(out.fileno())
        os.replace(new, path)
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


@contextmanager
def _locked(path: str):
    """Hold an exclusive lock on ``<path>.lock``: ``path`` itself is
    replaced, not rewritten, so its own inode cannot carry the lock."""
    try:
        lock = open(f"{path}.lock", "a")
    except OSError as exc:
        raise click.UsageError(f"cannot lock {path}: {exc}")
    with lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


@click.group()
def main() -> None:
    """Session-based one-time signatures and attestation tooling."""


@main.command("setup")
@params_options
def setup_cmd(radix, symbols, sessions):
    """Validate parameters and print the group configuration."""
    params = _build_params(radix, symbols, sessions)
    group = setup(params.security_level)
    click.echo(f"t={params.radix} n={params.symbols} N={params.sessions} lambda={params.security_level}")
    click.echo(f"subkeys per session: {params.subkey_count}")
    click.echo(f"group order bits: {ORDER.bit_length()}")
    click.echo(f"backend: {group.backend_name} (available: {', '.join(available_backends())})")


@main.command()
@params_options
@click.option("--seed", type=_SEED, default=None, help="deterministic mode")
@click.option("--out", "out_path", required=True, help="secret store path; public key goes to <out>.pub")
def keygen(radix, symbols, sessions, seed, out_path):
    """Generate the public key and all N sessions of signing material."""
    params = _build_params(radix, symbols, sessions)
    try:
        scheme.check_store_size(params, params.sessions)
    except ParameterError as exc:
        raise click.UsageError(str(exc))
    rng = _rng(seed)
    pk, master = scheme.keygen_setup(params, rng)
    materials = [
        scheme.gen_session(pk, master, params, session, rng)
        for session in range(params.sessions)
    ]
    _write(out_path, scheme.encode_session_store(params, pk, master, materials))
    _write(out_path + ".pub", scheme.encode_public_key(params, pk))
    click.echo(f"wrote {out_path} and {out_path}.pub ({params.sessions} sessions)")


@main.command()
@click.option("--key", "key_path", required=True, help="secret store written by keygen")
@click.option("--session", type=int, default=0, show_default=True)
@click.option("--variant", type=click.Choice(["compressed", "full"]), default="compressed", show_default=True)
@click.option("--seed", type=_SEED, default=None)
@click.option("--in", "in_path", required=True, help="message file")
@click.option("--out", "out_path", required=True, help="signature output")
def sign(key_path, session, variant, seed, in_path, out_path):
    """Sign a message file with one session's material, and spend the session.

    The session leaves the store before the signature is written: a session
    signs once, and a failed write loses it rather than signing again.
    """
    rng = _rng(seed)
    message = _read(in_path)
    with _locked(key_path):
        try:
            params, pk, master, materials = scheme.decode_session_store(_read(key_path))
        except DecodeError as exc:
            raise click.UsageError(f"malformed key store: {exc}")
        by_session = {m.session: m for m in materials}
        if session not in by_session:
            spent = 0 <= session < params.sessions
            raise click.UsageError(f"session {session} {'was spent' if spent else 'not present in the store'}")
        material = by_session.pop(session)
        _write(key_path, scheme.encode_session_store(params, pk, master, list(by_session.values())))
    key = rng.random_bytes(16)
    selection = scheme.prp_select(params, key, message)
    subkeys = scheme.subkeys_at(material, selection)
    if variant == "full":
        sig = scheme.sign_full(pk, params, session, subkeys, selection, material.aux, message, rng)
    else:
        sig = scheme.sign_compressed(pk, params, session, subkeys, selection, material.aux)
    _write(out_path, scheme.encode_signature(sig))
    click.echo(f"signed {in_path} with session {session} ({variant})")


@main.command()
@click.option("--key", "key_path", required=True, help="public key file (<store>.pub)")
@click.option("--session", type=int, default=0, show_default=True)
@click.option("--in", "in_path", required=True, help="message file")
@click.option("--sig", "sig_path", required=True, help="signature file")
def verify(key_path, session, in_path, sig_path):
    """Verify a signature file; exit 1 if it does not verify."""
    try:
        params, pk = scheme.decode_public_key(_read(key_path))
    except DecodeError as exc:
        raise click.UsageError(f"malformed key file: {exc}")
    ok = scheme.verify_signature_bytes(pk, params, session, _read(sig_path), _read(in_path))
    click.echo("verified" if ok else "verification failed")
    if not ok:
        sys.exit(1)


@main.command()
@params_options
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--sessions", "session_count", type=int, default=3, show_default=True)
@click.option("--out", "out_path", default=None, help="transcript file (stdout otherwise)")
def demo(radix, symbols, sessions, seed, session_count, out_path):
    """Run the full attestation flow in-process and emit a transcript."""
    params = _build_params(radix, symbols, sessions)
    try:
        run = protocol.run_protocol(params, seed, session_count)
    except ParameterError as exc:
        raise click.UsageError(f"--sessions: {exc}")
    text = run.transcript_text()
    if out_path:
        _write(out_path, text.encode())
        click.echo(f"wrote transcript to {out_path}")
    else:
        click.echo(text, nl=False)
    if not run.all_verified:
        sys.exit(1)


@main.command()
@params_options
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--out", "out_path", default=None, help="report file (stdout otherwise)")
def game(radix, symbols, sessions, seed, out_path):
    """Run the key-exposure forgery harness over a full honest run."""
    params = _build_params(radix, symbols, sessions)
    report = protocol.run_security_game(params, seed)
    lines = report.lines()
    news = report.new_message_attempts
    sames = report.same_message_attempts
    lines.append("")
    lines.append(f"new-message attempts: {len(news)}, verified: {sum(a.verified for a in news)}")
    lines.append(f"same-message re-sign attempts: {len(sames)}, verified: {sum(a.verified for a in sames)}")
    lines.append(f"outcome: {'sound' if report.sound else 'UNSOUND'}")
    text = "\n".join(lines) + "\n"
    if out_path:
        _write(out_path, text.encode())
        click.echo(f"wrote report to {out_path}")
    else:
        click.echo(text, nl=False)
    if not report.sound:
        sys.exit(1)


@main.command("bench")
@params_options
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--seed", type=_SEED, default=None)
@click.option("--out", "out_path", default=None, help="key=value report file")
@click.option("--no-backend-compare", is_flag=True, default=False, help="skip per-backend core timings")
def bench_cmd(radix, symbols, sessions, reps, seed, out_path, no_backend_compare):
    """Time all operation classes and write the benchmark report."""
    params = _build_params(radix, symbols, sessions)
    try:
        config = bench_mod.BenchConfig(
            params=params,
            repetitions=reps,
            seed=seed,
            compare_backends=not no_backend_compare,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = bench_mod.bench_run(config)
    click.echo(report.to_table(), nl=False)
    if out_path:
        _write(out_path, report.to_kv().encode())
        click.echo(f"wrote report to {out_path}")


if __name__ == "__main__":
    main()
