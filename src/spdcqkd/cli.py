"""Command-line front end: every analysis as a subcommand.

All value-bearing commands accept --format {json|text}.  JSON output is a
single envelope {command, parameters, results, tool_version} printed with
sorted keys and floats rounded to 9 significant digits, so deterministic
commands are byte-stable across runs.  Diagnostics go to stderr.  Exit
codes: 0 success, 2 usage or validation, 3 I/O failure, a stdout that
cannot be written included.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
import types

import click
import numpy as np

from . import __version__
from .attack import attack_four_photon
from .fock import FockError, StateVector
from .optics import HV
from .protocol import (ConfigError, SessionConfig, TranscriptError,
                       config_from_dict, config_to_dict, replay_with_header, run_session,
                       transcript_text)
from .security import (binary_entropy, eve_conditional_states, holevo_binary,
                       leak_vs_bound, qber_from_state)
from .source import SpdcParams, pair_statistics, spdc_state, truncation_tail

# The most rows `sweep --steps` asks for: each takes about 10 µs.
MAX_SWEEP_STEPS = 10 ** 6


def _rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")  # 9 significant digits
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _state_terms(state: StateVector) -> list[dict]:
    return [{"occupation": list(occ), "re": amp.real, "im": amp.imag}
            for occ, amp in sorted(state.terms())]


def _flat_lines(obj, prefix: str = "") -> list[str]:
    if isinstance(obj, dict):
        out = []
        for k in sorted(obj):
            out.extend(_flat_lines(obj[k], f"{prefix}{k}."))
        return out
    if isinstance(obj, list):  # an interval: its ends on one line
        return [f"{prefix[:-1]} {' '.join(f'{v:.9g}' for v in obj)}"]
    if isinstance(obj, float):
        return [f"{prefix[:-1]} {obj:.9g}"]
    return [f"{prefix[:-1]} {obj}"]


def _exit_io_error(message: str):
    """Print `message` as an error and exit 3.  Stdout goes to the null device
    first, or what a failed write left buffered fails the exit flush (status 120)."""
    click.echo(f"error: {message}", err=True)
    with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
        fd = sys.stdout.fileno()
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    sys.exit(3)


def _print(data: str | bytes) -> None:
    """Write `data` to stdout (bytes to its buffer) and flush; exit 3 on failure."""
    out = click.get_binary_stream("stdout") if isinstance(data, bytes) else sys.stdout
    try:
        out.write(data)
        out.flush()
    except OSError as exc:
        _exit_io_error(f"cannot write to stdout: {exc}")


def _emit(command: str, parameters: dict, results: dict, fmt: str,
          text_lines) -> None:
    if fmt == "json":
        envelope = {"command": command, "parameters": _rounded(parameters),
                    "results": _rounded(results), "tool_version": __version__}
        _print(json.dumps(envelope, sort_keys=True) + "\n")
    else:
        _print("".join(f"{line}\n" for line in text_lines()))


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    show_default=True, help="Output format.")


@click.group()
@click.version_option(__version__)
def main():
    """Multi-pair emission, photon-number-splitting attacks, and key-rate
    accounting for entanglement-based key distribution."""


@main.command("spdc-state")
@click.option("--tanh-xi", type=float, required=True,
              help="Squeezing magnitude tanh|xi|, in [0, 1).")
@click.option("--phi", type=float, default=0.0, show_default=True,
              help="Pump phase in radians.")
@click.option("--nmax", type=int, default=4, show_default=True,
              help="Pair-number truncation.")
@_format_option
def cmd_spdc_state(tanh_xi, phi, nmax, fmt):
    """Truncated source state: amplitudes and discarded tail mass."""
    try:
        params = SpdcParams(tanh_xi=tanh_xi, phi=phi, n_max=nmax)
    except FockError as exc:
        raise click.UsageError(f"--tanh-xi/--phi/--nmax: {exc}")
    state = spdc_state(params)
    results = {"terms": _state_terms(state),
               "squared_norm": state.norm_sq(),
               "truncation_tail": truncation_tail(params)}

    def text():
        yield "# occupation (A-H A-V B-H B-V)  re  im"
        yield from state.dump_lines()
        yield f"squared_norm {results['squared_norm']:.9g}"
        yield f"truncation_tail {results['truncation_tail']:.9g}"

    _emit("spdc-state", {"tanh_xi": tanh_xi, "phi": phi, "nmax": nmax},
          results, fmt, text)


@main.command("pair-stats")
@click.option("--tanh-xi", type=float, required=True,
              help="Squeezing magnitude tanh|xi|, in [0, 1).")
@click.option("--nmax", type=int, default=4, show_default=True)
@_format_option
def cmd_pair_stats(tanh_xi, nmax, fmt):
    """Pair-number distribution P(n) of the source."""
    try:
        params = SpdcParams(tanh_xi=tanh_xi, n_max=nmax)
    except FockError as exc:
        raise click.UsageError(f"--tanh-xi/--nmax: {exc}")
    probs = pair_statistics(params)
    results = {"probabilities": [{"n": n, "probability": p} for n, p in probs],
               "tail": truncation_tail(params)}

    def text():
        yield "# n  P(n)"
        for n, p in probs:
            yield f"{n} {p:.9g}"
        yield f"tail {results['tail']:.9g}"

    _emit("pair-stats", {"tanh_xi": tanh_xi, "nmax": nmax}, results, fmt, text)


@main.command("attack-report")
@_format_option
def cmd_attack_report(fmt):
    """Full analytic chain for the splitting attack on the four-photon
    component: post-attack state, error rate, the eavesdropper's conditional
    states, and the information accounting."""
    state = attack_four_photon()
    q = qber_from_state(state, HV, HV)
    cond = eve_conditional_states(state, HV, HV)
    overlap = cond[(0, 1)].state.inner(cond[(1, 0)].state)
    chi = holevo_binary(overlap)
    bound = binary_entropy(q.qber)
    results = {
        "state_terms": _state_terms(state),
        "qber": q.qber,
        "sift_probability": q.sift_probability,
        "outcomes": [
            {"alice_bit": a, "bob_bit": b, "probability": br.probability,
             "eve_terms": _state_terms(br.state)}
            for (a, b), br in sorted(cond.items())],
        "overlap": overlap.real,
        "chi": chi,
        "bound": bound,
        "margin": bound - chi,
    }

    def text():
        yield f"qber {q.qber:.9g}"
        yield f"overlap {overlap.real:.9g}"
        yield f"chi {chi:.9g}"
        yield f"bound {bound:.9g}"
        yield f"margin {bound - chi:.9g}"
        for (a, b), br in sorted(cond.items()):
            yield f"outcome a={a} b={b} p={br.probability:.9g}"
            yield from ("  " + ln for ln in br.state.dump_lines())

    _emit("attack-report", {}, results, fmt, text)


@main.command("sweep")
@click.option("--p-min", type=float, default=0.0, show_default=True)
@click.option("--p-max", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=11, show_default=True,
              help=f"Rows, from 1 to {MAX_SWEEP_STEPS}.")
@click.option("--out", "out_path", default="-", show_default=True,
              help="CSV destination ('-' for stdout).")
def cmd_sweep(p_min, p_max, steps, out_path):
    """CSV sweep of error rate and leak bounds over the attack fraction p."""
    if not (0.0 <= p_min <= p_max <= 1.0):
        raise click.UsageError(
            f"--p-min/--p-max: need 0 <= p-min <= p-max <= 1, "
            f"got {p_min} and {p_max}")
    if not 1 <= steps <= MAX_SWEEP_STEPS:
        raise click.UsageError(f"--steps: must be from 1 to {MAX_SWEEP_STEPS}, got {steps}")
    rows = ["p,qber,eve_info,bound,margin"]
    for p in np.linspace(p_min, p_max, steps):
        lb = leak_vs_bound(p)
        rows.append(f"{p:.9g},{p / 6.0:.9g},{lb.eve_info:.9g},"
                    f"{lb.bound:.9g},{lb.margin:.9g}")
    blob = "\n".join(rows) + "\n"
    if out_path == "-":
        _print(blob)
    else:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(blob)
        except OSError as exc:
            _exit_io_error(f"cannot write {out_path}: {exc}")


def _load_config(config_path: str, seed: int | None) -> SessionConfig:
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        _exit_io_error(f"cannot read {config_path}: {exc}")
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # undecodable bytes or nesting too deep
        raise click.UsageError(f"--config: invalid JSON: {exc}")
    try:
        config = config_from_dict(doc)
    except ConfigError as exc:
        raise click.UsageError(f"--config: {exc}")
    if seed is not None:
        try:
            config = dataclasses.replace(config, seed=seed)
        except FockError as exc:
            raise click.UsageError(f"--seed: {exc}")
    return config


@main.command("simulate")
@click.option("--config", "config_path", required=True,
              help="JSON session configuration.")
@click.option("--transcript", "transcript_path", default=None,
              help="Write a checksummed version-3 transcript here: the config, "
                   "then one 2-byte row code per round.")
@click.option("--seed", type=int, default=None,
              help="Override the config's seed.")
@_format_option
def cmd_simulate(config_path, transcript_path, seed, fmt):
    """Run a Monte Carlo session and print its report."""
    config = _load_config(config_path, seed)
    try:
        report = run_session(config, transcript_path=transcript_path)
    except OSError as exc:
        _exit_io_error(f"cannot write transcript: {exc}")
    except FockError as exc:
        raise click.UsageError(f"--config: {exc}")
    results = report.to_dict()
    _emit("simulate", {"config": config_to_dict(config), "transcript": transcript_path},
          results, fmt, lambda: _flat_lines(results))


@main.command("replay")
@click.option("--transcript", "transcript_path", required=True,
              help="Version-3 transcript produced by simulate.")
@click.option("--config", "config_path", default=None,
              help="Optional config the transcript must match in every field of "
                   "its header.")
@_format_option
def cmd_replay(transcript_path, config_path, fmt):
    """Recompute a session report from its transcript.  The transcript's
    config and tool version are echoed in the parameters."""
    config = _load_config(config_path, None) if config_path else None
    try:
        report, header = replay_with_header(config, transcript_path)
    except OSError as exc:
        _exit_io_error(f"cannot read {transcript_path}: {exc}")
    except TranscriptError as exc:
        raise click.UsageError(f"--transcript: {exc}")
    results = report.to_dict()
    if not report.checksum_ok:
        click.echo("warning: transcript checksum mismatch", err=True)
    _emit("replay", {"transcript": transcript_path, **header}, results, fmt,
          lambda: _flat_lines(results))


@main.command("transcript")
@click.option("--in", "in_path", required=True, help="Version-3 transcript.")
@click.option("--text", is_flag=True, required=True,
              help="Print it as the version-2 CSV of the same rounds, with its "
                   "own '#sha256=' trailer.")
def cmd_transcript(in_path, text):
    """Print a version-3 transcript in a readable form.  The file is checked
    whole first; a corrupt one is refused."""
    stdout = types.SimpleNamespace(write=_print, flush=lambda: None)  # _print flushes
    try:
        transcript_text(in_path, stdout)
    except OSError as exc:  # a failed write exits in _print: this one is the input's
        _exit_io_error(f"cannot convert {in_path}: {exc}")
    except TranscriptError as exc:
        raise click.UsageError(f"--in: {exc}")


if __name__ == "__main__":
    main()
