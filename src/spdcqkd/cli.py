"""Command-line front end: every analysis as a subcommand.

All value-bearing commands accept --format {json|text}.  JSON output is a
single envelope {command, parameters, results, tool_version} printed with
sorted keys and floats rounded to 9 significant digits, so deterministic
commands are byte-stable across runs.  Diagnostics go to stderr.  Exit
codes: 0 success, 2 usage or validation, 3 I/O failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click
import numpy as np

from . import __version__
from .attack import attack_four_photon
from .fock import FockError, StateVector
from .optics import HV
from .protocol import (ConfigError, SessionConfig, TranscriptError,
                       config_from_dict, config_to_dict, replay, run_session)
from .security import (binary_entropy, eve_conditional_states, holevo_binary,
                       leak_vs_bound, qber_from_state)
from .source import SpdcParams, pair_statistics, spdc_state, truncation_tail


def _sig9(x: float) -> float:
    return float(f"{x:.9g}")


def _rounded(obj):
    if isinstance(obj, float):
        return _sig9(obj)
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
    if isinstance(obj, float):
        return [f"{prefix[:-1]} {obj:.9g}"]
    return [f"{prefix[:-1]} {obj}"]


def _emit(command: str, parameters: dict, results: dict, fmt: str,
          text_lines) -> None:
    if fmt == "json":
        envelope = {"command": command, "parameters": _rounded(parameters),
                    "results": _rounded(results), "tool_version": __version__}
        click.echo(json.dumps(envelope, sort_keys=True))
    else:
        for line in text_lines():
            click.echo(line)


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
        raise click.UsageError(f"--tanh-xi/--nmax: {exc}")
    state = spdc_state(params)
    results = {"terms": _state_terms(state),
               "squared_norm": state.norm_sq(),
               "truncation_tail": state.meta["truncation_tail"]}

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
@click.option("--steps", type=int, default=11, show_default=True)
@click.option("--out", "out_path", default="-", show_default=True,
              help="CSV destination ('-' for stdout).")
def cmd_sweep(p_min, p_max, steps, out_path):
    """CSV sweep of error rate and leak bounds over the attack fraction p."""
    if not (0.0 <= p_min <= p_max <= 1.0):
        raise click.UsageError(
            f"--p-min/--p-max: need 0 <= p-min <= p-max <= 1, "
            f"got {p_min} and {p_max}")
    if steps < 1:
        raise click.UsageError(f"--steps: must be >= 1, got {steps}")
    rows = ["p,qber,eve_info,bound,margin"]
    for p in np.linspace(p_min, p_max, steps):
        lb = leak_vs_bound(p)
        rows.append(f"{p:.9g},{p / 6.0:.9g},{lb.eve_info:.9g},"
                    f"{lb.bound:.9g},{lb.margin:.9g}")
    blob = "\n".join(rows) + "\n"
    if out_path == "-":
        sys.stdout.write(blob)
    else:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(blob)
        except OSError as exc:
            click.echo(f"error: cannot write {out_path}: {exc}", err=True)
            sys.exit(3)


def _load_config(config_path: str, seed: int | None) -> SessionConfig:
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        click.echo(f"error: cannot read {config_path}: {exc}", err=True)
        sys.exit(3)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
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
              help="Write a checksummed per-round transcript here.")
@click.option("--seed", type=int, default=None,
              help="Override the config's seed.")
@_format_option
def cmd_simulate(config_path, transcript_path, seed, fmt):
    """Run a Monte Carlo session and print its report."""
    config = _load_config(config_path, seed)
    try:
        report = run_session(config, transcript_path=transcript_path)
    except OSError as exc:
        click.echo(f"error: cannot write transcript: {exc}", err=True)
        sys.exit(3)
    except FockError as exc:
        raise click.UsageError(f"--config: {exc}")
    results = report.to_dict()

    def text():
        yield from _flat_lines(results)

    _emit("simulate",
          {"config": config_to_dict(config), "transcript": transcript_path},
          results, fmt, text)


@main.command("replay")
@click.option("--transcript", "transcript_path", required=True,
              help="Transcript produced by simulate.")
@click.option("--config", "config_path", default=None,
              help="Optional config to cross-check the round count.")
@_format_option
def cmd_replay(transcript_path, config_path, fmt):
    """Recompute a session report from its transcript."""
    config = _load_config(config_path, None) if config_path else None
    try:
        report = replay(config, transcript_path)
    except OSError as exc:
        click.echo(f"error: cannot read {transcript_path}: {exc}", err=True)
        sys.exit(3)
    except TranscriptError as exc:
        raise click.UsageError(f"--transcript: {exc}")
    results = report.to_dict()
    if not report.checksum_ok:
        click.echo("warning: transcript checksum mismatch", err=True)

    def text():
        yield from _flat_lines(results)

    _emit("replay", {"transcript": transcript_path}, results, fmt, text)


if __name__ == "__main__":
    main()
