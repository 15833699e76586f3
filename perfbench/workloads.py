"""Workloads of the spdcqkd benchmark: generated inputs, one operation each, checks.

Every workload is a closed loop: one client in one process, no threads, and
each operation starts when the previous one has returned.  All session seeds
derive from the workload seed, so the same seed gives the same inputs.

An operation (`Op`) is what a user of the library asks for: a session, or a
session writing a transcript followed by a replay of it.  `Op.check` returns
the problems with its result; an operation with a problem counts as failed.
Checks compare count fields only (never the leak figures), so report changes
that keep the per-round records keep passing.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from spdcqkd import protocol
from spdcqkd.attack import AttackConfig, attack_four_photon
from spdcqkd.optics import DA, HV
from spdcqkd.protocol import (AttackMixture, InterceptResend, SessionConfig,
                              SingletSource, SpdcSource, SplitAttack)
from spdcqkd.security import qber_from_state
from spdcqkd.source import SpdcParams, singlet_state

DEFAULT_SEED = 1
Z_MAX = 6.0  # Monte Carlo vs closed form / exact rate, in standard errors

# rounds per operation; "smoke" is the size the benchmark's own test runs
SIZES = {
    "full": {"bulk": 1_000_000, "transcript": 50_000, "sweep": 20_000},
    "smoke": {"bulk": 20_000, "transcript": 2_000, "sweep": 2_000},
}

PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())

# The paper's scenario: SPDC at tanh_xi = 0.3 under a split attack with three
# attempts per channel (8 scenarios, 32 groups, 174 table rows).
PAPER_SOURCE = SpdcSource(SpdcParams(tanh_xi=0.3))
PAPER_EVE = SplitAttack(AttackConfig(max_attempts=3))


@dataclass
class Op:
    config: SessionConfig
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    phases: dict[str, float] = field(default_factory=dict)  # seconds, filled by run


def count_fields(report) -> dict:
    """The integer fields of a SessionReport, in a JSON-comparable form."""
    return {
        "rounds": report.rounds,
        "sifted_length": report.sifted_length,
        "error_count": report.error_count,
        "double_click_count": report.double_click_count,
        "no_click_count": report.no_click_count,
        "source_counts": dict(report.source_counts),
        "per_basis": {b: [v["sifted"], v["errors"]] for b, v in sorted(report.per_basis.items())},
    }


def physics_key(config: SessionConfig) -> SessionConfig:
    """The config without its seed: two sessions with one key build equal tables."""
    return dataclasses.replace(config, seed=0)


def _sanity(report, rounds: int) -> list[str]:
    c = count_fields(report)
    problems = []
    if c["rounds"] != rounds:
        problems.append(f"rounds {c['rounds']} != {rounds}")
    if sum(c["source_counts"].values()) != rounds:
        problems.append(f"source counts {c['source_counts']} do not sum to {rounds}")
    if not 0 <= c["error_count"] <= c["sifted_length"] <= rounds:
        problems.append(f"errors {c['error_count']} / sifted {c['sifted_length']} out of range")
    if [sum(v[i] for v in c["per_basis"].values()) for i in (0, 1)] != [
            c["sifted_length"], c["error_count"]]:
        problems.append(f"per-basis counts {c['per_basis']} disagree with the totals")
    for key in ("double_click_count", "no_click_count"):
        if not 0 <= c[key] <= 2 * rounds:
            problems.append(f"{key} {c[key]} out of range")
    return problems


def _z_problems(what: str, hits: int, trials: int, p: float) -> list[str]:
    """Binomial agreement of hits/trials with probability p, within Z_MAX."""
    if trials == 0:
        return [f"{what}: no trials"]
    if p == 0.0:
        return [] if hits == 0 else [f"{what}: {hits} hits where the closed form is 0"]
    z = (hits / trials - p) / math.sqrt(p * (1.0 - p) / trials)
    return [] if abs(z) <= Z_MAX else [f"{what}: {hits}/{trials} vs {p:.6g}, z={z:.2f}"]


def _paper_problems(report, rounds: int) -> list[str]:
    """Counts of a paper-scenario session against its exact enumerated rates."""
    exact = PINNED["paper_exact"]
    return (_sanity(report, rounds)
            + _z_problems("paper sift rate", report.sifted_length, rounds, exact["sift_rate"])
            + _z_problems("paper qber", report.error_count, report.sifted_length, exact["qber"]))


def _equal_counts(what: str, got, want) -> list[str]:
    got, want = count_fields(got), count_fields(want)
    return [] if got == want else [f"{what}: {got} != {want}"]


def _seeds(seed: int, stream: int) -> Iterator[int]:
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(0, 2**63))


def _paper_config(rounds: int, seed: int) -> SessionConfig:
    return SessionConfig(rounds=rounds, seed=seed, source=PAPER_SOURCE, eve=PAPER_EVE)


# ---------------------------------------------------------------------------
# workloads


def session_bulk(seed: int, size: dict, workdir: Path) -> Iterator[Op]:
    rounds = size["bulk"]
    for s in _seeds(seed, 0):
        cfg = _paper_config(rounds, s)
        yield Op(cfg, lambda cfg=cfg: protocol.run_session(cfg),
                 lambda rep: _paper_problems(rep, rounds))


def transcript_roundtrip(seed: int, size: dict, workdir: Path) -> Iterator[Op]:
    """A session writing its transcript, then a replay of that file."""
    rounds = size["transcript"]
    path = workdir / "session.csv"
    for s in _seeds(seed, 1):
        cfg = _paper_config(rounds, s)
        phases: dict[str, float] = {}

        def run(cfg=cfg, phases=phases):
            t0 = perf_counter()
            live = protocol.run_session(cfg, path)
            t1 = perf_counter()
            replayed = protocol.replay(cfg, path)
            phases.update(write=t1 - t0, replay=perf_counter() - t1)
            return live, replayed

        def check(result, cfg=cfg):
            live, replayed = result
            problems = _paper_problems(live, rounds)
            problems += _equal_counts("transcript run vs no-transcript run",
                                      live, protocol.run_session(cfg))
            problems += _equal_counts("replay vs live report", replayed, live)
            if not replayed.checksum_ok:
                problems.append("replay checksum mismatch")
            return problems

        yield Op(cfg, run, check, phases)


# Sweep grid: (source kind, most photons per channel).  Intercept-resend needs
# at most one photon in the intercepted channel, so it pairs only with the
# one-photon sources.
_SWEEP_SOURCES = [("singlet", 1), ("attack_mixture", 1)] + [("spdc", n) for n in range(1, 7)]
_SWEEP_EVES = [None, SplitAttack(AttackConfig(max_attempts=1)),
               SplitAttack(AttackConfig(max_attempts=3)), SplitAttack(AttackConfig(max_attempts=8)),
               InterceptResend(None), InterceptResend(HV), InterceptResend(DA)]


def config_sweep(seed: int, size: dict, workdir: Path) -> Iterator[Op]:
    """Short sessions over distinct physics configs, grid order repeated.

    Each pass visits every valid (source, eve) pair with fresh continuous
    parameters (tanh_xi, p), so no physics config repeats.  The singlet has
    no parameter, so its pairs run in the first pass only.
    """
    rounds = size["sweep"]
    params = np.random.default_rng([seed, 3])
    seeds = _seeds(seed, 4)
    first_pass = True
    while True:
        for kind, n_max in _SWEEP_SOURCES:
            if kind == "singlet" and not first_pass:
                continue
            for eve in _SWEEP_EVES:
                if isinstance(eve, InterceptResend) and n_max > 1:
                    continue
                if kind == "singlet":
                    source = SingletSource()
                elif kind == "attack_mixture":
                    source = AttackMixture(float(params.uniform(0.05, 0.95)))
                else:
                    source = SpdcSource(SpdcParams(float(params.uniform(0.15, 0.5)),
                                                   n_max=n_max))
                cfg = SessionConfig(rounds=rounds, seed=next(seeds), source=source, eve=eve)
                yield Op(cfg, lambda cfg=cfg: protocol.run_session(cfg),
                         lambda rep, cfg=cfg: _sweep_problems(rep, cfg))
        first_pass = False


@functools.cache
def closed_form_reference() -> tuple:
    """Per basis pair (HV, DA): the attack state's and the singlet's exact rates."""
    return tuple((qber_from_state(attack_four_photon(), b, b),
                  qber_from_state(singlet_state(), b, b)) for b in (HV, DA))


def _mixture_qber(p: float) -> float:
    """Sifted QBER of AttackMixture(p) from the analytic chain."""
    err = sifted = 0.0
    for attack, singlet in closed_form_reference():
        a, s = p * attack.sift_probability, (1 - p) * singlet.sift_probability
        err += a * attack.qber + s * singlet.qber
        sifted += a + s
    return err / sifted


def closed_form_qber(config: SessionConfig) -> float | None:
    """QBER a config has in closed form, or None.

    The split attack only acts on two-photon channels, so on the one-photon
    sources it leaves the closed form unchanged.
    """
    passive = config.eve is None or isinstance(config.eve, SplitAttack)
    if isinstance(config.source, SingletSource):
        return 0.0 if passive else 0.25
    if isinstance(config.source, AttackMixture) and passive:
        return _mixture_qber(config.source.p)
    return None


def _sweep_problems(report, config: SessionConfig) -> list[str]:
    problems = _sanity(report, config.rounds)
    q = closed_form_qber(config)
    if q is not None:
        problems += _z_problems(f"closed-form qber of {config.source}, {config.eve}",
                                report.error_count, report.sifted_length, q)
    return problems


WORKLOADS = {
    "session_bulk": session_bulk,
    "transcript_roundtrip": transcript_roundtrip,
    "config_sweep": config_sweep,
}


def pinned_problems(workload: str, size_name: str, report) -> list[str]:
    """Counts of the first operation at DEFAULT_SEED against their pinned values."""
    if isinstance(report, tuple):  # transcript_roundtrip: (live, replayed)
        report = report[0]
    want = PINNED["first_op_counts"][size_name][workload]
    got = count_fields(report)
    return [] if got == want else [f"pinned counts: {got} != {want}"]


def kernel_parity() -> tuple[str, list[str]]:
    """Numba vs numpy: equal sampled records and equal transcript hashes.

    Runs only where the compiled kernels exist; returns (status, problems).
    """
    from spdcqkd import _kernels

    if not getattr(_kernels, "HAVE_NUMBA", False):
        return "skipped: numba not importable", []
    tables = protocol._build_tables(_paper_config(1, 0))
    u = protocol._uniform_block(7, 0, 1 << 16)
    args = (u, tables.scen_cum, tables.grp_off, tables.grp_len, tables.row_cum,
            tables.row_a, tables.row_b, tables.row_e1, tables.row_e2, True)
    problems = []
    if not np.array_equal(_kernels.sample_rounds(*args, impl="numpy"),
                          _kernels.sample_rounds(*args, impl="numba")):
        problems.append("numba and numpy samplers disagree")
    data = u.tobytes()[:1 << 20]
    if _kernels.fnv1a64(data, impl="numpy") != _kernels.fnv1a64(data, impl="numba"):
        problems.append("numba and numpy hashes disagree")
    return ("failed" if problems else "passed"), problems
