"""Eavesdropping operations: photon-pair splitting and intercept-resend.

This module is the one model of each eavesdropper; the session tables are
built from its exact branch enumerators.

Each party has one channel, its two polarization modes, and so has each of
the eavesdropper's taps E1 and E2.  The splitting attack taps a channel
known (by nondemolition counting) to carry exactly two photons: a 50:50
beamsplitter deflects each photon independently toward the eavesdropper,
and a second nondemolition count on the deflected arm heralds success when
exactly one photon crossed.  On the heralded branch the channel keeps one
photon and the eavesdropper holds a copy correlated with it; either failure
outcome (zero or two deflected) leaves both photons together, so
recombining restores the pre-attempt state exactly and the attempt can be
repeated.  The retry loop is therefore exact in closed form: with
per-attempt probability p and at most n attempts the split succeeds with
probability 1 - (1 - p)^n, and otherwise gives up with the channel passed
through unchanged.  On the two-pair source component this pipeline
produces, after splitting both channels,

  (1/(2 sqrt 3)) [ |HV>_AB (2|HV>_E - |VH>_E) + |VH>_AB (2|VH>_E - |HV>_E)
                   - |HH>_AB |VV>_E - |VV>_AB |HH>_E ]

with anti-correlated key rounds kept at error rate 1/6.

Intercept-resend measures Alice's (at most one-photon) channel in the
eavesdropper's basis and resends the observed polarization; its branches
are enumerated exactly too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .fock import POL_H, POL_V, FockError, ModeLabel, StateVector, attack_registry
from .optics import DA, HV, BasisAngle, beamsplitter_50_50, qnd_count, rotate_polarization


@dataclass(frozen=True)
class AttackConfig:
    max_attempts: int = 20

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FockError(f"max_attempts must be >= 1, got {self.max_attempts}")
        try:
            float(self.max_attempts)  # the exponent of the give-up probability
        except OverflowError:
            raise FockError("max_attempts is too large for a float") from None


class SplitResult(NamedTuple):
    state: StateVector  # the heralded branch, one photon moved to the eavesdropper
    per_attempt_probability: float


def split_channel(state: StateVector, party: str, eve_party: str) -> SplitResult:
    """One splitting attempt on a party's two-photon channel, conditioned on success.

    Beamsplits both polarizations into eve_party's modes and counts the tap
    arm; returns the one-photon tap branch and its probability.  Failure
    needs no state: zero or two deflected photons recombine into the
    original channel, restoring the input exactly.
    """
    h_idx, v_idx = state.registry.channel_modes(party)
    for occ, _ in state.terms():
        if occ[h_idx] + occ[v_idx] != 2:
            raise FockError(
                f"split attack requires exactly 2 photons in channel {party}; "
                f"gate the input with qnd_count first")
    eh = ModeLabel(eve_party, POL_H)
    ev = ModeLabel(eve_party, POL_V)
    tapped = beamsplitter_50_50(beamsplitter_50_50(state, ModeLabel(party, POL_H), eh),
                                ModeLabel(party, POL_V), ev)
    norm_sq = state.norm_sq()
    for branch in qnd_count(tapped, [eh, ev]):
        if branch.count == 1:
            return SplitResult(branch.state * math.sqrt(norm_sq), branch.probability / norm_sq)
    raise FockError("splitting attempt has no one-photon tap branch")


def split_attack_branches(state: StateVector, config: AttackConfig
                          ) -> list[tuple[float, StateVector]]:
    """Every outcome of the splitting attack on both channels: (probability, state).

    Each channel (A into E1, then B into E2) is counted; a two-photon count
    is split with probability q = 1 - (1 - p)^max_attempts, p being
    split_channel's per-attempt probability, and the give-up branch,
    probability 1 - q, passes the channel through unchanged.  Other counts
    pass through.
    """
    branches = [(1.0, state)]
    for party, eve_party in (("A", "E1"), ("B", "E2")):
        modes = [ModeLabel(party, POL_H), ModeLabel(party, POL_V)]
        nxt = []
        for pr, st in branches:
            for count, p_c, post in qnd_count(st, modes):
                if count != 2:
                    nxt.append((pr * p_c, post))
                    continue
                res = split_channel(post, party, eve_party)
                q = 1.0 - (1.0 - res.per_attempt_probability) ** config.max_attempts
                nxt.append((pr * p_c * q, res.state))
                if q < 1.0:
                    nxt.append((pr * p_c * (1.0 - q), post))
        branches = nxt
    return branches


def attack_four_photon() -> StateVector:
    """Post-attack state of the two-pair component, both channels split.

    Equals split_channel on A then B applied to the four-photon component
    (each stage heralded with per-attempt probability 1/2); written out
    directly here so the pipeline can be cross-checked against it.
    """
    r = 1.0 / (2.0 * math.sqrt(3.0))
    #           AH AV BH BV E1H E1V E2H E2V
    return StateVector(attack_registry(), {
        (1, 0, 0, 1, 1, 0, 0, 1): 2 * r,   # |HV>_AB |HV>_E
        (1, 0, 0, 1, 0, 1, 1, 0): -r,      # |HV>_AB |VH>_E
        (0, 1, 1, 0, 0, 1, 1, 0): 2 * r,   # |VH>_AB |VH>_E
        (0, 1, 1, 0, 1, 0, 0, 1): -r,      # |VH>_AB |HV>_E
        (1, 0, 1, 0, 0, 1, 0, 1): -r,      # |HH>_AB |VV>_E
        (0, 1, 0, 1, 1, 0, 1, 0): -r,      # |VV>_AB |HH>_E
    })


def intercept_branches(state: StateVector,
                       basis: BasisAngle | None) -> list[tuple[float, StateVector, int]]:
    """Every outcome of intercept-resend on Alice's channel: (probability, state, bit).

    The channel is rotated into the eavesdropper's basis, collapsed onto each
    occupation that can be observed there (empty, bit 0, bit 1), and rotated
    back; since the eavesdropper re-injects a fresh photon of exactly the
    polarization observed, the collapsed state already is the resent state.
    bit is -1 for an empty channel.  basis None is a fresh random basis:
    H/V and D/A at 1/2 each.
    """
    h_idx, v_idx = state.registry.channel_modes("A")
    if any(occ[h_idx] + occ[v_idx] > 1 for occ, _ in state.terms()):
        raise FockError("intercept-resend expects at most one photon in channel A")
    bases = [(basis, 1.0)] if basis is not None else [(HV, 0.5), (DA, 0.5)]
    out = []
    for b, w in bases:
        rotated = rotate_polarization(state, "A", b) if b.theta else state
        # the channel holds no photon (bit -1) or one, in slot `bit`
        for bit, prob, post in rotated.measure(
                lambda occ: occ[v_idx] if occ[h_idx] + occ[v_idx] else -1):
            if b.theta:
                post = rotate_polarization(post, "A", -b.theta)
            out.append((w * prob, post, bit))
    return out

