"""Security metrics: error rates, Holevo leakage, and the entropy budget check.

Key-bit convention used throughout: bit 0 is the first polarization slot (H,
or D after a pi/4 rotation).  The source is anti-correlated, so Bob flips his
outcome bit to form his key bit and an *error* is a round where both parties
saw the same polarization.  Double clicks contribute half their weight to
each bit.

The leakage comparison is the paper's: an eavesdropper splitting pairs is
credited with chi = h((1 - |overlap|)/2) = h(1/10) per key bit on attacked
rounds, so with attack fraction p her information is p*chi while the
error-correction leakage already spent is h(QBER) = h(p/6); the margin is
positive for every p in (0, 1].  That chi is the overlap figure of her two
key-round states and leaves out the error rounds, so it is not an upper
bound: the exact chi(Alice bit; Eve) on sifted rounds of the four-photon
state is 0.5575 in HV and in DA, below h(1/6) = 0.650 by 0.093, not 0.181.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .fock import FockError, StateVector, left_sum
from .optics import DA, HV, BasisAngle, OutcomeKind, joint_threshold_branches


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def holevo_binary(overlap: complex) -> float:
    """Holevo bound for two equiprobable pure states with the given overlap.

    chi = h((1 - |<e0|e1>|)/2); maximal (1 bit) for orthogonal states, zero
    for identical ones.
    """
    c = abs(overlap)
    if c > 1.0 + 1e-12:
        raise ValueError(f"overlap magnitude {c} exceeds 1")
    return binary_entropy((1.0 - min(c, 1.0)) / 2.0)


_CLICKED = (OutcomeKind.BIT0, OutcomeKind.BIT1, OutcomeKind.DOUBLE)


def _bit_weights(kind: OutcomeKind) -> tuple[tuple[int, float], ...]:
    if kind == OutcomeKind.BIT0:
        return ((0, 1.0),)
    if kind == OutcomeKind.BIT1:
        return ((1, 1.0),)
    return ((0, 0.5), (1, 0.5))  # DOUBLE


def _clicked_buckets(state: StateVector, assignments: list[tuple[str, BasisAngle]]
                     ) -> tuple[dict[tuple[int, int], list[tuple[float, StateVector]]], float]:
    """The branches of two channels where both clicked, by (first bit, second bit).

    Returns per bit pair its (weight, post state) pieces in branch order,
    and the mass of those branches; a double click spreads its weight over
    both bits, so its branch is a piece of two pairs.
    """
    buckets: dict[tuple[int, int], list[tuple[float, StateVector]]] = {}
    mass = 0.0
    for (ka, kb), prob, post in joint_threshold_branches(state, assignments):
        if ka not in _CLICKED or kb not in _CLICKED:
            continue
        mass += prob
        for a, wa in _bit_weights(ka):
            for b, wb in _bit_weights(kb):
                buckets.setdefault((a, b), []).append((prob * wa * wb, post))
    return buckets, mass


def _clicked_joint(state: StateVector, assignments: list[tuple[str, BasisAngle]]
                   ) -> tuple[dict[tuple[int, int], float], float]:
    """Joint bit weights of two channels over the branches where both clicked:
    the unnormalized joint over (first bit, second bit), each weight the
    left-to-right sum of its pieces, and the mass of those branches."""
    buckets, mass = _clicked_buckets(state, assignments)
    return {(a, b): left_sum(w for w, _ in buckets.get((a, b), ()))
            for a in (0, 1) for b in (0, 1)}, mass


@dataclass(frozen=True)
class QberReport:
    qber: float
    sift_probability: float  # P(both channels clicked) under the given bases
    joint: dict[tuple[int, int], float]  # outcome bits (alice, bob), sums to 1


def qber_from_state(state: StateVector, alice_basis: BasisAngle,
                    bob_basis: BasisAngle) -> QberReport:
    """Exact Born-rule error rate of one emitted state under threshold detection."""
    joint, clicked_mass = _clicked_joint(state, [("A", alice_basis), ("B", bob_basis)])
    if clicked_mass <= 0.0:
        return QberReport(0.0, 0.0, joint)
    joint = {k: v / clicked_mass for k, v in joint.items()}
    # anti-correlation convention: equal outcomes are errors
    qber = joint[(0, 0)] + joint[(1, 1)]
    return QberReport(qber, clicked_mass / state.norm_sq(), joint)


class EveBranch(NamedTuple):
    probability: float  # conditioned on both parties clicking
    state: StateVector  # pure state of the eavesdropper's modes only


def eve_conditional_states(state: StateVector, alice_basis: BasisAngle,
                           bob_basis: BasisAngle) -> dict[tuple[int, int], EveBranch]:
    """Eavesdropper's pure conditional state for each sifted outcome pair.

    Keys are outcome bits (alice, bob).  The measured A and B channels are
    peeled off the post-measurement state, so the returned states live on the
    remaining (eavesdropper) modes and can be compared by inner product.
    Raises if some outcome pair would leave the eavesdropper in a mixture.
    """
    buckets, clicked_mass = _clicked_buckets(state, [("A", alice_basis), ("B", bob_basis)])
    measured = [*state.registry.channel_modes("A"), *state.registry.channel_modes("B")]
    out: dict[tuple[int, int], EveBranch] = {}
    for key, pieces in sorted(buckets.items()):
        prob = left_sum(p for p, _ in pieces)
        first, *others = [post.drop_modes(measured) for _, post in pieces]
        for other in others:
            if abs(abs(first.inner(other)) - 1.0) > 1e-9:
                raise FockError(
                    f"eavesdropper state for outcome {key} is not pure")
        out[key] = EveBranch(prob / clicked_mass, first)
    return out


@dataclass(frozen=True)
class LeakBound:
    eve_info: float  # the eavesdropper's information per sifted key bit
    bound: float     # h(QBER), the error-correction leakage
    margin: float    # bound - eve_info


def leak_vs_bound(p: float) -> LeakBound:
    """Splitting-attack leakage versus the entropy already spent on errors.

    With attack fraction p the error rate is p/6 and the per-bit leak is
    the paper's p*h(1/10), which leaves out the error rounds (see the module
    docstring); the margin bound - leak stays positive on all of (0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"attack fraction {p} outside [0, 1]")
    eve_info = p * binary_entropy(0.1)
    bound = binary_entropy(p / 6.0)
    return LeakBound(eve_info, bound, bound - eve_info)


class CorrelationReport(NamedTuple):
    value: float
    degenerate: bool  # a marginal was constant; value set by the copy convention


def eve_wrong_basis_correlation(state: StateVector,
                                eve_basis: BasisAngle = DA) -> CorrelationReport:
    """Pearson correlation between Alice's bit and the eavesdropper's tap bit.

    Alice threshold-detects her channel in HV while the eavesdropper
    reads her first stored channel (E1) in eve_basis; rounds where either side
    fails to click are discarded.  If a marginal is constant the Pearson
    coefficient is undefined: the report is flagged degenerate and the value
    is +1 for a perfectly copied bit, -1 for a perfectly flipped one, else 0.
    """
    joint, mass = _clicked_joint(state, [("A", HV), ("E1", eve_basis)])
    if mass <= 0.0:
        raise FockError("no rounds where both Alice and the tap clicked")
    joint = {k: v / mass for k, v in joint.items()}
    mean_a = joint[(1, 0)] + joint[(1, 1)]
    mean_e = joint[(0, 1)] + joint[(1, 1)]
    var_a = mean_a * (1.0 - mean_a)
    var_e = mean_e * (1.0 - mean_e)
    if var_a < 1e-24 or var_e < 1e-24:
        agree = joint[(0, 0)] + joint[(1, 1)]
        value = 1.0 if agree > 1.0 - 1e-12 else (-1.0 if agree < 1e-12 else 0.0)
        return CorrelationReport(value, True)
    cov = joint[(1, 1)] - mean_a * mean_e
    return CorrelationReport(cov / math.sqrt(var_a * var_e), False)
