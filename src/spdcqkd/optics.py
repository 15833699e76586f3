"""Linear optics and threshold detection on sparse polarization-mode states.

Conventions fixed here and relied on everywhere else:

* Each party has one channel: its two polarization modes, H in slot 0 and
  V in slot 1.  Polarization rotation by theta re-expresses a party's
  channel in the rotated basis
  with determinant +1:  h  ->  cos(t)*m0' - sin(t)*m1',
                         v  ->  sin(t)*m0' + cos(t)*m1'
  (substitution on creation operators; the channel's two slots afterwards
  mean the rotated modes).  At theta = pi/4 slot 0 is the diagonal mode and
  two H/V photons interfere Hong-Ou-Mandel style:
  |11> -> (|20>' - |02>')/sqrt(2).
* The 50:50 beamsplitter is the real symmetric substitution
  a_from -> (a_from + a_to)/sqrt(2) with no relative phase; the deflected
  output mode must start in vacuum.
* Threshold detectors per party: two detectors (one per polarization slot),
  outcome classes NoClick / Bit0 / Bit1 / DoubleClick on the (any photons in
  slot 0, any in slot 1) pattern.

Photon counting (`qnd_count`) and threshold detection
(`joint_threshold_branches`) are both `StateVector.measure` of a function
of the occupations, and the one implementation of each: the session
tables and the security metrics read their click probabilities from the
same branches that carry the post-measurement states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, NamedTuple

from .fock import MODE_CAP, FockError, ModeCapError, ModeLabel, StateVector


@dataclass(frozen=True)
class BasisAngle:
    """Measurement-basis rotation angle, radians in [0, pi)."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi:
            raise FockError(f"basis angle {self.theta} outside [0, pi)")


HV = BasisAngle(0.0)
DA = BasisAngle(math.pi / 4)


class OutcomeKind(IntEnum):
    NO_CLICK = 0
    BIT0 = 1
    BIT1 = 2
    DOUBLE = 3


class CountBranch(NamedTuple):
    count: int
    probability: float
    state: StateVector


def beamsplitter_50_50(state: StateVector, from_mode: ModeLabel,
                       to_mode: ModeLabel) -> StateVector:
    """Send from_mode through a 50:50 splitter whose other output is to_mode.

    n photons fan out binomially:
    |n, 0> -> 2^(-n/2) * sum_k sqrt(C(n, k)) |n-k, k>.
    to_mode must be unoccupied in every term of the input.
    """
    fi = state.registry.index(from_mode)
    ti = state.registry.index(to_mode)
    if fi == ti:
        raise FockError(f"beamsplitter needs two distinct modes, got {ModeLabel(*from_mode)} twice")
    amps: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms():
        if occ[ti] != 0:
            raise FockError(f"beamsplitter output mode {ModeLabel(*to_mode)} is occupied")
        n = occ[fi]
        scale = amp * 2.0 ** (-0.5 * n)
        for k in range(n + 1):
            new = list(occ)
            new[fi] = n - k
            new[ti] = k
            key = tuple(new)
            amps[key] = amps.get(key, 0j) + scale * math.sqrt(math.comb(n, k))
    return StateVector._trusted(state.registry, amps)


# Entries kept by the rotation-weight cache: one per (nh, nv, cos, sin).  The
# engine uses a few angles on channels of at most MODE_CAP photons, a few
# hundred entries; the bound only matters to callers sweeping the angle.
ROTATION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=ROTATION_CACHE_SIZE)
def _rotation_weights(nh: int, nv: int, c: float, s: float
                      ) -> tuple[float, tuple[tuple[int, int, float], ...]]:
    """sqrt(nh! nv!) and the terms (m, nh + nv - m, weight) of |nh, nv> rotated.

    Expands (c*x - s*y)^nh (s*x + c*y)^nv, collecting x^m y^(tot-m), in
    (i, j) order; weights that are exactly zero are left out.
    """
    tot = nh + nv
    terms = []
    for i in range(nh + 1):
        wh = math.comb(nh, i) * c ** i * (-s) ** (nh - i)
        for j in range(nv + 1):
            w = wh * math.comb(nv, j) * s ** j * c ** (nv - j)
            if w == 0.0:
                continue
            m = i + j
            terms.append((m, tot - m, w * math.sqrt(math.factorial(m) * math.factorial(tot - m))))
    return math.sqrt(math.factorial(nh) * math.factorial(nv)), tuple(terms)


def rotate_polarization(state: StateVector, party: str,
                        theta: float | BasisAngle) -> StateVector:
    """Re-express a party's polarization pair in the basis rotated by theta.

    Output states skip the constructor's checks except the cap, which this
    is the one operation besides `create` to raise: a term whose channel
    holds nh + nv > MODE_CAP photons puts some of them past the cap in one
    rotated slot (at every angle but 0), and raises ModeCapError naming the
    first such slot, as the checking constructor did.  The weights per
    (nh, nv, angle) come from a bounded cache and are summed in the same
    order as the per-term formula, so amplitudes are bit-identical to it.
    """
    if isinstance(theta, BasisAngle):
        theta = theta.theta
    hi, vi = state.registry.channel_modes(party)
    c = math.cos(theta)
    s = math.sin(theta)
    cap = MODE_CAP
    amps: dict[tuple[int, ...], complex] = {}
    get = amps.get
    for occ, amp in state.terms():
        nh, nv = occ[hi], occ[vi]
        if nh + nv == 0:
            amps[occ] = get(occ, 0j) + amp
            continue
        norm, weights = _rotation_weights(nh, nv, c, s)
        new = list(occ)
        if nh + nv > cap:
            for m, rest, _ in weights:
                if m > cap or rest > cap:
                    new[hi] = m
                    new[vi] = rest
                    slot = next(k for k, n in enumerate(new) if n > cap)
                    raise ModeCapError(f"mode {state.registry.labels[slot]}: occupation "
                                       f"{new[slot]} exceeds per-mode cap {cap}")
        base = amp / norm
        for m, rest, weight in weights:
            new[hi] = m
            new[vi] = rest
            key = tuple(new)
            amps[key] = get(key, 0j) + base * weight
    return StateVector._trusted(state.registry, amps)


def qnd_count(state: StateVector, modes: Iterable[ModeLabel]) -> list[CountBranch]:
    """Nondemolition total-photon-number measurement over a set of modes.

    `StateVector.measure` of the count: every count with its Born
    probability (probabilities sum to the squared norm of the input) and the
    renormalized post-measurement state, sorted by count.
    """
    idx = [state.registry.index(m) for m in modes]
    if not idx:
        raise FockError("qnd_count needs at least one mode")
    return [CountBranch(*branch) for branch in state.measure(lambda occ: sum(occ[i] for i in idx))]


_KINDS = tuple(OutcomeKind)  # indexed by value


class ClickBranch(NamedTuple):
    kinds: tuple[OutcomeKind, ...]
    probability: float
    state: StateVector  # rotated frame, renormalized


def joint_threshold_branches(state: StateVector,
                             assignments: list[tuple[str, BasisAngle]]
                             ) -> list[ClickBranch]:
    """Joint threshold-detection branch enumeration over several channels.

    assignments lists (party, basis) per measured channel.  The state
    is rotated channel by channel, in assignment order, into each channel's
    basis (HV needs no rotation); then `StateVector.measure` takes the tuple
    of click patterns, per channel NoClick 0, Bit0 1, Bit1 2, Double 3.
    Branches are sorted by it, and probabilities sum to the squared norm of
    the input; post states stay expressed in the rotated frame with the
    measured channels' photons left in place (they purify the conditional
    state of the rest).  A caller measuring one state under several bases
    may rotate a channel they share once and measure it here in HV,
    provided the rotations keep their order: the probabilities keep every
    bit.
    """
    for party, basis in assignments:
        if basis.theta != 0.0:
            state = rotate_polarization(state, party, basis)
    chans = [state.registry.channel_modes(party) for party, _ in assignments]
    return [ClickBranch(tuple([_KINDS[k] for k in kinds]), prob, post)
            for kinds, prob, post in state.measure(
                lambda occ: tuple([(occ[h] > 0) + 2 * (occ[v] > 0) for h, v in chans]))]
