"""Two-mode-squeezed polarization-entangled source states, truncated by pair number.

The type-II downconversion source emits, up to n_max photon pairs,

    |xi> = C0 * sum_n e^(i n phi) tanh^n|xi| * sum_m (-1)^m |m, n-m; n-m, m>

over the slots (A-H, A-V, B-H, B-V), with C0 = 1/cosh^2|xi| = 1 - tanh^2|xi|.
The n = 1 sector is the polarization singlet, the n = 2 sector the
four-photon component (|0220> + |2002> - |1111>)/sqrt(3).  Truncation keeps
the exact amplitudes and drops sectors above n_max, whose weight is
`truncation_tail`; each builder returns its state on the source registry.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fock import FockError, StateVector, left_sum, source_registry


# The largest pair cutoff n_max.  Session tables grow steeply with it, most
# of all near tanh_xi 1, where no sector is pruned: under a split attack (3
# attempts) a build took 0.06 s at n_max 16, 0.2-0.3 s at 24, 0.55-0.7 s at
# 32 for tanh_xi from 0.9 to 0.999999, and at tanh_xi 0.99 3.0 s at 40 and
# 66 s at 80 (one CPU of a shared Intel Xeon host, Python 3.11).  A slot
# then holds up to N_MAX_CAP photons, which fock.MODE_CAP allows.
N_MAX_CAP = 32


@dataclass(frozen=True)
class SpdcParams:
    """Interaction strength via tanh|xi| in [0, 1), pump phase phi, pair
    cutoff n_max in [0, N_MAX_CAP].

    phi must be finite with every sector phase phi * n, n <= n_max, finite.
    Each error message starts with the name of the field it rejects.
    """

    tanh_xi: float
    phi: float = 0.0
    n_max: int = 4

    def __post_init__(self):
        if not 0.0 <= self.tanh_xi < 1.0:
            raise FockError(f"tanh_xi must be in [0, 1), got {self.tanh_xi}")
        if not 0 <= self.n_max <= N_MAX_CAP:
            raise FockError(f"n_max must be in [0, {N_MAX_CAP}], got {self.n_max}")
        if not (math.isfinite(self.phi) and math.isfinite(self.phi * self.n_max)):
            raise FockError(f"phi must be finite, with phi * n_max finite, got {self.phi}")


def truncation_tail(params: SpdcParams) -> float:
    """Probability weight of the discarded sectors n > n_max.

    Closed form of 1 - C0^2 * sum_{n<=N} (n+1) x^n with x = tanh^2|xi|:
    x^(N+1) * ((N+2) - (N+1) x).
    """
    x = params.tanh_xi ** 2
    n = params.n_max
    return x ** (n + 1) * ((n + 2) - (n + 1) * x)


def squared_norm_truncated(params: SpdcParams) -> float:
    """C0^2 * sum_{n<=n_max} (n+1) tanh^(2n)|xi|, the truncated state's norm^2."""
    x = params.tanh_xi ** 2
    c0sq = (1.0 - x) ** 2
    return c0sq * left_sum((n + 1) * x ** n for n in range(params.n_max + 1))


def pair_statistics(params: SpdcParams) -> list[tuple[int, float]]:
    """(n, P(n)) rows with P(n) = (n+1) tanh^(2n) (1 - tanh^2)^2, n = 0..n_max."""
    x = params.tanh_xi ** 2
    c0sq = (1.0 - x) ** 2
    return [(n, (n + 1) * x ** n * c0sq) for n in range(params.n_max + 1)]


def spdc_state(params: SpdcParams) -> StateVector:
    """Closed-form truncated source state on (A-H, A-V, B-H, B-V)."""
    t = params.tanh_xi
    c0 = 1.0 - t * t
    amps: dict[tuple[int, ...], complex] = {}
    for n in range(params.n_max + 1):
        sector = c0 * (t ** n) * cmath.exp(1j * params.phi * n)
        for m in range(n + 1):
            amps[(m, n - m, n - m, m)] = sector * (-1) ** m
    return StateVector(source_registry(), amps)


def spdc_state_recursive(params: SpdcParams) -> StateVector:
    """Same state built from the two coefficient recursions instead of the closed form.

    Starting from C_0000 = C0:
        C_{i, j+1, k+1, l} =  e^(i phi) tanh|xi| * C_{ijkl}   (one H_A/V_B ... pair via b-path)
        C_{i+1, j, k, l+1} = -e^(i phi) tanh|xi| * C_{ijkl}   (one V_A/H_B pair, opposite sign)
    Interior coefficients are reachable along two paths; both are evaluated and
    must agree, so path independence is checked at build time.
    """
    t = params.tanh_xi
    step = t * cmath.exp(1j * params.phi)
    coeffs: dict[tuple[int, int, int, int], complex] = {(0, 0, 0, 0): 1.0 - t * t}
    frontier = [(0, 0, 0, 0)]
    for _ in range(params.n_max):
        nxt = []
        for occ in frontier:
            i, j, k, l = occ
            base = coeffs[occ]
            for new, val in (((i, j + 1, k + 1, l), base * step),
                             ((i + 1, j, k, l + 1), -base * step)):
                if new in coeffs:
                    if abs(coeffs[new] - val) > 1e-12:
                        raise FockError(f"recursion paths disagree at {new}")
                else:
                    coeffs[new] = val
                    nxt.append(new)
        frontier = nxt
    return StateVector(source_registry(), dict(coeffs))


def singlet_state() -> StateVector:
    """(|0110> - |1001>)/sqrt(2): one photon pair, anti-correlated in every basis."""
    r = 1.0 / math.sqrt(2.0)
    return StateVector(source_registry(), {(0, 1, 1, 0): r, (1, 0, 0, 1): -r})


def four_photon_component() -> StateVector:
    """(|0220> + |2002> - |1111>)/sqrt(3): the normalized two-pair sector."""
    r = 1.0 / math.sqrt(3.0)
    return StateVector(source_registry(), {(0, 2, 2, 0): r, (2, 0, 0, 2): r, (1, 1, 1, 1): -r})
