"""Per-round sampling for Monte Carlo sessions, and the legacy transcript hash.

Every round consumes a fixed block of DRAWS_PER_ROUND uniforms from the
counter-based master stream (slot layout below), picks a pre-enumerated
scenario and outcome row, and writes one int8 record.  `sample_rounds` does
this for a whole chunk of rounds at once with vectorized numpy: one
`searchsorted` over the scenarios, then a fixed-width binary search over the
outcome rows of each round's (scenario, basis pair) group, and one gather of
the record from a per-session template (`lookup_tables`).  It makes the same
float comparisons as a per-group `searchsorted`, so records are unchanged.

Draw slots per round: 0 scenario, 1 Alice basis, 2 Bob basis, 3 outcome row,
4 Alice double-click bit, 5 Bob double-click bit, 6-7 reserved.

Record columns: scenario, alice_basis, bob_basis, alice_kind, bob_kind,
alice_bit, bob_key_bit, sifted, eve1_bit, eve2_bit (bits are -1 when absent;
kinds encode NoClick/Bit0/Bit1/Double as 0..3).

`fnv1a64` is the checksum of version-1 transcripts (trailer '#fnv1a64=');
replay still verifies those files with it.
"""

from __future__ import annotations

import numpy as np

DRAWS_PER_ROUND = 8
N_COLS = 10
# Rounds sampled per block.
SAMPLE_ROWS = 1 << 14

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def lookup_tables(grp_off, grp_len, row_cum, row_a, row_b, row_e1, row_e2,
                  keep_double: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width lookup arrays for `sample_rounds`: (thresholds, template).

    Group g (scenario g // 4, Alice basis g // 2 % 2, Bob basis g % 2)
    owns slots [g*W, (g+1)*W), W the next power of two >= its longest
    group.  thresholds (float64[groups, W]) holds each group's `row_cum`,
    whose last row is 1.0, and +inf in the padding.  template
    (int8[groups * W, N_COLS]) holds each row's record as far as the row
    decides it: a double-click bit is 0, to be set from its draw slot.
    """
    groups = grp_off.shape[0]
    width = 1 << (max(grp_len.tolist()) - 1).bit_length()
    g = np.repeat(np.arange(groups), grp_len)
    slot = g * width + np.arange(row_cum.shape[0]) - grp_off[g]
    thresholds = np.full(groups * width, np.inf)
    thresholds[slot] = row_cum
    # per group: scenario, Alice basis, Bob basis, whether the bases agree
    group = np.array([(i // 4, i // 2 % 2, i % 2, i // 2 % 2 == i % 2) for i in range(groups)],
                     dtype=np.int8)[g]
    # per kind (NoClick, Bit0, Bit1, Double): Alice's bit, Bob's key bit
    # (flipped), whether the party clicked under the double-click policy
    kind = np.array([(-1, -1, 0), (0, 1, 1), (1, 0, 1), (0, 0, keep_double)], dtype=np.int8)
    a, b = kind[row_a], kind[row_b]
    rows = np.empty((slot.shape[0], N_COLS), dtype=np.int8)
    rows[:, :3] = group[:, :3]
    rows[:, 3] = row_a
    rows[:, 4] = row_b
    rows[:, 5] = a[:, 0]
    rows[:, 6] = b[:, 1]
    rows[:, 7] = group[:, 3] & a[:, 2] & b[:, 2]
    rows[:, 8] = row_e1
    rows[:, 9] = row_e2
    template = np.zeros((groups * width, N_COLS), dtype=np.int8)
    template[slot] = rows
    return thresholds.reshape(groups, width), template


def sample_rounds(u, scen_cum, thresholds, template, out=None) -> np.ndarray:
    """Run one chunk of rounds; returns the (n, N_COLS) int8 record array,
    written into `out` if given.

    `u` holds each round's uniforms in [0, 1); `thresholds` and `template`
    come from `lookup_tables`.  Rounds are sampled in blocks of SAMPLE_ROWS,
    whose temporaries stay in cache.
    """
    n = u.shape[0]
    if out is None:
        out = np.empty((n, N_COLS), dtype=np.int8)
    thr = thresholds.ravel()
    for lo in range(0, n, SAMPLE_ROWS):
        _sample_block(u[lo:lo + SAMPLE_ROWS], scen_cum, thr, thresholds.shape[1], template,
                      out[lo:lo + SAMPLE_ROWS])
    return out


def _sample_block(u, scen_cum, thr, width, template, out) -> None:
    """Write the records of the rounds `u` into `out`.

    The outcome row is found by a branchless binary search over the round's
    group slots: each step compares u3 >= thr[slot], the comparisons
    `searchsorted(row_cum, u3, side="right")` makes on the group's
    non-decreasing rows, and u3 < 1 never passes a group's last row or its
    padding.  Every index stays inside the arrays, so the takes use
    mode="clip", which writes `out=` without a buffered copy.
    """
    n = u.shape[0]
    draw = np.empty(n)  # one draw column at a time, contiguous: faster to search
    draw[:] = u[:, 0]
    pos = np.searchsorted(scen_cum, draw, side="right")
    pos *= 2
    pos += u[:, 1] >= 0.5
    pos *= 2
    pos += u[:, 2] >= 0.5
    pos *= width
    draw[:] = u[:, 3]
    probe = np.empty_like(pos)
    cut = np.empty(n)
    passed = np.empty(n, dtype=bool)
    step = width // 2
    while step:
        np.add(pos, step - 1, out=probe)
        np.take(thr, probe, out=cut, mode="clip")
        np.greater_equal(draw, cut, out=passed)
        np.multiply(passed, step, out=probe)
        pos += probe
        step //= 2
    np.take(template, pos, axis=0, out=out, mode="clip")
    dc = np.flatnonzero(out[:, 3] == 3)
    out[dc, 5] = u[dc, 4] >= 0.5
    dc = np.flatnonzero(out[:, 4] == 3)
    out[dc, 6] = u[dc, 5] < 0.5


def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of a byte string.

    `h` is the state to start from: the hash of the bytes before `data`
    chains the hash over pieces.
    """
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
