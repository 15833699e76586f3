"""Per-round sampling for Monte Carlo sessions, and the legacy transcript hash.

Every round consumes a fixed block of DRAWS_PER_ROUND uniforms from the
counter-based master stream (slot layout below), picks a pre-enumerated
scenario and outcome row, and writes one int8 record.  `sample_rounds` does
this for a whole chunk of rounds at once with vectorized numpy: one
`searchsorted` over the scenarios, then one per (scenario, basis pair) group
over its outcome rows.

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

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def sample_rounds(u, scen_cum, grp_off, grp_len,
                  row_cum, row_a, row_b, row_e1, row_e2,
                  keep_double: bool) -> np.ndarray:
    """Run one chunk of rounds; returns the (n, N_COLS) int8 record array."""
    n = u.shape[0]
    out = np.empty((n, N_COLS), dtype=np.int8)
    s = np.searchsorted(scen_cum, u[:, 0], side="right")
    abasis = (u[:, 1] >= 0.5).astype(np.int8)
    bbasis = (u[:, 2] >= 0.5).astype(np.int8)
    g = (s * 2 + abasis) * 2 + bbasis
    idx = np.empty(n, dtype=np.int64)
    for gi in range(grp_off.shape[0]):
        mask = g == gi
        if not mask.any():
            continue
        off = grp_off[gi]
        k = np.searchsorted(row_cum[off:off + grp_len[gi]], u[mask, 3], side="right")
        idx[mask] = off + k
    akind = row_a[idx]
    bkind = row_b[idx]

    abit = np.full(n, -1, dtype=np.int8)
    abit[akind == 1] = 0
    abit[akind == 2] = 1
    dc = akind == 3
    abit[dc] = (u[dc, 4] >= 0.5).astype(np.int8)
    bkey = np.full(n, -1, dtype=np.int8)
    bkey[bkind == 1] = 1
    bkey[bkind == 2] = 0
    dc = bkind == 3
    bkey[dc] = (u[dc, 5] < 0.5).astype(np.int8)

    if keep_double:
        a_clicked = akind != 0
        b_clicked = bkind != 0
    else:
        a_clicked = (akind != 0) & (akind != 3)
        b_clicked = (bkind != 0) & (bkind != 3)
    sifted = ((abasis == bbasis) & a_clicked & b_clicked).astype(np.int8)

    out[:, 0] = s
    out[:, 1] = abasis
    out[:, 2] = bbasis
    out[:, 3] = akind
    out[:, 4] = bkind
    out[:, 5] = abit
    out[:, 6] = bkey
    out[:, 7] = sifted
    out[:, 8] = row_e1[idx]
    out[:, 9] = row_e2[idx]
    return out


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
