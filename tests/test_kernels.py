"""The round sampler against the per-group `searchsorted` sampler it replaced.

`reference_sample_rounds` is that sampler, kept here as the reference.  For
every buildable table of the golden grid and both double-click policies, the
records a session samples must be byte-equal to it: on real Philox chunks,
and on uniforms placed exactly on every scenario and outcome-row boundary.
"""

import numpy as np
import pytest

from spdcqkd import _kernels, protocol
from spdcqkd.protocol import SessionConfig

from test_golden import GOLDEN_TABLES, TABLE_EVES, TABLE_SOURCES

BUILDABLE = [(f"{sn}/{en}", source, eve) for sn, source in TABLE_SOURCES for en, eve in TABLE_EVES
             if GOLDEN_TABLES[f"{sn}/{en}"] != "FockError"]


def reference_sample_rounds(u, tables, keep_double):
    """One mask and `searchsorted` pass per (scenario, basis pair) group."""
    n = u.shape[0]
    s = np.searchsorted(tables.scen_cum, u[:, 0], side="right")
    abasis = (u[:, 1] >= 0.5).astype(np.int8)
    bbasis = (u[:, 2] >= 0.5).astype(np.int8)
    g = (s * 2 + abasis) * 2 + bbasis
    idx = np.empty(n, dtype=np.int64)
    for gi in range(tables.grp_off.shape[0]):
        mask = g == gi
        if not mask.any():
            continue
        off = tables.grp_off[gi]
        k = np.searchsorted(tables.row_cum[off:off + tables.grp_len[gi]], u[mask, 3],
                            side="right")
        idx[mask] = off + k
    akind = tables.row_a[idx]
    bkind = tables.row_b[idx]

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

    out = np.empty((n, _kernels.N_COLS), dtype=np.int8)
    out[:, 0] = s
    out[:, 1] = abasis
    out[:, 2] = bbasis
    out[:, 3] = akind
    out[:, 4] = bkind
    out[:, 5] = abit
    out[:, 6] = bkey
    out[:, 7] = sifted
    out[:, 8] = tables.row_e1[idx]
    out[:, 9] = tables.row_e2[idx]
    return out


def edge_uniforms(tables, seed):
    """Uniform blocks that hit every boundary of the tables exactly.

    Per group and per outcome draw (0.0, each of the group's `row_cum`
    values below 1, and the largest double below 1), two rounds: the
    scenario draw on the scenario's lower `scen_cum` boundary (0.0 for the
    first) and just below its upper one.  The basis and double-click draws
    sit on 0.5 or just below it; the reserved slots are Philox draws.
    """
    below_half = np.nextafter(0.5, 0.0)
    scen_lo = np.concatenate(([0.0], tables.scen_cum[:-1]))
    scen_hi = np.nextafter(tables.scen_cum, 0.0)
    rows = []
    for g, (off, n) in enumerate(zip(tables.grp_off, tables.grp_len)):
        s, a, b = g // 4, g // 2 % 2, g % 2
        cum = tables.row_cum[off:off + n]
        for u3 in [0.0, *cum[cum < 1.0], np.nextafter(1.0, 0.0)]:
            for u0 in (scen_lo[s], scen_hi[s]):
                rows.append((u0, 0.5 if a else below_half, 0.5 if b else below_half, u3))
    u = protocol._uniform_block(seed, 0, len(rows))
    u[:, :4] = rows
    u[0::2, 4], u[1::2, 4] = 0.5, below_half
    u[0::2, 5], u[1::2, 5] = below_half, 0.5
    return u


def session_records(monkeypatch, config, u):
    """The records `_simulate` yields for `config` when its uniform stream is `u`."""
    monkeypatch.setattr(protocol, "_uniform_block",
                        lambda seed, start, count: u[start:start + count])
    return np.concatenate([rec for _, rec, _ in protocol._simulate(config)])


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("name,source,eve", BUILDABLE, ids=[name for name, _, _ in BUILDABLE])
def test_sampler_matches_reference(monkeypatch, name, source, eve, policy):
    config = SessionConfig(rounds=1, seed=0, source=source, eve=eve, double_click_policy=policy)
    tables = protocol._build_tables(config)
    seed = sum(map(ord, name))
    # 40 000 real rounds span several of the sampler's blocks
    u = np.concatenate([protocol._uniform_block(seed, 0, 40_000), edge_uniforms(tables, seed)])
    config = SessionConfig(rounds=u.shape[0], seed=seed, source=source, eve=eve,
                           double_click_policy=policy)
    want = reference_sample_rounds(u, tables, policy == "assign")
    got = session_records(monkeypatch, config, u)
    assert got.dtype == np.int8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

    # draw slots 6-7 are reserved: no record depends on them
    u[:, 6:] = protocol._uniform_block(seed + 1, 0, u.shape[0])[:, 6:]
    assert session_records(monkeypatch, config, u).tobytes() == want.tobytes()
