"""The round sampler against the per-group `searchsorted` sampler it replaced.

`reference_sample_rounds` is that sampler, kept here as the reference.  For
every buildable table of the golden grid and both double-click policies, the
records a session samples (its template's rows at the indices the sampler
returns) must be byte-equal to it: on real Philox draws, and on uniforms
placed exactly on every scenario and outcome-row boundary and on every
cell edge of the sampler's guides.  A high-brightness template (144
groups of width 16) joins the compared configs, and both it and the
paper's template have guide cells whose draws take the exact search.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from spdcqkd import _kernels, protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.protocol import SessionConfig, SpdcSource, SplitAttack
from spdcqkd.source import SpdcParams

from test_golden import GOLDEN_TABLES, TABLE_EVES, TABLE_SOURCES

BUILDABLE = [(f"{sn}/{en}", source, eve) for sn, source in TABLE_SOURCES for en, eve in TABLE_EVES
             if GOLDEN_TABLES[f"{sn}/{en}"] != "FockError"]
# the paper's scenario, and the largest template timed when source.n_max was
# capped (144 groups of width 16)
PAPER = ("spdc0.3/split3", SpdcSource(SpdcParams(0.3)), SplitAttack(AttackConfig(max_attempts=3)))
BRIGHT = ("spdc0.99-n32/split20", SpdcSource(SpdcParams(0.99, n_max=32)),
          SplitAttack(AttackConfig(max_attempts=20)))
SAMPLED = BUILDABLE + [BRIGHT]


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

    Then the guide cell edges c / K of `guide_tables`, and the largest
    double below each: per group, one round with each outcome-guide edge
    as its outcome draw (the scenario draw on the lower boundary), and one
    round with each scenario-guide edge as its scenario draw, its basis
    pair and outcome draw cycling through the others.
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

    def cell_edges(cells):
        edges = np.arange(cells) / cells
        return np.concatenate((edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)]))

    thresholds, _ = _kernels.lookup_tables(tables.grp_off, tables.grp_len, tables.row_cum,
                                           tables.row_a, tables.row_b, tables.row_e1,
                                           tables.row_e2, True)
    outcome_edges = cell_edges(_kernels.CELLS_PER_SLOT * thresholds.shape[1])
    for g in range(tables.grp_off.shape[0]):
        s, a, b = g // 4, g // 2 % 2, g % 2
        for u3 in outcome_edges:
            rows.append((scen_lo[s], 0.5 if a else below_half, 0.5 if b else below_half, u3))
    for i, u0 in enumerate(cell_edges(_kernels.SCENARIO_CELLS)):
        rows.append((u0, 0.5 if i % 2 else below_half, 0.5 if i // 2 % 2 else below_half,
                     outcome_edges[i % outcome_edges.shape[0]]))
    u = protocol._uniform_block(seed, 0, len(rows))
    u[:, :4] = rows
    u[0::2, 4], u[1::2, 4] = 0.5, below_half
    u[0::2, 5], u[1::2, 5] = below_half, 0.5
    return u


def session_records(monkeypatch, config, u):
    """The records of the rounds `_simulate` draws for `config` when its
    uniform stream is `u`: its template's rows at the drawn indices."""
    def draws(seed, start, count, out):
        out[:] = u[start:start + count]
        return out

    monkeypatch.setattr(protocol, "_uniform_block", draws)
    template, _, blocks = protocol._simulate(config)
    return np.concatenate([template.rows[idx] for _, idx in blocks])


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("name,source,eve", SAMPLED, ids=[name for name, _, _ in SAMPLED])
def test_sampler_matches_reference(monkeypatch, name, source, eve, policy):
    config = SessionConfig(rounds=1, seed=0, source=source, eve=eve, double_click_policy=policy)
    tables = protocol._build_tables(config)
    seed = sum(map(ord, name))
    # 40 000 real rounds span several of the sampler's blocks
    u = np.concatenate([protocol._uniform_block(seed, 0, 40_000), edge_uniforms(tables, seed)])
    reserved = protocol._uniform_block(seed + 1, 0, u.shape[0])[:, 6:]
    config = SessionConfig(rounds=u.shape[0], seed=seed, source=source, eve=eve,
                           double_click_policy=policy)
    want = reference_sample_rounds(u, tables, policy == "assign")
    got = session_records(monkeypatch, config, u)
    assert got.dtype == np.int8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

    # draw slots 6-7 are reserved: no record depends on them
    u[:, 6:] = reserved
    assert session_records(monkeypatch, config, u).tobytes() == want.tobytes()


@pytest.mark.parametrize("name,source,eve", [PAPER, BRIGHT], ids=[PAPER[0], BRIGHT[0]])
def test_guides_have_cells_the_exact_search_resolves(name, source, eve):
    # cells with a threshold inside them hold -1, and their draws take the
    # exact search; on these templates both guides have such cells, so the
    # comparisons above run that search
    template = protocol._session_template(SessionConfig(rounds=1, seed=0, source=source, eve=eve))
    width = template.thresholds.shape[1]
    for guide, cells in ((template.scen_guide, _kernels.SCENARIO_CELLS),
                         (template.group_guide,
                          _kernels.CELLS_PER_SLOT * width * template.thresholds.shape[0])):
        assert guide.dtype == np.int32 and guide.shape == (cells,)
        assert 0 < (guide == -1).sum() < cells // 20
    # every other cell holds what `searchsorted` gives at its left edge
    edges = np.arange(_kernels.SCENARIO_CELLS) / _kernels.SCENARIO_CELLS
    whole = template.scen_guide >= 0
    cells = _kernels.CELLS_PER_SLOT * width
    assert np.array_equal(template.scen_guide[whole], 4 * cells * np.searchsorted(
        template.tables.scen_cum, edges[whole], side="right"))
    guide = template.group_guide.reshape(-1, cells)
    edges = np.arange(cells) / cells
    for g, thr in enumerate(template.thresholds):
        whole = guide[g] >= 0
        assert np.array_equal(guide[g, whole],
                              g * width + np.searchsorted(thr, edges[whole], side="right"))


def test_thresholds_on_cell_edges_match_reference():
    # thresholds exactly on guide cell edges (dyadic), repeated thresholds
    # (rows of probability 0), a scenario of probability 0 and groups of one
    # row: the cases real tables rarely hit
    rng = np.random.default_rng(15)
    scen_cum = np.array([0.25, 0.25, 0.625, 1.0])
    grp_len = rng.integers(1, 7, size=4 * scen_cum.shape[0])
    grp_len[:3] = 1
    cum = []
    for n in grp_len:
        edges = rng.choice([0, 1, 2, 5, 32, 64, 65, 100, 127], size=n - 1) / 128.0
        mixed = np.where(rng.random(n - 1) < 0.3, rng.random(n - 1), edges)
        cum += [*np.sort(mixed), 1.0]
    tables = SimpleNamespace(
        scen_cum=scen_cum, grp_off=np.concatenate(([0], np.cumsum(grp_len)[:-1])),
        grp_len=grp_len, row_cum=np.array(cum), row_a=rng.integers(0, 4, len(cum)).astype(np.int8),
        row_b=rng.integers(0, 4, len(cum)).astype(np.int8),
        row_e1=rng.integers(-1, 2, len(cum)).astype(np.int8),
        row_e2=rng.integers(-1, 2, len(cum)).astype(np.int8))
    u = np.concatenate([protocol._uniform_block(15, 0, 20_000), edge_uniforms(tables, 15)])
    for keep_double in (True, False):
        thresholds, template = _kernels.lookup_tables(
            tables.grp_off, tables.grp_len, tables.row_cum, tables.row_a, tables.row_b,
            tables.row_e1, tables.row_e2, keep_double)
        guides = _kernels.guide_tables(scen_cum, thresholds)
        assert (guides[1] == -1).any()
        counts = np.zeros(template.shape[0], dtype=np.intp)
        idx = _kernels.sample_rounds(u, scen_cum, thresholds, *guides, counts)
        want = reference_sample_rounds(u, tables, keep_double)
        assert template[idx].tobytes() == want.tobytes()
        assert np.array_equal(counts, np.bincount(idx, minlength=template.shape[0]))
