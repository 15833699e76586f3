"""The round sampler against the per-group `searchsorted` sampler it replaced.

`reference_sample_rounds` is that sampler, kept here as the reference: it
reads each round's draws as doubles, u = (w >> 11) * 2**-53 for the
stream's 64-bit words w, where `sample_rounds` reads the words' bits.  For
every buildable table of the golden grid and both double-click policies, the
records a session samples (its template's rows at the indices the sampler
returns) must be byte-equal to it: on real Philox words, and on words whose
draws sit beside every scenario and outcome-row boundary and every cell edge
of the sampler's guides (the largest draw below the edge and the smallest
at or above it).  A high-brightness template (144 groups of width 16) joins
the compared configs, and both it and the paper's template have guide cells
whose draws take the exact search.  The bits no draw reads, the low 11 of
every word and all of slots 6-7, must change no record.
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


# the steps k of the draws k * 2**-53 at 0.5 (bit 63 of the word) and just below it
HALF = 1 << 52
BELOW_HALF = HALF - 1


def draws(words):
    """The double each word is the draw of, as `Generator.random` makes it."""
    return (words >> 11) * 2.0**-53


def steps_beside(edges):
    """For each edge t in [0, 1], the steps k of the draws k * 2**-53 beside
    it: the largest draw below t and the smallest at or above it, within
    [0, 1).  A t >= 0.5 is a multiple of 2**-53, so the second draw is t;
    below 0.5 a threshold need not be, and no draw lands on it."""
    k = np.ceil(np.asarray(edges, dtype=np.float64) * 2.0**53)
    return np.unique(np.clip(np.concatenate((k - 1, k)), 0, 2**53 - 1)).astype(np.int64)


def edge_words(tables, seed):
    """Word blocks whose draws sit beside every boundary of the tables.

    Per group and per outcome draw beside 0, each of the group's `row_cum`
    values and 1, two rounds: the scenario draw the lowest and the highest
    that picks the scenario (beside its lower and upper `scen_cum`
    boundaries).  The basis and double-click draws are 0.5 or the draw just
    below it; the reserved slots are Philox words.

    Then the draws beside the guide cell edges c / K of `guide_tables`: per
    group, one round with each as its outcome draw (the scenario draw its
    lowest), and one round with each draw beside a scenario-guide edge as
    its scenario draw, its basis pair and outcome draw cycling through the
    others.
    """
    lowest = np.ceil(np.concatenate(([0.0], tables.scen_cum[:-1])) * 2.0**53).astype(np.int64)
    highest = np.ceil(tables.scen_cum * 2.0**53).astype(np.int64) - 1
    rows = []
    for g, (off, n) in enumerate(zip(tables.grp_off, tables.grp_len)):
        s, a, b = g // 4, g // 2 % 2, g % 2
        for k3 in steps_beside([0.0, *tables.row_cum[off:off + n], 1.0]):
            for k0 in (lowest[s], highest[s]):
                rows.append((k0, HALF if a else BELOW_HALF, HALF if b else BELOW_HALF, k3))

    def cell_edges(cells):
        return steps_beside(np.arange(cells + 1) / cells)

    thresholds, _ = _kernels.lookup_tables(tables.grp_off, tables.grp_len, tables.row_cum,
                                           tables.row_a, tables.row_b, tables.row_e1,
                                           tables.row_e2, True)
    outcome_edges = cell_edges(_kernels.CELLS_PER_SLOT * thresholds.shape[1])
    for g in range(tables.grp_off.shape[0]):
        s, a, b = g // 4, g // 2 % 2, g % 2
        for k3 in outcome_edges:
            rows.append((lowest[s], HALF if a else BELOW_HALF, HALF if b else BELOW_HALF, k3))
    for i, k0 in enumerate(cell_edges(_kernels.SCENARIO_CELLS)):
        rows.append((k0, HALF if i % 2 else BELOW_HALF, HALF if i // 2 % 2 else BELOW_HALF,
                     outcome_edges[i % outcome_edges.shape[0]]))
    w = protocol._uniform_block(seed, 0, len(rows))
    w[:, :4] = np.array(rows, dtype=np.uint64) << 11
    w[0::2, 4], w[1::2, 4] = HALF << 11, BELOW_HALF << 11
    w[0::2, 5], w[1::2, 5] = BELOW_HALF << 11, HALF << 11
    return w


def unread_bits_changed(words, seed):
    """`words` with random low 11 bits and random words in slots 6-7."""
    rng = np.random.default_rng(seed)
    changed = words ^ rng.integers(0, 1 << 11, size=words.shape, dtype=np.uint64)
    changed[:, 6:] = rng.integers(0, 2**64, size=(words.shape[0], 2), dtype=np.uint64)
    return changed


def session_records(monkeypatch, config, w):
    """The records of the rounds `_simulate` draws for `config` when its
    word stream is `w`: its template's rows at the drawn indices."""
    def stream(seed, start, count, out=None):
        if out is None:  # a cold session's first draw
            return w[start:start + count].copy()
        out[:] = w[start:start + count]
        return out

    monkeypatch.setattr(protocol, "_uniform_block", stream)
    template, _, blocks = protocol._simulate(config)
    return np.concatenate([template.rows[idx] for _, idx in blocks])


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("name,source,eve", SAMPLED, ids=[name for name, _, _ in SAMPLED])
def test_sampler_matches_reference(monkeypatch, name, source, eve, policy):
    config = SessionConfig(rounds=1, seed=0, source=source, eve=eve, double_click_policy=policy)
    tables = protocol._build_tables(config)
    seed = sum(map(ord, name))
    # 40 000 real rounds span several of the sampler's blocks
    w = np.concatenate([protocol._uniform_block(seed, 0, 40_000), edge_words(tables, seed)])
    reserved = protocol._uniform_block(seed + 1, 0, w.shape[0])[:, 6:]
    config = SessionConfig(rounds=w.shape[0], seed=seed, source=source, eve=eve,
                           double_click_policy=policy)
    want = reference_sample_rounds(draws(w), tables, policy == "assign")
    got = session_records(monkeypatch, config, w)
    assert got.dtype == np.int8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

    # draw slots 6-7 are reserved: no record depends on them
    w[:, 6:] = reserved
    assert session_records(monkeypatch, config, w).tobytes() == want.tobytes()
    # nor on the low 11 bits of any word, which no draw keeps
    changed = unread_bits_changed(w, seed)
    assert session_records(monkeypatch, config, changed).tobytes() == want.tobytes()


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
        template.scen_cum, edges[whole], side="right"))
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
    w = np.concatenate([protocol._uniform_block(15, 0, 20_000), edge_words(tables, 15)])
    for keep_double in (True, False):
        thresholds, template = _kernels.lookup_tables(
            tables.grp_off, tables.grp_len, tables.row_cum, tables.row_a, tables.row_b,
            tables.row_e1, tables.row_e2, keep_double)
        guides = _kernels.guide_tables(scen_cum, thresholds)
        assert (guides[1] == -1).any()
        counts = np.zeros(template.shape[0], dtype=np.intp)
        idx = _kernels.sample_rounds(w, scen_cum, thresholds, *guides, counts)
        want = reference_sample_rounds(draws(w), tables, keep_double)
        assert template[idx].tobytes() == want.tobytes()
        assert np.array_equal(counts, np.bincount(idx, minlength=template.shape[0]))
        changed = unread_bits_changed(w, 16)
        assert np.array_equal(_kernels.sample_rounds(changed, scen_cum, thresholds, *guides,
                                                     np.zeros_like(counts)), idx)
