"""Per-round sampling for Monte Carlo sessions.

Every round consumes a fixed block of DRAWS_PER_ROUND 64-bit words from the
counter-based master stream (slot layout below) and picks a pre-enumerated
scenario and outcome row.  `sample_rounds` does this for one block of
rounds at once with vectorized numpy, through two guide tables (the
cutpoint method of Chen & Asau, 1974; Devroye, Non-Uniform Random Variate
Generation, III.2.4) built once per template by `guide_tables`: a draw's
cell of [0, 1) names its scenario, or its outcome row within the round's
(scenario, basis pair) group, with one indexed load.  The few draws whose
cell holds a threshold take the exact search instead (a `searchsorted` over
the scenarios, a fixed-width binary search over the group's rows), so every
round draws what a per-group `searchsorted` would, and the rounds drawn are
unchanged.  The per-session template (`lookup_tables`) holds four rows per
outcome row, one per pair of double-click draws, so a round is exactly one
template row: the sampler returns that row's index (uint16), and the
round's record is `template[index]`.  A session tallies from how many
rounds drew each row, and a version-3 transcript stores each round's row
code, `codes[index]` for the template's codes; neither builds records.
`template_probabilities` gives the exact probability of each row, the
expectation of those counts.

Draw slots per round: 0 scenario, 1 Alice basis, 2 Bob basis, 3 outcome row,
4 Alice double-click bit, 5 Bob double-click bit (4 and 5 pick one of the
outcome row's four template rows), 6-7 reserved (drawn, never read).  A
slot's word w is the draw u = (w >> 11) * 2**-53 in [0, 1), the double
`numpy.random.Generator.random` makes of it, and the sampler makes each
test on u exactly on the word's bits: u >= 0.5 is bit 63, and u's cell
among 2**k equal cells of [0, 1) is w >> (64 - k) (k <= 53).  Only a draw
in a guide cell that holds a threshold is made a double.  The low 11 bits
of every word, and slots 6-7, never change a round.

Record columns: scenario, alice_basis, bob_basis, alice_kind, bob_kind,
alice_bit, bob_key_bit, sifted, eve1_bit, eve2_bit (bits are -1 when absent;
kinds encode NoClick/Bit0/Bit1/Double as 0..3).
"""

from __future__ import annotations

import numpy as np

DRAWS_PER_ROUND = 8
N_COLS = 10
# Template rows a uint16 round index can address.
MAX_TEMPLATE_ROWS = 1 << 16
# Guide cells: the scenario guide cuts [0, 1) into SCENARIO_CELLS equal
# cells, the outcome guide into CELLS_PER_SLOT cells per slot of a group's
# width.  Both counts are powers of two, so a draw's cell is a shift of its
# word and c / cells is exact.
SCENARIO_CELLS = 1 << 12
CELLS_PER_SLOT = 16

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def lookup_tables(grp_off, grp_len, row_cum, row_a, row_b, row_e1, row_e2,
                  keep_double: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width lookup arrays for `sample_rounds`: (thresholds, template).

    Group g (scenario g // 4, Alice basis g // 2 % 2, Bob basis g % 2)
    owns slots [g*W, (g+1)*W), W the next power of two >= its longest
    group.  thresholds (float64[groups, W]) holds each group's `row_cum`,
    whose last row is 1.0, and +inf in the padding.  template
    (int8[groups * W * 4, N_COLS]) holds the whole record of each slot's
    row once per pair of double-click draws: row 4*slot + 2*a + b, with a
    and b whether draw slots 4 and 5 are >= 0.5, gives a double click of
    Alice the bit a and one of Bob the key bit 1 - b.  Padding rows are 0.
    `guide_tables` builds the sampler's guides from the thresholds.
    """
    groups = grp_off.shape[0]
    width = 1 << (int(grp_len.max()) - 1).bit_length()
    g = np.repeat(np.arange(groups), grp_len)
    slot = g * width
    slot += np.arange(row_cum.shape[0])
    slot -= grp_off[g]
    thresholds = np.full(groups * width, np.inf)
    thresholds[slot] = row_cum
    # per kind (NoClick, Bit0, Bit1, Double): Alice's bit, Bob's key bit
    # (flipped; a double click's are set per draw below), whether the party
    # clicked under the double-click policy
    kind = np.array([(-1, -1, 0), (0, 1, 1), (1, 0, 1), (0, 0, keep_double)], dtype=np.int8)
    a, b = kind[row_a], kind[row_b]
    # each row's record: its group's scenario and bases, then its outcome
    rec = np.empty((slot.shape[0], N_COLS), dtype=np.int8)
    rec[:, 0] = g // 4
    rec[:, 1] = g // 2 % 2
    rec[:, 2] = g % 2
    rec[:, 3] = row_a
    rec[:, 4] = row_b
    rec[:, 5] = a[:, 0]
    rec[:, 6] = b[:, 1]
    rec[:, 7] = (rec[:, 1] == rec[:, 2]) & a[:, 2] & b[:, 2]
    rec[:, 8] = row_e1
    rec[:, 9] = row_e2
    template = np.zeros((groups * width, 4, N_COLS), dtype=np.int8)
    template[slot] = rec[:, None, :]
    template[slot[row_a == 3], :, 5] = (0, 0, 1, 1)
    template[slot[row_b == 3], :, 6] = (1, 0, 1, 0)
    return thresholds.reshape(groups, width), template.reshape(-1, N_COLS)


def template_probabilities(scen_cum, thresholds) -> np.ndarray:
    """float64[len(template)]: the exact probability that a round draws
    each row of `lookup_tables`' template.

    A row's probability is its scenario's (from `scen_cum`) times 1/4 for
    the basis pair, times its share of its group's `row_cum` (from
    `thresholds`), times 1/4 for the pair of double-click draws; the
    padding rows get 0.
    """
    scen = np.diff(scen_cum, prepend=0.0)
    share = np.diff(np.where(np.isinf(thresholds), 1.0, thresholds), axis=1, prepend=0.0)
    return np.repeat((share * np.repeat(scen / 16.0, 4)[:, None]).ravel(), 4)


def _guide(thresholds, cells: int, scale: int) -> np.ndarray:
    """int32[rows * cells]: the guide of each row of `thresholds` (float64[rows,
    W], non-decreasing, +inf padding) over `cells` equal cells of [0, 1).

    Cell c of row r holds `scale` times (r * W plus the number of the row's
    thresholds <= c / cells), which for a draw in the cell is its slot as
    `searchsorted(side="right")` gives it; a cell with a threshold strictly
    inside holds -1.  The entries of a row are runs: the count k fills the
    cells from the k-th threshold's ceil(t * cells) up to the next one's.
    """
    rows, width = thresholds.shape
    scaled = thresholds * cells
    edges = np.zeros((rows, width + 2))
    edges[:, -1] = cells
    np.ceil(scaled, out=edges[:, 1:-1])
    np.minimum(edges, cells, out=edges)
    runs = np.diff(edges, axis=1).astype(np.intp).ravel()
    slot = np.arange(rows * (width + 1), dtype=np.int32)
    slot -= np.repeat(np.arange(rows, dtype=np.int32), width + 1)
    slot *= np.int32(scale)
    guide = np.repeat(slot, runs)
    cell = np.floor(scaled)
    inside = np.flatnonzero((cell != scaled) & (cell < cells))
    guide[inside // width * cells + cell.ravel()[inside].astype(np.intp)] = -1
    return guide


def guide_tables(scen_cum, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's guides for `lookup_tables`' thresholds:
    (scenario guide, outcome guide), both int32.

    The scenario guide has SCENARIO_CELLS cells; each holds the index of
    the first outcome-guide cell of its scenario's groups (s * 4 * K, K =
    CELLS_PER_SLOT * W cells per group), for the scenario s a draw in it
    picks.  The outcome guide has K cells per group; each holds the group
    slot a draw in it picks.  A cell whose draws do not all pick one entry
    holds -1.
    """
    cells = CELLS_PER_SLOT * thresholds.shape[1]
    return (_guide(scen_cum[None, :], SCENARIO_CELLS, 4 * cells),
            _guide(thresholds, cells, 1))


def _search_slots(draw, pos, thresholds) -> np.ndarray:
    """Each draw's slot in the group whose first slot is `pos`: a branchless
    binary search of log2(W) steps, each comparing draw >= thr[slot], the
    comparisons `searchsorted(row_cum, draw, side="right")` makes on the
    group's non-decreasing rows.  A draw < 1 never passes a group's last
    row or its padding, so every probe stays inside the group and the take
    can use mode="clip", which writes `out=` without a buffered copy."""
    width = thresholds.shape[1]
    thr = thresholds.ravel()
    probe = np.empty_like(pos)
    cut = np.empty(draw.shape[0])
    passed = np.empty(draw.shape[0], dtype=bool)
    step = width // 2
    while step:
        np.add(pos, step - 1, out=probe)
        np.take(thr, probe, out=cut, mode="clip")
        np.greater_equal(draw, cut, out=passed)
        np.multiply(passed, step, out=probe)
        pos += probe
        step //= 2
    return pos


def _draws(words) -> np.ndarray:
    """float64: the draw (w >> 11) * 2**-53 of each word w, exactly."""
    return (words >> 11) * 2.0**-53


def _cell_shift(cells: int) -> int:
    """The shift w >> shift that gives a draw's cell among `cells` = 2**k
    equal cells of [0, 1): 64 - k."""
    return 65 - cells.bit_length()


def sample_rounds(words, scen_cum, thresholds, scen_guide, group_guide, counts) -> np.ndarray:
    """Run one block of rounds; returns each round's template index
    (uint16[n]) and adds to `counts` (intp[len(template)]) how many rounds
    drew each row.

    `words` (uint64[n, DRAWS_PER_ROUND]) holds each round's words, read as
    the draws in the module docstring; `thresholds` comes from
    `lookup_tables`, whose template has at most MAX_TEMPLATE_ROWS rows, and
    the guides from `guide_tables`.  A draw's cell is a shift of its word,
    and the guide's entry for it is the scenario, then the outcome row, the
    exact search would find.  Only draws in a cell that holds -1 are made
    doubles and searched: the scenario draw with `searchsorted`, the
    outcome draw with `_search_slots`.  The basis and double-click bits
    come from one pass over the block's top bits.  A block of
    `protocol.CHUNK_ROUNDS` keeps these temporaries in cache.
    """
    cells = CELLS_PER_SLOT * thresholds.shape[1]
    # bit 63 of a word is the sign bit of the same 8 bytes read as a double,
    # which `signbit` reads from any pattern, NaN included; on words in cache
    # numpy does this faster than it compares uint64 with 2**63
    half = np.signbit(words.view(np.float64)).view(np.uint8)
    x = words[:, 0] >> _cell_shift(SCENARIO_CELLS)
    cell = np.take(scen_guide, x.view(np.int64))
    split = np.flatnonzero(cell < 0)
    if split.size:
        cell[split] = np.searchsorted(scen_cum, _draws(words[split, 0]),
                                      side="right") * (4 * cells)
    cell += half[:, 1] * np.int32(2 * cells)
    cell += half[:, 2] * np.int32(cells)
    np.right_shift(words[:, 3], _cell_shift(cells), out=x)
    cell += x.astype(np.int32)
    pos = np.take(group_guide, cell)
    split = np.flatnonzero(pos < 0)
    if split.size:
        pos[split] = _search_slots(_draws(words[split, 3]),
                                   cell[split] // cells * thresholds.shape[1], thresholds)
    pos *= 4
    pos += half[:, 4] * np.int32(2)
    pos += half[:, 5]
    counts += np.bincount(pos, minlength=counts.shape[0])
    return pos.astype(np.uint16)


# No caller; ROADMAP item 6 retargets the benchmark test that deletes it, then removes it.
def fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of a byte string.

    `h` is the state to start from: the hash of the bytes before `data`
    chains the hash over pieces.
    """
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
