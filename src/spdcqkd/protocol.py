"""Monte Carlo key-distribution sessions with exact per-round physics.

Per round: the source emits (attack-mixture sources emit the post-attack
four-photon state with probability p, the singlet otherwise), any
eavesdropper strategy transforms the state, both parties draw independent
uniform bases from {HV, DA} and threshold-detect, and a round sifts when the
bases match and both parties clicked.  Bob flips his outcome bit (the source
anti-correlates), so the sifted keys agree except on error rounds.

The emitted-state / strategy / outcome tree is finite and tiny, so it is
enumerated exactly once with the sparse engine into categorical tables, and
the per-round loop just samples those tables.  The strategy branches come
from the eavesdropper models in `attack` (split_attack_branches,
intercept_branches); this module only dispatches to them.  Every round owns
a fixed block of DRAWS_PER_ROUND uniforms from a counter-based Philox
stream keyed by the session seed, so rounds can be evaluated in any order
or chunking with identical results; a session is reproduced bit-for-bit by
its seed.

A session longer than one chunk (CHUNK_ROUNDS), in a process that may run
on more than one CPU, gets its uniforms in blocks of DRAW_BLOCK_ROUNDS with
help from the daemon drawer thread of `_drawer`, started on first use and
shared by all sessions: the drawer draws pieces of DRAW_PIECE_ROUNDS of the
next block while the calling thread samples the current one, and the
calling thread draws the pieces the drawer has not taken when it comes to
that block.  The drawer runs at idle priority, so it takes only CPU time
nothing else wants, and a session is never left waiting on a drawer that
gets none.  Exactly one block is in flight, and the blocks are drawn into
two 1 MB buffers of the session, where drawing a chunk at a time holds one
4 MB chunk.  Sampling, tally and transcript writing stay on the calling
thread in chunk order, and a piece is the same bytes whichever thread
draws it, so the records are the same either way.  Shorter sessions draw
on the calling thread and start no thread.

Transcript files are CSV with header
round_idx,source_tag,alice_basis,bob_basis,alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit
(bob_bit already flipped to the key convention, '-' marks absent bits) and a
trailing checksum line '#sha256=<hex>' over all preceding bytes.  The
trailer's tag is the format version: version-1 files end in a 64-bit FNV-1a
line '#fnv1a64=<hex>' instead, and replay still verifies them.  replay()
rebuilds the full report from a transcript alone and flags checksum
mismatches.

Both directions work on blocks of rows with numpy, never a Python string
per row.  The writer builds, once per session, the text after the round
index of every possible row (it depends only on the source tag and the
seven fixed-width fields), and assembles each block of WRITE_ROWS rows from
index digits and that table.  replay() reads the checksum line from the
file's tail first (a pipe is spooled to a temporary file), then streams the
body in fixed-size reads: each read is hashed, and its whole lines are
checked field by field for all rows at once and tallied, so memory does not
grow with the file.  The first row a block check rejects is re-checked on
its own to name its error and line.  The block parser lives in `_replay`.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import _kernels
from ._kernels import DRAWS_PER_ROUND
from .attack import AttackConfig, attack_four_photon, intercept_branches, split_attack_branches
from .fock import FockError, StateVector, attack_registry
from .optics import DA, HV, BasisAngle, OutcomeKind, joint_threshold_branches
from .security import LeakBound, leak_vs_bound
from .source import SpdcParams, singlet_state, spdc_state

CHUNK_ROUNDS = 1 << 16
# Rounds per block a session longer than one chunk draws ahead (1 MB of
# uniforms), rounds per piece of a block that either thread may draw, and
# whether it draws ahead: None does when this process may run on more than
# one CPU, True or False forces the choice (for tests).
DRAW_BLOCK_ROUNDS = 1 << 14
DRAW_PIECE_ROUNDS = 1 << 12
DRAW_AHEAD: bool | None = None

TRANSCRIPT_HEADER = ("round_idx,source_tag,alice_basis,bob_basis,"
                     "alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit")
_BASIS_TOKEN = ("HV", "DA")
_KIND_TOKEN = ("nc", "b0", "b1", "dc")
_BIT_TOKEN = {-1: "-", 0: "0", 1: "1"}
# The fixed-width fields after the source tag, in file order (alice_basis,
# bob_basis, alice_outcome, bob_outcome, sifted_flag, alice_bit, bob_bit),
# each a comma and one of its tokens: 18 bytes, e.g. ",HV,DA,b0,b1,1,0,1".
# Per field: its record column, its tokens, and the value of the first token.
_BITS = tuple(_BIT_TOKEN.values())
_TAIL_FIELDS = ((1, _BASIS_TOKEN, 0), (2, _BASIS_TOKEN, 0), (3, _KIND_TOKEN, 0),
                (4, _KIND_TOKEN, 0), (7, ("0", "1"), 0), (5, _BITS, -1), (6, _BITS, -1))
_TAIL = sum(1 + len(tokens[0]) for _, tokens, _ in _TAIL_FIELDS)

# Rows formatted per transcript block.
WRITE_ROWS = 8192


class TranscriptError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SingletSource:
    pass


@dataclass(frozen=True)
class SpdcSource:
    params: SpdcParams


@dataclass(frozen=True)
class AttackMixture:
    """Emit the split-attack four-photon state with probability p, else the singlet."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise FockError(f"attack fraction must be in [0, 1], got {self.p}")


Source = Union[SingletSource, SpdcSource, AttackMixture]


@dataclass(frozen=True)
class SplitAttack:
    config: AttackConfig = AttackConfig()


@dataclass(frozen=True)
class InterceptResend:
    basis: BasisAngle | None = None  # None: fresh random basis every round


EveStrategy = Union[None, SplitAttack, InterceptResend]


@dataclass(frozen=True)
class SessionConfig:
    rounds: int
    seed: int
    source: Source
    eve: EveStrategy = None
    double_click_policy: str = "assign"  # or "discard"

    def __post_init__(self):
        if self.rounds < 1:
            raise FockError(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:
            raise FockError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 1 << 128:  # the seed is the 128-bit Philox key
            raise FockError(f"seed must be < 2**128, got {self.seed}")
        if self.double_click_policy not in ("assign", "discard"):
            raise FockError(f"unknown double_click_policy {self.double_click_policy!r}")


# ---------------------------------------------------------------------------
# config <-> JSON-friendly dicts (used by the CLI)


class ConfigError(ValueError):
    pass


def config_to_dict(config: SessionConfig) -> dict:
    if isinstance(config.source, SingletSource):
        source = {"kind": "singlet"}
    elif isinstance(config.source, SpdcSource):
        p = config.source.params
        source = {"kind": "spdc", "tanh_xi": p.tanh_xi, "phi": p.phi, "n_max": p.n_max}
    else:
        source = {"kind": "attack_mixture", "p": config.source.p}
    if config.eve is None:
        eve = {"kind": "none"}
    elif isinstance(config.eve, SplitAttack):
        eve = {"kind": "split", "max_attempts": config.eve.config.max_attempts}
    else:
        basis = config.eve.basis
        eve = {"kind": "intercept",
               "basis": "random" if basis is None else ("HV" if basis.theta == 0.0 else "DA")}
    return {"rounds": config.rounds, "seed": config.seed, "source": source,
            "eve": eve, "double_click_policy": config.double_click_policy}


def _require(d: dict, key: str, types, path: str):
    if key not in d:
        raise ConfigError(f"missing field {path}{key}")
    return _optional(d, key, types, path, None)


def _optional(d: dict, key: str, types, path: str, default):
    """d[key] if it is of one of `types` (never a bool), default if absent."""
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, types):
        raise ConfigError(f"field {path}{key} has wrong type {type(v).__name__}")
    return v


def config_from_dict(d: dict) -> SessionConfig:
    if not isinstance(d, dict):
        raise ConfigError("session config must be a JSON object")
    rounds = _require(d, "rounds", int, "")
    seed = _require(d, "seed", int, "")
    src = _require(d, "source", dict, "")
    kind = _require(src, "kind", str, "source.")
    try:
        if kind == "singlet":
            source: Source = SingletSource()
        elif kind == "spdc":
            source = SpdcSource(SpdcParams(
                tanh_xi=float(_require(src, "tanh_xi", (int, float), "source.")),
                phi=float(_optional(src, "phi", (int, float), "source.", 0.0)),
                n_max=_optional(src, "n_max", int, "source.", 4)))
        elif kind == "attack_mixture":
            source = AttackMixture(float(_require(src, "p", (int, float), "source.")))
        else:
            raise ConfigError(f"unknown source.kind {kind!r}")
        eve_d = _require(d, "eve", dict, "") if "eve" in d else {"kind": "none"}
        ekind = _require(eve_d, "kind", str, "eve.")
        if ekind == "none":
            eve: EveStrategy = None
        elif ekind == "split":
            eve = SplitAttack(AttackConfig(
                max_attempts=_optional(eve_d, "max_attempts", int, "eve.", 20)))
        elif ekind == "intercept":
            tok = eve_d.get("basis", "random")
            if tok not in ("random", "HV", "DA"):
                raise ConfigError(f"eve.basis must be HV, DA or random, got {tok!r}")
            eve = InterceptResend(None if tok == "random" else (HV if tok == "HV" else DA))
        else:
            raise ConfigError(f"unknown eve.kind {ekind!r}")
        config = SessionConfig(rounds=rounds, seed=seed, source=source, eve=eve,
                               double_click_policy=d.get("double_click_policy", "assign"))
        if isinstance(eve, InterceptResend):
            # intercept-resend takes at most one photon per channel, which an
            # SPDC source's multi-pair terms break: reject it here, not at table build
            for _, _, state in _emission_branches(source, attack_registry()):
                intercept_branches(state, "A", 0, eve.basis)
        return config
    except (FockError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# exact enumeration into sampling tables


@dataclass
class _Tables:
    emission_tags: list[str]
    scen_emission: np.ndarray  # int8[S]
    scen_cum: np.ndarray       # float64[S]
    grp_off: np.ndarray        # int64[S*4]
    grp_len: np.ndarray        # int64[S*4]
    row_cum: np.ndarray        # float64[R]
    row_a: np.ndarray          # int8[R]
    row_b: np.ndarray
    row_e1: np.ndarray
    row_e2: np.ndarray


def _emission_branches(source: Source, registry) -> list[tuple[str, float, StateVector]]:
    if isinstance(source, SingletSource):
        return [("singlet", 1.0, singlet_state(registry))]
    if isinstance(source, SpdcSource):
        # renormalize the truncated state for emission; the tail is metadata
        st = spdc_state(source.params).embed(registry)
        return [("spdc", 1.0, st.normalized())]
    out = []
    if source.p > 0.0:
        out.append(("attack", source.p, attack_four_photon(registry)))
    if source.p < 1.0:
        out.append(("singlet", 1.0 - source.p, singlet_state(registry)))
    return out


def _eve_branches(state: StateVector, eve: EveStrategy
                  ) -> list[tuple[float, StateVector, int]]:
    """Returns (probability, post state, fixed eve bit or -1) per branch."""
    if eve is None:
        return [(1.0, state, -1)]
    if isinstance(eve, SplitAttack):
        return [(pr, st, -1) for pr, st in split_attack_branches(state, eve.config)]
    return intercept_branches(state, "A", 0, eve.basis)


_EBIT = {OutcomeKind.NO_CLICK: -1, OutcomeKind.BIT0: 0, OutcomeKind.BIT1: 1}


def _outcome_rows(state: StateVector, a_basis: BasisAngle, b_basis: BasisAngle,
                  fixed_e1: int) -> list[tuple[int, int, int, int, float]]:
    """Joint detection categorical for one scenario and basis pair.

    The eavesdropper's stored channels are read in the disclosed basis
    (Alice's); on rounds that do not sift those columns are simply ignored.
    """
    branches = joint_threshold_branches(
        state, [("A", 0, a_basis), ("B", 0, b_basis),
                ("E1", 0, a_basis), ("E2", 0, a_basis)])
    rows = {}
    for kinds, prob, _ in branches:
        ka, kb, k1, k2 = kinds
        if k1 not in _EBIT or k2 not in _EBIT:
            raise FockError("eavesdropper channel holds more than one photon")
        e1 = fixed_e1 if fixed_e1 >= 0 else _EBIT[k1]
        key = (int(ka), int(kb), e1, _EBIT[k2])
        rows[key] = rows.get(key, 0.0) + prob
    total = sum(rows.values())
    return [(a, b, e1, e2, p / total) for (a, b, e1, e2), p in sorted(rows.items())]


def _build_tables(config: SessionConfig) -> _Tables:
    registry = attack_registry()
    emissions = _emission_branches(config.source, registry)
    tags = [tag for tag, _, _ in emissions]
    scenarios = []  # (emission idx, probability, state, fixed_e1)
    for ei, (_, e_prob, e_state) in enumerate(emissions):
        for b_prob, b_state, fixed_e1 in _eve_branches(e_state, config.eve):
            scenarios.append((ei, e_prob * b_prob, b_state, fixed_e1))
    scen_probs = np.array([p for _, p, _, _ in scenarios], dtype=np.float64)
    if abs(scen_probs.sum() - 1.0) > 1e-9:
        raise FockError(f"scenario probabilities sum to {scen_probs.sum()}")
    scen_cum = np.cumsum(scen_probs)
    scen_cum[-1] = 1.0
    grp_off, grp_len = [], []
    cols: list[list] = [[], [], [], [], []]  # cum, a, b, e1, e2
    for _, _, st, fixed_e1 in scenarios:
        for a_basis in (HV, DA):
            for b_basis in (HV, DA):
                rows = _outcome_rows(st, a_basis, b_basis, fixed_e1)
                grp_off.append(len(cols[0]))
                grp_len.append(len(rows))
                acc = 0.0
                for i, (a, b, e1, e2, p) in enumerate(rows):
                    acc += p
                    cols[0].append(1.0 if i == len(rows) - 1 else acc)
                    cols[1].append(a)
                    cols[2].append(b)
                    cols[3].append(e1)
                    cols[4].append(e2)
    return _Tables(
        emission_tags=tags,
        scen_emission=np.array([ei for ei, _, _, _ in scenarios], dtype=np.int8),
        scen_cum=scen_cum,
        grp_off=np.array(grp_off, dtype=np.int64),
        grp_len=np.array(grp_len, dtype=np.int64),
        row_cum=np.array(cols[0], dtype=np.float64),
        row_a=np.array(cols[1], dtype=np.int8),
        row_b=np.array(cols[2], dtype=np.int8),
        row_e1=np.array(cols[3], dtype=np.int8),
        row_e2=np.array(cols[4], dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# the session itself


_streams = threading.local()  # per thread: the generator of its last draw


def _uniform_block(seed: int, start_round: int, count: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Rounds [start, start+count) of the session's uniform stream, written
    into `out` (C-contiguous, shape (count, DRAWS_PER_ROUND)) if given.

    Round i owns doubles [i*DRAWS_PER_ROUND, (i+1)*DRAWS_PER_ROUND) of the
    Philox(key=seed) stream; Philox counts in ticks of 4 doubles, so any
    chunking or evaluation order reproduces the same per-round blocks.  A
    thread whose last draw ended at or before `start_round` of the same
    seed advances that generator instead of building a new one.
    """
    last = getattr(_streams, "last", None)  # (seed, end round, generator)
    _streams.last = None  # until this draw has succeeded
    if last is not None and last[0] == seed and last[1] <= start_round:
        generator = last[2]
        generator.bit_generator.advance((start_round - last[1]) * (DRAWS_PER_ROUND // 4))
    else:
        bg = np.random.Philox(key=seed)
        bg.advance(start_round * (DRAWS_PER_ROUND // 4))
        generator = np.random.Generator(bg)
    u = generator.random((count, DRAWS_PER_ROUND), out=out)
    _streams.last = seed, start_round + count, generator
    return u


@dataclass
class _Tally:
    rounds: int = 0
    sifted: int = 0
    errors: int = 0
    double_clicks: int = 0
    no_clicks: int = 0
    source_counts: dict = field(default_factory=dict)
    basis_sifted: list = field(default_factory=lambda: [0, 0])
    basis_errors: list = field(default_factory=lambda: [0, 0])

    def update(self, rec: np.ndarray, tags: list[str], scen_emission: np.ndarray | None):
        """Count a record chunk with one bincount.

        A round's key packs its column 0 (the scenario, or the emission
        when `scen_emission` is None) with its Alice basis, sifted flag,
        whether its bits differ, Alice kind and Bob kind: 128 bins per
        column-0 value.
        """
        self.rounds += rec.shape[0]
        col = np.ascontiguousarray(rec[:, :8].T)  # columns as rows: faster to combine
        key = col[0].astype(np.intp)
        differ = col[5] != col[6]
        for value, bins in ((col[1], 2), (col[7], 2), (differ, 2), (col[3], 4), (col[4], 4)):
            key *= bins
            key += value
        first = len(tags) if scen_emission is None else len(scen_emission)
        counts = np.bincount(key, minlength=first * 128).reshape(first, 2, 2, 2, 4, 4)
        emission = range(first) if scen_emission is None else scen_emission.tolist()
        for e, c in zip(emission, counts.sum(axis=(1, 2, 3, 4, 5)).tolist()):
            if c:
                self.source_counts[tags[e]] = self.source_counts.get(tags[e], 0) + c
        kinds = counts.sum(axis=(0, 1, 2, 3))  # [Alice kind, Bob kind]
        self.double_clicks += int(kinds[3].sum() + kinds[:, 3].sum())
        self.no_clicks += int(kinds[0].sum() + kinds[:, 0].sum())
        sifted = counts[:, :, 1].sum(axis=(0, 3, 4))  # [Alice basis, bits differ]
        for basis in (0, 1):
            self.basis_sifted[basis] += int(sifted[basis].sum())
            self.basis_errors[basis] += int(sifted[basis, 1])
        self.sifted += int(sifted.sum())
        self.errors += int(sifted[:, 1].sum())

    def report(self, checksum_ok: bool = True) -> "SessionReport":
        qber = self.errors / self.sifted if self.sifted else 0.0
        ci = (1.96 * math.sqrt(qber * (1.0 - qber) / self.sifted)) if self.sifted else 0.0
        per_basis = {}
        for basis in (0, 1):
            n, e = self.basis_sifted[basis], self.basis_errors[basis]
            per_basis[_BASIS_TOKEN[basis]] = {
                "sifted": n, "errors": e, "qber": (e / n if n else 0.0)}
        return SessionReport(
            rounds=self.rounds, sifted_length=self.sifted, error_count=self.errors,
            qber_hat=qber, qber_ci95=ci,
            double_click_count=self.double_clicks, no_click_count=self.no_clicks,
            source_counts=dict(sorted(self.source_counts.items())),
            per_basis=per_basis,
            leak=leak_vs_bound(min(1.0, 6.0 * qber)),
            checksum_ok=checksum_ok)


@dataclass
class SessionReport:
    rounds: int
    sifted_length: int
    error_count: int
    qber_hat: float
    qber_ci95: float
    double_click_count: int
    no_click_count: int
    source_counts: dict[str, int]
    per_basis: dict[str, dict]
    leak: LeakBound
    checksum_ok: bool = True

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["leak"] = {"eve_info": self.leak.eve_info, "bound": self.leak.bound,
                     "margin": self.leak.margin}
        return d


def _suffix_table(tags: list[str]) -> np.ndarray:
    """Row text after the round index for every row code: uint8[codes, width].

    A row's code is its tag and its _TAIL_FIELDS token indices in
    row-major order; rows are NUL-padded to the widest.
    """
    shape = tuple(len(tokens) for _, tokens, _ in _TAIL_FIELDS)
    tail = np.full(shape + (_TAIL + 1,), ord(","), dtype=np.uint8)
    pos = 1
    for axis, (_, tokens, _) in enumerate(_TAIL_FIELDS):
        width = len(tokens[0])
        tok = np.frombuffer("".join(tokens).encode("ascii"), dtype=np.uint8)
        tok = tok.reshape((1,) * axis + (len(tokens),) + (1,) * (len(shape) - 1 - axis) + (width,))
        tail[..., pos:pos + width] = tok
        pos += width + 1
    tail[..., -1] = ord("\n")
    tail = tail.reshape(-1, _TAIL + 1)
    heads = [("," + tag).encode("ascii") for tag in tags]
    out = np.zeros((len(tags), len(tail), max(map(len, heads)) + _TAIL + 1), dtype=np.uint8)
    for t, head in enumerate(heads):
        out[t, :, :len(head)] = np.frombuffer(head, dtype=np.uint8)
        out[t, :, len(head):len(head) + _TAIL + 1] = tail
    return out.reshape(-1, out.shape[2])


def _transcript_block(rec: np.ndarray, start: int, table: np.ndarray,
                      scen_emission: np.ndarray) -> bytes:
    """Transcript rows of a record block whose first round is `start`.

    Each row is its index digits and its code's suffix-table row, in one
    NUL-padded matrix; NUL is in no tag or token, so the text is the
    matrix's nonzero bytes.
    """
    code = scen_emission[rec[:, 0]].astype(np.int32)
    for col, tokens, first in _TAIL_FIELDS:
        code *= len(tokens)
        code += rec[:, col] - first
    n = rec.shape[0]
    width = len(str(start + n - 1))
    row = np.empty((n, width + table.shape[1]), dtype=np.uint8)
    row[:, width:] = np.take(table, code, axis=0)
    q = np.arange(start, start + n, dtype=np.uint64)
    for k in range(width - 1, -1, -1):  # index digits, right-aligned
        rest = q // 10
        row[:, k] = q - rest * 10 + 48
        q = rest
    for k in range(width - 1):  # column k is a leading zero below 10**(width-1-k)
        row[:max(10 ** (width - 1 - k) - start, 0), k] = 0
    return row[row != 0].tobytes()


def _transcript_lines(rec: np.ndarray, start: int, table: np.ndarray,
                      scen_emission: np.ndarray) -> list[bytes]:
    """Transcript rows of a record chunk, in blocks of at most WRITE_ROWS rows."""
    return [_transcript_block(rec[lo:lo + WRITE_ROWS], start + lo, table, scen_emission)
            for lo in range(0, rec.shape[0], WRITE_ROWS)]


def _draws_ahead(rounds: int) -> bool:
    """Whether a session of `rounds` draws its next block on the drawer thread."""
    if rounds <= CHUNK_ROUNDS:
        return False
    if DRAW_AHEAD is not None:
        return DRAW_AHEAD
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _simulate(config: SessionConfig):
    """Build the tables now (a FockError raises here); return an iterator of
    (start_round, record-chunk, tables)."""
    tables = _build_tables(config)
    thresholds, template = _kernels.lookup_tables(
        tables.grp_off, tables.grp_len, tables.row_cum, tables.row_a, tables.row_b,
        tables.row_e1, tables.row_e2, config.double_click_policy == "assign")
    spans = [(start, min(CHUNK_ROUNDS, config.rounds - start))
             for start in range(0, config.rounds, CHUNK_ROUNDS)]

    def sample(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _kernels.sample_rounds(u, tables.scen_cum, thresholds, template, out)

    def chunks():
        for start, count in spans:
            # the chunk's draws die here, before the next chunk is drawn
            yield start, sample(_uniform_block(config.seed, start, count)), tables

    def chunks_drawn_ahead():
        from . import _drawer  # loaded only by sessions that draw ahead

        def blocks():
            # Block j is drawn into buffer j % 2 when block j - 1 is asked
            # for, by which time block j - 2 in that buffer has been sampled.
            buffers = np.empty((2, DRAW_BLOCK_ROUNDS, DRAWS_PER_ROUND))
            spans_of_blocks = ((lo, min(DRAW_BLOCK_ROUNDS, start + count - lo))
                               for start, count in spans
                               for lo in range(start, start + count, DRAW_BLOCK_ROUNDS))
            for j, (lo, n) in enumerate(spans_of_blocks):
                u = buffers[j % 2, :n]
                yield u, [functools.partial(_uniform_block, config.seed, lo + i,
                                            piece.shape[0], piece)
                          for i in range(0, u.shape[0], DRAW_PIECE_ROUNDS)
                          for piece in (u[i:i + DRAW_PIECE_ROUNDS],)]

        draws = _drawer.ahead(blocks())
        try:
            for start, count in spans:
                rec = np.empty((count, _kernels.N_COLS), dtype=np.int8)
                for lo in range(0, count, DRAW_BLOCK_ROUNDS):
                    sample(next(draws), rec[lo:lo + DRAW_BLOCK_ROUNDS])
                yield start, rec, tables
        finally:
            draws.close()

    return chunks_drawn_ahead() if _draws_ahead(config.rounds) else chunks()


def run_session(config: SessionConfig, transcript_path=None) -> SessionReport:
    """Run the session; optionally stream a checksummed transcript to disk."""
    tally = _Tally()
    chunks = _simulate(config)  # before the transcript exists: no file on a table error
    fh = None
    digest = hashlib.sha256()
    try:
        if transcript_path is not None:
            fh = open(transcript_path, "wb")
            head = (TRANSCRIPT_HEADER + "\n").encode("ascii")
            fh.write(head)
            digest.update(head)
        table = None
        for start, rec, tables in chunks:
            tally.update(rec, tables.emission_tags, tables.scen_emission)
            if fh is None:
                continue
            if table is None:
                table = _suffix_table(tables.emission_tags)
            for blob in _transcript_lines(rec, start, table, tables.scen_emission):
                fh.write(blob)
                digest.update(blob)
        if fh is not None:
            fh.write(f"#sha256={digest.hexdigest()}\n".encode("ascii"))
    finally:
        if fh is not None:
            fh.close()
    return tally.report()


def eve_mutual_information(config: SessionConfig) -> tuple[float, int, dict]:
    """Empirical I(Alice bit; eavesdropper record) over sifted rounds, in bits.

    The eavesdropper's record is the pair of tap-channel threshold outcomes
    read in the disclosed basis (split attack) or her intercept bit
    (intercept-resend); rounds where she holds nothing count as a fixed
    'empty' symbol.  Returns (mi_bits, sifted_rounds, joint counts).
    """
    counts: dict[tuple[int, int, int], int] = {}
    for _, rec, _ in _simulate(config):
        sif = rec[:, 7] == 1
        sub = rec[sif]
        enc = ((sub[:, 5].astype(np.int64) * 3 + (sub[:, 8] + 1)) * 3
               + (sub[:, 9] + 1))
        for code, n in zip(*np.unique(enc, return_counts=True)):
            code = int(code)
            key = (code // 9, code % 9 // 3 - 1, code % 3 - 1)
            counts[key] = counts.get(key, 0) + int(n)
    total = sum(counts.values())
    if total == 0:
        return 0.0, 0, counts
    pa: dict[int, float] = {}
    pe: dict[tuple[int, int], float] = {}
    for (a, e1, e2), n in counts.items():
        pa[a] = pa.get(a, 0.0) + n / total
        pe[(e1, e2)] = pe.get((e1, e2), 0.0) + n / total
    mi = 0.0
    for (a, e1, e2), n in counts.items():
        p = n / total
        mi += p * math.log2(p / (pa[a] * pe[(e1, e2)]))
    return mi, total, counts


# ---------------------------------------------------------------------------
# transcript replay


def _parse_transcript(fh, body_len: int, tag: str) -> tuple[_Tally, str]:
    """Tally the header and rows of a transcript's first `body_len` bytes.

    The body is read in fixed-size reads; each read is hashed, its whole
    lines are parsed as one block, and a partial last line is carried over.
    Returns (tally, hex digest of the body): sha256 for the '#sha256' tag,
    16 hex digits of fnv1a64 for version 1's '#fnv1a64'.
    """
    from . import _replay

    digest = hashlib.sha256()
    fnv = _kernels.fnv1a64(b"")  # the FNV offset basis
    tally = _Tally()
    tags: list[str] = []
    keys: dict[bytes, int] = {}
    lookups = _replay.token_lookups()
    carry: list[bytes] = []
    header = (TRANSCRIPT_HEADER + "\n").encode("ascii")
    seen_header = False
    for chunk in _replay.body_reads(fh, body_len):
        if tag == "#sha256":
            digest.update(chunk)
        else:
            fnv = _kernels.fnv1a64(chunk, fnv)
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry.append(chunk)
            continue
        block = b"".join(carry + [memoryview(chunk)[:cut]])
        carry = [chunk[cut:]]
        if not seen_header:
            if not block.startswith(header):
                raise TranscriptError("bad or missing header", line=1)
            seen_header = True
            block = block[len(header):]
        if block:
            tally.update(_replay.parse_rows(block, tally.rounds, tags, keys, lookups),
                         tags, None)
    if not seen_header:
        raise TranscriptError("bad or missing header", line=1)
    return tally, (digest.hexdigest() if tag == "#sha256" else f"{fnv:016x}")


def replay(config: SessionConfig | None, transcript_path) -> SessionReport:
    """Recompute a SessionReport from a transcript file.

    A matching live report is reproduced exactly; a failed checksum is
    reported via checksum_ok=False (the tallies still reflect the file's
    contents).  config, when given, is only cross-checked against the
    transcript's round count.  The file is read in blocks, so memory does
    not grow with its length.
    """
    from . import _replay  # loaded on first use: a process that never replays skips it

    with open(transcript_path, "rb") as source, _replay.seekable(source) as fh:
        tag, tok, body_len = _replay.read_trailer(fh)
        tally, digest = _parse_transcript(fh, body_len, tag)
    if config is not None and config.rounds != tally.rounds:
        raise TranscriptError(
            f"config expects {config.rounds} rounds, transcript has {tally.rounds}")
    return tally.report(checksum_ok=tok == digest)
