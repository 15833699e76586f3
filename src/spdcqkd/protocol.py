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
intercept_branches); this module only dispatches to them.  The outcome rows
need only click probabilities (`optics.joint_click_probabilities`), not
post-measurement states.  Each round is one row of the sampler's template:
the sampler returns the row's index, and counts how many rounds drew each
row.  Rounds are tallied by row code (the source tag and each fixed-width
field's transcript token): a live session counts its template's codes,
weighted by those counts, and replay the codes it reads.  Every round owns a
fixed block of DRAWS_PER_ROUND 64-bit words from a counter-based Philox
stream keyed by the session seed, so rounds can be evaluated in any order or
chunking with identical results; a session is reproduced bit-for-bit by its
seed.  The sampler reads a word's bits as the uniform draw in [0, 1) that
`Generator.random` makes of it, so the rounds are those of that draw.

The template depends on the physics alone (the source, the eavesdropper and
the double-click policy), never on `rounds` or `seed`, so a process keeps
the templates of the TEMPLATE_CACHE_SIZE physics configs it used last, in a
dict in least-recently-used order behind a lock, keyed by the config with
`rounds` and `seed` set to fixed values.  A session asks it whether its
template is cached without building one (`_cached_template`), which
`functools.lru_cache` cannot answer; when two threads build one config at
once, the first build stays cached.  Sessions, replay and
`eve_mutual_information` take their template from that cache only; a build
that raises is not cached.  Many
seeds of one config in one process build it once; a one-shot `spdcqkd
simulate`, or a process that never repeats a config, gains nothing from it.
The cached tables, lookup arrays, guides and row codes are read-only and
the tags a tuple, so no session can change what the next one samples; so
are the row probabilities, the mask of drawable row codes and the exact
eavesdropper information, which a template computes on first use.  Every
report, live or replayed, takes its leak from the template that defines
its rounds: `eve_information` against h(qber_hat).

A session is one loop over blocks of CHUNK_ROUNDS rounds (1 MB of
words), each drawn in pieces of DRAW_PIECE_ROUNDS, then sampled and
written on the calling thread; sampling adds to the session's per-row
counts, which the report decodes once.  A session longer than one piece,
in a process that may run on more than one CPU, gets help from the daemon
drawer thread of `_drawer`, started on first use and shared by all
sessions: the drawer draws the pieces of the next block, into the other
of the session's two buffers, while the calling thread samples the
current one, which draws the pieces the drawer has not taken when it
comes to that block.  The drawer runs at idle priority, so it takes only
CPU time nothing else wants, and a session is never left waiting on a
drawer that gets none.  A session that draws ahead and finds its template
not cached hands the build to the drawer and meanwhile draws rounds
[0, 2 CHUNK_ROUNDS), blocks 0 and 1, in one call on the calling thread: the
build holds the interpreter lock, which the draw needs only at its two ends.
That array is the session's two buffers.  If the drawer has not taken the
build when the draw ends, the calling thread builds.  A session of one
piece has no work to share: it draws on the calling thread into one buffer
and starts no thread.  A piece is the same bytes whichever thread draws it,
so the rounds are the same either way.

A session writes transcript format 3, bound to its run:
- a text header of two lines: the magic line TRANSCRIPT_MAGIC
  ('spdcqkd-transcript 3'), then one JSON object (sorted keys, no spaces)
  with the canonical `config_to_dict` of the session (its rounds and seed
  included) under "config", the writer's "tool_version", the emission
  "tags" in code order, and "code_bytes", the width of a row code (2);
- one little-endian uint16 row code per round, in round order (the round
  index is implicit): `codes[index]` for the template's row codes, one
  take per block;
- the raw 32-byte sha256 digest of every byte before it.
A config the header cannot name (an intercept basis at an arbitrary angle)
is refused before the file is opened.  replay() checks the header's config
against the caller's field by field, names the first that differs, and
checks its tags and every code against the cached template of its config:
other tags, or a code the template draws with probability 0 (such as one
out of range or a sifted round missing a key bit), is a TranscriptError.
A digest mismatch is reported via checksum_ok=False.  Version 3 is the
only format replay() reads: any other first line is a TranscriptError.
The reader lives in `_replay`; it streams the body in fixed-size reads,
hashes each and counts its codes with one bincount, so memory does not
grow with the file, and `_parse_transcript` adds up those counts and
checks the digest.

The text form is the CSV of version 2: the same rounds as text, one row
per round, with header
round_idx,source_tag,alice_basis,bob_basis,alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit
(bob_bit already flipped to the key convention, '-' marks absent bits) and a
trailing checksum line '#sha256=<hex>' over all preceding bytes.  It is a
one-way, read-only view: `transcript_text` (`spdcqkd transcript --text`)
prints a version-3 file in it, one string per slice of rows of its body,
and nothing reads it back; `_row_texts` gives each row code's text.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import stat
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Union

import numpy as np

from . import __version__, _kernels
from ._kernels import DRAWS_PER_ROUND
from .attack import AttackConfig, attack_four_photon, intercept_branches, split_attack_branches
from .fock import FockError, StateVector, attack_registry, left_sum
from .optics import DA, HV, BasisAngle, joint_click_probabilities, rotate_polarization
from .security import LeakBound, binary_entropy
from .source import SpdcParams, singlet_state, spdc_state

# Rounds per block a session draws, samples and writes (1 MB of words),
# and rounds per piece of a block that either thread may draw; a session
# longer than one piece draws ahead on the drawer thread.
CHUNK_ROUNDS = 1 << 14
DRAW_PIECE_ROUNDS = 1 << 12
# Physics configs whose session template a process keeps.
TEMPLATE_CACHE_SIZE = 8

TRANSCRIPT_HEADER = ("round_idx,source_tag,alice_basis,bob_basis,"
                     "alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit")
_BASIS_TOKEN = ("HV", "DA")
_KIND_TOKEN = ("nc", "b0", "b1", "dc")
_BITS = ("-", "0", "1")  # no bit, 0, 1
# The fixed-width fields after the source tag, in file order (alice_basis,
# bob_basis, alice_outcome, bob_outcome, sifted_flag, alice_bit, bob_bit),
# each a comma and one of its tokens: 18 bytes, e.g. ",HV,DA,b0,b1,1,0,1".
# Per field: its record column, its tokens, and the value of the first token.
# A row's code is its tag index, then its token index per field, in
# row-major order: _CODES codes per tag.
_TAIL_FIELDS = ((1, _BASIS_TOKEN, 0), (2, _BASIS_TOKEN, 0), (3, _KIND_TOKEN, 0),
                (4, _KIND_TOKEN, 0), (7, ("0", "1"), 0), (5, _BITS, -1), (6, _BITS, -1))
_TAIL_SHAPE = tuple(len(tokens) for _, tokens, _ in _TAIL_FIELDS)
_CODES = math.prod(_TAIL_SHAPE)

# The first line of a version-3 transcript, the dtype of its row codes, and
# the bytes of its trailing digest.
TRANSCRIPT_MAGIC = "spdcqkd-transcript 3"
CODE_DTYPE = np.dtype("<u2")
DIGEST_BYTES = 32


class TranscriptError(ValueError):
    pass


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


# the intercept bases a config dict can name
_BASIS_NAME = {None: "random", HV: "HV", DA: "DA"}


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
        if basis not in _BASIS_NAME:
            raise ConfigError(f"eve.basis at angle {basis.theta} has no dict form; "
                              "only HV, DA and random do")
        eve = {"kind": "intercept", "basis": _BASIS_NAME[basis]}
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


def _real(d: dict, key: str, path: str, default: float | None = None) -> float:
    """A number field as a float; required if there is no default."""
    v = (_require(d, key, (int, float), path) if default is None
         else _optional(d, key, (int, float), path, default))
    try:
        return float(v)
    except OverflowError:  # an integer past the largest float
        raise ConfigError(f"field {path}{key} is too large for a float") from None


# The fields a config dict may hold, at the top and per source and eve kind.
# A split's `mode` is retired: it never changed a session, and is ignored.
_FIELDS = ("rounds", "seed", "source", "eve", "double_click_policy")
_SOURCE_FIELDS = {"singlet": ("kind",), "spdc": ("kind", "tanh_xi", "phi", "n_max"),
                  "attack_mixture": ("kind", "p")}
_EVE_FIELDS = {"none": ("kind",), "split": ("kind", "max_attempts", "mode"),
               "intercept": ("kind", "basis")}


def _known(d: dict, names: tuple[str, ...], path: str) -> None:
    """Refuse a field of d outside `names`: misspelt, it would take its default."""
    for key in d:
        if key not in names:
            raise ConfigError(f"unknown field {path}{key}")


def config_from_dict(d: dict) -> SessionConfig:
    if not isinstance(d, dict):
        raise ConfigError("session config must be a JSON object")
    _known(d, _FIELDS, "")
    rounds = _require(d, "rounds", int, "")
    seed = _require(d, "seed", int, "")
    src = _require(d, "source", dict, "")
    kind = _require(src, "kind", str, "source.")
    if kind not in _SOURCE_FIELDS:
        raise ConfigError(f"unknown source.kind {kind!r}")
    _known(src, _SOURCE_FIELDS[kind], "source.")
    eve_d = _require(d, "eve", dict, "") if "eve" in d else {"kind": "none"}
    ekind = _require(eve_d, "kind", str, "eve.")
    if ekind not in _EVE_FIELDS:
        raise ConfigError(f"unknown eve.kind {ekind!r}")
    _known(eve_d, _EVE_FIELDS[ekind], "eve.")
    try:
        if kind == "singlet":
            source: Source = SingletSource()
        elif kind == "spdc":
            try:
                params = SpdcParams(tanh_xi=_real(src, "tanh_xi", "source."),
                                    phi=_real(src, "phi", "source.", 0.0),
                                    n_max=_optional(src, "n_max", int, "source.", 4))
            except FockError as exc:  # its message starts with the field's name
                raise ConfigError(f"source.{exc}") from exc
            source = SpdcSource(params)
        else:
            source = AttackMixture(_real(src, "p", "source."))
        if ekind == "none":
            eve: EveStrategy = None
        elif ekind == "split":
            eve = SplitAttack(AttackConfig(
                max_attempts=_optional(eve_d, "max_attempts", int, "eve.", 20)))
        else:
            tok = eve_d.get("basis", "random")
            if tok not in ("random", "HV", "DA"):
                raise ConfigError(f"eve.basis must be HV, DA or random, got {tok!r}")
            eve = InterceptResend(None if tok == "random" else (HV if tok == "HV" else DA))
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


def _read_only(obj) -> None:
    """Make every numpy array field of the dataclass `obj` read-only."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@dataclass(frozen=True)
class _Tables:
    """The enumerated tables of one physics config; read-only, as the
    template cache shares them between sessions."""

    emission_tags: tuple[str, ...]
    scen_emission: np.ndarray  # int8[S]
    scen_cum: np.ndarray       # float64[S]
    grp_off: np.ndarray        # int64[S*4]
    grp_len: np.ndarray        # int64[S*4]
    row_cum: np.ndarray        # float64[R]
    row_a: np.ndarray          # int8[R]
    row_b: np.ndarray
    row_e1: np.ndarray
    row_e2: np.ndarray

    def __post_init__(self):
        _read_only(self)


def _emission_branches(source: Source, registry) -> list[tuple[str, float, StateVector]]:
    if isinstance(source, SingletSource):
        return [("singlet", 1.0, singlet_state().embed(registry))]
    if isinstance(source, SpdcSource):
        # renormalize the truncated state for emission; truncation_tail is its lost weight
        st = spdc_state(source.params).embed(registry)
        return [("spdc", 1.0, st.normalized())]
    out = []
    if source.p > 0.0:
        out.append(("attack", source.p, attack_four_photon().embed(registry)))
    if source.p < 1.0:
        out.append(("singlet", 1.0 - source.p, singlet_state().embed(registry)))
    return out


def _eve_branches(state: StateVector, eve: EveStrategy
                  ) -> list[tuple[float, StateVector, int]]:
    """Returns (probability, post state, fixed eve bit or -1) per branch."""
    if eve is None:
        return [(1.0, state, -1)]
    if isinstance(eve, SplitAttack):
        return [(pr, st, -1) for pr, st in split_attack_branches(state, eve.config)]
    return intercept_branches(state, "A", 0, eve.basis)


def _outcome_rows(state_a: StateVector, a_basis: BasisAngle, b_basis: BasisAngle,
                  fixed_e1: int) -> list[tuple[tuple[int, int, int, int], float]]:
    """Joint detection categorical for one scenario and basis pair:
    ((Alice kind, Bob kind, E1 bit, E2 bit), probability) rows in key order.

    `state_a` is the scenario's state with Alice's channel already rotated
    into `a_basis`, shared by both of Bob's bases; the rest are rotated
    after it in the order B, E1, E2, which the pinned tables depend on.
    The eavesdropper's stored channels are read in the disclosed basis
    (Alice's); on rounds that do not sift those columns are simply ignored.
    A kind k < 3 (OutcomeKind) of an eavesdropper channel is the bit k - 1,
    -1 for no click; a double click there has no bit and raises.
    """
    patterns = joint_click_probabilities(
        state_a, [("A", 0, HV), ("B", 0, b_basis), ("E1", 0, a_basis), ("E2", 0, a_basis)])
    rows: dict[tuple[int, int, int, int], float] = {}
    for pattern, prob in patterns:
        k1 = pattern >> 2 & 3
        k2 = pattern & 3
        if k1 == 3 or k2 == 3:
            raise FockError("an eavesdropper channel has a double click, which gives no bit")
        key = (pattern >> 6, pattern >> 4 & 3, fixed_e1 if fixed_e1 >= 0 else k1 - 1, k2 - 1)
        rows[key] = rows.get(key, 0.0) + prob
    total = left_sum(rows.values())
    return [(key, p / total) for key, p in sorted(rows.items())]


def _build_tables(config: SessionConfig) -> _Tables:
    registry = attack_registry()
    emissions = _emission_branches(config.source, registry)
    tags = tuple(tag for tag, _, _ in emissions)
    scenarios = []  # (emission idx, probability, state, fixed_e1)
    for ei, (_, e_prob, e_state) in enumerate(emissions):
        for b_prob, b_state, fixed_e1 in _eve_branches(e_state, config.eve):
            scenarios.append((ei, e_prob * b_prob, b_state, fixed_e1))
    scen_probs = np.array([p for _, p, _, _ in scenarios], dtype=np.float64)
    if abs(scen_probs.sum() - 1.0) > 1e-9:
        raise FockError(f"scenario probabilities sum to {scen_probs.sum()}")
    scen_cum = np.cumsum(scen_probs)
    scen_cum[-1] = 1.0
    lengths = []
    cum: list[float] = []
    keys: list[tuple[int, int, int, int]] = []
    for _, _, st, fixed_e1 in scenarios:
        for a_basis in (HV, DA):
            st_a = st if a_basis is HV else rotate_polarization(st, "A", 0, a_basis)
            for b_basis in (HV, DA):
                rows = _outcome_rows(st_a, a_basis, b_basis, fixed_e1)
                lengths.append(len(rows))
                acc = 0.0
                for key, p in rows:
                    acc += p
                    cum.append(acc)
                    keys.append(key)
                cum[-1] = 1.0
    grp_len = np.array(lengths, dtype=np.int64)
    row_a, row_b, row_e1, row_e2 = np.array(keys, dtype=np.int8).T.copy()
    return _Tables(
        emission_tags=tags,
        scen_emission=np.array([ei for ei, _, _, _ in scenarios], dtype=np.int8),
        scen_cum=scen_cum,
        grp_off=np.cumsum(grp_len) - grp_len,
        grp_len=grp_len,
        row_cum=np.array(cum, dtype=np.float64),
        row_a=row_a, row_b=row_b, row_e1=row_e1, row_e2=row_e2,
    )


# ---------------------------------------------------------------------------
# the session itself


_streams = threading.local()  # per thread: the bit generator of its last draw


def _uniform_block(seed: int, start_round: int, count: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Rounds [start, start+count) of the session's word stream, uint64 of
    shape (count, DRAWS_PER_ROUND), written into `out` if given; an `out`
    of another shape or dtype is a ValueError.

    Round i owns the 64-bit words [i*DRAWS_PER_ROUND, (i+1)*DRAWS_PER_ROUND)
    of the Philox(key=seed) stream; Philox counts in ticks of 4 words, so any
    chunking or evaluation order reproduces the same per-round blocks.  A
    word w is the draw (w >> 11) * 2**-53 in [0, 1), the double
    `Generator.random` makes of it, and `_kernels.sample_rounds` reads those
    bits directly.  `random_raw` has no `out=`, so a call holds `count`
    rounds of words (64 B each) besides `out`; sessions draw in pieces of
    DRAW_PIECE_ROUNDS.  A thread whose last draw ended at or before
    `start_round` of the same seed advances that generator instead of
    building a new one.
    """
    shape = (count, DRAWS_PER_ROUND)
    if out is not None and (out.shape != shape or out.dtype != np.uint64):
        raise ValueError(f"out must be uint64 of shape {shape}, not {out.dtype} of "
                         f"shape {out.shape}")
    last = getattr(_streams, "last", None)  # (seed, end round, bit generator)
    _streams.last = None  # until this draw has succeeded
    if last is not None and last[0] == seed and last[1] <= start_round:
        bg = last[2]
        bg.advance((start_round - last[1]) * (DRAWS_PER_ROUND // 4))
    else:
        bg = np.random.Philox(key=seed)
        bg.advance(start_round * (DRAWS_PER_ROUND // 4))
    words = bg.random_raw(count * DRAWS_PER_ROUND).reshape(shape)
    if out is not None:
        out[...] = words
        words = out
    _streams.last = seed, start_round + count, bg
    return words


def _wilson_interval(hits: int, trials: int) -> list[float]:
    """[low, high]: the 95% Wilson score interval of the rate hits / trials.

    Unlike the Wald interval it keeps a width when no trial hits (or every
    one does); with no trials it is [0, 1].
    """
    if trials == 0:
        return [0.0, 1.0]
    z2 = 1.96 * 1.96
    p = hits / trials
    shrink = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / shrink
    half = math.sqrt(z2 * (p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))) / shrink
    # the ends are exactly 0 and 1 at no and every hit, where rounding might miss them
    return [0.0 if hits == 0 else center - half, 1.0 if hits == trials else center + half]


@dataclass
class _Tally:
    """Rounds counted by row code: counts[code] for the codes of `tags`."""

    tags: tuple[str, ...]
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.zeros(len(self.tags) * _CODES, dtype=np.int64)

    def update(self, codes: np.ndarray, weights: np.ndarray | None = None):
        """Count row codes of `tags` with one bincount; with `weights`, code
        i stands for weights[i] rounds (a live session's template rows)."""
        # float64 weights sum whole counts exactly below 2**53
        self.counts += np.bincount(codes, weights, minlength=self.counts.size).astype(
            np.int64, copy=False)

    def report(self, eve_info: float, checksum_ok: bool = True) -> "SessionReport":
        # [tag, Alice basis, Bob basis, Alice kind, Bob kind, sifted, Alice bit, Bob bit]
        counts = self.counts.reshape((len(self.tags),) + _TAIL_SHAPE)
        per_tag = counts.sum(axis=(1, 2, 3, 4, 5, 6, 7)).tolist()
        kinds = counts.sum(axis=(0, 1, 2, 5, 6, 7))  # [Alice kind, Bob kind]
        ends = (kinds.sum(axis=1) + kinds.sum(axis=0)).tolist()  # per kind, both parties
        # sifted rounds: per Alice basis, the 3 x 3 grid of bit tokens, flat
        bits = counts[..., 1, :, :].sum(axis=(0, 2, 3, 4)).reshape(2, 9).tolist()
        sifted = [sum(grid) for grid in bits]
        # an error is a pair of differing bit tokens: off the diagonal, every 4th cell
        errors = [sum(grid) - sum(grid[::4]) for grid in bits]
        per_basis = {_BASIS_TOKEN[basis]: {"sifted": n, "errors": e, "qber": (e / n if n else 0.0)}
                     for basis, (n, e) in enumerate(zip(sifted, errors))}
        n, e = sum(sifted), sum(errors)
        qber = e / n if n else 0.0
        bound = binary_entropy(qber)
        return SessionReport(
            rounds=sum(per_tag), sifted_length=n, error_count=e,
            qber_hat=qber, qber_ci95=_wilson_interval(e, n),
            double_click_count=ends[3], no_click_count=ends[0],
            source_counts=dict(sorted((tag, c) for tag, c in zip(self.tags, per_tag) if c)),
            per_basis=per_basis,
            leak=LeakBound(eve_info, bound, bound - eve_info),
            checksum_ok=checksum_ok)


@dataclass
class SessionReport:
    """A session's counts.  `leak` is the config's exact I(Alice bit;
    eavesdropper record) per sifted key bit (`eve_mutual_information`)
    against h(qber_hat), the error-correction leakage of its errors."""

    rounds: int
    sifted_length: int
    error_count: int
    qber_hat: float
    qber_ci95: list[float]  # [low, high], Wilson score interval
    double_click_count: int
    no_click_count: int
    source_counts: dict[str, int]
    per_basis: dict[str, dict]
    leak: LeakBound
    checksum_ok: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def _row_codes(rec: np.ndarray, scen_emission: np.ndarray) -> np.ndarray:
    """int32 row code of each record; column 0 holds the scenario, and
    `scen_emission` maps it to its tag index."""
    col = np.ascontiguousarray(rec[:, :8].T)  # columns as rows: faster to combine
    code = scen_emission[col[0]].astype(np.int32)
    shift = 0  # a token's index is its value less the field's first value
    for c, tokens, first in _TAIL_FIELDS:
        code *= len(tokens)
        code += col[c]
        shift = shift * len(tokens) + first
    code -= shift
    return code


def _row_texts(tags: tuple[str, ...]) -> tuple[str, ...]:
    """The CSV text after the round index of every row code of `tags`."""
    return tuple(",".join(("", tag) + tokens) for tag in tags
                 for tokens in itertools.product(*(tokens for _, tokens, _ in _TAIL_FIELDS)))


def _transcript_lines(codes: np.ndarray, start: int, texts: tuple[str, ...]) -> list[str]:
    """CSV rows, without newlines, of row codes from round `start` on."""
    return [f"{i}{texts[c]}" for i, c in enumerate(codes.tolist(), start)]


def _draws_ahead(rounds: int) -> bool:
    """Whether a session of `rounds` draws its blocks with the drawer thread:
    one longer than a piece, in a process that may run on more than one CPU."""
    if rounds <= DRAW_PIECE_ROUNDS:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


@dataclass(frozen=True, eq=False)
class _Template:
    """A session's tables and the sampler's lookup arrays (`lookup_tables`,
    `guide_tables`).

    A round that draws template index i has the record rows[i] and the row
    code codes[i], which a version-3 transcript stores.  Read-only, as the
    template cache shares it between sessions.
    """

    tables: _Tables
    thresholds: np.ndarray
    rows: np.ndarray   # int8[T, N_COLS]
    codes: np.ndarray  # CODE_DTYPE[T]
    scen_guide: np.ndarray   # int32[SCENARIO_CELLS]
    group_guide: np.ndarray  # int32[groups * CELLS_PER_SLOT * W]

    def __post_init__(self):
        _read_only(self)

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        """float64[T]: the exact probability that a round draws each row
        (`template_probabilities`), computed on first use."""
        prob = _kernels.template_probabilities(self.tables.scen_cum, self.thresholds)
        prob.flags.writeable = False
        return prob

    @functools.cached_property
    def drawable(self) -> np.ndarray:
        """bool[len(tags) * _CODES]: whether a round can have each row code,
        i.e. some row of that code has a probability above 0."""
        mask = np.bincount(self.codes[self.probabilities > 0],
                           minlength=len(self.tables.emission_tags) * _CODES) > 0
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def eve_information(self) -> float:
        """Exact I(Alice bit; eavesdropper record) over sifted rounds, in bits.

        The eavesdropper's record is the pair of tap-channel threshold
        outcomes read in the disclosed basis (split attack) or her intercept
        bit (intercept-resend); rounds where she holds nothing count as a
        fixed 'empty' symbol.  The joint distribution is the template's
        sifted rows, each weighted by its exact probability, so the sift and
        double-click rules are the sampler's own.
        """
        sifted = self.rows[:, 7] == 1
        rows = self.rows[sifted].astype(np.intp)
        # joint[alice bit, 3 * (e1 + 1) + (e2 + 1)]
        joint = np.bincount(rows[:, 5] * 9 + (rows[:, 8] + 1) * 3 + rows[:, 9] + 1,
                            self.probabilities[sifted], minlength=18).reshape(2, 9)
        pa = joint.sum(axis=1, keepdims=True)
        pe = joint.sum(axis=0, keepdims=True)
        total = pa.sum()
        if total == 0.0:
            return 0.0  # nothing sifts, e.g. a source that emits vacuum only
        held = joint > 0
        # unnormalised sums: a record independent of the bit gives log2(1) = 0 exactly
        return float(np.sum(joint[held] * np.log2(joint[held] * total / (pa * pe)[held])) / total)


# The cached templates, least recently used first, keyed by the config with
# `rounds` and `seed` set to fixed values.
_templates: dict[SessionConfig, _Template] = {}
_templates_lock = threading.Lock()


def _forget_templates_lock():
    """In a forked child: a lock another thread held at the fork stays held."""
    global _templates_lock
    _templates_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_templates_lock)


def _cached_template(config: SessionConfig) -> _Template | None:
    """The cached template of the config's physics, now the most recently
    used; None if it is not cached."""
    key = replace(config, rounds=1, seed=0)
    with _templates_lock:
        template = _templates.pop(key, None)
        if template is not None:
            _templates[key] = template
    return template


def _session_template(config: SessionConfig) -> _Template:
    """The template of the config's physics, from the cache of the last
    TEMPLATE_CACHE_SIZE configs used, or built and cached; a FockError if it
    cannot be built (a uint16 round index cannot address it), which caches
    nothing."""
    template = _cached_template(config)
    if template is not None:
        return template
    key = replace(config, rounds=1, seed=0)
    tables = _build_tables(key)
    thresholds, rows = _kernels.lookup_tables(
        tables.grp_off, tables.grp_len, tables.row_cum, tables.row_a, tables.row_b,
        tables.row_e1, tables.row_e2, config.double_click_policy == "assign")
    if rows.shape[0] > _kernels.MAX_TEMPLATE_ROWS:
        raise FockError(f"the sampling template has {rows.shape[0]} rows; a round index "
                        f"addresses at most {_kernels.MAX_TEMPLATE_ROWS}")
    codes = _row_codes(rows, tables.scen_emission).astype(CODE_DTYPE)
    template = _Template(tables, thresholds, rows, codes,
                         *_kernels.guide_tables(tables.scen_cum, thresholds))
    with _templates_lock:
        template = _templates.setdefault(key, template)  # another thread's build stays
        if len(_templates) > TEMPLATE_CACHE_SIZE:
            del _templates[next(iter(_templates))]
    return template


def _simulate(config: SessionConfig):
    """Get the template now (a FockError raises here); return it, the
    per-row counts, and an iterator of (start_round, indices): each block's
    template index per round, uint16.

    Sampling a block adds to the counts (intp[len(template)]) how many of
    its rounds drew each template row: the session's, once all are drawn.
    """
    ahead = _draws_ahead(config.rounds)
    template = _cached_template(config) if ahead else _session_template(config)
    first = None  # the words of blocks 0 and 1, if drawn during the build
    if template is None:
        template, first = _build_while_drawing(config)
    counts = np.zeros(template.rows.shape[0], dtype=np.intp)

    def jobs():
        """((start, draws), pieces) per block: the pieces fill its draws."""
        # Drawing ahead, block j is drawn into buffer j % 2 when block j - 1 is
        # asked for, by which time block j - 2 in that buffer has been sampled.
        # The halves of a first draw are blocks 0 and 1 and the two buffers.
        if first is None:
            buffers = np.empty((1 + ahead, min(CHUNK_ROUNDS, config.rounds), DRAWS_PER_ROUND),
                               dtype=np.uint64)
        else:
            buffers = first[:CHUNK_ROUNDS], first[CHUNK_ROUNDS:]
        for j, start in enumerate(range(0, config.rounds, CHUNK_ROUNDS)):
            words = buffers[j % len(buffers)][:min(CHUNK_ROUNDS, config.rounds - start)]
            yield (start, words), [] if first is not None and j < 2 else [
                functools.partial(_uniform_block, config.seed, start + i, piece.shape[0], piece)
                for i in range(0, words.shape[0], DRAW_PIECE_ROUNDS)
                for piece in (words[i:i + DRAW_PIECE_ROUNDS],)]

    def drawn_here():
        for block, pieces in jobs():
            for piece in pieces:
                piece()
            yield block

    def blocks():
        if ahead:
            from . import _drawer  # loaded only by sessions that draw ahead
        drawn = _drawer.ahead(jobs()) if ahead else drawn_here()
        try:
            for start, words in drawn:
                yield start, _kernels.sample_rounds(
                    words, template.tables.scen_cum, template.thresholds, template.scen_guide,
                    template.group_guide, counts)
        finally:
            drawn.close()

    return template, counts, blocks()


def _build_while_drawing(config: SessionConfig) -> tuple[_Template, np.ndarray]:
    """The config's template, built on the drawer thread (or here, if the
    drawer has not taken the build) while this thread draws the session's
    rounds [0, min(rounds, 2 CHUNK_ROUNDS)) in one call; the template and
    those words.  A FockError of the build raises here."""
    from . import _drawer

    built = []
    build = _drawer.hand_over([lambda: built.append(_session_template(config))])
    try:
        first = _uniform_block(config.seed, 0, min(config.rounds, 2 * CHUNK_ROUNDS))
    except BaseException:
        build.cancel()
        raise
    build.join()
    return built[0], first


def _transcript_head(config: SessionConfig, tags: tuple[str, ...]) -> bytes:
    """The two header lines of a version-3 transcript; a ConfigError if the
    config has no dict form."""
    meta = {"code_bytes": CODE_DTYPE.itemsize, "config": config_to_dict(config),
            "tags": tags, "tool_version": __version__}
    return f"{TRANSCRIPT_MAGIC}\n{json.dumps(meta, sort_keys=True, separators=(',', ':'))}\n".encode(
        "ascii")


def run_session(config: SessionConfig, transcript_path=None) -> SessionReport:
    """Run the session; optionally stream a version-3 transcript to disk.

    A failed session leaves no file behind.  The tables are built and the
    header made before the file is opened, so a table error (FockError) or
    a config the header cannot name (ConfigError) opens none; an error
    after that (a draw, sampling, the disk) closes and removes the partial
    file, unless the path is not a regular file (a FIFO, a device, or a
    symlink such as /dev/stdout), which is left in place.
    """
    template, counts, blocks = _simulate(config)
    if transcript_path is None:
        for _ in blocks:
            pass
    else:
        head = _transcript_head(config, template.tables.emission_tags)
        digest = hashlib.sha256(head)
        fh = open(transcript_path, "wb")
        try:
            fh.write(head)
            for _, idx in blocks:
                blob = template.codes[idx]
                fh.write(blob)
                digest.update(blob)
            fh.write(digest.digest())
            fh.close()
        except BaseException:
            with contextlib.suppress(OSError):  # flushing what the first error left
                fh.close()
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(transcript_path).st_mode):
                    os.unlink(transcript_path)
            raise
    tally = _Tally(template.tables.emission_tags)
    tally.update(template.codes, counts)
    return tally.report(template.eve_information)


def eve_mutual_information(config: SessionConfig) -> float:
    """Exact I(Alice bit; eavesdropper record) over sifted rounds, in bits:
    `_Template.eve_information` of the config's cached template, which
    every session report of the config carries as its leak.  No round is
    drawn, and `rounds` and `seed` do not matter."""
    return _session_template(config).eve_information


# ---------------------------------------------------------------------------
# transcript replay


def _parse_transcript(fh, head) -> tuple[_Tally, bool]:
    """(tally, whether the trailing digest matches) of the version-3 body
    after the checked header `head` (an `_replay.Header`).

    The body is read by `_replay.code_reads`, which hashes each read and
    counts its codes; the counts of the reads are added up.
    """
    from . import _replay

    digest = hashlib.sha256(head.raw)
    tally = _Tally(head.template.tables.emission_tags)
    for _, _, counts in _replay.code_reads(fh, head, digest):
        tally.counts += counts
    fh.seek(len(head.raw) + head.body_bytes)
    return tally, fh.read(DIGEST_BYTES) == digest.digest()


def replay(config: SessionConfig | None, transcript_path) -> SessionReport:
    """Recompute a SessionReport from a version-3 transcript file.

    A matching live report is reproduced exactly; a failed checksum is
    reported via checksum_ok=False (the tallies still reflect the file's
    contents).  Any other first line than the version-3 magic, a version-2
    CSV or version 1 included, is a TranscriptError.  config, when given,
    must equal the header's config in every field (a TranscriptError names
    the first that differs).  The file is read in blocks, so memory does
    not grow with its length.
    """
    return replay_with_header(config, transcript_path)[0]


def replay_with_header(config: SessionConfig | None, transcript_path
                       ) -> tuple[SessionReport, dict]:
    """`replay`, and what the header says of its run: {"config": its config
    as `config_to_dict` gives it, "tool_version": the writer's version}."""
    from . import _replay  # loaded on first use: a process that never replays skips it

    with open(transcript_path, "rb") as source, _replay.seekable(source) as fh:
        head = _replay.read_header(fh)
        _replay.check_config(config, head)
        tally, checksum_ok = _parse_transcript(fh, head)
    return (tally.report(head.template.eve_information, checksum_ok=checksum_ok),
            {"config": head.config_dict, "tool_version": head.tool_version})


def transcript_text(transcript_path, out) -> None:
    """Write a version-3 transcript to the binary stream `out` as the
    version-2 CSV of the same rounds, '#sha256=' trailer included, and flush it.

    The file is checked whole first, as replay checks it, and a digest
    mismatch is a TranscriptError: a corrupt file never gets a CSV with a
    valid checksum.
    """
    from . import _replay

    with open(transcript_path, "rb") as source, _replay.seekable(source) as fh:
        _replay.write_text(fh, out)
