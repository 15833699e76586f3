"""Monte Carlo key-distribution sessions with exact per-round physics.

Per round: the source emits (attack-mixture sources emit the post-attack
four-photon state with probability p, the singlet otherwise), any
eavesdropper strategy transforms the state, both parties draw independent
uniform bases from {HV, DA} and threshold-detect, and a round sifts when the
bases match and both parties clicked.  Bob flips his outcome bit (the source
anti-correlates), so the sifted keys agree except on error rounds.

The emitted-state / strategy / outcome tree is finite and tiny, so it is
enumerated exactly once with the sparse engine into categorical tables, and
the per-round loop just samples those tables.  Every round owns a fixed
block of DRAWS_PER_ROUND uniforms from a counter-based Philox stream keyed
by the session seed, so rounds can be evaluated in any order or chunking
with identical results; a session is reproduced bit-for-bit by its seed.

Transcript files are CSV with header
round_idx,source_tag,alice_basis,bob_basis,alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit
(bob_bit already flipped to the key convention, '-' marks absent bits) and a
trailing checksum line '#sha256=<hex>' over all preceding bytes.  The
trailer's tag is the format version: version-1 files end in a 64-bit FNV-1a
line '#fnv1a64=<hex>' instead, and replay still verifies them.  replay()
rebuilds the full report from a transcript alone and flags checksum
mismatches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import _kernels
from ._kernels import DRAWS_PER_ROUND, N_COLS
from .attack import AttackConfig, SplitMode, attack_four_photon, split_channel
from .fock import FockError, ModeLabel, StateVector, attack_registry
from .optics import (DA, HV, BasisAngle, OutcomeKind, joint_threshold_branches,
                     qnd_count, rotate_polarization)
from .security import LeakBound, leak_vs_bound
from .source import SpdcParams, singlet_state, spdc_state

CHUNK_ROUNDS = 1 << 16

TRANSCRIPT_HEADER = ("round_idx,source_tag,alice_basis,bob_basis,"
                     "alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit")
_BASIS_TOKEN = ("HV", "DA")
_KIND_TOKEN = ("nc", "b0", "b1", "dc")
_BIT_TOKEN = {-1: "-", 0: "0", 1: "1"}


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
        eve = {"kind": "split", "max_attempts": config.eve.config.max_attempts,
               "mode": config.eve.config.mode.value}
    else:
        basis = config.eve.basis
        eve = {"kind": "intercept",
               "basis": "random" if basis is None else ("HV" if basis.theta == 0.0 else "DA")}
    return {"rounds": config.rounds, "seed": config.seed, "source": source,
            "eve": eve, "double_click_policy": config.double_click_policy}


def _require(d: dict, key: str, types, path: str):
    if key not in d:
        raise ConfigError(f"missing field {path}{key}")
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
                phi=float(src.get("phi", 0.0)),
                n_max=int(src.get("n_max", 4))))
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
                max_attempts=int(eve_d.get("max_attempts", 20)),
                mode=SplitMode(eve_d.get("mode", "analytic"))))
        elif ekind == "intercept":
            tok = eve_d.get("basis", "random")
            if tok not in ("random", "HV", "DA"):
                raise ConfigError(f"eve.basis must be HV, DA or random, got {tok!r}")
            eve = InterceptResend(None if tok == "random" else (HV if tok == "HV" else DA))
        else:
            raise ConfigError(f"unknown eve.kind {ekind!r}")
        return SessionConfig(rounds=rounds, seed=seed, source=source, eve=eve,
                             double_click_policy=d.get("double_click_policy", "assign"))
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


def _split_tree(state: StateVector, cfg: AttackConfig) -> list[tuple[float, StateVector]]:
    """Branch over per-channel photon counts; split the two-photon gates."""
    q = 1.0 - 0.5 ** cfg.max_attempts
    branches = [(1.0, state)]
    for party, eve_party in (("A", "E1"), ("B", "E2")):
        modes = [ModeLabel(party, 0, 0), ModeLabel(party, 0, 1)]
        nxt = []
        for pr, st in branches:
            for count, p_c, post in qnd_count(st, modes):
                if count == 2:
                    res = split_channel(post, party, 0, eve_party,
                                        AttackConfig(cfg.max_attempts, SplitMode.ANALYTIC))
                    nxt.append((pr * p_c * q, res.state))
                    if q < 1.0:
                        nxt.append((pr * p_c * (1.0 - q), post))
                else:
                    nxt.append((pr * p_c, post))
        branches = nxt
    return branches


def _intercept_branches(state: StateVector, basis: BasisAngle | None
                        ) -> list[tuple[float, StateVector, int]]:
    """Enumerate the eavesdropper's intercept/resend on Alice's channel."""
    bases = [(basis, 1.0)] if basis is not None else [(HV, 0.5), (DA, 0.5)]
    h_idx, v_idx = state.registry.channel_modes("A", 0)
    if any(occ[h_idx] + occ[v_idx] > 1 for occ, _ in state.terms()):
        raise FockError("intercept-resend supports at most one photon "
                        "in the intercepted channel")
    out = []
    for b, w in bases:
        rotated = rotate_polarization(state, "A", 0, b) if b.theta else state
        for bit, pattern in ((-1, (0, 0)), (0, (1, 0)), (1, (0, 1))):
            prob, post = rotated.project(
                lambda occ, p=pattern: (occ[h_idx], occ[v_idx]) == p)
            if prob <= 0.0:
                continue
            if b.theta:
                post = rotate_polarization(post, "A", 0, -b.theta)
            out.append((w * prob, post, bit))
    return out


def _eve_branches(state: StateVector, eve: EveStrategy
                  ) -> list[tuple[float, StateVector, int]]:
    """Returns (probability, post state, fixed eve bit or -1) per branch."""
    if eve is None:
        return [(1.0, state, -1)]
    if isinstance(eve, SplitAttack):
        return [(pr, st, -1) for pr, st in _split_tree(state, eve.config)]
    return _intercept_branches(state, eve.basis)


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


def _uniform_block(seed: int, start_round: int, count: int) -> np.ndarray:
    """Rounds [start, start+count) of the session's uniform stream.

    Round i owns doubles [i*DRAWS_PER_ROUND, (i+1)*DRAWS_PER_ROUND) of the
    Philox(key=seed) stream; Philox counts in ticks of 4 doubles, so any
    chunking or evaluation order reproduces the same per-round blocks.
    """
    bg = np.random.Philox(key=seed)
    bg.advance(start_round * (DRAWS_PER_ROUND // 4))
    return np.random.Generator(bg).random((count, DRAWS_PER_ROUND))


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
        self.rounds += rec.shape[0]
        sif = rec[:, 7] == 1
        err = sif & (rec[:, 5] != rec[:, 6])
        self.sifted += int(sif.sum())
        self.errors += int(err.sum())
        self.double_clicks += int((rec[:, 3] == 3).sum()) + int((rec[:, 4] == 3).sum())
        self.no_clicks += int((rec[:, 3] == 0).sum()) + int((rec[:, 4] == 0).sum())
        emis = rec[:, 0] if scen_emission is None else scen_emission[rec[:, 0]]
        counts = np.bincount(emis, minlength=len(tags))
        for t, c in zip(tags, counts):
            if c:
                self.source_counts[t] = self.source_counts.get(t, 0) + int(c)
        for basis in (0, 1):
            m = sif & (rec[:, 1] == basis)
            self.basis_sifted[basis] += int(m.sum())
            self.basis_errors[basis] += int((m & err).sum())

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


def _transcript_lines(rec: np.ndarray, start: int, tags: list[str],
                      scen_emission: np.ndarray) -> list[str]:
    emis = scen_emission[rec[:, 0]]
    return [
        f"{start + r},{tags[emis[r]]},{_BASIS_TOKEN[rec[r, 1]]},{_BASIS_TOKEN[rec[r, 2]]},"
        f"{_KIND_TOKEN[rec[r, 3]]},{_KIND_TOKEN[rec[r, 4]]},{rec[r, 7]},"
        f"{_BIT_TOKEN[int(rec[r, 5])]},{_BIT_TOKEN[int(rec[r, 6])]}"
        for r in range(rec.shape[0])
    ]


def _simulate(config: SessionConfig):
    """Yields (start_round, record-chunk, tables)."""
    tables = _build_tables(config)
    keep_double = config.double_click_policy == "assign"
    start = 0
    while start < config.rounds:
        count = min(CHUNK_ROUNDS, config.rounds - start)
        u = _uniform_block(config.seed, start, count)
        rec = _kernels.sample_rounds(
            u, tables.scen_cum, tables.grp_off, tables.grp_len,
            tables.row_cum, tables.row_a, tables.row_b,
            tables.row_e1, tables.row_e2, keep_double)
        yield start, rec, tables
        start += count


def run_session(config: SessionConfig, transcript_path=None) -> SessionReport:
    """Run the session; optionally stream a checksummed transcript to disk."""
    tally = _Tally()
    fh = None
    digest = hashlib.sha256()
    try:
        if transcript_path is not None:
            fh = open(transcript_path, "wb")
            head = (TRANSCRIPT_HEADER + "\n").encode("ascii")
            fh.write(head)
            digest.update(head)
        for start, rec, tables in _simulate(config):
            tally.update(rec, tables.emission_tags, tables.scen_emission)
            if fh is not None:
                blob = ("\n".join(_transcript_lines(
                    rec, start, tables.emission_tags, tables.scen_emission)) + "\n"
                        ).encode("ascii")
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


def _checksum_ok(trailer: str, body: bytes, lineno: int) -> bool:
    """Whether the trailing checksum line matches the bytes before it.

    The tag is the format version: '#sha256=' today, '#fnv1a64=' in
    version-1 files, each followed by its digest in lowercase hex.
    """
    tag, _, tok = trailer.partition("=")
    digits = {"#sha256": 64, "#fnv1a64": 16}.get(tag)
    if digits is None:
        raise TranscriptError("missing trailing checksum line", line=lineno)
    if len(tok) != digits or not set(tok) <= set("0123456789abcdef"):
        raise TranscriptError("malformed checksum line", line=lineno)
    if tag == "#sha256":
        return tok == hashlib.sha256(body).hexdigest()
    return int(tok, 16) == _kernels.fnv1a64(body)


def _parse_transcript(data: bytes):
    lines = data.decode("ascii", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TranscriptError("empty transcript", line=1)
    trailer = lines.pop()
    body = data[:data.rfind(b"\n#") + 1]  # all before the trailer, the last '#' line
    checksum_ok = _checksum_ok(trailer, body, len(lines) + 1)
    if not lines or lines[0] != TRANSCRIPT_HEADER:
        raise TranscriptError("bad or missing header", line=1)
    basis_idx = {t: i for i, t in enumerate(_BASIS_TOKEN)}
    kind_idx = {t: i for i, t in enumerate(_KIND_TOKEN)}
    bit_idx = {"-": -1, "0": 0, "1": 1}
    n = len(lines) - 1
    rec = np.empty((n, N_COLS), dtype=np.int8)
    tags: list[str] = []
    tag_idx: dict[str, int] = {}
    for i, ln in enumerate(lines[1:]):
        fields = ln.split(",")
        lineno = i + 2
        if len(fields) != 9:
            raise TranscriptError(f"expected 9 fields, got {len(fields)}", line=lineno)
        (idx_s, tag, ab, bb, ak, bk, sf, abit, bbit) = fields
        if idx_s != str(i):
            raise TranscriptError(f"round index {idx_s!r}, expected {i}", line=lineno)
        if tag not in tag_idx:
            if len(tags) > 100:
                raise TranscriptError("too many distinct source tags", line=lineno)
            tag_idx[tag] = len(tags)
            tags.append(tag)
        try:
            rec[i, 0] = tag_idx[tag]
            rec[i, 1] = basis_idx[ab]
            rec[i, 2] = basis_idx[bb]
            rec[i, 3] = kind_idx[ak]
            rec[i, 4] = kind_idx[bk]
            rec[i, 5] = bit_idx[abit]
            rec[i, 6] = bit_idx[bbit]
            rec[i, 7] = {"0": 0, "1": 1}[sf]
        except KeyError as exc:
            raise TranscriptError(f"bad token {exc.args[0]!r}", line=lineno) from None
        if rec[i, 7] == 1 and (rec[i, 5] < 0 or rec[i, 6] < 0):
            raise TranscriptError("sifted round missing a key bit", line=lineno)
    rec[:, 8] = -1
    rec[:, 9] = -1
    return rec, tags, checksum_ok


def replay(config: SessionConfig | None, transcript_path) -> SessionReport:
    """Recompute a SessionReport from a transcript file.

    A matching live report is reproduced exactly; a failed checksum is
    reported via checksum_ok=False (the tallies still reflect the file's
    contents).  config, when given, is only cross-checked against the
    transcript's round count.
    """
    with open(transcript_path, "rb") as fh:
        data = fh.read()
    rec, tags, checksum_ok = _parse_transcript(data)
    if config is not None and config.rounds != rec.shape[0]:
        raise TranscriptError(
            f"config expects {config.rounds} rounds, transcript has {rec.shape[0]}")
    tally = _Tally()
    if rec.shape[0]:
        tally.update(rec, tags, None)
    return tally.report(checksum_ok=checksum_ok)
