"""Sparse state vectors over a small register of labeled bosonic modes.

States live in a truncated Fock space: a state is a map from occupation
vectors (one photon count per registered mode) to complex amplitudes.
A state keeps tens of terms at the default pair cutoff and about 12 000 at
the largest (a source state at n_max 32 with one channel rotated), so the
representation is a plain dict and all operations return new states.

Mode bookkeeping: a ModeLabel is (party, polarization), as each party
(Alice, Bob, each eavesdropper tap) has one spatial channel of two
polarization modes, and a ModeRegistry fixes the slot order of occupation
vectors.  Every state caps every mode's occupation at MODE_CAP.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple

DEFAULT_PRUNE_TOL = 1e-12
# The largest occupation of any mode.  A source slot holds up to n_max
# photons, so this is at least source.N_MAX_CAP.
MODE_CAP = 32
# The most characters of an outside value or field name an error message quotes.
QUOTE_CHARS = 60

# polarization slot indices within a party's channel
POL_H = 0
POL_V = 1


def left_sum(values: Iterable[float]) -> float:
    """((x0 + x1) + x2) + ...: floats added left to right, one rounding per
    addition.  This is what sum() did before Python 3.12 made it a
    compensated sum; the engine adds its probabilities and norms with this,
    so they have the same bits on every interpreter."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def squared_norm(amps: Iterable[complex]) -> float:
    """left_sum of |a|^2 over the amplitudes, in their order."""
    acc = 0.0
    for a in amps:
        acc += a.real * a.real + a.imag * a.imag
    return acc


def _cut(text: str) -> str:
    """`text`, or its first QUOTE_CHARS characters and '...' if it is longer."""
    return text if len(text) <= QUOTE_CHARS else f"{text[:QUOTE_CHARS]}..."


class FockError(ValueError):
    pass


class UnknownModeError(FockError):
    pass


class ModeCapError(FockError):
    pass


class RegistryMismatchError(FockError):
    pass


class ModeLabel(NamedTuple):
    party: str
    pol: int

    def __str__(self) -> str:
        return f"{self.party}{'HV'[self.pol]}"


class ModeRegistry:
    """Ordered collection of modes; order fixes occupation slots."""

    __slots__ = ("_labels", "_index", "_channels")

    def __init__(self, labels: Iterable[ModeLabel] = ()):
        self._labels = tuple(ModeLabel(*lab) for lab in labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        self._channels: dict[str, tuple[int, int]] = {}  # channel_modes results
        if len(self._index) != len(self._labels):
            raise FockError("duplicate mode label in registry")

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[ModeLabel]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModeRegistry) and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"ModeRegistry([{', '.join(map(str, self._labels))}])"

    def index(self, label: ModeLabel) -> int:
        try:
            return self._index[ModeLabel(*label)]
        except KeyError:
            raise UnknownModeError(f"mode {ModeLabel(*label)} not in registry") from None

    def channel_modes(self, party: str) -> tuple[int, int]:
        """Slot indices (H, V) of a party's channel, memoised: the labels never change."""
        slots = self._channels.get(party)
        if slots is None:
            slots = (self.index(ModeLabel(party, POL_H)), self.index(ModeLabel(party, POL_V)))
            self._channels[party] = slots
        return slots


def source_registry() -> ModeRegistry:
    """The four source modes A-H, A-V, B-H, B-V (slot order of |ijkl>)."""
    return ModeRegistry([ModeLabel(p, pol) for p in ("A", "B") for pol in (POL_H, POL_V)])


def attack_registry() -> ModeRegistry:
    """Source modes plus one eavesdropper channel per party (E1 taps A, E2 taps B)."""
    return ModeRegistry([ModeLabel(p, pol)
                         for p in ("A", "B", "E1", "E2") for pol in (POL_H, POL_V)])


class StateVector:
    """Immutable sparse ket: occupation tuple -> complex amplitude.

    Not necessarily normalized (sums and ladder operators change the norm, and
    the truncated source state deliberately carries a small norm deficit).
    Amplitudes below DEFAULT_PRUNE_TOL in magnitude are dropped on construction;
    occupations above MODE_CAP raise rather than silently truncate.

    The public constructor checks every occupation (slot count, non-negative
    integer counts, the cap), since it takes outside input.  States
    that engine operations build from a valid state go through `_trusted`,
    which only prunes: an operation that can raise a count checks the cap
    itself (`create`, `optics.rotate_polarization`).
    """

    __slots__ = ("registry", "_amps")

    def __init__(self, registry: ModeRegistry,
                 amplitudes: dict[tuple[int, ...], complex] | None = None):
        self.registry = registry
        amps: dict[tuple[int, ...], complex] = {}
        n_modes = len(registry)
        for occ, amp in (amplitudes or {}).items():
            if len(occ) != n_modes:
                raise FockError(f"occupation {occ} has {len(occ)} slots, registry has {n_modes}")
            if any(n < 0 or n != int(n) for n in occ):
                raise FockError(f"occupation {occ} has a negative or fractional count")
            for n, lab in zip(occ, registry):
                if n > MODE_CAP:
                    raise ModeCapError(
                        f"mode {lab}: occupation {n} exceeds per-mode cap {MODE_CAP}")
            amp = complex(amp)
            if abs(amp) >= DEFAULT_PRUNE_TOL:
                amps[tuple(int(n) for n in occ)] = amp
        self._amps = amps

    @classmethod
    def _trusted(cls, registry: ModeRegistry,
                 amps: dict[tuple[int, ...], complex]) -> "StateVector":
        """A state from occupations an engine operation made.

        The caller guarantees what `__init__` would check: every key is a
        tuple of len(registry) ints in [0, MODE_CAP] and every value a
        complex.  Only the pruning below DEFAULT_PRUNE_TOL is applied.
        """
        st = cls.__new__(cls)
        st.registry = registry
        st._amps = {occ: amp for occ, amp in amps.items() if abs(amp) >= DEFAULT_PRUNE_TOL}
        return st

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(cls, registry: ModeRegistry) -> "StateVector":
        return cls(registry, {(0,) * len(registry): 1.0})

    @classmethod
    def basis_state(cls, registry: ModeRegistry, occ: tuple[int, ...]) -> "StateVector":
        return cls(registry, {tuple(occ): 1.0})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self._amps.items())

    def __len__(self) -> int:
        return len(self._amps)

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return self._amps.get(tuple(occ), 0j)

    def norm_sq(self) -> float:
        return squared_norm(self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inner(self, other: "StateVector") -> complex:
        """<self|other>, conjugate-linear in self.  Registries must match."""
        if self.registry != other.registry:
            raise RegistryMismatchError("inner product between different registries")
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        acc = 0j
        for occ, amp in small._amps.items():
            pair = big._amps.get(occ)
            if pair is not None:
                acc += (amp.conjugate() * pair) if small is self else (pair.conjugate() * amp)
        return acc

    def __repr__(self) -> str:
        return f"StateVector({len(self._amps)} terms, |psi|^2={self.norm_sq():.6g})"

    # -- linear structure ---------------------------------------------------

    def _like(self, amps: dict[tuple[int, ...], complex]) -> "StateVector":
        return StateVector._trusted(self.registry, amps)

    def __mul__(self, scalar: complex) -> "StateVector":
        scalar = complex(scalar)
        return self._like({occ: amp * scalar for occ, amp in self._amps.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "StateVector":
        return self * -1.0

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.registry != other.registry:
            raise RegistryMismatchError("sum of states over different registries")
        amps = dict(self._amps)
        for occ, amp in other._amps.items():
            amps[occ] = amps.get(occ, 0j) + amp
        return self._like(amps)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (other * -1.0)

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise FockError("cannot normalize zero state")
        return self * (1.0 / n)

    # -- ladder operators ----------------------------------------------------

    def create(self, label: ModeLabel) -> "StateVector":
        """Apply a-dagger on one mode: amplitude picks up sqrt(n+1)."""
        i = self.registry.index(label)
        amps: dict[tuple[int, ...], complex] = {}
        for occ, amp in self._amps.items():
            n = occ[i]
            if n >= MODE_CAP:
                raise ModeCapError(
                    f"mode {ModeLabel(*label)}: occupation {n + 1} exceeds per-mode cap {MODE_CAP}")
            new = occ[:i] + (n + 1,) + occ[i + 1:]
            amps[new] = amps.get(new, 0j) + amp * math.sqrt(n + 1)
        return self._like(amps)

    def annihilate(self, label: ModeLabel) -> "StateVector":
        """Apply a on one mode: amplitude picks up sqrt(n); vacuum terms drop."""
        i = self.registry.index(label)
        amps: dict[tuple[int, ...], complex] = {}
        for occ, amp in self._amps.items():
            n = occ[i]
            if n == 0:
                continue
            new = occ[:i] + (n - 1,) + occ[i + 1:]
            amps[new] = amps.get(new, 0j) + amp * math.sqrt(n)
        return self._like(amps)

    # -- measurement / structure ----------------------------------------------

    def measure(self, key: Callable[[tuple[int, ...]], Any]
                ) -> list[tuple[Any, float, "StateVector"]]:
        """Projective measurement of key(occupation): (outcome, probability,
        renormalized post-state) for every outcome, sorted by outcome (key's
        values must hash and compare).

        The probability is the squared norm of the outcome's terms, added in
        term order (`squared_norm`), so the probabilities sum to norm_sq()
        and, as no kept amplitude is below DEFAULT_PRUNE_TOL, none is 0.
        """
        parts: dict[Any, dict[tuple[int, ...], complex]] = {}
        for occ, amp in self._amps.items():
            parts.setdefault(key(occ), {})[occ] = amp
        out = []
        for outcome in sorted(parts):
            kept = parts[outcome]
            prob = squared_norm(kept.values())
            scale = 1.0 / math.sqrt(prob)
            out.append((outcome, prob, self._like({occ: amp * scale for occ, amp in kept.items()})))
        return out

    def project(self, predicate: Callable[[tuple[int, ...]], bool]) -> tuple[float, "StateVector"]:
        """The outcome True of measure(predicate): (probability, renormalized
        post-state), or (0.0, zero state) if no term satisfies it."""
        for outcome, prob, post in self.measure(lambda occ: bool(predicate(occ))):
            if outcome:
                return prob, post
        return 0.0, self._like({})

    def embed(self, registry: ModeRegistry) -> "StateVector":
        """Re-express on a larger registry; modes not present here become vacuum."""
        slots = [registry.index(lab) for lab in self.registry]
        width = len(registry)
        amps: dict[tuple[int, ...], complex] = {}
        for occ, amp in self._amps.items():
            new = [0] * width
            for s, n in zip(slots, occ):
                new[s] = n
            amps[tuple(new)] = amp
        return StateVector._trusted(registry, amps)

    def drop_modes(self, indices: Iterable[int]) -> "StateVector":
        """Remove modes that carry one common occupation across every term.

        Used to peel off measured-and-collapsed channels, leaving a pure state
        of the remaining modes.  Raises if the dropped modes are still
        correlated with the rest (the reduced state would be mixed).
        """
        drop = sorted(set(indices))
        fixed = None
        for occ, _ in self._amps.items():
            sig = tuple(occ[i] for i in drop)
            if fixed is None:
                fixed = sig
            elif sig != fixed:
                raise FockError("dropped modes are not in a common product state")
        keep = [i for i in range(len(self.registry)) if i not in drop]
        reg = ModeRegistry([self.registry.labels[i] for i in keep])
        amps = {tuple(occ[i] for i in keep): amp for occ, amp in self._amps.items()}
        return StateVector._trusted(reg, amps)

    # -- debug dump -----------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """One line per term: comma-joined counts, then Re and Im of the amplitude.

        Lines are sorted lexicographically by occupation so dumps are stable
        and diffable.
        """
        out = []
        for occ in sorted(self._amps):
            amp = self._amps[occ]
            out.append(f"{','.join(map(str, occ))} {amp.real:.12g} {amp.imag:.12g}")
        return out

    def dumps(self) -> str:
        return "\n".join(self.dump_lines()) + "\n"
