import math

import pytest

from spdcqkd import protocol
from spdcqkd.fock import (MODE_CAP, FockError, ModeCapError, ModeLabel,
                          ModeRegistry, RegistryMismatchError, StateVector,
                          UnknownModeError, attack_registry, left_sum, source_registry,
                          squared_norm)
from spdcqkd.optics import DA, joint_threshold_branches, rotate_polarization
from spdcqkd.protocol import SessionConfig
from spdcqkd.source import N_MAX_CAP, SpdcParams, spdc_state

from test_golden import (GOLDEN_TABLES, TABLE_EVES, TABLE_SOURCES, _tables_digest,
                         scenario_measurements)

AH = ModeLabel("A", 0)
AV = ModeLabel("A", 1)
BH = ModeLabel("B", 0)
BV = ModeLabel("B", 1)


def singlet(reg):
    r = 1.0 / math.sqrt(2.0)
    return StateVector(reg, {(0, 1, 1, 0): r, (1, 0, 0, 1): -r})


def test_registry_order_and_index():
    reg = source_registry()
    assert reg.labels == (AH, AV, BH, BV)
    assert reg.index(BH) == 2
    with pytest.raises(UnknownModeError):
        reg.index(ModeLabel("E1", 0))


def test_registry_rejects_duplicates():
    with pytest.raises(FockError):
        ModeRegistry([AH, AH])


def test_attack_registry_extends_source_registry():
    src, atk = source_registry(), attack_registry()
    assert atk.labels[:4] == src.labels
    assert [str(m) for m in atk.labels[4:]] == ["E1H", "E1V", "E2H", "E2V"]


def test_channel_modes():
    reg = attack_registry()
    assert reg.channel_modes("A") == (0, 1)
    assert reg.channel_modes("E2") == (6, 7)
    with pytest.raises(UnknownModeError):
        reg.channel_modes("C")
    # answers are memoised per registry: asked again, and on a registry of
    # another slot order, each keeps its own slots
    flipped = ModeRegistry([BV, BH, AV, AH])
    for _ in range(2):
        assert reg.channel_modes("A") == (0, 1)
        assert flipped.channel_modes("A") == (3, 2)
        with pytest.raises(UnknownModeError):
            flipped.channel_modes("E2")


def test_create_on_vacuum():
    reg = source_registry()
    st = StateVector.vacuum(reg).create(AH)
    assert st.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)
    assert len(st) == 1


def test_create_sqrt_factor():
    reg = source_registry()
    one = StateVector.basis_state(reg, (1, 0, 0, 0))
    two = one.create(AH)
    assert two.amplitude((2, 0, 0, 0)) == pytest.approx(math.sqrt(2.0))


def test_commutator_is_identity():
    reg = source_registry()
    one = StateVector.basis_state(reg, (1, 0, 0, 0))
    n_plus_1 = one.create(AH).annihilate(AH)
    n = one.annihilate(AH).create(AH)
    assert n_plus_1.amplitude((1, 0, 0, 0)) == pytest.approx(2.0)
    assert n.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)
    diff = n_plus_1 - n
    assert (diff - one).norm() <= 1e-12


def test_annihilate_vacuum_is_zero():
    st = StateVector.vacuum(source_registry()).annihilate(AH)
    assert len(st) == 0
    assert st.norm_sq() == 0.0


def test_annihilate_on_singlet():
    st = singlet(source_registry()).annihilate(BV)
    assert len(st) == 1
    assert st.amplitude((1, 0, 0, 0)) == pytest.approx(-1.0 / math.sqrt(2.0))


def test_unknown_mode_errors():
    st = StateVector.vacuum(source_registry())
    ghost = ModeLabel("E3", 0)
    with pytest.raises(UnknownModeError):
        st.create(ghost)
    with pytest.raises(UnknownModeError):
        st.annihilate(ghost)


def test_mode_cap_error_names_the_mode():
    reg = source_registry()
    st = StateVector.basis_state(reg, (MODE_CAP, 0, 0, 0))
    with pytest.raises(ModeCapError, match="AH"):
        st.create(AH)
    with pytest.raises(ModeCapError):
        StateVector(reg, {(0, MODE_CAP + 1, 0, 0): 1.0})


def test_one_cap_holds_the_largest_source_state():
    """A source state at the largest pair cutoff builds and rotates under
    the one cap; a photon more in a mode raises from the constructor, from
    `create` and from a rotation, and names the mode."""
    st = spdc_state(SpdcParams(0.9, n_max=N_MAX_CAP))
    assert st.amplitude((0, N_MAX_CAP, N_MAX_CAP, 0)) != 0
    rotated = rotate_polarization(st, "A", DA)
    assert rotated.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-12)
    assert max(max(occ) for occ, _ in rotated.terms()) == N_MAX_CAP
    reg = source_registry()
    over = f"occupation {MODE_CAP + 1} exceeds per-mode cap {MODE_CAP}"
    with pytest.raises(ModeCapError, match=f"mode BV: {over}"):
        StateVector(reg, {(0, 0, 0, MODE_CAP + 1): 1.0})
    full = StateVector.basis_state(reg, (0, MODE_CAP, 0, 0))
    with pytest.raises(ModeCapError, match=f"mode AV: {over}"):
        full.create(AV)
    with pytest.raises(ModeCapError, match=f"mode AV: {over}"):
        rotate_polarization(full.create(AH), "A", DA)


def test_inner_products():
    reg = source_registry()
    s = singlet(reg)
    assert s.inner(s) == pytest.approx(1.0)
    assert StateVector.vacuum(reg).inner(s) == 0.0


def test_inner_is_conjugate_linear_in_self():
    reg = source_registry()
    x = StateVector(reg, {(1, 0, 0, 0): 0.5 + 0.5j})
    y = StateVector(reg, {(1, 0, 0, 0): 1.0})
    assert x.inner(y) == pytest.approx(0.5 - 0.5j)
    assert y.inner(x) == pytest.approx(0.5 + 0.5j)


def test_inner_registry_mismatch():
    with pytest.raises(RegistryMismatchError):
        StateVector.vacuum(source_registry()).inner(
            StateVector.vacuum(attack_registry()))


def test_project_splits_probability():
    reg = source_registry()
    s = singlet(reg)
    prob, post = s.project(lambda occ: occ[0] == 1)
    assert prob == pytest.approx(0.5)
    assert post.norm() == pytest.approx(1.0)
    assert post.amplitude((1, 0, 0, 1)) == pytest.approx(-1.0)


def test_project_empty_branch():
    prob, post = singlet(source_registry()).project(lambda occ: occ[0] == 7)
    assert prob == 0.0
    assert len(post) == 0


@pytest.mark.parametrize("key", [
    lambda occ: sum(occ),  # photon number
    lambda occ: (occ[0], occ[1]),  # Alice's occupations
    lambda occ: ((occ[0] > 0) + 2 * (occ[1] > 0), (occ[2] > 0) + 2 * (occ[3] > 0)),  # clicks
], ids=["count", "occupation", "clicks"])
def test_measure_partitions_in_term_order(key):
    st = spdc_state(SpdcParams(0.3, phi=0.7, n_max=4))
    assert any(amp.imag != 0.0 for _, amp in st.terms())  # complex amplitudes
    branches = st.measure(key)
    outcomes = [outcome for outcome, _, _ in branches]
    assert len(outcomes) > 1 and outcomes == sorted(set(outcomes))
    assert left_sum(prob for _, prob, _ in branches) == pytest.approx(st.norm_sq(), rel=1e-14)
    for outcome, prob, post in branches:
        kept = [(occ, amp) for occ, amp in st.terms() if key(occ) == outcome]
        assert prob == squared_norm(amp for _, amp in kept)  # bit for bit
        assert post.norm_sq() == pytest.approx(1.0, rel=1e-14)
        scale = 1.0 / math.sqrt(prob)
        assert list(post.terms()) == [(occ, amp * scale) for occ, amp in kept]


def test_measure_leaves_out_outcomes_without_weight():
    # the zero amplitude is pruned on construction, so no outcome without weight remains
    st = StateVector(source_registry(), {(1, 0, 0, 1): 1.0, (0, 1, 1, 0): 0.0})
    assert [(outcome, prob) for outcome, prob, _ in st.measure(lambda occ: occ[0])] == [(1, 1.0)]
    prob, post = st.project(lambda occ: occ[0] == 0)
    assert prob == 0.0 and len(post) == 0


def test_pruning_drops_tiny_amplitudes():
    reg = source_registry()
    st = StateVector(reg, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1e-15})
    assert len(st) == 1


def test_scalar_algebra():
    reg = source_registry()
    x = StateVector.basis_state(reg, (1, 0, 0, 0))
    y = StateVector.basis_state(reg, (0, 1, 0, 0))
    z = x * 2.0 + y * -1j
    assert z.amplitude((1, 0, 0, 0)) == 2.0
    assert z.amplitude((0, 1, 0, 0)) == -1j
    assert (-z + z).norm_sq() == 0.0
    assert z.normalized().norm() == pytest.approx(1.0)
    assert (x - x).norm_sq() == 0.0


def test_normalized_rejects_zero_state():
    with pytest.raises(FockError):
        StateVector.vacuum(source_registry()).annihilate(AH).normalized()


def test_occupation_shape_validation():
    reg = source_registry()
    with pytest.raises(FockError):
        StateVector(reg, {(1, 0, 0): 1.0})
    with pytest.raises(FockError):
        StateVector(reg, {(1, 0, 0, -1): 1.0})


def test_embed_preserves_amplitudes_and_norm():
    s = singlet(source_registry())
    big = s.embed(attack_registry())
    assert big.norm_sq() == pytest.approx(s.norm_sq())
    assert big.amplitude((0, 1, 1, 0, 0, 0, 0, 0)) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(UnknownModeError):
        big.embed(source_registry())  # only extensions allowed


def test_embed_on_one_more_mode_appends_vacuum_slot():
    s = singlet(source_registry())
    st = s.embed(ModeRegistry([*s.registry, ModeLabel("E1", 0)]))
    assert len(st.registry) == 5
    assert st.amplitude((0, 1, 1, 0, 0)) == pytest.approx(1 / math.sqrt(2))


def test_drop_modes_requires_common_occupation():
    reg = source_registry()
    st = StateVector(reg, {(1, 0, 1, 0): 0.6, (1, 0, 0, 1): 0.8})
    small = st.drop_modes([0, 1])
    assert small.amplitude((1, 0)) == pytest.approx(0.6)
    assert small.amplitude((0, 1)) == pytest.approx(0.8)
    mixed = StateVector(reg, {(1, 0, 1, 0): 0.6, (0, 1, 0, 1): 0.8})
    with pytest.raises(FockError):
        mixed.drop_modes([0, 1])


def test_dump_lines_sorted_and_stable():
    reg = source_registry()
    st = StateVector(reg, {(1, 0, 0, 1): -0.25, (0, 1, 1, 0): 0.75 + 0.5j})
    assert st.dump_lines() == ["0,1,1,0 0.75 0.5", "1,0,0,1 -0.25 0"]
    assert st.dumps() == "0,1,1,0 0.75 0.5\n1,0,0,1 -0.25 0\n"


def test_states_are_immutable_under_ops():
    s = singlet(source_registry())
    before = s.dumps()
    s.create(AH)
    s.project(lambda occ: occ[0] == 1)
    s * 3.0
    assert s.dumps() == before


@pytest.mark.parametrize("policy", ["assign", "discard"])
def test_trusted_states_pass_validation(monkeypatch, policy):
    """Every state the engine builds unchecked over the golden table grid
    would pass the public constructor's checks, with the same terms: in the
    table build, and in the post states of each scenario's measurement."""
    trusted = StateVector._trusted.__func__
    problems: list[str] = []
    built = []

    def validating(cls, registry, amps):
        st = trusted(cls, registry, amps)
        try:
            ref = StateVector(registry, amps)
        except FockError as exc:
            problems.append(f"fails validation: {exc}")
            return st
        terms = list(st.terms())
        if [(occ, repr(amp)) for occ, amp in terms] != [(occ, repr(amp)) for occ, amp in ref.terms()]:
            problems.append(f"terms differ:\n{st.dumps()}vs\n{ref.dumps()}")
        if not all(type(amp) is complex and all(type(n) is int for n in occ)
                   for occ, amp in terms):
            problems.append(f"non-canonical term types in\n{st.dumps()}")
        built.append(len(terms))
        return st

    monkeypatch.setattr(StateVector, "_trusted", classmethod(validating))
    for source_name, source in TABLE_SOURCES:
        for eve_name, eve in TABLE_EVES:
            config = SessionConfig(rounds=100, seed=3, source=source, eve=eve,
                                   double_click_policy=policy)
            try:
                template, _, blocks = protocol._simulate(config)
                (_, _), = blocks  # one block of 100 rounds
                got = _tables_digest(template)
                for state, assignments in scenario_measurements(source, eve):
                    joint_threshold_branches(state, assignments)
            except FockError as exc:
                got = type(exc).__name__
            assert got == GOLDEN_TABLES[f"{source_name}/{eve_name}"]
    assert problems == []
    assert len(built) > 5000 and sum(built) > 20_000  # not vacuous
