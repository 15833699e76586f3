import cmath
import math

import numpy as np
import pytest

from spdcqkd import _kernels, optics
from spdcqkd.fock import (FockError, ModeCapError, ModeLabel, ModeRegistry, StateVector,
                          attack_registry, source_registry)
from spdcqkd.optics import (DA, HV, BasisAngle, OutcomeKind, beamsplitter_50_50,
                            joint_threshold_branches, qnd_count, rotate_polarization)
from spdcqkd.source import SpdcParams, spdc_state

from test_golden import scenario_measurements
from test_kernels import BUILDABLE

AH = ModeLabel("A", 0)
AV = ModeLabel("A", 1)
E1H = ModeLabel("E1", 0)
E1V = ModeLabel("E1", 1)

SQ2 = math.sqrt(2.0)


def ket(reg, occ, amp=1.0):
    return StateVector(reg, {occ: amp})


def singlet(reg=None):
    reg = reg or source_registry()
    r = 1.0 / SQ2
    st = StateVector(source_registry(), {(0, 1, 1, 0): r, (1, 0, 0, 1): -r})
    return st.embed(reg) if len(reg) > 4 else st


def assert_states_close(x, y, tol=1e-12):
    assert (x - y).norm() <= tol, f"states differ:\n{x.dumps()}\nvs\n{y.dumps()}"


def random_state(reg, rng, n_terms=6, max_n=2):
    amps = {}
    for _ in range(n_terms):
        occ = tuple(int(rng.integers(0, max_n + 1)) for _ in range(len(reg)))
        amps[occ] = complex(rng.normal(), rng.normal())
    return StateVector(reg, amps).normalized()


def test_basis_angle_range():
    assert HV.theta == 0.0
    assert DA.theta == pytest.approx(math.pi / 4)
    with pytest.raises(FockError):
        BasisAngle(-0.1)
    with pytest.raises(FockError):
        BasisAngle(math.pi)


# -- beamsplitter -----------------------------------------------------------


def test_beamsplitter_two_photons():
    reg = attack_registry()
    st = beamsplitter_50_50(ket(reg, (2, 0, 0, 0, 0, 0, 0, 0)), AH, E1H)
    assert st.amplitude((2, 0, 0, 0, 0, 0, 0, 0)) == pytest.approx(0.5)
    assert st.amplitude((1, 0, 0, 0, 1, 0, 0, 0)) == pytest.approx(SQ2 / 2)
    assert st.amplitude((0, 0, 0, 0, 2, 0, 0, 0)) == pytest.approx(0.5)
    assert st.norm() == pytest.approx(1.0)


def test_beamsplitter_single_photon():
    reg = attack_registry()
    st = beamsplitter_50_50(ket(reg, (1, 0, 0, 0, 0, 0, 0, 0)), AH, E1H)
    assert st.amplitude((1, 0, 0, 0, 0, 0, 0, 0)) == pytest.approx(1 / SQ2)
    assert st.amplitude((0, 0, 0, 0, 1, 0, 0, 0)) == pytest.approx(1 / SQ2)


def test_beamsplitter_on_orthogonal_pair():
    # H+V channel content splits into all four arm assignments, weight 1/2 each
    reg = attack_registry()
    st = ket(reg, (1, 1, 0, 0, 0, 0, 0, 0))
    st = beamsplitter_50_50(st, AH, E1H)
    st = beamsplitter_50_50(st, AV, E1V)
    assert st.amplitude((1, 1, 0, 0, 0, 0, 0, 0)) == pytest.approx(0.5)
    assert st.amplitude((0, 0, 0, 0, 1, 1, 0, 0)) == pytest.approx(0.5)
    assert st.amplitude((0, 1, 0, 0, 1, 0, 0, 0)) == pytest.approx(0.5)
    assert st.amplitude((1, 0, 0, 0, 0, 1, 0, 0)) == pytest.approx(0.5)


def test_beamsplitter_rejects_occupied_target():
    reg = attack_registry()
    st = ket(reg, (1, 0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(FockError):
        beamsplitter_50_50(st, AH, E1H)
    with pytest.raises(FockError):
        beamsplitter_50_50(st, AH, AH)


def test_beamsplitter_preserves_inner_products():
    reg = attack_registry()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_state(reg, rng)
        y = random_state(reg, rng)
        _, x0 = x.project(lambda occ: occ[4] == 0)
        _, y0 = y.project(lambda occ: occ[4] == 0)
        before = x0.inner(y0)
        after = beamsplitter_50_50(x0, AH, E1H).inner(beamsplitter_50_50(y0, AH, E1H))
        assert abs(before - after) <= 1e-12


# -- polarization rotation --------------------------------------------------


def test_rotation_hong_ou_mandel():
    reg = source_registry()
    st = rotate_polarization(ket(reg, (1, 1, 0, 0)), "A", DA)
    assert st.amplitude((2, 0, 0, 0)) == pytest.approx(1 / SQ2, abs=1e-12)
    assert st.amplitude((0, 2, 0, 0)) == pytest.approx(-1 / SQ2, abs=1e-12)
    assert len(st) == 2


def test_rotation_of_two_same_polarization_photons():
    # |20> and |02> split across both rotated modes; the cross terms carry
    # opposite signs so |20> + |02> stays invariant
    reg = source_registry()
    st20 = rotate_polarization(ket(reg, (2, 0, 0, 0)), "A", DA)
    assert st20.amplitude((2, 0, 0, 0)) == pytest.approx(0.5, abs=1e-12)
    assert abs(st20.amplitude((1, 1, 0, 0))) == pytest.approx(1 / SQ2, abs=1e-12)
    assert st20.amplitude((0, 2, 0, 0)) == pytest.approx(0.5, abs=1e-12)
    st02 = rotate_polarization(ket(reg, (0, 2, 0, 0)), "A", DA)
    both = st20 + st02
    assert both.amplitude((2, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert both.amplitude((0, 2, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert abs(both.amplitude((1, 1, 0, 0))) <= 1e-12


def test_rotation_theta_zero_is_identity():
    reg = source_registry()
    st = StateVector(reg, {(1, 1, 0, 0): 0.6, (0, 2, 1, 0): 0.8j})
    assert_states_close(rotate_polarization(st, "A", HV), st)


def test_rotation_roundtrip_is_identity():
    reg = source_registry()
    rng = np.random.default_rng(11)
    st = random_state(reg, rng)
    back = rotate_polarization(rotate_polarization(st, "A", DA), "A", -DA.theta)
    assert_states_close(back, st)


def test_rotation_preserves_inner_products():
    reg = source_registry()
    rng = np.random.default_rng(23)
    for theta in (0.3, math.pi / 4, 1.2):
        x = random_state(reg, rng)
        y = random_state(reg, rng)
        rx = rotate_polarization(x, "B", theta)
        ry = rotate_polarization(y, "B", theta)
        assert abs(x.inner(y) - rx.inner(ry)) <= 1e-12


def test_rotation_fixes_singlet():
    st = singlet()
    rot = rotate_polarization(rotate_polarization(st, "A", DA), "B", DA)
    assert_states_close(rot, st)


def test_rotation_unknown_channel():
    with pytest.raises(FockError):
        rotate_polarization(singlet(), "E1", DA)


def reference_rotation(state, party, theta):
    """The per-term formula the weight cache replaced, built through the
    validating constructor (which raised on an occupation above the cap)."""
    if isinstance(theta, BasisAngle):
        theta = theta.theta
    hi, vi = state.registry.channel_modes(party)
    c = math.cos(theta)
    s = math.sin(theta)
    amps = {}
    for occ, amp in state.terms():
        nh, nv = occ[hi], occ[vi]
        tot = nh + nv
        if tot == 0:
            amps[occ] = amps.get(occ, 0j) + amp
            continue
        base = amp / math.sqrt(math.factorial(nh) * math.factorial(nv))
        for i in range(nh + 1):
            wh = math.comb(nh, i) * c ** i * (-s) ** (nh - i)
            for j in range(nv + 1):
                w = wh * math.comb(nv, j) * s ** j * c ** (nv - j)
                if w == 0.0:
                    continue
                m = i + j
                new = list(occ)
                new[hi] = m
                new[vi] = tot - m
                key = tuple(new)
                weight = w * math.sqrt(math.factorial(m) * math.factorial(tot - m))
                amps[key] = amps.get(key, 0j) + base * weight
    return StateVector(state.registry, amps)


def test_rotation_past_the_cap_names_the_mode():
    reg = source_registry()
    with pytest.raises(ModeCapError, match="mode AV: occupation 33 exceeds per-mode cap 32"):
        rotate_polarization(ket(reg, (17, 16, 0, 0)), "A", DA)


@pytest.mark.parametrize("theta", [DA, 0.3, -DA.theta, 2.0, 1e-300, HV])
def test_rotation_cap_error_matches_reference(theta):
    # a valid term first, then 33 photons in one channel (cap 32); only an
    # exact identity (theta 0, or weights that underflow to 0) leaves every
    # slot within the cap
    reg = source_registry()
    st = StateVector(reg, {(0, 0, 1, 0): 0.6, (17, 16, 0, 0): 0.8, (0, 0, 0, 1): 0.1})

    def outcome(rotate):
        try:
            return list(rotate(st, "A", theta).terms())
        except ModeCapError as exc:
            return str(exc)

    assert outcome(rotate_polarization) == outcome(reference_rotation)


def test_rotation_of_spdc_state_matches_reference():
    st = spdc_state(SpdcParams(0.3, n_max=6))
    got, want = st, st
    for party, theta in (("A", DA), ("B", DA), ("A", -DA.theta), ("B", 0.3)):
        got = rotate_polarization(got, party, theta)
        want = reference_rotation(want, party, theta)
        assert got.dump_lines() == want.dump_lines()
        assert [(o, repr(a)) for o, a in got.terms()] == [(o, repr(a)) for o, a in want.terms()]
    assert len(got) > 100


def test_rotation_weight_cache_is_bounded():
    weights = optics._rotation_weights
    assert weights.cache_info().maxsize == optics.ROTATION_CACHE_SIZE
    st = ket(source_registry(), (1, 1, 0, 0))
    for k in range(optics.ROTATION_CACHE_SIZE + 200):
        rotate_polarization(st, "A", 1e-3 * (k + 1))
        assert weights.cache_info().currsize <= optics.ROTATION_CACHE_SIZE
    hits = weights.cache_info().hits
    rotate_polarization(st, "A", 1e-3)
    rotate_polarization(st, "A", 1e-3)
    assert weights.cache_info().hits == hits + 1


# -- QND counting -----------------------------------------------------------


def test_qnd_count_after_splitting_two_photons():
    reg = attack_registry()
    st = beamsplitter_50_50(ket(reg, (2, 0, 0, 0, 0, 0, 0, 0)), AH, E1H)
    branches = qnd_count(st, [E1H, E1V])
    by_count = {b.count: b for b in branches}
    assert by_count[1].probability == pytest.approx(0.5)
    assert sorted(by_count) == [0, 1, 2]
    assert sum(b.probability for b in branches) == pytest.approx(st.norm_sq())


def test_qnd_count_vacuum():
    branches = qnd_count(StateVector.vacuum(source_registry()), [AH, AV])
    assert len(branches) == 1
    assert branches[0].count == 0
    assert branches[0].probability == pytest.approx(1.0)


def test_qnd_count_definite_count_leaves_state_alone():
    reg = source_registry()
    st = ket(reg, (1, 1, 1, 1))
    branches = qnd_count(st, [AH, AV])
    assert len(branches) == 1
    assert branches[0].count == 2
    assert_states_close(branches[0].state, st)


def test_qnd_count_does_not_disturb_polarization():
    # superposition within a fixed count survives the measurement
    reg = source_registry()
    st = StateVector(reg, {(1, 0, 0, 0): 1 / SQ2, (0, 1, 0, 0): 1j / SQ2})
    branches = qnd_count(st, [AH, AV])
    assert len(branches) == 1
    assert_states_close(branches[0].state, st)


def test_qnd_count_requires_modes():
    with pytest.raises(FockError):
        qnd_count(singlet(), [])


# -- threshold detection ----------------------------------------------------


def kinds_and_probabilities(state, assignments):
    return [(b.kinds, b.probability) for b in joint_threshold_branches(state, assignments)]


def test_joint_threshold_branches_probabilities():
    st = singlet()
    branches = joint_threshold_branches(st, [("A", HV), ("B", DA)])
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        assert b.state.norm() == pytest.approx(1.0)
        assert b.probability == pytest.approx(0.25)
    assert len(branches) == 4


def test_threshold_detect_singlet_anticorrelation():
    got = kinds_and_probabilities(singlet(), [("A", HV), ("B", HV)])
    assert [kinds for kinds, _ in got] == [(OutcomeKind.BIT0, OutcomeKind.BIT1),
                                           (OutcomeKind.BIT1, OutcomeKind.BIT0)]
    assert [p for _, p in got] == pytest.approx([0.5, 0.5])


def test_threshold_detect_two_photons_one_detector():
    st = ket(source_registry(), (2, 0, 0, 0))
    assert kinds_and_probabilities(st, [("A", HV)]) == [
        ((OutcomeKind.BIT0,), pytest.approx(1.0))]


def test_threshold_detect_vacuum_never_clicks():
    st = StateVector.vacuum(source_registry())
    assert kinds_and_probabilities(st, [("A", HV)]) == [((OutcomeKind.NO_CLICK,), 1.0)]


def test_threshold_detect_double_click_assigns_random_bit():
    st = ket(source_registry(), (1, 1, 0, 0))
    assert kinds_and_probabilities(st, [("A", HV)]) == [
        ((OutcomeKind.DOUBLE,), pytest.approx(1.0))]
    # the session template gives Alice's double click each bit on two of
    # its four equally likely draw pairs
    keys, template = _kernels.lookup_tables(
        np.arange(4), np.ones(4, dtype=np.intp), np.ones(4), np.full(4, 3, dtype=np.int8),
        np.ones(4, dtype=np.int8), np.full(4, -1, dtype=np.int8),
        np.full(4, -1, dtype=np.int8), True)
    probs = _kernels.template_probabilities(np.ones(1), keys.imag)
    assert template[:, 3].tolist() == [3] * 16
    assert template[:, 5].tolist() == [0, 0, 1, 1] * 4
    assert probs.tolist() == [1 / 16] * 16


def test_threshold_detect_global_phase_invariance():
    # bit for bit when the phase is exact in floating point, to rounding
    # otherwise
    st = singlet()
    want = kinds_and_probabilities(st, [("A", DA)])
    for phase in (1j, -1.0):
        got = kinds_and_probabilities(st * phase, [("A", DA)])
        assert [(kinds, p.hex()) for kinds, p in got] == [(kinds, p.hex()) for kinds, p in want]
    got = kinds_and_probabilities(st * cmath.exp(0.7j), [("A", DA)])
    assert [kinds for kinds, _ in got] == [kinds for kinds, _ in want]
    assert [p for _, p in got] == pytest.approx([p for _, p in want], rel=1e-15)


def test_threshold_detect_post_state_is_conditional():
    # each of Alice's clicks leaves Bob's photon in the opposite polarization
    branches = joint_threshold_branches(singlet(), [("A", HV)])
    assert [b.kinds for b in branches] == [(OutcomeKind.BIT0,), (OutcomeKind.BIT1,)]
    for bit, b in enumerate(branches):
        prob, _ = b.state.project(lambda occ: occ[2 + (1 - bit)] == 1)
        assert prob == pytest.approx(1.0)


def branch_probabilities(state, assignments):
    return [(b.kinds, b.probability.hex()) for b in joint_threshold_branches(state, assignments)]


@pytest.mark.parametrize("name,source,eve", BUILDABLE, ids=[name for name, _, _ in BUILDABLE])
def test_alice_rotated_beforehand_measures_as_in_her_basis(name, source, eve):
    """Bit for bit, for every scenario state and basis pair of the golden
    grid: rotating Alice's channel into her basis and then measuring it in
    HV gives the kinds and probabilities of measuring it in her basis, as
    the table build rotates it once for both of Bob's bases."""
    for state, assignments in scenario_measurements(source, eve):
        want = branch_probabilities(state, assignments)
        assert all(type(k) is OutcomeKind for kinds, _ in want for k in kinds)
        a_basis = assignments[0][1]
        state_a = rotate_polarization(state, "A", a_basis) if a_basis is DA else state
        assert branch_probabilities(state_a, [("A", HV)] + assignments[1:]) == want


@pytest.mark.parametrize("order", [
    [("B", 1), ("A", 1), ("B", 0), ("A", 0)],  # V before H
    [("A", 0), ("B", 0), ("A", 1), ("B", 1)],  # a channel's slots apart
])
def test_click_probabilities_on_another_mode_order(order):
    """Bit for bit on a registry that lists the same modes in another
    order (and on complex amplitudes, a pump phase): the kinds follow the
    channels, not the slots."""
    params = SpdcParams(0.4, phi=0.7, n_max=4)
    reg = ModeRegistry([ModeLabel(*label) for label in order])
    st = spdc_state(params).embed(reg)
    for a in (HV, DA, BasisAngle(0.3)):
        for b in (HV, DA):
            for assignments in ([("A", a), ("B", b)], [("B", b), ("A", a)],
                                [("A", a)]):
                assert branch_probabilities(st, assignments) == branch_probabilities(
                    spdc_state(params), assignments)


def test_click_probabilities_prune_after_the_last_rotation():
    """Terms whose amplitudes fall just below prune_tol (1e-12) in the last
    rotation are pruned, as the rotated state prunes them; just above, kept."""
    c, s = math.cos(DA.theta), math.sin(DA.theta)
    for small, kept in ((0.99e-12, False), (1.01e-12, True)):
        # |H>_A |V>_B at amplitude x rotates to x*c |10> - x*s |01> on A
        x = small / min(c, s)
        st = StateVector(source_registry(), {(0, 0, 1, 0): 1.0, (1, 0, 0, 1): x})
        assert len(st) == 2
        assert len(rotate_polarization(st, "A", DA)) == (3 if kept else 1)
        got = branch_probabilities(st, [("A", DA), ("B", HV)])
        assert got == branch_probabilities(rotate_polarization(st, "A", DA), [("A", HV), ("B", HV)])
        assert len(got) == (3 if kept else 1)


def test_click_probabilities_add_left_to_right():
    """One pattern's squared amplitudes 1, 1e-16 and 1e-16 sum to exactly 1.0,
    as a left-to-right sum gives on every Python; a compensated sum (Python
    3.12's sum()) gives 1 + 2**-52."""
    amps = {(1, 0, 0, 0): 1.0, (2, 0, 0, 0): 1e-8, (3, 0, 0, 0): 1e-8}
    st = StateVector(source_registry(), amps)
    assert branch_probabilities(st, [("A", HV)]) == [((OutcomeKind.BIT0,), "0x1.0000000000000p+0")]
    assert st.norm_sq() == 1.0
    assert st.project(lambda occ: occ[0] > 0)[0] == 1.0
    same_count = StateVector(source_registry(),
                             {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1e-8, (0, 1, 1, 0): 1e-8})
    assert [b.probability for b in qnd_count(same_count, [AH, AV])] == [1.0]
