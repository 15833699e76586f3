import cmath
import math

import pytest

from spdcqkd.fock import FockError, ModeLabel, attack_registry
from spdcqkd.optics import DA, rotate_polarization
from spdcqkd.source import (N_MAX_CAP, SpdcParams, four_photon_component, pair_statistics,
                            singlet_state, spdc_state, spdc_state_recursive,
                            squared_norm_truncated, truncation_tail)

AH = ModeLabel("A", 0)
AV = ModeLabel("A", 1)
BH = ModeLabel("B", 0)
BV = ModeLabel("B", 1)


def assert_states_close(x, y, tol=1e-12):
    assert (x - y).norm() <= tol


def rotate_both(state):
    return rotate_polarization(rotate_polarization(state, "A", DA), "B", DA)


def test_params_validation():
    with pytest.raises(FockError, match="tanh_xi"):
        SpdcParams(tanh_xi=1.0)
    with pytest.raises(FockError, match="tanh_xi"):
        SpdcParams(tanh_xi=-0.2)
    with pytest.raises(FockError):
        SpdcParams(tanh_xi=0.1, n_max=-1)


def test_params_bound_n_max():
    assert len(spdc_state(SpdcParams(0.3, n_max=N_MAX_CAP))) > 0
    message = rf"^n_max must be in \[0, {N_MAX_CAP}\], got {N_MAX_CAP + 1}$"
    with pytest.raises(FockError, match=message):
        SpdcParams(0.3, n_max=N_MAX_CAP + 1)


def test_params_require_computable_phases():
    # phi * n for n <= n_max must be finite: 1e308 is, at n_max 1 only
    st = spdc_state(SpdcParams(0.3, phi=1e308, n_max=1))
    assert st.amplitude((0, 1, 1, 0)) == pytest.approx(0.91 * 0.3 * cmath.exp(1e308j))
    for phi, n_max in ((1e308, 2), (-1e308, 2), (math.nan, 0), (math.inf, 0), (-math.inf, 4)):
        with pytest.raises(FockError, match="^phi must be finite"):
            SpdcParams(0.3, phi=phi, n_max=n_max)


def test_vacuum_limit():
    params = SpdcParams(0.0, n_max=3)
    st = spdc_state(params)
    assert len(st) == 1
    assert st.amplitude((0, 0, 0, 0)) == pytest.approx(1.0)
    assert truncation_tail(params) == 0.0


def test_single_pair_amplitudes():
    st = spdc_state(SpdcParams(0.1))
    assert st.amplitude((0, 1, 1, 0)) == pytest.approx(0.099, abs=1e-15)
    assert st.amplitude((1, 0, 0, 1)) == pytest.approx(-0.099, abs=1e-15)
    assert st.amplitude((0, 0, 0, 0)) == pytest.approx(0.99, abs=1e-15)


def test_phase_enters_per_pair():
    phi = 0.7
    st = spdc_state(SpdcParams(0.2, phi=phi))
    c0 = 1 - 0.04
    assert st.amplitude((0, 1, 1, 0)) == pytest.approx(c0 * 0.2 * cmath.exp(1j * phi))
    assert st.amplitude((1, 1, 1, 1)) == pytest.approx(-c0 * 0.04 * cmath.exp(2j * phi))


def test_truncation_tail_closed_form():
    # tail(t, N) = x^(N+1) ((N+2) - (N+1) x) with x = t^2
    assert truncation_tail(SpdcParams(0.1, n_max=3)) == pytest.approx(4.96e-8, rel=1e-12)
    assert truncation_tail(SpdcParams(0.1, n_max=4)) == pytest.approx(5.95e-10, rel=1e-12)
    assert truncation_tail(SpdcParams(0.1, n_max=2)) == pytest.approx(3.97e-6, rel=1e-12)
    assert truncation_tail(SpdcParams(0.0, n_max=1)) == 0.0


def test_truncation_tail_matches_partial_sums():
    for t in (0.1, 0.5, 0.9):
        for n_max in (0, 2, 5):
            p = SpdcParams(t, n_max=n_max)
            x = t * t
            head = (1 - x) ** 2 * sum((n + 1) * x ** n for n in range(n_max + 1))
            assert truncation_tail(p) == pytest.approx(1.0 - head, abs=1e-15)
            assert squared_norm_truncated(p) == pytest.approx(head, abs=1e-15)


def test_state_norm_matches_truncated_sum():
    for t in (0.1, 0.5):
        for n_max in (2, 4):
            p = SpdcParams(t, n_max=n_max)
            assert spdc_state(p).norm_sq() == pytest.approx(
                squared_norm_truncated(p), abs=1e-12)


def test_recursive_matches_closed_form_on_grid():
    for t in (0.0, 0.1, 0.5):
        for phi in (0.0, math.pi / 3):
            p = SpdcParams(t, phi=phi, n_max=4)
            a, b = spdc_state(p), spdc_state_recursive(p)
            occs = {occ for occ, _ in a.terms()} | {occ for occ, _ in b.terms()}
            for occ in occs:
                assert abs(a.amplitude(occ) - b.amplitude(occ)) <= 1e-12


def test_recursive_c1111_path_independence():
    phi = 0.9
    p = SpdcParams(0.3, phi=phi, n_max=2)
    st = spdc_state_recursive(p)
    expected = -cmath.exp(2j * phi) * 0.09 * (1 - 0.09)
    assert st.amplitude((1, 1, 1, 1)) == pytest.approx(expected, abs=1e-15)


def test_recursive_nmax_zero():
    st = spdc_state_recursive(SpdcParams(0.4, n_max=0))
    assert len(st) == 1
    assert st.amplitude((0, 0, 0, 0)) == pytest.approx(1 - 0.16)


def test_annihilation_identities_on_truncated_state():
    # (a_AH cosh + e^{i phi} sinh bdag_BV)|xi> = 0 and the three siblings,
    # exact below the pair-number truncation boundary
    for t in (0.1, 0.5):
        for phi in (0.0, math.pi / 3):
            p = SpdcParams(t, phi=phi, n_max=4)
            st = spdc_state(p)
            ch = 1.0 / math.sqrt(1 - t * t)
            sh = t * ch
            e = cmath.exp(1j * phi)
            residuals = [
                st.annihilate(AH) * ch + st.create(BV) * (e * sh),
                st.annihilate(AV) * ch - st.create(BH) * (e * sh),
                st.annihilate(BH) * ch - st.create(AV) * (e * sh),
                st.annihilate(BV) * ch + st.create(AH) * (e * sh),
            ]
            boundary = 2 * p.n_max + 1
            for res in residuals:
                prob_low, _ = res.project(lambda occ: sum(occ) < boundary)
                assert math.sqrt(prob_low) <= 1e-12
                # everything that survives sits exactly on the boundary sector
                for occ, _ in res.terms():
                    assert sum(occ) == boundary


def test_pair_statistics_values():
    rows = pair_statistics(SpdcParams(0.1))
    probs = dict(rows)
    assert rows[0] == (0, pytest.approx(0.9801, abs=1e-15))
    assert probs[1] == pytest.approx(0.019602, abs=1e-15)
    # P(2)/P(1) = (3/2) tanh^2
    assert probs[2] / probs[1] == pytest.approx(1.5 * 0.01, rel=1e-12)
    assert pair_statistics(SpdcParams(0.0))[0] == (0, 1.0)


def test_pair_statistics_match_sector_projections():
    p = SpdcParams(0.3, n_max=4)
    st = spdc_state(p)
    for n, prob in pair_statistics(p):
        sector_prob, _ = st.project(lambda occ, n=n: sum(occ) == 2 * n)
        assert sector_prob == pytest.approx(prob, abs=1e-12)


def test_four_photon_component_amplitudes():
    st = four_photon_component()
    r = 1 / math.sqrt(3)
    assert st.amplitude((0, 2, 2, 0)) == pytest.approx(r)
    assert st.amplitude((2, 0, 0, 2)) == pytest.approx(r)
    assert st.amplitude((1, 1, 1, 1)) == pytest.approx(-r)
    assert len(st) == 3
    assert st.norm() == pytest.approx(1.0)


def test_four_photon_component_is_renormalized_two_pair_sector():
    st = spdc_state(SpdcParams(0.37))
    prob, sector = st.project(lambda occ: sum(occ) == 4)
    assert prob > 0
    overlap = four_photon_component().inner(sector)
    assert abs(abs(overlap) - 1.0) <= 1e-12


def test_four_photon_component_basis_invariant():
    st = four_photon_component()
    assert_states_close(rotate_both(st), st)


def test_singlet_basis_invariant():
    st = singlet_state()
    assert_states_close(rotate_both(st), st)
    assert st.amplitude((0, 1, 1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert st.amplitude((1, 0, 0, 1)) == pytest.approx(-1 / math.sqrt(2))


def test_full_state_basis_invariant():
    for t in (0.1, 0.5):
        st = spdc_state(SpdcParams(t, n_max=4))
        assert_states_close(rotate_both(st), st)


def test_singlet_embeds_into_bigger_registry():
    st = singlet_state().embed(attack_registry())
    assert len(st.registry) == 8
    assert st.amplitude((0, 1, 1, 0, 0, 0, 0, 0)) == pytest.approx(1 / math.sqrt(2))


def test_spdc_state_golden_dump():
    st = spdc_state(SpdcParams(0.1, n_max=2))
    assert st.dumps() == (
        "0,0,0,0 0.99 0\n"
        "0,1,1,0 0.099 0\n"
        "0,2,2,0 0.0099 0\n"
        "1,0,0,1 -0.099 0\n"
        "1,1,1,1 -0.0099 0\n"
        "2,0,0,2 0.0099 0\n"
    )
