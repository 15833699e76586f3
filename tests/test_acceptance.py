"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE nn name: PASS|FAIL`` line (visible
under ``pytest -v -s`` or on failure) and asserts the guarantee at the
tolerance the package promises, so a green run here certifies the whole
analysis chain end to end.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from spdcqkd import (AttackMixture, InterceptResend, ModeLabel, SessionConfig,
                     SingletSource, SpdcParams, StateVector,
                     attack_four_photon, attack_registry, binary_entropy,
                     eve_conditional_states, eve_wrong_basis_correlation,
                     four_photon_component, holevo_binary, leak_vs_bound,
                     qber_from_state, rotate_polarization, run_session,
                     singlet_state, source_registry, spdc_state,
                     spdc_state_recursive, split_channel,
                     squared_norm_truncated)
from spdcqkd.optics import DA, HV

AH, AV = ModeLabel("A", 0), ModeLabel("A", 1)
BH, BV = ModeLabel("B", 0), ModeLabel("B", 1)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {name}: PASS")
        return wrapper
    return deco


def three_sigma(q, n):
    return 3.0 * math.sqrt(q * (1.0 - q) / n)


@criterion(1, "attack-qber")
def test_attack_qber_is_one_sixth():
    report = qber_from_state(attack_four_photon(), HV, HV)
    assert abs(report.qber - 1.0 / 6.0) <= 1e-12


@criterion(2, "holevo-leak")
def test_holevo_leak_numbers():
    cond = eve_conditional_states(attack_four_photon(), HV, HV)
    overlap = cond[(0, 1)].state.inner(cond[(1, 0)].state)
    assert overlap.real == pytest.approx(-0.8, abs=1e-12)
    assert abs(overlap.imag) <= 1e-12
    chi = holevo_binary(overlap)
    bound = binary_entropy(1.0 / 6.0)
    assert chi == pytest.approx(0.4689956, abs=1e-6)
    assert bound == pytest.approx(0.6500224, abs=1e-6)
    assert bound - chi == pytest.approx(0.1810, abs=5e-4)


@criterion(3, "margin-positivity")
def test_leak_margin_positive_on_grid():
    for p in np.linspace(0.01, 1.0, 100):
        lb = leak_vs_bound(float(p))
        assert lb.margin > 0.0, f"margin not positive at p={p}"
        assert lb.margin == pytest.approx(lb.bound - lb.eve_info, abs=1e-15)


@criterion(4, "source-correctness")
def test_source_constructions_agree():
    cases = [(t, phi) for t in (0.0, 0.1, 0.5) for phi in (0.0, math.pi / 3)]
    for t, phi in cases:
        params = SpdcParams(tanh_xi=t, phi=phi, n_max=4)
        closed = spdc_state(params)
        recursive = spdc_state_recursive(params)
        assert (closed - recursive).norm() <= 1e-12

        # truncated squared norm equals C0^2 sum (n+1) t^(2n)
        c0sq = (1.0 - t * t) ** 2
        expect = c0sq * sum((n + 1) * t ** (2 * n) for n in range(5))
        assert closed.norm_sq() == pytest.approx(expect, abs=1e-12)
        assert squared_norm_truncated(params) == pytest.approx(expect, abs=1e-12)

        if t == 0.0:
            continue
        ch = 1.0 / math.sqrt(1.0 - t * t)
        sh = t * ch
        e = cmath.exp(1j * phi)
        residuals = [
            closed.annihilate(AH) * ch + closed.create(BV) * (e * sh),
            closed.annihilate(AV) * ch - closed.create(BH) * (e * sh),
            closed.annihilate(BH) * ch - closed.create(AV) * (e * sh),
            closed.annihilate(BV) * ch + closed.create(AH) * (e * sh),
        ]
        boundary = 2 * params.n_max + 1
        for res in residuals:
            prob_low, _ = res.project(lambda occ: sum(occ) < boundary)
            assert math.sqrt(prob_low) <= 1e-12


@criterion(5, "basis-invariance")
def test_diagonal_rotation_fixes_source_states():
    def rotate_both(state):
        return rotate_polarization(
            rotate_polarization(state, "A", DA), "B", DA)

    for state in (singlet_state(),
                  four_photon_component(),
                  spdc_state(SpdcParams(0.1)),
                  spdc_state(SpdcParams(0.5, phi=math.pi / 3))):
        assert (rotate_both(state) - state).norm() <= 1e-12


@criterion(6, "attack-state-oracle")
def test_split_pipeline_reproduces_attack_state():
    psi4 = four_photon_component().embed(attack_registry())
    after_a = split_channel(psi4, "A", "E1")
    after_b = split_channel(after_a.state, "B", "E2")
    assert (after_b.state - attack_four_photon()).norm() <= 1e-12

    reg = attack_registry()
    same = StateVector(reg, {(2, 0, 0, 0, 0, 0, 0, 0): 1.0})
    mixed = StateVector(reg, {(1, 1, 0, 0, 0, 0, 0, 0): 1.0})
    for content in (same, mixed):
        res = split_channel(content, "A", "E1")
        assert res.per_attempt_probability == pytest.approx(0.5, abs=1e-12)


@criterion(7, "wrong-basis-futility")
def test_wrong_basis_gives_zero_correlation():
    report = eve_wrong_basis_correlation(attack_four_photon())
    assert not report.degenerate
    assert abs(report.value) <= 1e-12


@criterion(8, "mc-convergence")
def test_monte_carlo_matches_analytic_rates(tmp_path):
    for p, seed in ((0.3, 101), (1.0, 102)):
        cfg = SessionConfig(rounds=100000, seed=seed, source=AttackMixture(p))
        rep = run_session(cfg)
        q = p / 6.0
        assert abs(rep.qber_hat - q) < three_sigma(q, rep.sifted_length)

    clean = run_session(
        SessionConfig(rounds=100000, seed=103, source=SingletSource()))
    assert clean.qber_hat == 0.0

    cfg = SessionConfig(rounds=20000, seed=104, source=AttackMixture(0.5))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    r1 = run_session(cfg, transcript_path=p1)
    r2 = run_session(cfg, transcript_path=p2)
    assert r1 == r2
    assert p1.read_bytes() == p2.read_bytes()


@criterion(9, "intercept-resend-baseline")
def test_intercept_resend_quarter_error_rate():
    cfg = SessionConfig(rounds=100000, seed=105, source=SingletSource(),
                        eve=InterceptResend())
    rep = run_session(cfg)
    assert abs(rep.qber_hat - 0.25) < three_sigma(0.25, rep.sifted_length)


@criterion(10, "two-photon-interference")
def test_diagonal_rotation_bunches_photon_pair():
    reg = source_registry()
    one_each = StateVector(reg, {(1, 1, 0, 0): 1.0})
    rotated = rotate_polarization(one_each, "A", DA)
    amps = dict(rotated.terms())
    # the coincidence term cancels identically
    assert (1, 1, 0, 0) not in amps
    assert set(amps) == {(2, 0, 0, 0), (0, 2, 0, 0)}
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert amps[(2, 0, 0, 0)].real == pytest.approx(inv_sqrt2, abs=1e-15)
    assert amps[(0, 2, 0, 0)].real == pytest.approx(-inv_sqrt2, abs=1e-15)
    assert rotated.norm_sq() == pytest.approx(1.0, abs=1e-15)
