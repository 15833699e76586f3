"""Closed-form sift and error rates of an SPDC source, against its template.

An oracle that shares no code with the exact chain: per pair-number sector
n >= 1 of the source, the rates are rationals in n, and a split attack of k
attempts changes sector 2 alone.  The template's sifted and error mass is
the sectors' rates weighted by the pair distribution P(n) = (n+1) lambda^n
(1 - lambda)^2, lambda = tanh^2 xi, renormalised by the truncation's lost
weight t, as the template renormalises the truncated state.

Per sector n >= 1 under "assign" a round sifts with probability 1/2 at
QBER (n - 1)/(2(n + 1)); under "discard" it sifts with probability
1/(n + 1) at QBER 0; the vacuum sector never sifts.  A k-attempt split,
with q = 1 - 2^-k, leaves sector 2 at sift 1/2 and QBER 1/6 under
"assign", and gives it sift 1/3 + q^2/6 and QBER q^2/(4 + 2q^2) under
"discard".
"""

import pytest

from spdcqkd import protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.protocol import SessionConfig, SpdcSource, SplitAttack
from spdcqkd.source import SpdcParams, truncation_tail

TANH_XI = 0.3
ATTEMPTS = [None, 1, 3, 8]  # None: no eavesdropper


def sector_rates(n: int, policy: str, attempts: int | None) -> tuple[float, float]:
    """(sift probability, QBER) of pair-number sector n."""
    if n == 0:
        return 0.0, 0.0
    if n == 2 and attempts is not None and policy == "discard":
        q = 1.0 - 2.0 ** -attempts
        return 1.0 / 3.0 + q * q / 6.0, q * q / (4.0 + 2.0 * q * q)
    if policy == "assign":
        return 0.5, (n - 1) / (2.0 * (n + 1))
    return 1.0 / (n + 1), 0.0


def closed_form(params: SpdcParams, policy: str, attempts: int | None) -> tuple[float, float]:
    """(sifted mass, error mass) per round of the truncated, renormalised source."""
    lam = params.tanh_xi ** 2
    kept = 1.0 - truncation_tail(params)
    sift = errors = 0.0
    for n in range(params.n_max + 1):
        p = (n + 1) * lam ** n * (1.0 - lam) ** 2
        s, qber = sector_rates(n, policy, attempts)
        sift += p * s / kept
        errors += p * s * qber / kept
    return sift, errors


def template_rates(template) -> tuple[float, float]:
    """(sifted mass, error mass) of a template's rows and their probabilities."""
    sifted = template.rows[:, 7] == 1
    wrong = sifted & (template.rows[:, 5] != template.rows[:, 6])
    return (float(template.probabilities[sifted].sum()),
            float(template.probabilities[wrong].sum()))


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("attempts", ATTEMPTS, ids=["none", "split1", "split3", "split8"])
@pytest.mark.parametrize("n_max", range(1, 7))
def test_spdc_template_matches_the_closed_forms(n_max, attempts, policy):
    params = SpdcParams(TANH_XI, n_max=n_max)
    eve = None if attempts is None else SplitAttack(AttackConfig(max_attempts=attempts))
    template = protocol._build_tables(SessionConfig(
        rounds=1, seed=0, source=SpdcSource(params), eve=eve, double_click_policy=policy))
    want = closed_form(params, policy, attempts)
    got = template_rates(template)
    assert got == pytest.approx(want, rel=0, abs=1e-14)
