"""Golden sessions: `(config, seed)` reproduces the same per-round records.

Each pin is the sha256 of the int8 record bytes `_simulate` yields for one
session, chunk after chunk, or of a transcript's bytes.  A change to the
sampler, the uniform stream, the sampling tables or the transcript
formatting that moves a single byte fails here.
"""

import hashlib

import pytest

from spdcqkd import protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.protocol import (AttackMixture, InterceptResend, SessionConfig,
                              SingletSource, SpdcSource, SplitAttack, run_session)
from spdcqkd.source import SpdcParams

GOLDEN_RECORDS = [
    # 70000 rounds span two chunks of CHUNK_ROUNDS
    (SessionConfig(rounds=70000, seed=11, source=SpdcSource(SpdcParams(0.3)),
                   eve=SplitAttack(AttackConfig(max_attempts=3))),
     "7f27700617abf4a483fad7799744dda0d9c55ee94761013fb455f362082db512"),
    (SessionConfig(rounds=20000, seed=12, source=AttackMixture(0.7)),
     "84bd7f9b0ee8d72378fc2bd799768760f85f2f7b012d421dc6093cb38f6e4321"),
    (SessionConfig(rounds=20000, seed=13, source=SingletSource(),
                   eve=InterceptResend(None)),
     "8440cc6ed650227de4c895c1b0c30ed3cc1e55bbfc74c54fc15151568bbdfd41"),
    (SessionConfig(rounds=20000, seed=14, source=SpdcSource(SpdcParams(0.4)),
                   double_click_policy="discard"),
     "c0509f4ae6083dff67b0f4a1299f43f6a71f07344ab99184d4f5ccbc1b872686"),
]

# sha256 of the transcript of 3000 rounds, seed 17, AttackMixture(0.7),
# over every byte before the trailing checksum line
GOLDEN_TRANSCRIPT_BODY = "b397a52e2bfc055b93d4676774e64a9391462066e4dd940a4cace64ab04ea77d"


@pytest.mark.parametrize("config,digest", GOLDEN_RECORDS,
                         ids=["spdc-split", "mixture", "singlet-intercept", "spdc-discard"])
def test_golden_records(config, digest):
    h = hashlib.sha256()
    for _, rec, _ in protocol._simulate(config):
        h.update(rec.tobytes())
    assert h.hexdigest() == digest


def test_golden_transcript(tmp_path):
    path = tmp_path / "session.csv"
    run_session(SessionConfig(rounds=3000, seed=17, source=AttackMixture(0.7)),
                transcript_path=path)
    data = path.read_bytes()
    body = data[:data.rstrip(b"\n").rfind(b"\n") + 1]
    assert hashlib.sha256(body).hexdigest() == GOLDEN_TRANSCRIPT_BODY
    assert data[len(body):] == f"#sha256={GOLDEN_TRANSCRIPT_BODY}\n".encode("ascii")
