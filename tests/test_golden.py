"""Golden sessions: `(config, seed)` reproduces the same per-round records.

Each pin is the sha256 of the int8 record bytes of one session, block after
block (`template.rows` at the indices `_simulate` yields), or of a
transcript's bytes: the version-3 file a session writes, and its version-2
text form.  A change to the sampler, the uniform stream, the sampling
tables or the transcript formats that moves a single byte fails here.  The
sampling tables are also pinned on their own, over a grid of every source
and eavesdropper kind, and under a split attack at a pump phase where the
amplitudes are complex.  So is the line `tests/engine_bits.py` prints: the
kinds and probabilities of the `joint_threshold_branches` the tables read,
and also the nondemolition splits and the eavesdropper's conditional states.
"""

import collections
import dataclasses
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from spdcqkd import protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.fock import attack_registry
from spdcqkd.optics import DA, HV
from spdcqkd.protocol import (AttackMixture, InterceptResend, SessionConfig,
                              SingletSource, SpdcSource, SplitAttack, replay, run_session,
                              transcript_text)
from spdcqkd.source import SpdcParams

GOLDEN_RECORDS = [
    # 70000 rounds span five blocks of CHUNK_ROUNDS, drawn ahead on more than one CPU
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

GOLDEN_IDS = ["spdc-split", "mixture", "singlet-intercept", "spdc-discard"]

# The session of 3000 rounds, seed 17, AttackMixture(0.7): sha256 of its
# version-2 CSV transcript over every byte before the trailing checksum line,
# now the text form of its version-3 file; and sha256 of that file over every
# byte before its 32-byte digest (the header names tool version 0.1.0)
GOLDEN_SESSION = SessionConfig(rounds=3000, seed=17, source=AttackMixture(0.7))
GOLDEN_TRANSCRIPT_BODY = "b397a52e2bfc055b93d4676774e64a9391462066e4dd940a4cace64ab04ea77d"
GOLDEN_TRANSCRIPT_V3 = "7f65494c4cb3491db5d240d042a2e0dadda9c1641e812b6b3d1198c9bfa63c84"


def records(config):
    """The int8 records of a session, block by block: its template's rows at
    the indices the sampler drew."""
    template, _, blocks = protocol._simulate(config)
    for _, idx in blocks:
        yield template.rows[idx]


@pytest.mark.parametrize("config,digest", GOLDEN_RECORDS, ids=GOLDEN_IDS)
def test_golden_records(config, digest):
    h = hashlib.sha256()
    for rec in records(config):
        h.update(rec.tobytes())
    assert h.hexdigest() == digest


def text_form(path):
    """The bytes `spdcqkd transcript --text` prints for a version-3 file."""
    out = io.BytesIO()
    transcript_text(path, out)
    return out.getvalue()


def test_golden_transcript(tmp_path):
    path = tmp_path / "session.v3"
    run_session(GOLDEN_SESSION, transcript_path=path)
    data = path.read_bytes()
    assert hashlib.sha256(data[:-32]).hexdigest() == GOLDEN_TRANSCRIPT_V3
    assert data[-32:] == bytes.fromhex(GOLDEN_TRANSCRIPT_V3)
    text = text_form(path)
    body = text[:text.rstrip(b"\n").rfind(b"\n") + 1]
    assert hashlib.sha256(body).hexdigest() == GOLDEN_TRANSCRIPT_BODY
    assert text[len(body):] == f"#sha256={GOLDEN_TRANSCRIPT_BODY}\n".encode("ascii")


@pytest.mark.parametrize("config,ahead", [(config, None) for config, _ in GOLDEN_RECORDS] + [
    (dataclasses.replace(GOLDEN_RECORDS[0][0], rounds=3 * protocol.CHUNK_ROUNDS + 5, seed=19),
     True)], ids=GOLDEN_IDS + ["spdc-split-drawn-ahead"])
def test_live_v3_and_text_replays_agree(tmp_path, monkeypatch, config, ahead):
    # the replay of the file is the live report, and its text form lists
    # the live report's rounds under its checksum
    if ahead is not None:
        monkeypatch.setattr(protocol, "_draws_ahead", lambda rounds: ahead)
    v3 = tmp_path / "session.v3"
    live = run_session(config, transcript_path=v3)
    assert replay(config, v3) == live
    assert live.checksum_ok and live.rounds == config.rounds
    text = text_form(v3)
    body, trailer = text[:text.rfind(b"#sha256=")], text[text.rfind(b"#sha256="):]
    assert trailer == f"#sha256={hashlib.sha256(body).hexdigest()}\n".encode("ascii")
    rows = body.decode("ascii").splitlines()[1:]
    assert len(rows) == config.rounds
    tags = collections.Counter(row.split(",", 2)[1] for row in rows)
    assert dict(sorted(tags.items())) == live.source_counts


# Table grid: every source kind (SPDC truncated at 1..6 pairs) against every
# eavesdropper kind, at fixed continuous parameters.
TABLE_SOURCES = [("singlet", SingletSource()), ("mixture", AttackMixture(0.4))] + [
    (f"spdc{n}", SpdcSource(SpdcParams(0.3, n_max=n))) for n in range(1, 7)]
TABLE_EVES = [("none", None)] + [
    (f"split{n}", SplitAttack(AttackConfig(max_attempts=n))) for n in (1, 3, 8)] + [
    ("intercept-random", InterceptResend(None)), ("intercept-HV", InterceptResend(HV)),
    ("intercept-DA", InterceptResend(DA))]

# sha256 over the emission tags and every array of TABLE_ARRAYS (name, dtype,
# shape, bytes), or the name of the exception the table build raises
GOLDEN_TABLES = {
    "singlet/none": "6992db68117bcd2713fa1850f815f01f376b8b67ab802f6e7f85208c4600b7b1",
    "singlet/split1": "6992db68117bcd2713fa1850f815f01f376b8b67ab802f6e7f85208c4600b7b1",
    "singlet/split3": "6992db68117bcd2713fa1850f815f01f376b8b67ab802f6e7f85208c4600b7b1",
    "singlet/split8": "6992db68117bcd2713fa1850f815f01f376b8b67ab802f6e7f85208c4600b7b1",
    "singlet/intercept-random": "df76e44886b334fddf311d72437a8d7214061372b56f34b8e5391fab3bfeb935",
    "singlet/intercept-HV": "14324db6a1fed90880d315fe40f97b3395bce4791332a6850e066107cb46f1fd",
    "singlet/intercept-DA": "1176eea4c94246139e9a250b64471282d538240553255f7e171077bf0705a343",
    "mixture/none": "4b8ffd5be062577d4e646c94c3abff50fad54c08da5df79e64088b8742932344",
    "mixture/split1": "c6122c87b581faa4e59bbcad2f6333b26c58d2fd3d0ccb0b0e15fc12f48a9c25",
    "mixture/split3": "c6122c87b581faa4e59bbcad2f6333b26c58d2fd3d0ccb0b0e15fc12f48a9c25",
    "mixture/split8": "c6122c87b581faa4e59bbcad2f6333b26c58d2fd3d0ccb0b0e15fc12f48a9c25",
    "mixture/intercept-random": "27b8a715071e855c3d5a5983984ab716738460c0c4ccae6771336613dc258a43",
    "mixture/intercept-HV": "3d63b0228539683a0ba25d22cbe509dc9abb620738e5843b60b524a15a642a87",
    "mixture/intercept-DA": "88a004569f4c00dcf4375ec548a1573af81e8f30898492877b6a838ebc1fe0ff",
    "spdc1/none": "fd8dec088ab2d2b06fd23ab5da471ebf214018b3b0faf5606849e2d9bfb7c0d3",
    "spdc1/split1": "c7aafabc13a471a1bdd77d6821b13e61afa697b43ded0bcc172e0d976367c0c3",
    "spdc1/split3": "c7aafabc13a471a1bdd77d6821b13e61afa697b43ded0bcc172e0d976367c0c3",
    "spdc1/split8": "c7aafabc13a471a1bdd77d6821b13e61afa697b43ded0bcc172e0d976367c0c3",
    "spdc1/intercept-random": "d1c48a0688102ea47846b97bf2a03e66dfea56e0fe6a21af54fd4e7e40ebbe6f",
    "spdc1/intercept-HV": "d4df2f613fc2dd7f63e0c2b4634bcc2b31e2f3df13f42ca591108bf04ea67379",
    "spdc1/intercept-DA": "afc0e76bdfc1d2a36915a24e180e3fbb27f538b1a68f8d3a94fa17ca6ef825cd",
    "spdc2/none": "fe56452dcf68c2df5f298bfc88ebc293642bc11c2e30b81696b491bcb0a71252",
    "spdc2/split1": "bbbb7e59fd67cf0f19cb10f4c5d90d6f6d1f48160d9f376dbba4f35667046026",
    "spdc2/split3": "dea5c4a4598ec4e8f42265cb551afc37b4aae5951692c8609437381054de6466",
    "spdc2/split8": "4276507b0a58f88801a52bdd39b64bbd24aaab2703ab0e4409f36ffc56ce87bc",
    "spdc2/intercept-random": "FockError",
    "spdc2/intercept-HV": "FockError",
    "spdc2/intercept-DA": "FockError",
    "spdc3/none": "77f45b427cfd5d3b217bee764b58ce1439fcb474fe83054e27d12bde1a6eb763",
    "spdc3/split1": "6b7eca9fcbd164654b90fef382bac2bdfd355baa126885ff0759e6a25c1541db",
    "spdc3/split3": "2e723bfe41353a98cf81404bb1b5ea5966a0b02d1e7b13c10c333ba3abea1a1b",
    "spdc3/split8": "2b6ef665815eaa4b8fdc6e07c9ed49d50de2135b6fcfe39b07eb39e34027782d",
    "spdc3/intercept-random": "FockError",
    "spdc3/intercept-HV": "FockError",
    "spdc3/intercept-DA": "FockError",
    "spdc4/none": "6f9ee3898ae688b1c3aebb489135e8faeed48b3cc0b303861297f3cac02cd5c5",
    "spdc4/split1": "b27be5ddebc957b250af838effd5f4be47fecc05d54a533426b9acc686ea6387",
    "spdc4/split3": "81c779f753d63470550143b08efac9e22f40abc86fa3bbee724a6fe8f11287c6",
    "spdc4/split8": "42379d0a115d4acbfb4cfe6c9cafe4e9f0f20e5784d8ef89eab9589748b9ea09",
    "spdc4/intercept-random": "FockError",
    "spdc4/intercept-HV": "FockError",
    "spdc4/intercept-DA": "FockError",
    "spdc5/none": "a82e8e2e80326a36ec0426d71e2f5b4fbfd83e48f467eaffded69ef5095d4cf7",
    "spdc5/split1": "f7bb425561c2911bce8a8bc9406d6542f75ffe989b3ed7a46b7986d8b562043b",
    "spdc5/split3": "129e55ae6d6e4a23861f98aef4ca3ac503bb10a8a193c5774d906250fb3276f2",
    "spdc5/split8": "e59a84eab58ae716abe882941bad0a6864780cb308e0a920f92d22dc3b992e10",
    "spdc5/intercept-random": "FockError",
    "spdc5/intercept-HV": "FockError",
    "spdc5/intercept-DA": "FockError",
    "spdc6/none": "82b45b89a65978c716e1abbb49748368711df2f211f2ab3e4cee135e0e85952c",
    "spdc6/split1": "3406f93bd48dd2880f9b0809f59a9d87576b36c70af45e100724404215716c5a",
    "spdc6/split3": "9a100e1596872ccb94101c87432172a2e89993e62257d0bbdc7a413de6c4a5e2",
    "spdc6/split8": "011483b848b77e0d67212e8dd4abe170203f040c2c06464929b91b35cc103164",
    "spdc6/intercept-random": "FockError",
    "spdc6/intercept-HV": "FockError",
    "spdc6/intercept-DA": "FockError",
}


# Split-attack tables at pump phase phi 0.7, where amplitudes are complex; with
# no eavesdropper a table does not depend on phi.
PHASE_TABLES = {
    "spdc2-phi0.7/split3": (SpdcSource(SpdcParams(0.3, phi=0.7, n_max=2)),
                            "248bc37abd9d738df545c865515e1d875685f35642a6617348d7712fdf005681"),
    "spdc4-phi0.7/split3": (SpdcSource(SpdcParams(0.3, phi=0.7, n_max=4)),
                            "94c0057284ac8eea71f038c96869c0e5808767051080a2508aa1c59022a3862f"),
}


def scenario_measurements(source, eve):
    """(state, assignments) for every scenario state of a grid pair and every
    basis pair: the four channels a session's tables measure, in the order
    they are rotated.  Raises FockError where the table build does."""
    return [(state, [("A", a), ("B", b), ("E1", a), ("E2", a)])
            for _, _, emitted in protocol._emission_branches(source, attack_registry())
            for _, state, _ in protocol._eve_branches(emitted, eve)
            for a in (HV, DA) for b in (HV, DA)]


# The enumerated tables of a template, in the order its digest hashes them.
TABLE_ARRAYS = ("scen_emission", "scen_cum", "grp_off", "grp_len", "row_cum", "row_a", "row_b",
                "row_e1", "row_e2")


def _tables_digest(template) -> str:
    h = hashlib.sha256(",".join(template.emission_tags).encode("ascii"))
    for name in TABLE_ARRAYS:
        a = getattr(template, name)
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("source_name,source", TABLE_SOURCES, ids=[n for n, _ in TABLE_SOURCES])
@pytest.mark.parametrize("eve_name,eve", TABLE_EVES, ids=[n for n, _ in TABLE_EVES])
def test_golden_tables(source_name, source, eve_name, eve):
    config = SessionConfig(rounds=1, seed=0, source=source, eve=eve)
    try:
        got = _tables_digest(protocol._build_tables(config))
    except Exception as exc:  # a build that raises is pinned by its exception type
        got = type(exc).__name__
    assert got == GOLDEN_TABLES[f"{source_name}/{eve_name}"]


@pytest.mark.parametrize("name", PHASE_TABLES)
def test_golden_phase_tables(name):
    source, digest = PHASE_TABLES[name]
    config = SessionConfig(rounds=1, seed=0, source=source,
                           eve=SplitAttack(AttackConfig(max_attempts=3)))
    assert _tables_digest(protocol._build_tables(config)) == digest


# What tests/engine_bits.py prints after the interpreter's version.
ENGINE_BITS = "3654 clicks b8d9135f11fbda5e all 5826303fd569f353"


def test_engine_bits():
    script = Path(__file__).resolve().parent / "engine_bits.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    version, line = result.stdout.strip().split(" ", 1)
    assert version == sys.version.split()[0]
    assert line == ENGINE_BITS
