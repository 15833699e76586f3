import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from spdcqkd import __version__, cli, protocol
from spdcqkd.cli import main
from spdcqkd.fock import QUOTE_CHARS
from spdcqkd.protocol import config_from_dict, eve_mutual_information, run_session
from spdcqkd.security import binary_entropy
from spdcqkd.source import N_MAX_CAP

from test_protocol import flip_a_sifted_round
from test_template_cache import DRAWER, MAIN, build_threads, drawer_builds_first


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr
    return result, json.loads(result.stdout)


def find_term(terms, occupation):
    hits = [t for t in terms if t["occupation"] == occupation]
    assert len(hits) == 1
    return hits[0]


# -- envelope ----------------------------------------------------------------


def test_json_envelope_shape(runner):
    result, doc = invoke_json(runner, ["pair-stats", "--tanh-xi", "0.1"])
    assert list(doc) == ["command", "parameters", "results", "tool_version"]
    assert doc["command"] == "pair-stats"
    assert doc["tool_version"] == __version__
    assert doc["parameters"] == {"tanh_xi": 0.1, "nmax": 4}
    # keys are emitted sorted, so output is canonical
    assert result.stdout == json.dumps(doc, sort_keys=True) + "\n"


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.stdout


# -- spdc-state ---------------------------------------------------------------


def test_spdc_state_amplitudes(runner):
    _, doc = invoke_json(runner, ["spdc-state", "--tanh-xi", "0.1"])
    terms = doc["results"]["terms"]
    assert find_term(terms, [0, 0, 0, 0])["re"] == pytest.approx(0.99)
    assert find_term(terms, [0, 1, 1, 0])["re"] == pytest.approx(0.099)
    assert find_term(terms, [1, 0, 0, 1])["re"] == pytest.approx(-0.099)
    assert doc["results"]["squared_norm"] == pytest.approx(1.0)
    assert doc["results"]["truncation_tail"] == pytest.approx(5.95e-10, rel=1e-3)


def test_spdc_state_vacuum_limit(runner):
    _, doc = invoke_json(runner, ["spdc-state", "--tanh-xi", "0", "--nmax", "3"])
    assert doc["results"]["terms"] == [
        {"occupation": [0, 0, 0, 0], "re": 1.0, "im": 0.0}]
    assert doc["results"]["truncation_tail"] == 0.0


def test_spdc_state_text_format(runner):
    result = runner.invoke(
        main, ["spdc-state", "--tanh-xi", "0.1", "--format", "text"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert "0,1,1,0 0.099 0" in lines
    assert "1,0,0,1 -0.099 0" in lines
    assert any(ln.startswith("truncation_tail ") for ln in lines)


def test_spdc_state_rejects_out_of_range(runner):
    result = runner.invoke(main, ["spdc-state", "--tanh-xi", "1.5"])
    assert result.exit_code == 2
    assert "--tanh-xi" in result.stderr


def test_spdc_state_json_is_byte_stable(runner):
    a = runner.invoke(main, ["spdc-state", "--tanh-xi", "0.3", "--phi", "0.7"])
    b = runner.invoke(main, ["spdc-state", "--tanh-xi", "0.3", "--phi", "0.7"])
    assert a.stdout == b.stdout


# -- pair-stats ---------------------------------------------------------------


def test_pair_stats_distribution(runner):
    _, doc = invoke_json(runner, ["pair-stats", "--tanh-xi", "0.1", "--nmax", "3"])
    rows = doc["results"]["probabilities"]
    assert [r["n"] for r in rows] == [0, 1, 2, 3]
    c0sq = (1 - 0.01) ** 2
    for r in rows:
        assert r["probability"] == pytest.approx(
            (r["n"] + 1) * 0.01 ** r["n"] * c0sq, rel=1e-8)
    assert doc["results"]["tail"] == pytest.approx(4.961e-8, rel=1e-3)


# -- attack-report ------------------------------------------------------------


def test_attack_report_numbers(runner):
    _, doc = invoke_json(runner, ["attack-report"])
    res = doc["results"]
    assert res["qber"] == pytest.approx(1 / 6, abs=1e-6)
    assert res["overlap"] == pytest.approx(-0.8, abs=1e-9)
    assert res["chi"] == pytest.approx(0.4689956, abs=1e-6)
    assert res["bound"] == pytest.approx(0.6500224, abs=1e-6)
    assert res["margin"] == pytest.approx(res["bound"] - res["chi"], abs=1e-8)
    assert res["margin"] > 0


def test_attack_report_outcome_table(runner):
    _, doc = invoke_json(runner, ["attack-report"])
    rows = doc["results"]["outcomes"]
    probs = {(r["alice_bit"], r["bob_bit"]): r["probability"] for r in rows}
    assert probs[(0, 0)] == pytest.approx(1 / 12, abs=1e-9)
    assert probs[(0, 1)] == pytest.approx(5 / 12, abs=1e-9)
    assert probs[(1, 0)] == pytest.approx(5 / 12, abs=1e-9)
    assert probs[(1, 1)] == pytest.approx(1 / 12, abs=1e-9)
    mismatch = next(r for r in rows if (r["alice_bit"], r["bob_bit"]) == (0, 1))
    weights = sorted(abs(t["re"]) for t in mismatch["eve_terms"])
    assert weights == pytest.approx([1 / 5 ** 0.5, 2 / 5 ** 0.5], abs=1e-9)


# -- sweep --------------------------------------------------------------------


def test_sweep_default_grid(runner):
    result = runner.invoke(main, ["sweep"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "p,qber,eve_info,bound,margin"
    assert len(lines) == 12
    assert lines[1] == "0,0,0,0,0"
    assert lines[-1] == "1,0.166666667,0.468995594,0.650022422,0.181026828"


def test_sweep_margin_positive_everywhere(runner):
    result = runner.invoke(
        main, ["sweep", "--p-min", "0.01", "--p-max", "1", "--steps", "100"])
    for line in result.stdout.splitlines()[1:]:
        assert float(line.split(",")[4]) > 0


def test_sweep_writes_file(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep", "--steps", "3", "--out", str(out)])
    assert result.exit_code == 0
    assert result.stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "p,qber,eve_info,bound,margin"
    assert len(lines) == 4


def test_sweep_rejects_bad_range(runner):
    assert runner.invoke(main, ["sweep", "--p-min", "0.5", "--p-max", "0.2"]).exit_code == 2
    assert runner.invoke(main, ["sweep", "--p-max", "1.5"]).exit_code == 2
    assert runner.invoke(main, ["sweep", "--steps", "0"]).exit_code == 2


def test_sweep_steps_are_capped(runner, monkeypatch):
    for steps in (cli.MAX_SWEEP_STEPS + 1, 10 ** 13):
        result = runner.invoke(main, ["sweep", "--steps", str(steps)])
        assert result.exit_code == 2
        assert f"--steps: must be from 1 to 1000000, got {steps}" in result.stderr
    # at the cap and past it, with a cap small enough to run
    monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 5)
    result = runner.invoke(main, ["sweep", "--steps", "5"])
    assert result.exit_code == 0 and len(result.stdout.splitlines()) == 6
    assert runner.invoke(main, ["sweep", "--steps", "6"]).exit_code == 2


def test_sweep_unwritable_destination(runner, tmp_path):
    result = runner.invoke(
        main, ["sweep", "--out", str(tmp_path / "no" / "such" / "dir.csv")])
    assert result.exit_code == 3
    assert "cannot write" in result.stderr


# -- simulate -----------------------------------------------------------------


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


SINGLET_CFG = {"rounds": 2000, "seed": 11, "source": {"kind": "singlet"}}


def test_simulate_singlet(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    _, doc = invoke_json(runner, ["simulate", "--config", str(cfg)])
    res = doc["results"]
    assert res["rounds"] == 2000
    assert res["qber_hat"] == 0.0
    assert res["error_count"] == 0
    assert 0 < res["sifted_length"] < 2000


def test_simulate_is_deterministic(runner, tmp_path):
    cfg = write_config(tmp_path, {"rounds": 1500, "seed": 4,
                                  "source": {"kind": "attack_mixture", "p": 0.8}})
    a = runner.invoke(main, ["simulate", "--config", str(cfg)])
    b = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert a.exit_code == b.exit_code == 0
    assert a.stdout == b.stdout


def test_simulate_seed_override(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    _, base = invoke_json(runner, ["simulate", "--config", str(cfg)])
    _, other = invoke_json(runner, ["simulate", "--config", str(cfg),
                                    "--seed", "99"])
    assert other["parameters"]["config"]["seed"] == 99
    assert other["results"]["sifted_length"] != base["results"]["sifted_length"]


def test_simulate_reports_config_field_errors(runner, tmp_path):
    cfg = write_config(tmp_path, {"rounds": 10, "seed": 1,
                                  "source": {"kind": "spdc"}})
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "source.tanh_xi" in result.stderr


@pytest.mark.parametrize("command", [["simulate"], ["replay", "--transcript", "absent.v3"]],
                         ids=["simulate", "replay"])
def test_cli_refuses_a_misspelt_config_field(runner, tmp_path, command):
    cfg = write_config(tmp_path, {"rounds": 10, "seed": 1,
                                  "source": {"kind": "spdc", "tanh_xi": 0.3, "nmax": 6}})
    result = runner.invoke(main, [*command, "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown field source.nmax" in result.stderr


HUGE_ATTEMPTS = ('{"rounds": 10, "seed": 1, "source": {"kind": "spdc", "tanh_xi": 0.3}, '
                 '"eve": {"kind": "split", "max_attempts": 1%s}}' % ("0" * 400)).encode()


@pytest.mark.parametrize("command", [["simulate"], ["replay", "--transcript", "absent.v3"]],
                         ids=["simulate", "replay"])
@pytest.mark.parametrize("raw, message", [
    (b"{not json", "invalid JSON"),
    (b"\xff\xfe\x7b", "invalid JSON"),  # a UTF-16 byte-order mark, then an odd byte
    (b"[" * 10 ** 5, "invalid JSON"),  # nested deeper than the decoder recurses
    (HUGE_ATTEMPTS, "max_attempts is too large for a float"),
], ids=["not-json", "undecodable", "too-deep", "huge-max-attempts"])
def test_simulate_rejects_malformed_json(runner, tmp_path, command, raw, message):
    cfg = tmp_path / "broken.json"
    cfg.write_bytes(raw)
    result = runner.invoke(main, [*command, "--config", str(cfg)])
    assert result.exit_code == 2, result.exception
    assert f"--config: {message}" in result.stderr


def test_simulate_missing_config_file(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--config", str(tmp_path / "absent.json")])
    assert result.exit_code == 3
    assert "cannot read" in result.stderr


INTERCEPT_ERROR = "--config: intercept-resend expects at most one photon in channel A"


def unsupported_attack_runs(runner, tmp_path, monkeypatch, *args):
    """`simulate` of intercept-resend on an SPDC source, with `args`: a
    10-round session, then a 20 000-round one that draws ahead, whose
    template build fails on the drawer thread."""
    for rounds, ahead in ((10, False), (20_000, True)):
        cfg = write_config(tmp_path, {"rounds": rounds, "seed": 1,
                                      "source": {"kind": "spdc", "tanh_xi": 0.3},
                                      "eve": {"kind": "intercept"}})
        with monkeypatch.context() as m:
            m.setattr(protocol, "_draws_ahead", lambda rounds: ahead)
            threads = build_threads(m)
            with drawer_builds_first(m, threads):
                result = runner.invoke(main, ["simulate", "--config", str(cfg), *args])
        assert threads == [DRAWER if ahead else MAIN]
        yield result


def test_simulate_unsupported_attack_is_usage_error(runner, tmp_path, monkeypatch):
    # intercept-resend needs one photon per channel; SPDC emits multi-pair terms
    for result in unsupported_attack_runs(runner, tmp_path, monkeypatch):
        assert result.exit_code == 2
        assert INTERCEPT_ERROR in result.stderr


def test_simulate_leaves_no_transcript_on_table_error(runner, tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    for result in unsupported_attack_runs(runner, tmp_path, monkeypatch, "--transcript", str(out)):
        assert result.exit_code == 2
        assert INTERCEPT_ERROR in result.stderr
        assert not out.exists()


@pytest.mark.parametrize("section,field,value,type_name", [
    ("source", "phi", [1], "list"),
    ("source", "n_max", [4], "list"),
    ("eve", "max_attempts", [3], "list"),
    ("eve", "max_attempts", 3.7, "float"),
])
def test_simulate_rejects_wrong_typed_optional_field(runner, tmp_path, section, field,
                                                    value, type_name):
    doc = {"rounds": 10, "seed": 1, "source": {"kind": "spdc", "tanh_xi": 0.3},
           "eve": {"kind": "split"}}
    doc[section][field] = value
    result = runner.invoke(main, ["simulate", "--config", str(write_config(tmp_path, doc))])
    assert result.exit_code == 2
    assert f"field {section}.{field} has wrong type {type_name}" in result.stderr


def test_simulate_rejects_non_object_eve(runner, tmp_path):
    cfg = write_config(tmp_path, dict(SINGLET_CFG, eve=5))
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "field eve has wrong type int" in result.stderr


def test_simulate_rejects_negative_seed(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.stderr


def test_seed_past_the_philox_key_is_usage_error(runner, tmp_path):
    good = write_config(tmp_path, SINGLET_CFG)
    transcript = tmp_path / "session.csv"
    assert runner.invoke(main, ["simulate", "--config", str(good),
                                "--transcript", str(transcript)]).exit_code == 0
    cfg = write_config(tmp_path, dict(SINGLET_CFG, seed=2**130), "big-seed.json")
    for args in (["simulate", "--config", str(cfg)],
                 ["replay", "--transcript", str(transcript), "--config", str(cfg)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "--config: seed must be < 2**128" in result.stderr


def test_seed_override_past_the_philox_key_is_usage_error(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--seed", str(2**128)])
    assert result.exit_code == 2, result.output
    assert "--seed: seed must be < 2**128" in result.stderr


def test_n_max_past_the_cap_is_usage_error(runner, tmp_path):
    transcript = tmp_path / "session.v3"
    at_cap = write_config(tmp_path, {"rounds": 10, "seed": 1, "source": {
        "kind": "spdc", "tanh_xi": 0.3, "n_max": N_MAX_CAP}})
    assert runner.invoke(main, ["simulate", "--config", str(at_cap),
                                "--transcript", str(transcript)]).exit_code == 0
    assert runner.invoke(main, ["replay", "--transcript", str(transcript),
                                "--config", str(at_cap)]).exit_code == 0
    past = write_config(tmp_path, {"rounds": 10, "seed": 1, "source": {
        "kind": "spdc", "tanh_xi": 0.3, "n_max": N_MAX_CAP + 1}}, "past.json")
    for args in (["simulate", "--config", str(past)],
                 ["replay", "--transcript", str(transcript), "--config", str(past)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert (f"--config: source.n_max must be in [0, {N_MAX_CAP}], got {N_MAX_CAP + 1}"
                in result.stderr)


@pytest.mark.parametrize("phi", ["1e308", "-1e308", "NaN", "Infinity"])
def test_phi_without_a_computable_phase_is_usage_error(runner, tmp_path, phi):
    # written as JSON text: json.loads reads NaN and Infinity as floats
    cfg = tmp_path / "config.json"
    cfg.write_text('{"rounds": 10, "seed": 1, "source": '
                   f'{{"kind": "spdc", "tanh_xi": 0.3, "phi": {phi}}}}}')
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "--config: source.phi must be finite, with phi * n_max finite" in result.stderr


@pytest.mark.parametrize("field", ["tanh_xi", "phi"])
def test_number_past_the_largest_float_is_usage_error(runner, tmp_path, field):
    source = {"kind": "spdc", "tanh_xi": 0.3, field: 10 ** 400}
    cfg = write_config(tmp_path, {"rounds": 10, "seed": 1, "source": source})
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert f"field source.{field} is too large for a float" in result.stderr


def test_simulate_text_format(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg), "--format", "text"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert any(ln.startswith("qber_hat ") for ln in lines)
    assert any(ln.startswith("leak.margin ") for ln in lines)


def test_simulate_text_prints_the_exact_leak(runner, tmp_path):
    doc = {"rounds": 20000, "seed": 7, "source": {"kind": "singlet"},
           "eve": {"kind": "intercept"}}
    result = runner.invoke(main, ["simulate", "--config", str(write_config(tmp_path, doc)),
                                  "--format", "text"])
    assert result.exit_code == 0
    config = config_from_dict(doc)
    eve_info = eve_mutual_information(config)
    bound = binary_entropy(run_session(config).qber_hat)
    leak = [ln for ln in result.stdout.splitlines() if ln.startswith("leak.")]
    assert leak == [f"leak.bound {bound:.9g}", f"leak.eve_info {eve_info:.9g}",
                    f"leak.margin {bound - eve_info:.9g}"]
    assert leak == ["leak.bound 0.812415776", "leak.eve_info 0.188721876",
                    "leak.margin 0.6236939"]


# -- replay -------------------------------------------------------------------


def simulate_text(runner, tmp_path, cfg):
    """Simulate with a version-3 transcript, and return the path of its CSV
    text form made by `transcript --text`."""
    v3 = tmp_path / "t.v3"
    assert runner.invoke(main, ["simulate", "--config", str(cfg),
                                "--transcript", str(v3)]).exit_code == 0
    result = runner.invoke(main, ["transcript", "--in", str(v3), "--text"])
    assert result.exit_code == 0, result.stderr
    path = tmp_path / "t.csv"
    path.write_bytes(result.stdout_bytes)
    return path


def test_replay_matches_simulate(runner, tmp_path):
    cfg = write_config(tmp_path, {"rounds": 1200, "seed": 6,
                                  "source": {"kind": "attack_mixture", "p": 1.0}})
    transcript = tmp_path / "t.v3"
    _, live = invoke_json(runner, ["simulate", "--config", str(cfg),
                                   "--transcript", str(transcript)])
    _, replayed = invoke_json(runner, ["replay", "--transcript", str(transcript),
                                       "--config", str(cfg)])
    assert replayed["results"] == live["results"]
    assert replayed["results"]["checksum_ok"] is True


def test_replay_reports_the_header_it_read(runner, tmp_path):
    doc = {"rounds": 1200, "seed": 6, "source": {"kind": "spdc", "tanh_xi": 0.25},
           "eve": {"kind": "split", "max_attempts": 2}}
    cfg = write_config(tmp_path, doc)
    transcript = tmp_path / "t.v3"
    invoke_json(runner, ["simulate", "--config", str(cfg), "--transcript", str(transcript)])
    _, replayed = invoke_json(runner, ["replay", "--transcript", str(transcript)])
    assert replayed["parameters"] == {
        "transcript": str(transcript), "tool_version": __version__,
        "config": {"rounds": 1200, "seed": 6, "double_click_policy": "assign",
                   "source": {"kind": "spdc", "tanh_xi": 0.25, "phi": 0.0, "n_max": 4},
                   "eve": {"kind": "split", "max_attempts": 2}}}


@pytest.mark.parametrize("field,value,name", [
    ("seed", 7, "seed"), ("rounds", 1201, "rounds"),
    ("source", {"kind": "spdc", "tanh_xi": 0.3}, "source.tanh_xi"),
    ("source", {"kind": "singlet"}, "source.kind"),
    ("eve", {"kind": "split", "max_attempts": 3}, "eve.max_attempts"),
    ("double_click_policy", "discard", "double_click_policy"),
    ("eve", {"kind": "intercept"}, "eve.kind"),  # a config whose build fails
])
def test_replay_names_the_first_config_field_that_differs(runner, tmp_path, field, value, name):
    doc = {"rounds": 1200, "seed": 6, "source": {"kind": "spdc", "tanh_xi": 0.25},
           "eve": {"kind": "split", "max_attempts": 2}}
    cfg = write_config(tmp_path, doc)
    transcript = tmp_path / "t.v3"
    invoke_json(runner, ["simulate", "--config", str(cfg), "--transcript", str(transcript)])
    other = write_config(tmp_path, dict(doc, **{field: value}), "other.json")
    result = runner.invoke(main, ["replay", "--transcript", str(transcript),
                                  "--config", str(other)])
    assert result.exit_code == 2
    assert f"config differs from the transcript's in {name}:" in result.stderr


def test_transcript_text_refuses_what_it_cannot_convert(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    text = simulate_text(runner, tmp_path, cfg)
    v3 = tmp_path / "t.v3"
    data = v3.read_bytes()
    v3.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))  # a digest bit flipped
    for path, message in ((text, "not a version-3 transcript"),
                          (v3, "checksum mismatch: not converted")):
        result = runner.invoke(main, ["transcript", "--in", str(path), "--text"])
        assert result.exit_code == 2
        assert f"--in: {message}" in result.stderr
        assert result.stdout_bytes == b""
    result = runner.invoke(main, ["transcript", "--in", str(tmp_path / "absent.v3"), "--text"])
    assert result.exit_code == 3
    assert "cannot convert" in result.stderr


def test_replay_corrupt_transcript_is_usage_error(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    transcript = tmp_path / "t.v3"
    invoke_json(runner, ["simulate", "--config", str(cfg), "--transcript", str(transcript)])
    data = transcript.read_bytes()
    body = len(data) - 32 - 2 * SINGLET_CFG["rounds"]
    transcript.write_bytes(data[:body + 4] + b"\xff\xff" + data[body + 6:])  # round 2's code
    result = runner.invoke(main, ["replay", "--transcript", str(transcript)])
    assert result.exit_code == 2
    assert "--transcript: round 2: row code 65535 is out of range for 1 tag(s)" in result.stderr


def test_replay_warns_on_checksum_mismatch(runner, tmp_path):
    # an attack mixture, whose rounds can be errors: a singlet's transcript
    # with an error round is refused as one its config cannot produce
    cfg = write_config(tmp_path, {"rounds": 2000, "seed": 11,
                                  "source": {"kind": "attack_mixture", "p": 0.7}})
    transcript = tmp_path / "t.v3"
    _, live = invoke_json(runner, ["simulate", "--config", str(cfg),
                                   "--transcript", str(transcript)])
    flip_a_sifted_round(transcript, 2000)
    result = runner.invoke(main, ["replay", "--transcript", str(transcript)])
    assert result.exit_code == 0
    assert "checksum mismatch" in result.stderr
    doc = json.loads(result.stdout)
    assert doc["results"]["checksum_ok"] is False
    assert doc["results"]["qber_hat"] != live["results"]["qber_hat"]


def test_replay_missing_transcript(runner, tmp_path):
    result = runner.invoke(
        main, ["replay", "--transcript", str(tmp_path / "absent.csv")])
    assert result.exit_code == 3
    assert "cannot read" in result.stderr


# -- outside values quoted in errors -------------------------------------------

# The most characters of stderr a refused outside value may cause: click's
# two usage lines, the message's own words and at most QUOTE_CHARS + 3
# characters of each value or field name it quotes.
STDERR_BOUND = 300
LONG = "k" * 50_000
DEEP = json.loads("[" * 900 + "]" * 900)
NINES = int("9" * 4000)  # an integer Python still parses and prints


@pytest.mark.parametrize("doc,message", [
    ({"source": {"kind": LONG}}, f"unknown source.kind '{LONG[:QUOTE_CHARS - 1]}..."),
    ({LONG: 1}, f"unknown field {LONG[:QUOTE_CHARS]}..."),
    ({"eve": {"kind": "intercept", "basis": DEEP}},
     f"eve.basis must be HV, DA or random, got {'[' * QUOTE_CHARS}..."),
    ({"double_click_policy": LONG}, f"unknown double_click_policy '{LONG[:QUOTE_CHARS - 1]}..."),
    ({"rounds": -NINES}, f"rounds must be >= 1, got -{'9' * (QUOTE_CHARS - 1)}..."),
    ({"seed": NINES}, f"seed must be < 2**128, got {'9' * QUOTE_CHARS}..."),
    ({"source": {"kind": "spdc", "tanh_xi": 0.3, "n_max": NINES}},
     f"source.n_max must be in [0, 32], got {'9' * QUOTE_CHARS}..."),
    ({"eve": {"kind": "split", "max_attempts": -NINES}},
     f"max_attempts must be >= 1, got -{'9' * (QUOTE_CHARS - 1)}..."),
], ids=["long-source-kind", "long-unknown-key", "deep-eve-basis", "long-policy", "long-rounds",
        "long-seed", "long-n-max", "long-max-attempts"])
def test_simulate_quotes_outside_values_at_a_bounded_length(runner, tmp_path, doc, message):
    cfg = write_config(tmp_path, {**SINGLET_CFG, **doc})
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert f"--config: {message}\n" in result.stderr
    assert len(result.stderr) <= STDERR_BOUND


def test_simulate_quotes_a_long_seed_option_at_a_bounded_length(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--seed", str(NINES)])
    assert result.exit_code == 2
    assert f"--seed: seed must be < 2**128, got {'9' * QUOTE_CHARS}...\n" in result.stderr
    assert len(result.stderr) <= STDERR_BOUND


def test_sweep_quotes_a_long_steps_option_at_a_bounded_length(runner):
    result = runner.invoke(main, ["sweep", "--steps", str(NINES)])
    assert result.exit_code == 2
    assert (f"--steps: must be from 1 to 1000000, got {'9' * QUOTE_CHARS}...\n"
            in result.stderr)
    assert len(result.stderr) <= STDERR_BOUND


def test_replay_quotes_a_header_field_at_a_bounded_length(runner, tmp_path):
    transcript = tmp_path / "t.v3"
    invoke_json(runner, ["simulate", "--config", str(write_config(tmp_path, SINGLET_CFG)),
                         "--transcript", str(transcript)])
    magic, meta, rest = transcript.read_bytes().split(b"\n", 2)
    meta = json.dumps({**json.loads(meta), "extra": DEEP}, sort_keys=True, separators=(",", ":"))
    transcript.write_bytes(b"\n".join([magic, meta.encode("ascii"), rest]))
    result = runner.invoke(main, ["replay", "--transcript", str(transcript)])
    assert result.exit_code == 2
    assert (f"--transcript: bad version-3 header: extra {'[' * QUOTE_CHARS}... here, "
            "None for its config\n") in result.stderr
    assert len(result.stderr) <= STDERR_BOUND


# -- a stdout that cannot be written ------------------------------------------


# every command that prints to stdout, with arguments whose output is small
# enough to sit in stdout's buffer until the interpreter's flush at exit
FULL_STDOUT_COMMANDS = {
    "spdc-state": ["spdc-state", "--tanh-xi", "0.1"],
    "pair-stats": ["pair-stats", "--tanh-xi", "0.1", "--format", "text"],
    "attack-report": ["attack-report"],
    "sweep": ["sweep", "--steps", "2"],
    "simulate": ["simulate", "--config", "{config}"],
    "simulate-text": ["simulate", "--config", "{config}", "--format", "text"],
    "replay": ["replay", "--transcript", "{transcript}"],
    "transcript": ["transcript", "--in", "{transcript}", "--text"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", FULL_STDOUT_COMMANDS)
def test_full_stdout_exits_3_with_one_error_line(tmp_path, name):
    # buffered, as stdout to a file is: the exit status must stay 3, not
    # become 120 when the exit-time flush of stdout fails once more
    config = write_config(tmp_path, dict(SINGLET_CFG, rounds=1))
    transcript = tmp_path / "t.v3"
    run_session(config_from_dict(dict(SINGLET_CFG, rounds=1)), transcript_path=transcript)
    args = [a.format(config=config, transcript=transcript) for a in FULL_STDOUT_COMMANDS[name]]
    with open("/dev/full", "wb") as full:
        result = run_cli(args, full)
    assert result.returncode == 3, result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), result.stderr
    assert "No space left on device" in result.stderr


CLI = [sys.executable, "-m", "spdcqkd.cli"]


def cli_env():
    """This package on the path, and stdout buffered, as it is to a file or a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return env


def run_cli(args, stdout):
    return subprocess.run([*CLI, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=cli_env(), text=True, timeout=120)


def big_transcript(tmp_path):
    # 20000 rounds: a text form of about 0.9 MB, more than a pipe holds
    transcript = tmp_path / "t.v3"
    run_session(config_from_dict(dict(SINGLET_CFG, rounds=20000)), transcript_path=transcript)
    return transcript


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_transcript_text_to_a_full_stdout_names_stdout(tmp_path):
    transcript = big_transcript(tmp_path)
    with open("/dev/full", "wb") as full:
        result = run_cli(["transcript", "--in", str(transcript), "--text"], full)
    assert result.returncode == 3
    assert result.stderr == "error: cannot write to stdout: [Errno 28] No space left on device\n"


def test_transcript_text_to_a_closed_pipe_names_stdout(tmp_path):
    # `spdcqkd transcript --in t.v3 --text | head -1`, with the reader gone
    transcript = big_transcript(tmp_path)
    with subprocess.Popen([*CLI, "transcript", "--in", str(transcript), "--text"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
                          text=True) as proc:
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 3
    assert stderr == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


def test_transcript_text_of_a_directory_names_the_input(tmp_path):
    result = run_cli(["transcript", "--in", str(tmp_path), "--text"], subprocess.DEVNULL)
    assert result.returncode == 3
    assert result.stderr.startswith(f"error: cannot convert {tmp_path}: "), result.stderr
    assert result.stderr.count("\n") == 1
