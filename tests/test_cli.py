import json

import pytest
from click.testing import CliRunner

from spdcqkd import __version__
from spdcqkd.cli import main


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


def test_simulate_rejects_malformed_json(runner, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "invalid JSON" in result.stderr


def test_simulate_missing_config_file(runner, tmp_path):
    result = runner.invoke(
        main, ["simulate", "--config", str(tmp_path / "absent.json")])
    assert result.exit_code == 3
    assert "cannot read" in result.stderr


def test_simulate_unsupported_attack_is_usage_error(runner, tmp_path):
    # intercept-resend needs one photon per channel; SPDC emits multi-pair terms
    cfg = write_config(tmp_path, {"rounds": 10, "seed": 1,
                                  "source": {"kind": "spdc", "tanh_xi": 0.3},
                                  "eve": {"kind": "intercept"}})
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "intercept-resend" in result.stderr


def test_simulate_leaves_no_transcript_on_table_error(runner, tmp_path):
    cfg = write_config(tmp_path, {"rounds": 10, "seed": 1,
                                  "source": {"kind": "spdc", "tanh_xi": 0.3},
                                  "eve": {"kind": "intercept"}})
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--transcript", str(out)])
    assert result.exit_code == 2
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


def test_simulate_text_format(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    result = runner.invoke(
        main, ["simulate", "--config", str(cfg), "--format", "text"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert any(ln.startswith("qber_hat ") for ln in lines)
    assert any(ln.startswith("leak.margin ") for ln in lines)


# -- replay -------------------------------------------------------------------


def test_replay_matches_simulate(runner, tmp_path):
    cfg = write_config(tmp_path, {"rounds": 1200, "seed": 6,
                                  "source": {"kind": "attack_mixture", "p": 1.0}})
    transcript = tmp_path / "t.csv"
    _, live = invoke_json(runner, ["simulate", "--config", str(cfg),
                                   "--transcript", str(transcript)])
    _, replayed = invoke_json(runner, ["replay", "--transcript", str(transcript),
                                       "--config", str(cfg)])
    assert replayed["results"] == live["results"]
    assert replayed["results"]["checksum_ok"] is True


def test_replay_corrupt_transcript_is_usage_error(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    transcript = tmp_path / "t.csv"
    runner.invoke(main, ["simulate", "--config", str(cfg),
                         "--transcript", str(transcript)])
    lines = transcript.read_text().splitlines()
    lines[3] = "2,singlet,HV"
    transcript.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["replay", "--transcript", str(transcript)])
    assert result.exit_code == 2
    assert "line 4" in result.stderr


def test_replay_warns_on_checksum_mismatch(runner, tmp_path):
    cfg = write_config(tmp_path, SINGLET_CFG)
    transcript = tmp_path / "t.csv"
    runner.invoke(main, ["simulate", "--config", str(cfg),
                         "--transcript", str(transcript)])
    lines = transcript.read_text().splitlines()
    for i, ln in enumerate(lines[1:-1], start=1):
        f = ln.split(",")
        if f[6] == "1":
            f[5] = "b0" if f[5] == "b1" else "b1"
            f[8] = "0" if f[8] == "1" else "1"
            lines[i] = ",".join(f)
            break
    transcript.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["replay", "--transcript", str(transcript)])
    assert result.exit_code == 0
    assert "checksum mismatch" in result.stderr
    doc = json.loads(result.stdout)
    assert doc["results"]["checksum_ok"] is False
    assert doc["results"]["qber_hat"] > 0


def test_replay_missing_transcript(runner, tmp_path):
    result = runner.invoke(
        main, ["replay", "--transcript", str(tmp_path / "absent.csv")])
    assert result.exit_code == 3
    assert "cannot read" in result.stderr
