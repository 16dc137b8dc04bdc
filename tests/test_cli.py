"""Tests for the command-line interface and the scenario file format."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ludercheck.cli import ScenarioFormatError, main, parse_scenario_document
from ludercheck.protocol import STAGE_NAMES, Mode, ProtocolConfig, discriminate
from ludercheck.scenarios import builtin_scenarios, get_builtin, instantiate

from conftest import scenario_to_document


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "sites": 2,
        "observable": {"terms": [[1.0, "ZI"], [1.0, "IZ"]]},
        "apparatus": {"kind": "luders"},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_document():
    scenario, config = parse_scenario_document(minimal_doc())
    assert scenario.sites == 2
    assert config.mode is Mode.EXACT
    observable, decomp, app, initial = instantiate(scenario)
    assert decomp.eigenvalues == (2.0, 0.0, -2.0)


def test_readme_scenario_example_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, flags=re.S).group(1)
    scenario, config = parse_scenario_document(json.loads(block))
    config.validate()
    observable, decomp, app, initial = instantiate(scenario)
    assert config.mode is Mode.SAMPLED
    assert decomp.multiplicities == (1, 2, 1)
    assert app.dim == observable.shape[0] == len(initial.vector) == 4


def test_parse_rejects_unknown_fields():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(minimal_doc(extra=1))
    assert "$.extra" in str(err.value)


def test_parse_rejects_the_removed_confidence_key():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(minimal_doc(protocol={"confidence": 1e-3}))
    assert "$.protocol.confidence: unknown field" in str(err.value)


def test_parse_rejects_wrong_schema_version():
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(minimal_doc(schema_version=2))
    assert "$.schema_version" in str(err.value)


def test_parse_rejects_missing_apparatus():
    doc = minimal_doc()
    del doc["apparatus"]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "$.apparatus" in str(err.value)


def test_parse_rejects_terms_without_sites():
    doc = minimal_doc()
    del doc["sites"]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "$.sites" in str(err.value)


def test_parse_rejects_bad_term_shape():
    doc = minimal_doc(observable={"terms": [[1.0, "ZI", "extra"]]})
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "$.observable.terms[0]" in str(err.value)


def test_parse_rejects_both_terms_and_matrix():
    doc = minimal_doc(observable={"terms": [[1.0, "ZI"]],
                                  "matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "$.observable" in str(err.value)


def test_parse_rejects_non_square_matrix():
    doc = minimal_doc()
    del doc["sites"]
    doc["observable"] = {"matrix": [[[1.0, 0.0], [0.0, 0.0]]]}
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "matrix must be square" in str(err.value)


def test_parse_rejects_unknown_apparatus_kind():
    doc = minimal_doc(apparatus={"kind": "telepathic"})
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "$.apparatus.kind" in str(err.value)


def test_parse_rejects_misplaced_apparatus_fields():
    doc = minimal_doc(apparatus={"kind": "luders", "blocks": [[[0]]]})
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "blocks" in str(err.value)


def test_parse_matrix_observable():
    doc = {
        "schema_version": 1,
        "observable": {"matrix": [
            [[5.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [5.0, 0.0]],
        ]},
        "apparatus": {"kind": "luders"},
    }
    scenario, _ = parse_scenario_document(doc)
    observable = scenario.observable()
    assert np.allclose(observable, 5 * np.eye(2))


def test_parse_protocol_overrides():
    doc = minimal_doc(protocol={"mode": "sampled", "ensemble_size": 77,
                                "seed": 9, "target_eigenvalue": 0.0})
    _, config = parse_scenario_document(doc)
    assert config.mode is Mode.SAMPLED
    assert config.ensemble_size == 77
    assert config.seed == 9
    assert config.target_eigenvalue == 0.0


def test_parse_rejects_sites_past_the_cap():
    for sites in (0, 7):
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario_document(minimal_doc(sites=sites))
        assert str(err.value) == "$.sites: expected an integer from 1 to 6"


def test_parse_rejects_a_negative_seed():
    doc = minimal_doc(protocol={"mode": "sampled", "seed": -1})
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert str(err.value) == "$.protocol.seed: expected a non-negative integer"


def test_parse_rejects_bad_mode():
    doc = minimal_doc(protocol={"mode": "psychic"})
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario_document(doc)
    assert "$.protocol.mode" in str(err.value)


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_builtin_documents_round_trip(name):
    sc = get_builtin(name)
    doc = scenario_to_document(sc)
    parsed, config = parse_scenario_document(json.loads(json.dumps(doc)))
    observable, _, app, initial = instantiate(parsed)
    result = discriminate(initial, app, observable, config)
    assert result.verdict is sc.expected_verdict
    assert result.detected_at is sc.expected_detected_at


def test_main_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "s1-luders-2spin" in out
    assert "s5-nondegenerate" in out


def test_main_exit_codes(capsys):
    assert main(["discriminate", "--builtin", "s1-luders-2spin",
                 "--seed", "1"]) == 0
    assert main(["discriminate", "--builtin", "s2-vn-total-spin",
                 "--seed", "1"]) == 2
    assert main(["discriminate", "--builtin", "s5-nondegenerate",
                 "--seed", "1"]) == 3
    capsys.readouterr()


def test_main_unknown_builtin_fails(capsys):
    assert main(["discriminate", "--builtin", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_requires_exactly_one_source(capsys, tmp_path):
    assert main(["discriminate"]) == 1
    path = write_doc(tmp_path, minimal_doc())
    assert main(["discriminate", "--scenario", path,
                 "--builtin", "s1-luders-2spin"]) == 1
    capsys.readouterr()


def test_main_bad_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["discriminate", "--frobnicate"])
    assert err.value.code == 1


def test_main_scenario_file_run(capsys, tmp_path):
    path = write_doc(tmp_path, minimal_doc())
    assert main(["discriminate", "--scenario", path, "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "verdict: LUDERS" in out


def test_main_invalid_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["discriminate", "--scenario", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_main_json_report_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["discriminate", "--builtin", "s2-vn-total-spin",
            "--mode", "sampled", "--ensemble-size", "200", "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 2
    assert main(argv + ["--out", str(out2)]) == 2
    capsys.readouterr()

    def stable_lines(path):
        return [line for line in path.read_text().splitlines()
                if "wall_time_s" not in line]

    assert stable_lines(out1) == stable_lines(out2)
    report = json.loads(out1.read_text())
    assert report["verdict"] == "NON_LUDERS"
    assert report["detected_at"] == "SIGMA"
    assert report["seed"] == 42
    assert report["config"]["mode"] == "sampled"
    assert report["stages"][0]["mismatch_count"] > 0


def test_main_report_floats_round_trip(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["discriminate", "--builtin", "s1-luders-2spin",
                 "--mode", "sampled", "--ensemble-size", "64",
                 "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    bound = report["false_acceptance_log10_bound"]
    # repr round trip: the JSON text encodes the exact float
    assert json.loads(json.dumps(bound)) == bound
    assert -math.inf < bound < 0.0


def test_main_sampled_bound_is_finite_at_ten_thousand_systems(capsys, tmp_path):
    # (9/16)**N underflows to zero past N of about 1290; its logarithm does not
    out = tmp_path / "r.json"
    assert main(["discriminate", "--builtin", "s1-luders-2spin",
                 "--mode", "sampled", "--seed", "3", "--ensemble-size", "10000",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    report = json.loads(out.read_text())
    trials = report["stages"][0]["trials"]
    assert trials > 1100
    assert [s["trials"] for s in report["stages"]] == [trials, trials]
    bound = report["false_acceptance_log10_bound"]
    assert bound == pytest.approx(trials * math.log10(9 / 16), rel=1e-12)
    (line,) = [x for x in text.splitlines() if x.startswith("false acceptance")]
    exponent = float(line.split("10^")[1])
    # printed rounded up, never below the bound itself
    assert bound <= exponent <= bound + 0.01


def test_main_transcript_flag(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["discriminate", "--builtin", "s1-luders-2spin",
                 "--mode", "sampled", "--ensemble-size", "32", "--seed", "2",
                 "--transcript", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["report_schema"] == 3
    rows = report["transcript"]
    for row in rows:
        assert isinstance(row, list) and len(row) == 3
        system_id, stage, label = row
        assert type(system_id) is int
        assert stage in STAGE_NAMES
        assert type(label) is float

    sc = get_builtin("s1-luders-2spin")
    observable, _, app, initial = instantiate(sc)
    config = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=32, seed=2,
                            target_eigenvalue=sc.target_eigenvalue)
    records = discriminate(initial, app, observable, config).transcript
    assert len(rows) == len(records)
    # the row at index i is record i, so a row's position is its timestamp
    expected = [
        [int(sid), STAGE_NAMES[stage], float(label)]
        for sid, stage, label in zip(records.system_ids, records.stages,
                                     records.labels)
    ]
    assert rows == expected
    # a Lüders run goes through both passes, so every stage is recorded
    assert {row[1] for row in rows} == set(STAGE_NAMES)


def test_main_transcript_report_is_deterministic(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["discriminate", "--builtin", "s2-vn-total-spin",
            "--mode", "sampled", "--seed", "42", "--transcript"]
    assert main(argv + ["--out", str(out1)]) == 2
    assert main(argv + ["--out", str(out2)]) == 2
    capsys.readouterr()

    def stable(path):
        return [line for line in path.read_bytes().splitlines()
                if b"wall_time_s" not in line]

    assert stable(out1) == stable(out2)
    assert json.loads(out1.read_text())["transcript"]


def test_main_exact_transcript_is_empty(capsys, tmp_path):
    out = tmp_path / "r.json"
    assert main(["discriminate", "--builtin", "s2-vn-total-spin",
                 "--mode", "exact", "--seed", "5", "--transcript",
                 "--out", str(out)]) == 2
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["report_schema"] == 3
    assert report["transcript"] == []


def test_main_entropy_seed_is_printed(capsys):
    assert main(["discriminate", "--builtin", "s1-luders-2spin",
                 "--mode", "sampled"]) == 0
    out = capsys.readouterr().out
    assert "seed drawn from entropy:" in out


def test_main_exact_run_draws_no_seed(capsys, tmp_path):
    # exact mode uses no randomness, so two runs without --seed agree
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["discriminate", "--builtin", "s1-luders-2spin",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "seed drawn" not in text and "seed: null" in text
        report = json.loads(out.read_text())
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["seed"] is None


def test_main_validate(capsys, tmp_path):
    path = write_doc(tmp_path, minimal_doc())
    assert main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "scenario file is valid" in out
    assert "dimension 4" in out


def test_main_validate_reveal_reports_ground_truth(capsys, tmp_path):
    doc = minimal_doc(apparatus={"kind": "consecutive", "observables": [
        {"terms": [[1.0, "ZI"]]}, {"terms": [[1.0, "IZ"]]}]})
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path, "--reveal"]) == 0
    out = capsys.readouterr().out
    assert "NON_LUDERS" in out


def test_main_validate_rejects_bad_file(capsys, tmp_path):
    path = write_doc(tmp_path, minimal_doc(schema_version=99))
    assert main(["validate", "--scenario", path]) == 1
    assert "$.schema_version" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
def test_main_rejects_a_non_finite_number_at_its_path(capsys, tmp_path, bad):
    # Python's json reads NaN and Infinity, and an integer past the float range
    state = [[bad, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    path = write_doc(tmp_path, minimal_doc(initial_state=state))
    for argv in (["validate"], ["discriminate", "--mode", "exact"],
                 ["discriminate", "--mode", "sampled", "--seed", "1"]):
        assert main(argv + ["--scenario", path]) == 1
        err = capsys.readouterr().err
        assert "$.initial_state[0][0]: expected a finite number" in err


def test_main_validate_rejects_protocol_that_discriminate_rejects(capsys, tmp_path):
    # validate runs the same protocol checks as discriminate
    doc = minimal_doc(protocol={"mode": "sampled", "ensemble_size": 0})
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert "$.protocol" in err and "ensemble_size >= 1" in err
    assert main(["discriminate", "--scenario", path]) == 1


def test_main_rejects_a_min_disturbance_field(capsys, tmp_path):
    # p* comes from the target eigenspace's dimension; no file may set it
    path = write_doc(tmp_path, minimal_doc(protocol={"min_disturbance": 0.5}))
    for argv in (["validate"], ["discriminate"]):
        assert main(argv + ["--scenario", path]) == 1
        assert "$.protocol.min_disturbance: unknown field" in capsys.readouterr().err


def test_main_sampled_bound_is_none_certified_at_dimension_three(capsys, tmp_path):
    # three-spin total z at eigenvalue 1, a 3-dimensional eigenspace
    doc = minimal_doc(
        sites=3,
        observable={"terms": [[1.0, "ZII"], [1.0, "IZI"], [1.0, "IIZ"]]},
        protocol={"mode": "sampled", "ensemble_size": 200, "seed": 4,
                  "target_eigenvalue": 1.0},
    )
    out = tmp_path / "r.json"
    assert main(["discriminate", "--scenario", write_doc(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert "false acceptance bound: none certified" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["verdict"] == "LUDERS"
    assert report["false_acceptance_log10_bound"] is None


def test_main_discriminate_overrides_fix_protocol_before_validation(capsys, tmp_path):
    # the command line may repair a protocol block that validate refuses
    doc = minimal_doc(protocol={"mode": "sampled", "ensemble_size": 0,
                                "target_eigenvalue": 0.0})
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    assert main(["discriminate", "--scenario", path, "--mode", "exact"]) == 0
    assert main(["discriminate", "--scenario", path,
                 "--ensemble-size", "200", "--seed", "3"]) == 0
    assert "LUDERS" in capsys.readouterr().out


def test_main_rejects_a_negative_seed(capsys, tmp_path):
    path = write_doc(tmp_path, minimal_doc(protocol={"mode": "sampled", "seed": -1}))
    for argv in (["validate", "--scenario", path],
                 ["discriminate", "--scenario", path]):
        assert main(argv) == 1
        assert "$.protocol.seed: expected a non-negative integer" in (
            capsys.readouterr().err)
    assert main(["discriminate", "--builtin", "s1-luders-2spin",
                 "--seed=-1", "--mode", "sampled"]) == 1
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_main_rejects_a_non_finite_target_eigenvalue(capsys, value):
    argv = ["discriminate", "--builtin", "s4-partial-3spin",
            f"--target-eigenvalue={value}", "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert captured.err.startswith("error: ") and f" {value}" in captured.err
    assert f"target_eigenvalue must be finite, got {value}" in captured.err


def test_main_reports_an_unwritable_out_path(capsys, tmp_path):
    out = tmp_path / "missing" / "r.json"
    argv = ["discriminate", "--builtin", "s1-luders-2spin", "--seed", "1",
            "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: cannot write {out}" in captured.err
    assert "verdict:" not in captured.out
    assert not out.exists()


def test_main_validate_prints_eigenvalue_groups(capsys, tmp_path):
    path = write_doc(tmp_path, minimal_doc())
    assert main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "eigenvalue groups: 2 (n=1), 0 (n=2), -2 (n=1)" in out


def test_main_validate_rejects_non_hermitian_matrix(capsys, tmp_path):
    doc = minimal_doc(
        sites=1,
        observable={"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                               [[0.0, 0.0], [0.0, 0.0]]]},
    )
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    assert "Hermitian" in capsys.readouterr().err


def test_main_validate_rejects_overlapping_blocks(capsys, tmp_path):
    doc = minimal_doc(apparatus={
        "kind": "partial",
        "blocks": [[[0]], [[0], [0, 1]], [[0]]],
    })
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    assert "partition" in capsys.readouterr().err


def test_main_validate_rejects_basis_vectors_of_the_wrong_dimension(capsys, tmp_path):
    # three-component vectors for the four-dimensional two-spin total z
    doc = minimal_doc(apparatus={"kind": "full_von_neumann", "eigenbasis": [
        None,
        [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        None,
    ]})
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert ("group 1: basis vector 0 has dimension 3 but the observable has "
            "dimension 4") in err
    assert "broadcast" not in err


def test_main_validate_rejects_an_initial_state_of_the_wrong_dimension(
    capsys, tmp_path
):
    doc = minimal_doc(initial_state=[[1.0, 0.0], [0.0, 0.0]])
    path = write_doc(tmp_path, doc)
    assert main(["validate", "--scenario", path]) == 1
    assert ("initial state has dimension 2 but the observable has dimension 4"
            in capsys.readouterr().err)


def test_main_discriminate_sampled_mismatch_statistics(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main([
        "discriminate", "--builtin", "s2-vn-total-spin", "--mode", "sampled",
        "--ensemble-size", "1000", "--seed", "42", "--out", str(out_path),
    ])
    assert code == 2
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "NON_LUDERS"
    stage = report["stages"][0]
    assert stage["stage"] == "SIGMA"
    # per-system mismatch chance one half: 5 sigma binomial window
    trials = stage["trials"]
    assert trials > 500
    half = trials / 2
    assert abs(stage["mismatch_count"] - half) <= 5 * np.sqrt(trials / 4)
