import json

import pytest

import hopfbrace as hb
from hopfbrace.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_catalog_name(capsys):
    code, out, _ = run(capsys, "validate", "radical_c4")
    assert code == 0 and "valid" in out


def test_validate_s4_entry(capsys):
    code, out, _ = run(capsys, "validate", "trivial:S4")
    assert code == 0


def test_validate_unresolvable_input(capsys):
    code, _, err = run(capsys, "validate", "no-such-thing")
    assert code == 2 and "catalog" in err


def test_validate_corrupted_file(tmp_path, capsys, radical_c4):
    doc = {"name": "bad", "order": 4, "identity": 0,
           "dot_table": radical_c4.dot.table.tolist(),
           "circ_table": radical_c4.circ.table.tolist()}
    row = doc["circ_table"][1]
    row[1], row[3] = row[3], row[1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "witness" in err


def test_non_integer_inputs_exit_2_with_one_line(tmp_path, capsys,
                                                  radical_c4):
    doc = {"name": "float", "order": 4, "identity": 0,
           "dot_table": radical_c4.dot.table.tolist(),
           "circ_table": radical_c4.circ.table.tolist()}
    doc["dot_table"][1][1] = 2.5         # would truncate to the valid 2
    brace = tmp_path / "float.json"
    brace.write_text(json.dumps(doc))
    images = tmp_path / "strimg.map.json"
    images.write_text(json.dumps({"target": "trivial:C2",
                                  "images": [0, "x", 0, 1]}))
    for argv in (["validate", str(brace)],
                 ["check-central", "radical_c4", "--map", str(images)]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and len(err.strip().splitlines()) == 1, (argv, err)


def test_integers_beyond_int64_exit_2_with_one_line(tmp_path, capsys,
                                                   radical_c4):
    base = {"name": "big", "order": 4, "identity": 0,
            "dot_table": radical_c4.dot.table.tolist(),
            "circ_table": radical_c4.circ.table.tolist()}
    entry = json.loads(json.dumps(base))
    entry["circ_table"][2][3] = 10**30
    for stem, doc in (("entry", entry),
                      ("identity", {**base, "identity": 10**30}),
                      ("order", {**base, "order": -10**30})):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and len(err.strip().splitlines()) == 1, (stem, err)
        assert "range" in err


@pytest.mark.parametrize("argv, env", [
    (["verify", "radical_c4", "--suite", "axioms"], {"HOPFBRACE_SEED": "abc"}),
    (["series", "radical_c4", "--max", "0"], {}),
    (["verify", "radical_c4", "--suite", "propositions", "--max", "0"], {}),
    (["verify", "radical_c4", "--suite", "axioms", "--samples", "-1"], {}),
])
def test_bad_flags_exit_2_with_one_line(capsys, monkeypatch, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def test_zero_samples_still_runs_the_basis_layer(capsys):
    code, out, _ = run(capsys, "verify", "radical_c4", "--suite", "axioms",
                       "--samples", "0", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["results"][0]["random_checks"] == 0
    assert doc["results"][0]["basis_checks"] > 0


def test_series_right_radical_c4(capsys):
    code, out, _ = run(capsys, "series", "radical_c4", "--kind", "right",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert [t["size"] for t in doc["results"]["terms"]] == [4, 2, 1]
    assert doc["results"]["nil_class"] == 3


def test_series_gamma_trivial_s3(capsys):
    code, out, _ = run(capsys, "series", "trivial:S3", "--kind", "gamma",
                       "--json")
    doc = json.loads(out)
    assert [t["size"] for t in doc["results"]["terms"]] == [6, 3, 3]
    assert doc["results"]["stabilized"] is True


def test_series_left_trivial_c2(capsys):
    code, out, _ = run(capsys, "series", "trivial:C2", "--kind", "left",
                       "--json")
    doc = json.loads(out)
    assert [t["size"] for t in doc["results"]["terms"]] == [2, 1]


def test_invariants_radical_c4(capsys):
    code, out, _ = run(capsys, "invariants", "radical_c4", "--json")
    doc = json.loads(out)["results"]
    assert doc["socle_carrier"] == [0, 2]
    assert doc["annihilator_carrier"] == [0, 2]
    assert doc["dim_star_abelianization"] == 2
    assert doc["dim_full_abelianization"] == 2
    assert doc["socle_space_dim"] == 3 and doc["socle_space_strict"]


def test_invariants_opposite_s3(capsys):
    code, out, _ = run(capsys, "invariants", "opposite:S3", "--json")
    doc = json.loads(out)["results"]
    assert doc["socle_carrier"] == [0]
    assert doc["dim_star_abelianization"] == 2
    assert doc["dim_full_abelianization"] == 2
    assert doc["hopf_center_carrier"] == [0]


def test_invariants_trivial_c4(capsys):
    code, out, _ = run(capsys, "invariants", "trivial:C4", "--json")
    doc = json.loads(out)["results"]
    assert doc["socle_carrier"] == [0, 1, 2, 3]
    assert doc["dim_star_abelianization"] == 4


def test_check_central_mod2(tmp_path, capsys):
    path = tmp_path / "map.json"
    hb.save_map([0, 1, 0, 1], path, source="radical_c4", target="trivial:C2")
    code, out, _ = run(capsys, "check-central", "radical_c4",
                       "--map", str(path), "--json")
    assert code == 0
    doc = json.loads(out)["results"]
    assert doc["central_hopfcoc"] and doc["central_huq"]
    assert doc["consequence_violations"] == []


def test_check_central_sign_map(tmp_path, capsys):
    path = tmp_path / "sign.json"
    hb.save_map([0, 1, 1, 0, 0, 1], path, source="opposite:S3",
                target="trivial:C2")
    code, out, _ = run(capsys, "check-central", "opposite:S3",
                       "--map", str(path), "--json")
    assert code == 0
    doc = json.loads(out)["results"]
    assert doc["central_hopfcoc"] is False and doc["central_huq"] is False
    assert doc["witness_hopfcoc"] == [3, 1]


def test_check_central_identity_map(tmp_path, capsys):
    path = tmp_path / "ident.json"
    hb.save_map(list(range(6)), path, source="opposite:S3",
                target="opposite:S3")
    code, out, _ = run(capsys, "check-central", "opposite:S3",
                       "--map", str(path), "--json")
    doc = json.loads(out)["results"]
    assert doc["central_hopfcoc"] and doc["central_huq"]


def test_check_central_invalid_map(tmp_path, capsys):
    path = tmp_path / "b.json"
    hb.save_map([0, 1, 1, 0], path, source="radical_c4", target="trivial:C2")
    code, _, err = run(capsys, "check-central", "radical_c4",
                       "--map", str(path))
    assert code == 2 and "map" in err


def test_verify_single_brace_propositions(capsys):
    code, out, _ = run(capsys, "verify", "radical_c4",
                       "--suite", "propositions")
    assert code == 0 and "ok" in out


def test_verify_all_lemma(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--suite", "lemma")
    assert code == 0
    assert out.count("lemma") >= 13


def test_verify_needs_input_or_all(capsys):
    code, _, err = run(capsys, "verify", "--suite", "axioms")
    assert code == 2


def test_verify_corrupted_file_exits_nonzero(tmp_path, capsys, radical_c4):
    doc = {"name": "bad", "order": 4, "identity": 0,
           "dot_table": radical_c4.dot.table.tolist(),
           "circ_table": radical_c4.circ.table.tolist()}
    row = doc["circ_table"][1]
    row[1], row[3] = row[3], row[1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path), "--suite", "axioms")
    assert code != 0


def test_json_output_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "radical_c4", "--suite", "lemma",
                     "--seed", "99", "--json")
    _, out2, _ = run(capsys, "verify", "radical_c4", "--suite", "lemma",
                     "--seed", "99", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "series", "radical_c4", "--json")
    _, out4, _ = run(capsys, "series", "radical_c4", "--json")
    assert out3 == out4


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOPFBRACE_SEED", "4242")
    _, out, _ = run(capsys, "verify", "radical_c4", "--suite", "axioms")
    assert "seed: 4242" in out


def test_exit_code_1_on_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "radical_c4", "--suite", "bogus"])
