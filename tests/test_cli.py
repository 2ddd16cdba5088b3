import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hopfbrace as hb
from hopfbrace import catalog, cli
from hopfbrace.skewbrace import ORDER_CAP
from hopfbrace.cli import main
from shared import brace_doc


INVARIANTS_GOLDEN = Path(__file__).parent / "data" / "invariants.json"
SERIES_GOLDEN = Path(__file__).parent / "data" / "series_all.json"
CHECK_CENTRAL_GOLDEN = Path(__file__).parent / "data" / "check_central.json"
MAPS = Path(__file__).parent / "data" / "maps"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_child(*argv, env=os.environ, start=subprocess.run, **kwargs):
    """``python -m hopfbrace *argv`` on this checkout's source, through
    ``start`` (``subprocess.run`` or ``Popen``): the installed script's
    ``sys.exit(main())``."""
    src = str(Path(hb.__file__).resolve().parents[1])
    return start([sys.executable, "-m", "hopfbrace", *argv], text=True,
                 env={**env, "PYTHONPATH": src}, **kwargs)


def test_validate_catalog_name(capsys):
    code, out, _ = run(capsys, "validate", "radical_c4")
    assert code == 0 and "valid" in out


def test_validate_s4_entry(capsys):
    code, out, _ = run(capsys, "validate", "trivial:S4")
    assert code == 0


def test_validate_unresolvable_input(capsys):
    code, _, err = run(capsys, "validate", "no-such-thing")
    assert code == 2 and "catalog" in err


@pytest.fixture
def bad_brace(tmp_path, radical_c4):
    """radical_c4's file with entries 1 and 3 of circ row 1 swapped."""
    doc = brace_doc(radical_c4, "bad")
    row = doc["circ_table"][1]
    row[1], row[3] = row[3], row[1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_corrupted_file(capsys, bad_brace):
    code, _, err = run(capsys, "validate", str(bad_brace))
    assert code == 1
    assert "witness" in err


@pytest.mark.parametrize("command", [
    ["validate"], ["series"], ["invariants"], ["verify", "--suite", "axioms"],
    ["check-central", "--map", "MAP"], ["check-central", "radical_c4",
                                        "--map", "TARGET_MAP"]],
    ids=["validate", "series", "invariants", "verify", "check-central",
         "check-central-target"])
def test_invalid_brace_exits_1_with_the_witness(tmp_path, capsys, bad_brace,
                                                command):
    """Every command reports a brace that fails validation as `validate`
    does: exit 1, nothing on stdout, one stderr line with the witness."""
    (tmp_path / "map.json").write_text(json.dumps(
        {"target": "trivial:C2", "images": [0, 1, 0, 1]}))
    (tmp_path / "target_map.json").write_text(json.dumps(
        {"target": str(bad_brace), "images": [0, 1, 2, 3]}))
    maps = {"MAP": str(tmp_path / "map.json"),
            "TARGET_MAP": str(tmp_path / "target_map.json")}
    argv = [maps.get(a, a) for a in command]
    if "TARGET_MAP" not in command:
        argv.insert(1, str(bad_brace))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["invalid brace: column 1 is not a permutation "
                                "(not a Latin square) (witness: (1,))"]


C4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
X3 = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]          # x.y = -x-y mod 3


@pytest.mark.parametrize("dot, circ, line", [
    (X3, X3, "associativity fails at triple (0, 0, 1) (witness: (0, 0, 1))"),
    (C4, [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]],
     "compatibility fails at triple (1, 1, 1) (witness: (1, 1, 1))")],
    ids=["non-associative", "incompatible"])
def test_broken_law_exits_1_with_its_first_failing_triple(tmp_path, dot,
                                                          circ, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "order": len(dot),
                                "identity": 0, "dot_table": dot,
                                "circ_table": circ}))
    proc = cli_child("validate", str(path), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [f"invalid brace: {line}"]


def test_identity_mismatch_exits_1_with_both_identities(tmp_path, capsys):
    """The witness of an identity mismatch is the pair of the tables'
    identities, at both places that refuse one."""
    swapped = [[1, 0], [0, 1]]                      # C2 with identity 1
    for dot, circ, identity, witness in ((C4, C4, 1, (0, 0)),
                                         ([[0, 1], [1, 0]], swapped, None,
                                          (0, 1))):
        with pytest.raises(hb.IdentityMismatchError) as info:
            hb.validate_skew_brace(dot, circ, identity=identity)
        assert info.value.witness == witness
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"name": "c4", "order": 4, "identity": 1,
                                "dot_table": C4, "circ_table": C4}))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["invalid brace: declared identity 1 but "
                                "tables have dot=0, circ=0 (witness: (0, 0))"]


def test_tables_smaller_than_the_order_exit_2_with_one_line(tmp_path, capsys):
    c2 = [[0, 1], [1, 0]]
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"name": "c2", "order": 4, "identity": 0,
                                "dot_table": c2, "circ_table": c2}))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: {path}: field 'dot_table' is 2x2, not 4x4"]


def test_non_integer_inputs_exit_2_with_one_line(tmp_path, capsys,
                                                  radical_c4):
    doc = brace_doc(radical_c4, "float")
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
    base = brace_doc(radical_c4, "big")
    entry = json.loads(json.dumps(base))
    entry["circ_table"][2][3] = 10**30
    for stem, doc in (("entry", entry),
                      ("identity", {**base, "identity": 10**30}),
                      ("order", {**base, "order": -10**30}),
                      ("big-order", {**base, "order": 10**30})):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and len(err.strip().splitlines()) == 1, (stem, err)
        assert "range" in err


def test_map_image_beyond_int64_is_out_of_range(tmp_path, capsys):
    path = tmp_path / "big.map.json"
    path.write_text(json.dumps({"target": "trivial:C2",
                                "images": [0, 1, 0, 10**30]}))
    code, _, err = run(capsys, "check-central", "radical_c4", "--map",
                       str(path))
    assert code == 2 and len(err.strip().splitlines()) == 1, err
    assert "out of range" in err


def test_unreadable_files_exit_2_with_one_line(tmp_path, capsys):
    """Files the fuzz test found ending in a traceback: missing, a
    directory, not UTF-8, nested past the JSON parser's limit; and a path
    with a line break, which must not split the diagnostic."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')
    (tmp_path / "utf16.json").write_text('{"images": [0]}', encoding="utf-16")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    for stem in ("missing", "dir", "latin1.json", "utf16.json", "deep.json",
                 "a\nb"):
        path = str(tmp_path / stem)
        for argv in (["validate", path],
                     ["check-central", "radical_c4", "--map", path]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (argv, err)
            assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("argv, env", [
    (["verify", "radical_c4", "--suite", "axioms"], {"HOPFBRACE_SEED": "abc"}),
    (["series", "radical_c4", "--max", "0"], {}),
    (["verify", "--suite", "propositions"], {}),
    (["verify", "radical_c4", "--suite", "axioms", "--samples", "-1"], {}),
    (["verify", "radical_c4", "--all", "--suite", "axioms", "--samples", "0"],
     {}),
    (["series"], {}),
    (["verify", "radical_c4", "--samples", "x"], {}),
    (["series", "radical_c4", "--kind", "bogus"], {}),
    (["bogus"], {}),
    (["verify", "--suite"], {}),
    (["verify", "", "--all", "--suite", "axioms", "--samples", "0"], {}),
    # integers are an optional "-" and ASCII digits, not Python literals
    (["verify", "radical_c4", "--suite", "axioms", "--samples", "1_0"], {}),
    (["verify", "radical_c4", "--suite", "axioms", "--samples", " 3"], {}),
    (["verify", "radical_c4", "--suite", "axioms", "--seed", "+3"], {}),
    (["verify", "radical_c4", "--suite", "axioms", "--samples", "\u0663"],
     {}),
    (["verify", "radical_c4", "--suite", "axioms", "--samples", "\uff13"],
     {}),
    (["verify", "radical_c4", "--suite", "axioms"],
     {"HOPFBRACE_SEED": "\u0667"}),
    (["verify", "radical_c4", "--suite", "axioms"], {"HOPFBRACE_SEED": "1_0"}),
])
def test_bad_flags_exit_2_with_one_line(capsys, monkeypatch, argv, env):
    """A handler refuses by returning 2, the parser by raising
    SystemExit(2); both print one ``error:`` line and no usage line."""
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
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


HUMAN_OUTPUT = {
    "validate": """\
radical_c4: valid skew brace of order 4
""",
    "verify": """\
seed: 7349   samples: 32
  radical_c4                         propositions ok  (36 basis, 0 random)
""",
    "series": """\
radical_c4: right series
  term 1: size 4  carrier [0, 1, 2, 3]  (0, 1, 2, 3)
  term 2: size 2  carrier [0, 2]  (0, 2)
           generators [0, 2]
  term 3: size 1  carrier [0]  (0)
           generators [0]
  stabilized: False   nil class: 3
""",
    "invariants": """\
radical_c4: invariants
  socle      (Soc): [0, 2]  (0, 2)  space dim 3  [strictly larger than the group-like span]
  annihilator(Ann): [0, 2]  (0, 2)  space dim 3  [strictly larger than the group-like span]
  hopf center: [0, 1, 2, 3]  (0, 1, 2, 3)
  dim of star-abelianization (products fused): 2
  dim of full abelianization: 2
  star-trivial space dim 3; product-coincidence space dim 3  [conditions differ; separators exist]
    star-trivial but products differ: g1 - g3
    products coincide but not star-trivial: g1 + g3
""",
    "check-central": """\
opposite:S3 -> trivial:C2: central-extension verdicts
  kernel: [0, 3, 4]  (e, (1 2 3), (1 3 2))
  central for the Hopf-algebra adjunction: False  witness (3, 1)
  Huq-central: False  witness (3, 1)
""",
}


@pytest.mark.parametrize("command", sorted(HUMAN_OUTPUT))
def test_human_readable_output_is_pinned(tmp_path, capsys, monkeypatch,
                                        command):
    """The text reports, which the ``--json`` goldens do not cover, with
    the run-dependent ``elapsed:`` line left out."""
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    sign = tmp_path / "sign.json"
    hb.save_map([0, 1, 1, 0, 0, 1], sign, source="opposite:S3",
                target="trivial:C2")
    argv = {"validate": ["validate", "radical_c4"],
            "verify": ["verify", "radical_c4", "--suite", "propositions"],
            "series": ["series", "radical_c4", "--kind", "right"],
            "invariants": ["invariants", "radical_c4"],
            "check-central": ["check-central", "opposite:S3",
                              "--map", str(sign)]}[command]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert lines[-1].startswith("elapsed: ")
    assert "".join(lines[:-1]) == HUMAN_OUTPUT[command]


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


@pytest.mark.parametrize("field", ["source", "target"])
@pytest.mark.parametrize("value", [1, 2, True, ["x"], {"a": 1}],
                         ids=["one", "two", "true", "list", "object"])
def test_check_central_map_names_must_be_strings(tmp_path, field, value):
    """A non-string map source/target is a parse error.  Run in a child
    process: an integer reaching open() would close that fd (1 or 2)."""
    doc = {"source": "radical_c4", "target": "trivial:C2",
           "images": [0, 1, 0, 1], field: value}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    line = parse_error_in_child("check-central", "radical_c4",
                                "--map", str(path))
    assert repr(field) in line


CHILD_MEMORY = 2**30        # bytes of address space for a CLI child


def limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def parse_error_in_child(*argv, timeout=120):
    """Run the CLI in a child process with at most ``CHILD_MEMORY`` of
    address space, expect exit 2 with nothing on stdout and one
    ``error:`` line on stderr, and return that line."""
    proc = cli_child(*argv, capture_output=True, timeout=timeout,
                     preexec_fn=limit_child_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("order", [0, -1])
def test_non_positive_order_is_a_parse_error(tmp_path, order):
    path = tmp_path / "brace.json"
    path.write_text(json.dumps({"name": "x", "order": order, "identity": 0,
                                "dot_table": [], "circ_table": []}))
    line = parse_error_in_child("validate", str(path))
    assert (f"field 'order' is outside the range [1, {ORDER_CAP}], "
            f"got {order}" in line)


@pytest.mark.parametrize("identity", [5, 4, -1])
def test_identity_outside_the_carrier_is_a_parse_error(tmp_path, radical_c4,
                                                       identity):
    path = tmp_path / "brace.json"
    path.write_text(json.dumps({**brace_doc(radical_c4, "x"),
                                "identity": identity}))
    line = parse_error_in_child("validate", str(path))
    assert (f"field 'identity' is outside the range [0, 4), got {identity}"
            in line)


def test_order_above_the_cap_is_a_parse_error(tmp_path):
    n = ORDER_CAP + 50
    cyclic = [[(a + b) % n for b in range(n)] for a in range(n)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "C250", "order": n, "identity": 0,
                                "dot_table": cyclic, "circ_table": cyclic}))
    line = parse_error_in_child("validate", str(path))
    assert (f"field 'order' is outside the range [1, {ORDER_CAP}], got {n}"
            in line)


def pad_to(path, size):
    """Append spaces, which JSON ignores, until the file has ``size``
    bytes."""
    with open(path, "ab") as fh:
        fh.write(b" " * (size - path.stat().st_size))


def test_files_past_the_byte_cap_are_refused(tmp_path, capsys, radical_c4):
    """A brace or map file longer than ``MAX_FILE_BYTES`` is refused
    before it is parsed, however valid it is, and an endless file is
    read no further than the cap."""
    cap = catalog.MAX_FILE_BYTES
    brace, big_map = tmp_path / "rc4.json", tmp_path / "c2.map.json"
    hb.save_brace(radical_c4, brace, name="rc4")
    hb.save_map([0, 1, 0, 1], big_map, source=str(brace), target="trivial:C2")
    pad_to(brace, cap)
    assert run(capsys, "validate", str(brace))[0] == 0
    pad_to(brace, cap + 1)
    pad_to(big_map, cap + 1)
    for argv in (["validate", str(brace)], ["validate", "/dev/zero"],
                 ["check-central", "radical_c4", "--map", str(big_map)]):
        line = parse_error_in_child(*argv, timeout=30)
        assert f"longer than the cap of {cap} bytes" in line, line


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["verify", "radical_c4", "--json"],
                                  ["series", "radical_c4"], ["--help"],
                                  ["--version"]],
                         ids=["verify-json", "series-text", "help", "version"])
def test_closed_stdout_exits_141_with_nothing_on_stderr(argv, buffered):
    """The reader closed stdout before the child wrote.  Buffered, the
    write fails at ``main``'s last flush; unbuffered, at the first
    print.  Either way the child exits 141 (128 + SIGPIPE) with no
    traceback and no "Exception ignored" from the flush at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_child(*argv, env=env, stdout=write_end,
                         stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
    assert cli.CLOSED_OUTPUT == 141


def test_reader_closing_early_exits_0_or_141_without_a_traceback():
    """A reader that takes 10 bytes and closes the pipe, as ``| head -c
    10`` does: exit 0 if the output fitted in the pipe, else 141."""
    with cli_child("verify", "--all", "--json", start=subprocess.Popen,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(os.read(proc.stdout.fileno(), 10)) == 10
        proc.stdout.close()
        err = proc.communicate(timeout=120)[1]
    assert proc.returncode in (0, 141)
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("name", [5, True, None], ids=["int", "true", "null"])
def test_brace_name_must_be_a_string(tmp_path, radical_c4, name):
    doc = brace_doc(radical_c4, name)
    path = tmp_path / "brace.json"
    path.write_text(json.dumps(doc))
    line = parse_error_in_child("invariants", str(path), "--json")
    assert f"field 'name' must be a string, got {name!r}" in line
    del doc["name"]
    path.write_text(json.dumps(doc))
    desc, _ = hb.load_brace(path)
    assert desc.name == str(path)


def test_resolve_refuses_non_strings():
    for value in (1, 2, None, ["x"]):
        with pytest.raises(hb.BraceFileError):
            hb.resolve(value)


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


def test_verify_corrupted_file_exits_nonzero(capsys, bad_brace):
    code, _, err = run(capsys, "verify", str(bad_brace), "--suite", "axioms")
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


def test_invariants_json_matches_golden(capsys, catalog):
    """`invariants NAME --json` on the 15 catalog braces, the documents
    printed one after another, byte for byte against the output recorded
    before the socle and coincidence systems were solved from their
    structure."""
    out = []
    for desc, _ in catalog:
        code, text, _ = run(capsys, "invariants", desc.name, "--json")
        assert code == 0
        out.append(text)
    assert "".join(out) == INVARIANTS_GOLDEN.read_text(encoding="utf-8")


def test_series_json_matches_golden(capsys, catalog):
    """`series NAME --kind KIND --json` for the 15 catalog braces and the
    three kinds, name by name, byte for byte against the output recorded
    before the normality guard, the subbrace predicates and the
    compatibility check were rewritten."""
    out = []
    for desc, _ in catalog:
        for kind in ("left", "right", "gamma"):
            code, text, _ = run(capsys, "series", desc.name, "--kind", kind,
                                "--json")
            assert code == 0
            out.append(text)
    assert "".join(out) == SERIES_GOLDEN.read_text(encoding="utf-8")


def test_check_central_json_matches_golden(capsys):
    """`check-central SOURCE --map FILE --json` for every map under
    data/maps (the identity of each catalog brace and the projections of
    the three products onto their factors), in sorted file order, byte
    for byte against the output recorded before morphism images became
    one array.  Some of these extensions are central and some are not,
    with witnesses for both adjunctions."""
    out = []
    for path in sorted(MAPS.glob("*.json")):
        source = json.loads(path.read_text(encoding="utf-8"))["source"]
        code, text, _ = run(capsys, "check-central", source, "--map",
                            str(path), "--json")
        assert code == 0, path.name
        out.append(text)
    golden = CHECK_CENTRAL_GOLDEN.read_text(encoding="utf-8")
    assert len(out) == 21
    assert '"witness_hopfcoc": [' in golden and '"witness_huq": [' in golden
    assert "".join(out) == golden


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOPFBRACE_SEED", "4242")
    _, out, _ = run(capsys, "verify", "radical_c4", "--suite", "axioms")
    assert "seed: 4242" in out


def test_exit_code_1_on_unknown_suite_rejected():
    # verify has no --max: the series run to their end
    for argv in (["verify", "radical_c4", "--suite", "bogus"],
                 ["verify", "radical_c4", "--max", "3"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


# The parser is built once per process and reused by every ``main`` call;
# these pin that nothing of one call leaks into the next.

def test_reused_parser_restores_series_defaults(capsys):
    _, out, _ = run(capsys, "series", "radical_c4", "--kind", "gamma",
                    "--json")
    assert json.loads(out)["results"]["kind"] == "gamma"
    _, out, _ = run(capsys, "series", "radical_c4", "--json")
    doc = json.loads(out)["results"]
    assert doc["kind"] == "right"
    assert [t["size"] for t in doc["terms"]] == [4, 2, 1]


def test_reused_parser_restores_the_seed_default(capsys, monkeypatch):
    argv = ("verify", "radical_c4", "--suite", "axioms", "--samples", "1",
            "--json")
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    assert json.loads(run(capsys, *argv, "--seed", "5")[1])["seed"] == 5
    assert json.loads(run(capsys, *argv)[1])["seed"] == cli.DEFAULT_SEED
    monkeypatch.setenv(cli.SEED_ENV, "77")
    assert json.loads(run(capsys, *argv, "--seed", "5")[1])["seed"] == 5
    assert json.loads(run(capsys, *argv)[1])["seed"] == 77


def test_parse_error_leaves_no_trace_on_the_next_call(capsys):
    argv = ("verify", "radical_c4", "--suite", "lemma", "--json")
    _, alone, _ = run(capsys, *argv)
    with pytest.raises(SystemExit) as info:
        main(["verify", "radical_c4", "--seed", "3", "--samples", "0",
              "--suite", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()
    code, after, _ = run(capsys, *argv)
    assert code == 0 and after == alone


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run(capsys, "validate", "trivial:C2")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["validate", "trivial:C2"], ["series", "trivial:C2"],
                 ["invariants", "trivial:C2"]):
        assert run(capsys, *argv)[0] == 0
    assert built == [] and cli.build_parser() is cli.build_parser()


def test_handler_replaced_after_the_parser_is_built_runs(capsys,
                                                        monkeypatch):
    """A span installed on ``hopfbrace.cli.cmd_*`` by a tracer must see
    the calls, although the parser was built before it."""
    run(capsys, "validate", "trivial:C2")
    seen = []
    monkeypatch.setattr(cli, "cmd_check_central",
                        lambda args: seen.append(args.input) or 0)
    assert run(capsys, "check-central", "x", "--map", "m")[0] == 0
    assert seen == ["x"]


def count_loads(monkeypatch):
    calls = []
    load_brace = catalog.load_brace

    def counting(path):
        calls.append(path)
        return load_brace(path)

    monkeypatch.setattr(catalog, "load_brace", counting)
    return calls


def test_check_central_loads_an_input_named_again_once(tmp_path, capsys,
                                                       monkeypatch,
                                                       radical_c4):
    brace = tmp_path / "rc4.json"
    hb.save_brace(radical_c4, brace, name="rc4")
    to_c2, ident = tmp_path / "c2.map.json", tmp_path / "id.map.json"
    hb.save_map([0, 1, 0, 1], to_c2, source=str(brace), target="trivial:C2")
    hb.save_map(range(4), ident, source=str(brace), target=str(brace))
    calls = count_loads(monkeypatch)
    for map_path in (to_c2, ident):
        calls.clear()
        code, out, _ = run(capsys, "check-central", str(brace),
                           "--map", str(map_path), "--json")
        assert code == 0 and json.loads(out)["results"]["central_huq"]
        assert calls == [str(brace)]


def test_check_central_source_naming_another_file(tmp_path, capsys,
                                                  monkeypatch, radical_c4):
    brace, copy, other = (tmp_path / f"{stem}.json"
                          for stem in ("rc4", "copy", "c4"))
    hb.save_brace(radical_c4, brace)
    hb.save_brace(radical_c4, copy)
    hb.save_brace(hb.trivial_brace(hb.cyclic_group(4)), other)
    calls = count_loads(monkeypatch)
    for source, code in ((copy, 0), (other, 2)):
        calls.clear()
        map_path = tmp_path / "map.json"
        hb.save_map([0, 1, 0, 1], map_path, source=str(source),
                    target="trivial:C2")
        got, out, err = run(capsys, "check-central", str(brace),
                            "--map", str(map_path))
        assert got == code and calls == [str(brace), str(source)]
    assert out == ""
    assert err == (f"error: map source {str(other)!r} is not the input "
                   f"brace\n")


NO_MASKED_ARRAYS = """
import contextlib, io, json, sys
from hopfbrace.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append([argv[0], code, "numpy.ma" in sys.modules])
print(json.dumps(loaded))
"""


def test_queries_leave_numpy_ma_unloaded():
    """A plain ``np.unique`` imports ``numpy.ma`` (~17 ms and ~1.6 MB on
    first use); the package never calls it, on any command.  A fresh
    interpreter, so that no other test can have loaded it first."""
    name = "prod:radical_c4,trivial:S3"
    argvs = [["invariants", name, "--json"],
             ["series", name, "--kind", "gamma", "--json"],
             ["check-central", name, "--json", "--map",
              str(MAPS / "projection-prod-radical_c4-trivial-S3-1.json")],
             ["verify", name, "--suite", "propositions", "--json"],
             ["validate", name],
             ["verify", name, "--json"]]
    src = str(Path(hb.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[argv[0], 0, False] for argv in argvs]
