"""Fuzzing the CLI in-process through ``main``.

Three kinds of input: brace documents, map documents and flag lists.
The documents are valid ones with fields dropped or replaced by values
of the wrong type, shape, size or nesting, by int64 edge values, or
replaced whole by other JSON, undecodable bytes or nesting deeper than
the parser's recursion limit.  Every call must end in exit 0, 1 or 2
with no exception other than argparse's ``SystemExit``, and an exit 2,
returned by a command handler or raised by the parser, prints nothing on
stdout and exactly one ``error:`` line on stderr.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfbrace as hb
from hopfbrace.cli import main

INT64_EDGES = (-2**63 - 1, -2**63, -1, 0, 1, 2**63 - 1, 2**63, 10**30)
CAP_EDGES = (200, 201, 250)
scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                    st.sampled_from(INT64_EDGES + CAP_EDGES),
                    st.floats(), st.text(max_size=3))
values = st.recursive(
    scalars, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10)
raw_files = st.one_of(st.binary(max_size=12),
                      st.just(b"[" * 100_000), st.just(b'{"order": ' * 5000))


def brace_doc(brace, name):
    return {"name": name, "order": brace.order, "identity": brace.identity,
            "dot_table": brace.dot.table.tolist(),
            "circ_table": brace.circ.table.tolist()}


BASES = [brace_doc(hb.trivial_brace(hb.cyclic_group(1)), "C1"),
         brace_doc(hb.trivial_brace(hb.cyclic_group(2)), "C2"),
         brace_doc(hb.radical_c4_brace(), "rc4"),
         brace_doc(hb.opposite_brace(hb.symmetric_group(3)), "S3op")]


@st.composite
def mutated_table(draw, table):
    """A table with one entry, row or level of nesting changed."""
    t = [list(row) for row in table]
    i = draw(st.integers(0, len(t) - 1))
    how = draw(st.sampled_from(("entry", "wrap", "drop-row", "add-row",
                                "short-row", "nest")))
    if how == "entry":
        t[i][draw(st.integers(0, len(t) - 1))] = draw(values)
    elif how == "wrap":
        t[i][0] = [t[i][0]]
    elif how == "drop-row":
        del t[i]
    elif how == "add-row":
        t.append(list(t[i]))
    elif how == "short-row":
        t[i] = t[i][:-1]
    else:
        t = [t]
    return t


@st.composite
def brace_docs(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for key in draw(st.sets(st.sampled_from(
            ("name", "order", "identity", "dot_table", "circ_table")))):
        how = draw(st.sampled_from(("drop", "value", "mutate")))
        if how == "drop":
            del doc[key]
        elif how == "mutate" and key.endswith("_table"):
            doc[key] = draw(mutated_table(doc[key]))
        else:
            doc[key] = draw(values)
    return doc


def file_bytes(docs):
    """Encoded documents, or other JSON, or bytes that are not JSON."""
    return st.one_of(docs.map(lambda d: json.dumps(d).encode()),
                     values.map(lambda v: json.dumps(v).encode()), raw_files)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"dir": root / "a-directory", "missing": root / "missing.json",
             "brace": root / "brace.json", "map": root / "map.json",
             "rc4": root / "rc4.json", "s3": root / "s3.json",
             "id-map": root / "id.map.json"}
    paths["dir"].mkdir()
    hb.save_map(range(4), paths["id-map"])
    hb.save_brace(hb.radical_c4_brace(), paths["rc4"], name="rc4")
    hb.save_brace(hb.opposite_brace(hb.symmetric_group(3)), paths["s3"])
    return {key: str(path) for key, path in paths.items()}


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def call(argv):
    """Run ``main``; check the exit-code contract and return the code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse: parse error or --help
            assert exc.code in (0, 2), (argv, exc.code)
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        lines = err.getvalue().split("\n")
        assert out.getvalue() == "", argv
        assert len(lines) == 2 and lines[0].startswith("error: ") \
            and lines[1] == "", (argv, err.getvalue())
    return code


@settings(max_examples=150, deadline=None)
@given(data=file_bytes(brace_docs()))
def test_fuzzed_brace_files(files, data):
    path = files["brace"]
    with open(path, "wb") as fh:
        fh.write(data)
    for argv in (["validate", path, "--json"], ["invariants", path],
                 ["series", path, "--kind", "gamma"],
                 ["verify", path, "--suite", "propositions", "--samples", "1"],
                 ["check-central", path, "--map", files["id-map"]]):
        call(argv)


@st.composite
def map_docs(draw, names):
    doc = {"source": "radical_c4", "target": "trivial:C2",
           "images": [0, 1, 0, 1]}
    for key in draw(st.sets(st.sampled_from(("source", "target", "images")))):
        how = draw(st.sampled_from(("drop", "value", "name", "image")))
        if how == "drop":
            del doc[key]
        elif how == "name":
            doc[key] = draw(st.sampled_from(names))
        elif how == "image" and key == "images":
            images = list(doc["images"])
            k = draw(st.integers(0, 3))
            images[k] = draw(st.one_of(st.integers(-2, 6), scalars))
            doc[key] = images[:draw(st.integers(0, 5))]
        else:
            doc[key] = draw(values)
    return doc


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_map_files(files, data):
    names = ["", "radical_c4", "trivial:C2", "opposite:S3", "nope",
             files["rc4"], files["s3"], files["dir"], files["missing"]]
    blob = data.draw(file_bytes(map_docs(names)))
    with open(files["map"], "wb") as fh:
        fh.write(blob)
    source = data.draw(st.sampled_from(["radical_c4", files["rc4"]]))
    call(["check-central", source, "--map", files["map"], "--json"])


# Numbers in flag lists come from this list and free text has no digits,
# and a verify call starts with --samples 1 (a later --samples overrides
# it), so that no call asks for thousands of random samples: the random
# layer's cost is work the user asked for, not an input fault.
NUMBERS = ("-5", "-1", "0", "1", "2", "3", "1.5", "1e3", "0x10", " 2")
WORDS = ("--json", "--help", "-h", "--version", "--kind", "--max", "--map",
         "--all", "--suite", "--seed", "--samples", "left", "right", "gamma",
         "axioms", "lemma", "structure", "propositions", "all", "bogus",
         "radical_c4", "trivial:C2", "opposite:S3", "--", "-", "=")
COMMANDS = ("validate", "series", "invariants", "check-central", "verify",
            "bogus", "--json")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_flag_lists(files, monkeypatch_module, data):
    paths = tuple(files[k] for k in ("rc4", "s3", "dir", "missing", "map"))
    token = st.one_of(
        st.sampled_from(WORDS + NUMBERS + paths),
        st.text(st.characters(exclude_categories=("Nd",)), max_size=4))
    argv = [data.draw(st.sampled_from(COMMANDS))]
    if argv[0] == "verify":
        argv += ["--samples", "1"]
    argv += data.draw(st.lists(token, max_size=6))
    seed = data.draw(st.sampled_from((None, "7", "x", "", " 3", "1.0")))
    if seed is None:
        monkeypatch_module.delenv("HOPFBRACE_SEED", raising=False)
    else:
        monkeypatch_module.setenv("HOPFBRACE_SEED", seed)
    call(argv)
