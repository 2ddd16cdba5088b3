import json

import pytest

import hopfbrace as hb


def test_catalog_size_and_orders(catalog):
    assert len(catalog) >= 13
    orders = sorted(d.order for d, _ in catalog)
    assert orders[0] == 2 and orders[-1] == 48
    names = [d.name for d, _ in catalog]
    assert len(names) == len(set(names))


def test_catalog_contains_required_entries(by_name):
    required = [
        "trivial:C2", "trivial:C4", "trivial:C2xC2", "trivial:S3",
        "trivial:D4", "trivial:A4", "trivial:S4",
        "opposite:S3", "opposite:D4", "opposite:A4", "opposite:S4",
        "radical_c4",
        "prod:radical_c4,radical_c4", "prod:radical_c4,trivial:S3",
    ]
    for name in required:
        assert name in by_name
    assert by_name["opposite:A4"][0].order == 12
    assert by_name["prod:radical_c4,radical_c4"][0].order == 16


def test_every_entry_revalidates(catalog):
    from hopfbrace.catalog import verify_catalog_validates
    verify_catalog_validates()
    for desc, brace in catalog:
        assert desc.order == brace.order
        rebuilt = hb.validate_skew_brace(brace.dot.table, brace.circ.table,
                                         identity=brace.identity)
        assert rebuilt == brace


def test_round_trip(tmp_path, catalog):
    for desc, brace in catalog:
        path = tmp_path / f"{desc.name.replace(':', '_').replace(',', '_')}.json"
        hb.save_brace(brace, path, name=desc.name)
        loaded_desc, loaded = hb.load_brace(path)
        assert loaded == brace
        assert loaded_desc.name == desc.name


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(hb.BraceFileError) as info:
        hb.load_brace(path)
    assert "line" in str(info.value)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"order": 2, "identity": 0}))
    with pytest.raises(hb.BraceFileError) as info:
        hb.load_brace(path)
    assert "dot_table" in str(info.value)


def test_load_rejects_non_latin_square(tmp_path):
    path = tmp_path / "notgroup.json"
    doc = {"name": "bad", "order": 2, "identity": 0,
           "dot_table": [[0, 1], [0, 1]], "circ_table": [[0, 1], [1, 0]]}
    path.write_text(json.dumps(doc))
    with pytest.raises(hb.NotAGroupError) as info:
        hb.load_brace(path)
    assert "row" in str(info.value) or "column" in str(info.value)


def test_load_rejects_wrong_identity_declaration(tmp_path, radical_c4):
    doc = {"name": "bad-id", "order": 4, "identity": 1,
           "dot_table": radical_c4.dot.table.tolist(),
           "circ_table": radical_c4.circ.table.tolist()}
    path = tmp_path / "badid.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(hb.IdentityMismatchError):
        hb.load_brace(path)


def test_load_rejects_broken_compatibility(tmp_path, radical_c4):
    doc = {"name": "mutated", "order": 4, "identity": 0,
           "dot_table": radical_c4.dot.table.tolist(),
           # a valid group table (relabeled C4) that is not brace-compatible
           "circ_table": [[0, 1, 2, 3], [1, 3, 0, 2],
                          [2, 0, 3, 1], [3, 2, 1, 0]]}
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(hb.CompatibilityError) as info:
        hb.load_brace(path)
    assert info.value.witness == (1, 1, 1)


@pytest.mark.parametrize("field, value", [
    ("dot_table", 2.5), ("dot_table", "x"), ("circ_table", True),
    ("identity", 0.5), ("identity", False), ("order", 4.0)])
def test_load_rejects_non_integers_instead_of_coercing(tmp_path, radical_c4,
                                                        field, value):
    doc = {"name": "coerced", "order": 4, "identity": 0,
           "dot_table": radical_c4.dot.table.tolist(),
           "circ_table": radical_c4.circ.table.tolist()}
    if field.endswith("_table"):
        doc[field][1][1] = value
    else:
        doc[field] = value
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(hb.BraceFileError) as info:
        hb.load_brace(path)
    assert repr(value) in str(info.value)


def test_resolve(tmp_path, radical_c4):
    desc, brace = hb.resolve("radical_c4")
    assert brace == radical_c4
    path = tmp_path / "rc4.json"
    hb.save_brace(radical_c4, path, name="from-file")
    desc2, brace2 = hb.resolve(str(path))
    assert brace2 == radical_c4 and desc2.construction == "file"
    with pytest.raises(hb.BraceFileError):
        hb.resolve("no-such-brace")


def test_map_round_trip(tmp_path):
    path = tmp_path / "map.json"
    hb.save_map([0, 1, 0, 1], path, source="radical_c4", target="trivial:C2")
    doc = hb.load_map(path)
    assert doc["images"] == [0, 1, 0, 1]
    assert doc["source"] == "radical_c4"
    bad = tmp_path / "badmap.json"
    bad.write_text("[1,2,3]")
    with pytest.raises(hb.BraceFileError):
        hb.load_map(bad)
    for images in ([0, "1", 0, 1], [0, 1.0, 0, 1], [0, True, 0, 1]):
        bad.write_text(json.dumps({"images": images}))
        with pytest.raises(hb.BraceFileError):
            hb.load_map(bad)
