import json

import pytest

from incalg.cli import main
from incalg.fia import IncidenceAlgebra
from incalg.fields import PrimeField
from incalg.involutions import base_involution, sigma_lambda


@pytest.fixture
def poset_files(tmp_path):
    files = {}
    files["chain2"] = tmp_path / "chain2.json"
    files["chain2"].write_text(json.dumps(
        {"elements": ["a", "b"], "covers": [["a", "b"]]}))
    files["chain3"] = tmp_path / "chain3.json"
    files["chain3"].write_text(json.dumps(
        {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}))
    files["diamond"] = tmp_path / "diamond.json"
    files["diamond"].write_text(json.dumps(
        {"elements": ["0", "a", "b", "1"],
         "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}))
    files["vee"] = tmp_path / "vee.txt"
    files["vee"].write_text("a<b\na<c\n")
    files["fence"] = tmp_path / "fence.json"
    files["fence"].write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "c"], ["b", "c"], ["b", "d"]]}))
    files["crown"] = tmp_path / "crown.json"
    files["crown"].write_text(json.dumps(
        {"elements": ["a", "b", "c", "d"],
         "covers": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}))
    return files


def test_poset_info_diamond(poset_files, capsys):
    assert main(["poset-info", "--poset", str(poset_files["diamond"])]) == 0
    out = capsys.readouterr().out
    assert "connected: yes" in out
    assert "all-comparable: 0, 1" in out
    assert "involutions" in out


def test_poset_info_fence_has_no_anchor(poset_files, capsys):
    assert main(["poset-info", "--poset", str(poset_files["fence"])]) == 0
    out = capsys.readouterr().out
    assert "all-comparable: none" in out


def test_poset_info_vee_notes_missing_involutions(poset_files, capsys):
    assert main(["poset-info", "--poset", str(poset_files["vee"])]) == 0
    out = capsys.readouterr().out
    assert "admits no involution" in out


def test_poset_info_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": ["a", "a"], "covers": []}')
    assert main(["poset-info", "--poset", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["poset-info", "--poset", str(missing)]) == 2


@pytest.mark.parametrize("obj, named", [
    ({"elements": ["a", "b", "c"], "covers": [["a", "b", "c"]]},
     "['a', 'b', 'c']"),
    ({"elements": ["a", "b"], "covers": [["a"]]}, "['a']"),
    ({"elements": ["a", "b"], "covers": "ab"}, "'ab'"),
    ({"elements": ["a", "b"], "covers": [["a", 2]]}, "['a', 2]"),
    ({"elements": "ab", "covers": []}, "'ab'"),
    ({"elements": [1, 2], "covers": [[1, 2]]}, "1"),
    ({"elements": ["a", ["b"]], "covers": []}, "['b']"),
], ids=["long-cover", "short-cover", "covers-string", "cover-int-label",
        "elements-string", "int-labels", "list-label"])
def test_poset_info_rejects_malformed_shapes(tmp_path, capsys, obj, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["poset-info", "--poset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_hypotheses_exit_codes(poset_files, capsys):
    assert main(["hypotheses", "--poset", str(poset_files["fence"]),
                 "--field", "F5"]) == 0
    out = capsys.readouterr().out
    assert "mult_subset_inn: True" in out
    assert "der_equals_ider: True" in out

    assert main(["hypotheses", "--poset", str(poset_files["crown"]),
                 "--field", "F5"]) == 3
    out = capsys.readouterr().out
    assert "mult_subset_inn: False" in out
    assert "der_equals_ider: False" in out
    assert "non_inner_cocycle" in out
    assert "non_inner_additive_cocycle" in out

    assert main(["hypotheses", "--poset", str(poset_files["crown"]),
                 "--field", "F2"]) == 3
    out = capsys.readouterr().out
    assert "mult_subset_inn: True" in out
    assert "der_equals_ider: False" in out


def test_classify_chain3(poset_files, capsys):
    assert main(["classify", "--poset", str(poset_files["chain3"]),
                 "--field", "F5", "--lambda", "a:c,b:b,c:a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert payload["fixed_points"] == ["b"]
    assert len(payload["representatives"]) == 2


def test_classify_diamond_f3(poset_files, capsys):
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--lambda", lam, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert len(payload["invariants"]) == 4


def test_classify_chain2_named_representatives(poset_files, capsys):
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", "--lambda", "a:b,b:a", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    kinds = {(inv.get("kind"), inv["sign"]) for inv in payload["invariants"]}
    assert kinds == {("plain", 1), ("plain", -1), ("skew", 1), ("skew", -1)}


def test_classify_rejects_bad_inputs(poset_files, capsys):
    assert main(["classify", "--poset", str(poset_files["crown"]),
                 "--field", "F5", "--lambda", "a:c,c:a,b:d,d:b"]) == 3
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F2", "--lambda", "a:b,b:a"]) == 4
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", "--lambda", "a:a,b:b"]) == 2
    assert main(["classify", "--poset", str(poset_files["chain2"]),
                 "--field", "F6", "--lambda", "a:b,b:a"]) == 2


def test_classify_rational_family(poset_files, capsys):
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "Q", "--lambda", lam, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == "infinite"
    assert "family" in payload


def test_equivalent_command(poset_files, tmp_path, capsys):
    chain2 = json.loads(poset_files["chain2"].read_text())
    from incalg.posets import Poset
    poset = Poset.from_json(chain2)
    alg = IncidenceAlgebra(poset, PrimeField(3))
    lam = poset.involutions()[0]
    rho_plus = base_involution(alg, lam, 1)
    rho_minus = base_involution(alg, lam, -1)
    sig = sigma_lambda(alg, lam, 1)
    f1 = tmp_path / "inv1.json"
    f2 = tmp_path / "inv2.json"
    f3 = tmp_path / "inv3.json"
    f1.write_text(json.dumps(rho_plus.to_json()))
    f2.write_text(json.dumps(rho_minus.to_json()))
    f3.write_text(json.dumps(sig.to_json()))

    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(f1), str(f2)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["distinguisher"] == "sign"

    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(f1), str(f3), "--general"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["distinguisher"] == "chi"

    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", "--check", str(f1), str(f1)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["equivalent"] is True
    assert out["witness"]["kind"] == "inner"


def test_equivalent_witness_round_trip(poset_files, tmp_path, capsys):
    from incalg.posets import Poset
    poset = Poset.from_json(json.loads(poset_files["diamond"].read_text()))
    alg = IncidenceAlgebra(poset, PrimeField(3))
    from incalg.involutions import rho_eps
    flip = next(m for m in poset.involutions()
                if m.mapping == {"0": "1", "1": "0", "a": "a", "b": "b"})
    s1 = rho_eps(alg, flip, {"a": 1, "b": 1}, 1)
    s2 = rho_eps(alg, flip, {"a": 2, "b": 2}, 1)
    f1 = tmp_path / "e1.json"
    f2 = tmp_path / "e2.json"
    f1.write_text(json.dumps(s1.to_json()))
    f2.write_text(json.dumps(s2.to_json()))
    code = main(["equivalent", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--check", str(f1), str(f2)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["witness"]["conjugator"]["f"]["entries"]


def test_equivalent_rejects_non_involution(poset_files, tmp_path, capsys):
    f1 = tmp_path / "bad.json"
    f1.write_text(json.dumps({
        "theta": {"f": {"entries": {"a,a": "1", "b,b": "1"}},
                  "i": {"entries": {"a,b": "1"}}},
        "lambda": {"a": "b", "b": "a"},
        "k": "-1"}))
    code = main(["equivalent", "--poset", str(poset_files["chain2"]),
                 "--field", "F3", str(f1), str(f1)])
    assert code == 2


def test_verify_commands(poset_files, capsys):
    assert main(["verify", "--poset", str(poset_files["chain2"]),
                 "--field", "F3"]) == 0
    out = capsys.readouterr().out
    assert "oracle orbit count matches classification" in out
    assert "FAIL" not in out

    assert main(["verify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3"]) == 0
    out = capsys.readouterr().out
    assert "classification for" in out

    assert main(["verify", "--poset", str(poset_files["crown"]),
                 "--field", "F5"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_classify_lambda_from_file(poset_files, tmp_path, capsys):
    lam_file = tmp_path / "lam.json"
    lam_file.write_text(json.dumps({"a": "c", "b": "b", "c": "a"}))
    assert main(["classify", "--poset", str(poset_files["chain3"]),
                 "--field", "F5", "--lambda", str(lam_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_classify_general_flag(poset_files, capsys):
    lam = json.dumps({"0": "1", "1": "0", "a": "a", "b": "b"})
    assert main(["classify", "--poset", str(poset_files["diamond"]),
                 "--field", "F3", "--lambda", lam, "--general", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "general"
    assert payload["count"] == 4
