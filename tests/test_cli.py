"""Command line interface: happy paths, exit codes, output formats."""

import json

import numpy as np
import pytest

from linrel import cli
from linrel.cli import main
from linrel.relation import LinearRelation, identity_relation
from linrel.serialize import dump_relation, dump_subspace, dumps, load_relation
from linrel.subspace import Subspace

E1 = np.array([1.0, 0.0], dtype=complex)


def _write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


def _relation_file(tmp_path, name, matrix):
    rel = LinearRelation.from_matrix(np.array(matrix, dtype=complex))
    return _write(tmp_path / name, dump_relation(rel))


def _subspace_file(tmp_path, name, vectors, ambient):
    s = Subspace.span([np.array(v, dtype=complex) for v in vectors], ambient)
    return _write(tmp_path / name, dump_subspace(s))


@pytest.fixture
def e2_files(tmp_path):
    rel = _relation_file(tmp_path, "rel.json", [[2.0, 1.0], [1.0, 1.0]])
    sub = _subspace_file(tmp_path, "sub.json", [[1.0, 0.0]], 2)
    return rel, sub


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_loadable_files(tmp_path, capsys):
    out_rel = tmp_path / "r.json"
    out_sub = tmp_path / "s.json"
    code, out, _ = _run(capsys, [
        "gen", "--ambient-dim", "4", "--s-dim", "2", "--d1-dim", "1",
        "--d2-dim", "1", "--seed", "9",
        "--out-relation", str(out_rel), "--out-subspace", str(out_sub)])
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"]["ambient_dim"] == 4
    written = load_relation(json.loads(out_rel.read_text()))
    inline = load_relation(payload["relation"])
    assert written.equals(inline)
    assert json.loads(out_sub.read_text())["ambient_dim"] == 4


def test_gen_is_deterministic(tmp_path, capsys):
    argv = ["gen", "--ambient-dim", "3", "--s-dim", "1", "--d1-dim", "1",
            "--d2-dim", "1", "--seed", "4"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_schur_dense_matrix(e2_files, capsys):
    rel, sub = e2_files
    code, out, _ = _run(capsys, ["schur", "--relation", rel, "--subspace", sub])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "formula"
    schur = load_relation(payload["schur"])
    expected = LinearRelation.from_matrix(np.array([[0.0, 0.0], [0.0, 0.5]]))
    assert schur.graph_gap(expected) < 1e-10
    assert payload["diagnostics"]["anderson_trapp_gap"] < 1e-10
    assert payload["diagnostics"]["pekarev_schur_gap"] < 1e-10


def test_schur_identity(tmp_path, capsys):
    rel = _relation_file(tmp_path, "id.json", np.eye(2))
    sub = _subspace_file(tmp_path, "s.json", [[1.0, 0.0]], 2)
    code, out, _ = _run(capsys, ["schur", "--relation", rel, "--subspace", sub])
    assert code == 0
    schur = load_relation(json.loads(out)["schur"])
    assert schur.graph_gap(LinearRelation.from_matrix(np.diag([0.0, 1.0]))) < 1e-10


def test_schur_method_selection(e2_files, capsys):
    rel, sub = e2_files
    outs = {}
    for method in ("formula", "pekarev", "anderson-trapp"):
        code, out, _ = _run(capsys, ["schur", "--relation", rel,
                                     "--subspace", sub, "--method", method])
        assert code == 0
        outs[method] = load_relation(json.loads(out)["schur"])
    assert outs["formula"].graph_gap(outs["pekarev"]) < 1e-10
    assert outs["formula"].graph_gap(outs["anderson-trapp"]) < 1e-10


def test_schur_anderson_trapp_needs_operator(tmp_path, capsys):
    obj = {"dim_in": 2, "dim_out": 2,
           "repr": {"type": "operator_mul",
                    "domain_basis": [[[1.0, 0.0], [0.0, 0.0]]],
                    "matrix_on_domain": [[[1.0, 0.0]], [[0.0, 0.0]]],
                    "mul_basis": [[[0.0, 0.0], [1.0, 0.0]]]}}
    rel = _write(tmp_path / "mul.json", obj)
    sub = _subspace_file(tmp_path, "s.json", [[1.0, 0.0]], 2)
    code, out, err = _run(capsys, ["schur", "--relation", rel, "--subspace", sub,
                                   "--method", "anderson-trapp"])
    assert code == 1
    assert "everywhere-defined" in err


def test_compress_matches_expected(e2_files, capsys):
    rel, sub = e2_files
    code, out, _ = _run(capsys, ["compress", "--relation", rel, "--subspace", sub])
    assert code == 0
    comp = load_relation(json.loads(out)["compression"])
    expected = LinearRelation.from_matrix(np.array([[2.0, 1.0], [1.0, 0.5]]))
    assert comp.graph_gap(expected) < 1e-10


def test_block_reports_contraction(e2_files, capsys):
    rel, sub = e2_files
    code, out, _ = _run(capsys, ["block", "--relation", rel, "--subspace", sub])
    assert code == 0
    payload = json.loads(out)
    g = payload["g"]
    assert abs(complex(*g[0][1]) - 1 / np.sqrt(2)) < 1e-10
    assert payload["d1"]["ambient_dim"] == 2


def test_order_verdicts(tmp_path, capsys):
    a = _relation_file(tmp_path, "a.json", np.eye(2))
    b = _relation_file(tmp_path, "b.json", 2 * np.eye(2))
    e2 = _relation_file(tmp_path, "c.json", [[2.0, 1.0], [1.0, 1.0]])

    code, out, _ = _run(capsys, ["order", "--a", a, "--b", b])
    assert code == 0 and json.loads(out)["verdict"] == "A<=B"
    code, out, _ = _run(capsys, ["order", "--a", a, "--b", a])
    assert code == 0 and json.loads(out)["verdict"] == "both (equal)"
    code, out, _ = _run(capsys, ["order", "--a", e2, "--b", a])
    assert code == 0 and json.loads(out)["verdict"] == "incomparable"
    code, out, _ = _run(capsys, ["order", "--a", a, "--b", e2, "--format", "text"])
    assert code == 0 and out.strip() == "incomparable"


def test_verify_small_run(capsys):
    argv = ["verify", "--seed", "3", "--trials", "12", "--max-dim", "5",
            "--samples", "6"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["trials"] == 12
    for stat in payload["checks"].values():
        assert stat["pass"] + stat["fail"] == 12
    code2, out2, _ = _run(capsys, argv)
    assert out2 == out


def test_verify_text_format(capsys):
    code, out, _ = _run(capsys, ["verify", "--seed", "3", "--trials", "4",
                                 "--max-dim", "4", "--format", "text"])
    assert code == 0
    assert "adjoint_involution" in out
    assert "ok" in out.lower()


def test_exit_code_2_on_malformed_input(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    sub = _subspace_file(tmp_path, "s.json", [[1.0, 0.0]], 2)
    code, _, err = _run(capsys, ["schur", "--relation", str(broken),
                                 "--subspace", sub])
    assert code == 2 and err

    unknown = _write(tmp_path / "u.json",
                     {"dim_in": 2, "dim_out": 2, "repr": {"type": "wavelet"}})
    code, _, err = _run(capsys, ["schur", "--relation", unknown, "--subspace", sub])
    assert code == 2 and err

    code, _, err = _run(capsys, ["schur", "--relation", str(tmp_path / "nope.json"),
                                 "--subspace", sub])
    assert code == 2 and err


@pytest.mark.parametrize("flag", [["--trials", "-1"], ["--max-dim", "0"],
                                  ["--samples", "-3"]])
def test_verify_rejects_out_of_range_counts(flag, capsys):
    code, out, err = _run(capsys, ["verify", "--trials", "1", *flag])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_exit_code_2_on_bad_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["schur", "--relation"])
    assert info.value.code == 2
    capsys.readouterr()


def test_exit_code_1_on_precondition_failure(tmp_path, capsys):
    shift = _relation_file(tmp_path, "shift.json", [[0.0, 1.0], [0.0, 0.0]])
    sub = _subspace_file(tmp_path, "s.json", [[1.0, 0.0]], 2)
    code, _, err = _run(capsys, ["schur", "--relation", shift, "--subspace", sub])
    assert code == 1
    assert "adjoint gap" in err


def test_exit_code_1_on_invalid_spec(capsys):
    code, _, err = _run(capsys, ["gen", "--ambient-dim", "2", "--s-dim", "3",
                                 "--d1-dim", "0", "--d2-dim", "0"])
    assert code == 1 and err


def test_tolerance_flags_reach_the_pipeline(e2_files, capsys):
    rel, sub = e2_files
    code, out, _ = _run(capsys, ["schur", "--relation", rel, "--subspace", sub,
                                 "--tol-eq", "1e-6", "--tol-rank", "1e-9"])
    assert code == 0
    assert json.loads(out)["method"] == "formula"


def test_huge_integer_entry_exits_2(tmp_path, capsys):
    rel, sub = (_relation_file(tmp_path, "rel.json", np.eye(2)),
                _subspace_file(tmp_path, "sub.json", [[1.0, 0.0]], 2))
    huge = "1" + "0" * 400
    bad_sub = tmp_path / "huge_sub.json"
    bad_sub.write_text('{"ambient_dim": 2, "basis": [[[0.0, 0.0], [%s, 0.0]]]}' % huge)
    bad_rel = tmp_path / "huge_rel.json"
    bad_rel.write_text('{"dim_in": 1, "dim_out": 1, "repr": {"type": "graph", '
                       '"basis": [[[1.0, 0.0], [0.0, -%s]]]}}' % huge)
    for argv in (["schur", "--relation", rel, "--subspace", str(bad_sub)],
                 ["schur", "--relation", str(bad_rel), "--subspace", sub]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large" in err


@pytest.mark.parametrize("content", [
    b'{"dim_in": ' + b"9" * 5000 + b', "dim_out": 1}',  # past the int digit limit
    b'\xff\xfe{"dim_in": 1}',                          # not UTF-8
])
def test_undecodable_input_exits_2(tmp_path, capsys, content):
    sub = _subspace_file(tmp_path, "sub.json", [[1.0, 0.0]], 2)
    bad_rel = tmp_path / "bad.json"
    bad_rel.write_bytes(content)
    code, out, err = _run(capsys, ["schur", "--relation", str(bad_rel),
                                   "--subspace", sub])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "invalid JSON" in err


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    sub = _subspace_file(tmp_path, "sub.json", [[1.0, 0.0]], 2)
    bad_rel = tmp_path / "nested.json"
    bad_rel.write_text("[" * 100000)
    code, out, err = _run(capsys, ["schur", "--relation", str(bad_rel),
                                   "--subspace", sub])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "invalid JSON" in err and "recursion" in err


def test_json_mode_renders_no_text(tmp_path, capsys, monkeypatch):
    calls = []
    fmt = cli._fmt_complex
    monkeypatch.setattr(cli, "_fmt_complex", lambda z: calls.append(z) or fmt(z))
    rel, sub = str(tmp_path / "r.json"), str(tmp_path / "s.json")
    gen = ["gen", "--ambient-dim", "4", "--s-dim", "2", "--d1-dim", "1",
           "--d2-dim", "2", "--seed", "5", "--out-relation", rel,
           "--out-subspace", sub]
    commands = [gen,
                ["block", "--relation", rel, "--subspace", sub],
                ["schur", "--relation", rel, "--subspace", sub],
                ["compress", "--relation", rel, "--subspace", sub]]
    for argv in commands:
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert calls == []
    for argv in commands:
        code, out, _ = _run(capsys, argv + ["--format", "text"])
        assert code == 0 and "j" in out
    assert calls


def test_repeated_calls_share_one_parser_and_parse_independently(e2_files, capsys):
    # the parser is built once; no option, default or error leaks between calls
    assert cli._build_parser() is cli._build_parser()
    rel, sub = e2_files
    code, out, _ = _run(capsys, ["schur", "--relation", rel, "--subspace", sub,
                                 "--method", "pekarev", "--format", "text"])
    assert code == 0 and out.startswith("method: pekarev\n")
    code, out, _ = _run(capsys, ["schur", "--relation", rel, "--subspace", sub])
    assert code == 0 and json.loads(out)["method"] == "formula"

    code, out, err = _run(capsys, ["compress", "--relation", rel, "--subspace", sub,
                                   "--tol-eq", "2"])
    assert code == 2 and out == "" and err.startswith("error: eq_abs must lie in (0, 1)")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--trials"])
    assert info.value.code == 2
    assert "--trials: expected one argument" in capsys.readouterr().err

    code, out, err = _run(capsys, ["verify", "--trials", "1", "--max-dim", "2",
                                   "--samples", "0"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["trials"], report["max_dim"], report["samples"]) == (1, 2, 0)
    assert report["tolerances"]["eq_abs"] == 1e-8
    code, out, err = _run(capsys, ["verify", "--trials", "-1"])
    assert (code, out) == (2, "") and err == "error: trials must be nonnegative\n"
