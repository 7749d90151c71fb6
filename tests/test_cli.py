"""Command-line scenarios: reports, exit codes, determinism."""

import json

import pytest

from tropgrass import treespace
from tropgrass.cli import run
from tropgrass.pvector import PlueckerVector, basis_vector
from tropgrass.treespace import SemiLabeledTree, Split, tree_to_plucker


def snowflake_csv(tmp_path):
    t = SemiLabeledTree(
        6, {Split(6, {1, 2}): 1, Split(6, {3, 4}): 2, Split(6, {5, 6}): 3}
    )
    w = tree_to_plucker(t)
    path = tmp_path / "dist.csv"
    path.write_text(treespace.dissimilarity_to_csv(w))
    return path


def snowflake_w_file(tmp_path):
    w = (
        basis_vector(2, 6, (1, 2))
        + basis_vector(2, 6, (3, 4))
        + basis_vector(2, 6, (5, 6))
    )
    path = tmp_path / "w.json"
    path.write_text(w.to_json())
    return path


def load_report(path):
    return json.loads(path.read_text())


def test_tree_reconstruct(tmp_path):
    csv_path = snowflake_csv(tmp_path)
    out = tmp_path / "report.json"
    code = run(
        ["tree", "reconstruct", "--input", str(csv_path), "--output", str(out)]
    )
    assert code == 0
    report = load_report(out)
    assert all(c["pass"] for c in report["claims"])
    assert report["newick"].endswith(";")
    assert len(report["splits"]["splits"]) == 3


def test_tree_reconstruct_non_tree_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "0,10,2,2\n10,0,2,2\n2,2,0,10\n2,2,10,0\n"
    )
    out = tmp_path / "report.json"
    code = run(["tree", "reconstruct", "--input", str(path), "--output", str(out)])
    assert code == 2
    report = load_report(out)
    assert report["violating_quadruple"] == [1, 2, 3, 4]


def test_tree_reconstruct_missing_file(tmp_path):
    assert run(["tree", "reconstruct", "--input", str(tmp_path / "nope.csv")]) == 1


def test_usage_error():
    assert run(["tree"]) == 1
    assert run(["no-such-group"]) == 1


def test_treespace_stats(tmp_path):
    out = tmp_path / "report.json"
    assert run(["treespace", "stats", "--n", "6", "--output", str(out)]) == 0
    report = load_report(out)
    assert report["f_vector"] == [25, 105, 105]


def test_treespace_verify_initial(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        [
            "treespace", "verify-initial", "--n", "5", "--char", "2",
            "--trials", "2", "--seed", "3", "--output", str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    assert len(report["claims"]) == 2 and all(c["pass"] for c in report["claims"])


def test_plane_type_and_dual_and_member(tmp_path):
    w_path = snowflake_w_file(tmp_path)
    out = tmp_path / "report.json"
    assert run(["plane", "type", "--w", str(w_path), "--output", str(out)]) == 0
    report = load_report(out)
    assert "12|3456" in report["types"]
    assert report["bounded"] == ["1234|56", "1256|34", "12|3456"]

    assert run(["plane", "dual", "--w", str(w_path), "--output", str(out)]) == 0
    report = load_report(out)
    assert report["dual"]["d"] == 4

    assert (
        run(
            [
                "plane", "member", "--w", str(w_path),
                "--point", "100,1,0,0,0,0", "--output", str(out),
            ]
        )
        == 0
    )
    report = load_report(out)
    assert report["member"] is True
    assert (
        run(
            [
                "plane", "member", "--w", str(w_path),
                "--point", "0,0,0,1,2,4", "--output", str(out),
            ]
        )
        == 0
    )
    assert load_report(out)["member"] is False


def test_plane_reconstruct(tmp_path):
    w_path = snowflake_w_file(tmp_path)
    out = tmp_path / "report.json"
    assert run(["plane", "reconstruct", "--w", str(w_path), "--output", str(out)]) == 0
    report = load_report(out)
    assert all(c["pass"] for c in report["claims"])


@pytest.mark.parametrize("d, n", [(1, 4), (4, 4)])
def test_plane_reconstruct_rejects_d_outside_range(d, n, tmp_path, capsys):
    w_path = tmp_path / "w.json"
    w_path.write_text(PlueckerVector(d, n, {}).to_json())
    assert run(["plane", "reconstruct", "--w", str(w_path)]) == 1
    assert capsys.readouterr().err == "error: reduce_mod_phi needs 2 <= d < n\n"


def test_groebner_degree_and_budget(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["groebner", "degree", "--d", "2", "--n", "5", "--output", str(out)]
    )
    assert code == 0
    assert load_report(out)["degree"] == 5
    # an absurdly small budget reports exhaustion distinctly (exit 1)
    code = run(
        [
            "groebner", "degree", "--d", "3", "--n", "6",
            "--budget", "1", "--output", str(out),
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["treespace", "verify-initial", "--n", "6", "--budget", "3"], 3),
        (["sagbi", "demo", "--budget", "50"], 50),
    ],
)
def test_budget_exhaustion_is_reported(argv, budget, tmp_path, capsys):
    assert run(argv + ["--output", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"budget exhausted: S-pair budget {budget} exhausted\n"


def test_groebner_initial_with_weight(tmp_path):
    w = PlueckerVector(2, 4, {(1, 3): -1, (2, 4): -1})
    w_path = tmp_path / "w.json"
    w_path.write_text(w.to_json())
    out = tmp_path / "report.json"
    code = run(
        [
            "groebner", "initial", "--d", "2", "--n", "4",
            "--w", str(w_path), "--output", str(out),
        ]
    )
    assert code == 0
    assert load_report(out)["generators"] == ["p_13*p_24"]


@pytest.mark.parametrize("action", ["initial", "monomial-free", "degree"])
@pytest.mark.parametrize("n", [4, 6])
def test_weight_of_another_grassmannian_is_a_usage_error(action, n, tmp_path, capsys):
    w_path = tmp_path / "w.json"
    w_path.write_text(basis_vector(2, n, (1, 3)).to_json())
    argv = ["groebner", action, "--d", "2", "--n", "5", "--w", str(w_path)]
    assert run(argv + ["--output", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == (
        "error: weight length does not match variable count\n")
    assert not (tmp_path / "report.json").exists()


def test_weight_file_with_unsorted_key_is_a_usage_error(tmp_path, capsys):
    w_path = tmp_path / "w.json"
    w_path.write_text('{"d": 2, "n": 4, "coords": {"12": "1", "31": "2"}}')
    assert run(["plane", "dual", "--w", str(w_path)]) == 1
    assert capsys.readouterr().err == (
        "error: coordinate key (3, 1) is not a sorted 2-subset of 1..4\n")


def test_char7_demo_char0(tmp_path):
    out = tmp_path / "report.json"
    code = run(["char7", "demo", "--char", "0", "--output", str(out)])
    assert code == 0
    report = load_report(out)
    assert report["initial_form_of_special_cubic"] == "2*p_123*p_467*p_567"
    assert report["monomial_free"] is False
    assert report["witness"]


def test_reports_are_deterministic(tmp_path):
    w_path = snowflake_w_file(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["plane", "type", "--w", str(w_path), "--output", str(a)]) == 0
    assert run(["plane", "type", "--w", str(w_path), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_report(capsys):
    assert run(["treespace", "stats", "--n", "4"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    # T_4 is three isolated vertices, each its own facet
    assert report["f_vector"] == [3]


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("TROPGRASS_BUDGET", "1")
    out = tmp_path / "report.json"
    code = run(["groebner", "degree", "--d", "3", "--n", "6", "--output", str(out)])
    assert code == 1
