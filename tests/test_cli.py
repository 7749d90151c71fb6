"""Command-line scenarios: reports, exit codes, determinism."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from tropgrass import g36, treespace
from tropgrass.cli import build_parser, run
from tropgrass.pvector import PlueckerVector, basis_vector, phi
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



def test_groebner_degree_of_a_g36_initial_ideal(tmp_path):
    """in_w(I_{3,6}) is a flat degeneration of I_{3,6}: degree 42."""
    w_path = tmp_path / "w.json"
    w_path.write_text(g36.facet_cone_sample("FFGG").to_json())
    out = tmp_path / "report.json"
    code = run(["groebner", "degree", "--d", "3", "--n", "6",
                "--w", str(w_path), "--output", str(out)])
    assert code == 0
    assert load_report(out)["degree"] == 42

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


@pytest.mark.parametrize("action", ["initial", "monomial-free", "degree"])
def test_infinite_weight_is_a_usage_error(action, tmp_path, capsys):
    w_path = tmp_path / "w.json"
    w_path.write_text('{"d": 2, "n": 4, "coords": {"12": "1", "24": "inf"}}')
    argv = ["groebner", action, "--d", "2", "--n", "4", "--w", str(w_path)]
    assert run(argv + ["--output", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == (
        "error: weight entry 5 of 6 is inf; a term order needs finite weights\n")
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


# -- the subcommand table ------------------------------------------------

BUDGET_READERS = {
    ("treespace", "verify-initial"), ("g36", "verify"), ("char7", "demo"),
    ("sagbi", "demo"), ("groebner", "initial"), ("groebner", "monomial-free"),
    ("groebner", "degree"), ("groebner", "intersect"),
}
SEED_READERS = {("treespace", "verify-initial"), ("char7", "demo")}


def parser_pairs():
    """Every (group, action) pair that build_parser knows."""
    def choices(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {(g, a) for g, gp in choices(build_parser()).items() for a in choices(gp)}


def minimal_argv(tmp_path, group, action):
    """The cheapest complete argv for a (group, action) pair."""
    w6 = str(snowflake_w_file(tmp_path))
    w4 = tmp_path / "w4.json"
    w4.write_text(PlueckerVector(2, 4, {(1, 3): -1, (2, 4): -1}).to_json())
    groebner = ["--d", "2", "--n", "4", "--w", str(w4)]
    rest = {
        ("tree", "reconstruct"): ["--input", str(snowflake_csv(tmp_path))],
        ("treespace", "stats"): ["--n", "5"],
        ("treespace", "verify-initial"): ["--n", "4", "--trials", "1"],
        ("g36", "verify"): [],
        ("plane", "type"): ["--w", w6],
        ("plane", "member"): ["--w", w6, "--point", "0,0,0,1,2,4"],
        ("plane", "dual"): ["--w", w6],
        ("plane", "reconstruct"): ["--w", w6],
        ("groebner", "initial"): groebner,
        ("groebner", "monomial-free"): groebner,
        ("groebner", "degree"): groebner,
        ("groebner", "intersect"): groebner + ["--w2", str(w4)],
        ("char7", "demo"): ["--char", "0"],
        ("sagbi", "demo"): [],
    }[group, action]
    return [group, action] + rest


def test_parser_knows_the_fourteen_subcommands():
    assert len(parser_pairs()) == 14
    assert BUDGET_READERS | SEED_READERS <= parser_pairs()


@pytest.mark.parametrize("group, action", sorted(parser_pairs()))
def test_report_names_its_subcommand(group, action, tmp_path):
    out = tmp_path / "report.json"
    assert run(minimal_argv(tmp_path, group, action) + ["--output", str(out)]) == 0
    assert load_report(out)["subcommand"] == f"{group} {action}"


@pytest.mark.parametrize("action, drop", [
    ("initial", "--w"), ("monomial-free", "--w"), ("intersect", "--w"),
    ("intersect", "--w2"),
])
def test_missing_groebner_weight_is_a_usage_error(action, drop, tmp_path, capsys):
    argv = minimal_argv(tmp_path, "groebner", action)
    i = argv.index(drop)
    del argv[i:i + 2]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tropgrass groebner ") and drop in err


@pytest.mark.parametrize("group, action", sorted(parser_pairs()))
def test_only_the_options_a_subcommand_reads_are_accepted(group, action, tmp_path, capsys):
    argv = minimal_argv(tmp_path, group, action)
    for option, readers in (("--budget", BUDGET_READERS), ("--seed", SEED_READERS)):
        if (group, action) in readers:
            assert build_parser().parse_args(argv + [option, "1"])
        else:
            assert run(argv + [option, "1"]) == 1
            assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_plane_dual_past_nine_leaves(tmp_path):
    w_path = tmp_path / "w.json"
    w = phi(range(10), 2) + basis_vector(2, 10, (1, 10))
    w_path.write_text(w.to_json())
    out = tmp_path / "report.json"
    assert run(["plane", "dual", "--w", str(w_path), "--output", str(out)]) == 0
    dual = PlueckerVector.from_json(json.dumps(load_report(out)["dual"]))
    assert (dual.d, dual.n) == (8, 10)
    assert dual[tuple(range(2, 10))] == w[(1, 10)] == 10


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    seen = set()
    for line in block.splitlines():
        if line.startswith("tropgrass "):
            args = build_parser().parse_args(shlex.split(line)[1:])
            seen.add((args.group, args.action))
    assert seen == parser_pairs()


@pytest.mark.parametrize("n, point, circuit", [
    (10, "0,0,0,0,0,0,0,0,5,9", "1,9,10"),
    (6, "0,0,0,1,2,4", "145"),
])
def test_plane_member_names_the_circuit_by_its_leaves(n, point, circuit, tmp_path):
    """Digits up to nine leaves, as before; past nine, leaves joined by
    commas, as in the JSON coordinate keys."""
    w_path = tmp_path / "w.json"
    w_path.write_text(basis_vector(2, n, (1, 2)).to_json())
    out = tmp_path / "report.json"
    assert run(["plane", "member", "--w", str(w_path), f"--point={point}",
                "--output", str(out)]) == 0
    report = load_report(out)
    assert report["member"] is False
    assert report["violating_circuit"] == circuit


def test_g36_facet_census_claim_is_a_json_object(tmp_path):
    from tropgrass import g36

    out = tmp_path / "report.json"
    assert run(["g36", "verify", "--output", str(out)]) == 0
    claim = next(c for c in load_report(out)["claims"] if c["name"] == "facet_census")
    census = g36.facet_census(g36.build_g36())
    assert claim["expected"] == census
    assert claim["actual"] == census


@pytest.mark.parametrize("point", ["-3,1,2,0,1,2", "-1/2,0,0,1,2,4"])
def test_plane_member_reads_a_negative_point_in_both_forms(point, tmp_path, capsys):
    w_path = snowflake_w_file(tmp_path)
    spaced, glued = tmp_path / "spaced.json", tmp_path / "glued.json"
    common = ["plane", "member", "--w", str(w_path)]
    assert run([*common, "--point", point, "--output", str(spaced)]) == 0
    assert run([*common, f"--point={point}", "--output", str(glued)]) == 0
    assert spaced.read_bytes() == glued.read_bytes()
    assert capsys.readouterr().err == ""
