import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import types

import pytest

from schreierlab import cli
from schreierlab.catalog import CACHE_ENV_VAR
from schreierlab.cli import ExperimentConfig, main, render_report, run


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_config_round_trip():
    config = ExperimentConfig(
        command="spectrum",
        group_spec="cyclic:6",
        action_spec="regular",
        multiset_spec="random:3",
        symmetrize=True,
        seed=7,
        epsilon=0.25,
        cap_order=5000,
    )
    assert ExperimentConfig(**config.to_dict()) == config


def test_report_round_trip_through_json(capsys):
    code, payload = run_json(
        ["spectrum", "--group", "cyclic:6", "--set", "random:2",
         "--symmetrize", "--seed", "4"],
        capsys,
    )
    assert code == 0
    assert ExperimentConfig(**payload["config"]).to_dict() == payload["config"]


def test_validation_rejects_missing_seed():
    config = ExperimentConfig(
        command="spectrum", group_spec="cyclic:6", multiset_spec="random:3"
    )
    with pytest.raises(ValueError):
        config.validate()


def test_validation_rejects_bad_caps():
    config = ExperimentConfig(command="theta", group_spec="cyclic:6", cap_order=0)
    with pytest.raises(ValueError):
        config.validate()


def test_spectrum_cycle_gap(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("(1 2 3 4 5 6)\n(1 6 5 4 3 2)\n", encoding="utf-8")
    code, payload = run_json(
        ["spectrum", "--group", "cyclic:6", "--set", str(path)], capsys
    )
    assert code == 0
    assert payload["results"]["gap"] == pytest.approx(0.5, abs=1e-9)
    assert payload["results"]["connected"] is True
    assert payload["results"]["bipartite"] is True


def test_spectrum_dump_matrix(tmp_path, capsys):
    s = tmp_path / "set.txt"
    s.write_text("(1 2 3 4 5 6)\n(1 6 5 4 3 2)\n", encoding="utf-8")
    dump = tmp_path / "walk.txt"
    code, payload = run_json(
        ["spectrum", "--group", "cyclic:6", "--set", str(s),
         "--dump-matrix", str(dump)],
        capsys,
    )
    assert code == 0
    lines = dump.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "6"
    assert len(lines) == 7


def test_bounds_verdicts_pass(capsys):
    code, payload = run_json(
        ["bounds", "--group", "cyclic:16", "--set", "random:3", "--symmetrize",
         "--seed", "3", "--epsilon", "0.3"],
        capsys,
    )
    assert code == 0
    names = [v["name"] for v in payload["verdicts"]]
    assert "gap-under-subgroup-bound" in names
    assert "gap-under-abelian-bound" in names
    assert all(v["passed"] for v in payload["verdicts"])


@pytest.mark.parametrize(
    "argv, verdicts",
    [
        (
            ["--group", "cyclic:16", "--set", "random:3", "--symmetrize", "--seed", "3",
             "--epsilon", "0.3"],
            [
                ("theta-range", "theta=16, omega=16"),
                ("gap-under-subgroup-bound", "gap=0.456338 vs 1.98425"),
                ("gap-under-abelian-bound", "gap=0.456338 vs 1.98425"),
                ("gap-under-nilpotent-bound", "gap=0.456338 vs 1.98425"),
                ("expanding-set-large-enough", "|S|=6 vs 1.97098"),
            ],
        ),
        (
            ["--group", "heisenberg:3", "--set", "random:4", "--seed", "2",
             "--epsilon", "0.5"],
            [
                ("theta-range", "theta=9, omega=27"),
                ("gap-under-subgroup-bound", "gap=0.316987 vs 1.66667"),
                ("gap-under-nilpotent-bound", "gap=0.316987 vs 4.53807"),
            ],
        ),
    ],
    ids=["abelian", "nilpotent"],
)
def test_bounds_verdict_names_and_details(argv, verdicts, capsys):
    code, payload = run_json(["bounds", *argv], capsys)
    assert code == 0
    assert [(v["name"], v["detail"]) for v in payload["verdicts"]] == verdicts
    assert all(v["passed"] for v in payload["verdicts"])


def test_theta_command(capsys):
    code, payload = run_json(["theta", "--group", "heisenberg:3"], capsys)
    assert code == 0
    assert payload["results"]["theta"] == pytest.approx(9.0, rel=1e-9)


def test_theta_of_an_empty_interval_fails_its_range(monkeypatch):
    # the stabilizer is in every interval, so only a broken lattice is empty
    from schreierlab import bounds

    monkeypatch.setattr(bounds, "interval_data", lambda *args, **kwargs: bounds.IntervalData())
    report = run(ExperimentConfig(command="theta", group_spec="cyclic:6"))
    assert report.results["log_theta"] == -math.inf
    [verdict] = report.verdicts
    assert verdict.name == "theta-range" and not verdict.passed
    assert not report.ok


def test_rs_induce_command(tmp_path, capsys):
    sub = tmp_path / "rot.txt"
    sub.write_text("(1 2 3 4)\n", encoding="utf-8")
    s = tmp_path / "set.txt"
    s.write_text("(2 4)\n", encoding="utf-8")
    code, payload = run_json(
        ["rs-induce", "--group", "dihedral:8", "--subgroup", str(sub),
         "--set", str(s), "--symmetrize"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["induced_size"] == 4
    assert all(v["passed"] for v in payload["verdicts"])


def test_verify_thm1_small(capsys):
    code, payload = run_json(
        ["verify-thm1", "--group", "sym:4", "--action", "natural",
         "--epsilon", "0.25", "--delta", "0.25", "--trials", "10",
         "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["sample_size"] == math.ceil(
        (math.log(4.0) / 0.0625) * math.log(32.0)
    )
    assert all(v["passed"] for v in payload["verdicts"])


def test_verify_thm1_defaults(capsys):
    code, payload = run_json(["verify-thm1", "--group", "cyclic:8", "--seed", "1"], capsys)
    assert code == 0
    results = payload["results"]
    assert (results["epsilon"], results["delta"], results["trials"]) == (0.25, 0.25, 400)
    assert len(results["lambdas"]) == 400


def test_verify_thm1_csv(capsys):
    code = main(
        ["verify-thm1", "--group", "sym:3", "--action", "natural",
         "--trials", "4", "--seed", "2", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,lambda"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


def test_verify_nilpotent_command(capsys):
    code, payload = run_json(
        ["verify-nilpotent", "--group", "heisenberg:3", "--trials", "20",
         "--seed", "9"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["nilpotency_class"] == 2
    assert payload["results"]["gap_violations"] == 0


def test_verify_nilpotent_honours_random_set_size(capsys):
    def results(m):
        code, payload = run_json(
            ["verify-nilpotent", "--group", "heisenberg:3", "--set", f"random:{m}",
             "--trials", "5", "--seed", "1"],
            capsys,
        )
        assert code == 0
        return payload["results"]

    small, large = results(3), results(8)
    assert small["instances"] == large["instances"] == 5
    assert small["worst_margin"] != large["worst_margin"]
    # heisenberg:3 has no involutions, so a symmetric sample of size 3 is
    # x, x^-1 and the identity, which generate only <x>: the derived-index
    # hypotheses never hold; samples of size 8 do generate the group
    assert small["derived_index_checked"] == 0
    assert large["derived_index_checked"] > 0


def test_verify_nilpotent_rejects_nonnilpotent(capsys):
    code = main(["verify-nilpotent", "--group", "sym:3", "--trials", "5", "--seed", "1"])
    assert code == 2
    assert "nilpotent" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cyclic:4", "heisenberg:3"])
def test_bounds_of_one_element_report_no_nilpotent_bound(name, capsys):
    # f(|S|, c) is undefined at |S| = 1; the other bounds still apply
    argv = ["bounds", "--group", name, "--set", "random:1", "--seed", "1"]
    code, payload = run_json(argv, capsys)
    assert code == 0
    results = payload["results"]
    assert results["nilpotent_bound"] is None and results["nilpotent_class"] is None
    assert results["theta"] > 1 and results["glwi_bound"] > 0
    assert (results["abelian_bound"] is not None) == (name == "cyclic:4")
    names = [v["name"] for v in payload["verdicts"]]
    assert "gap-under-nilpotent-bound" not in names and "gap-under-subgroup-bound" in names


def test_verify_nilpotent_refuses_one_element(capsys):
    code = main(["verify-nilpotent", "--group", "heisenberg:3", "--set", "random:1", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: the nilpotent bound needs |S| >= 2, and --set gives |S| = 1\n"


def test_search_counterexample_command(tmp_path, capsys):
    sub = tmp_path / "rot.txt"
    sub.write_text("(1 2 3 4)\n", encoding="utf-8")
    code, payload = run_json(
        ["search-counterexample", "--group", "dihedral:8", "--subgroup", str(sub)],
        capsys,
    )
    assert code == 0
    assert payload["results"]["witness_count"] >= 1
    assert payload["ok"] is True


def test_printed_multisets_follow_image_tuple_order(tmp_path, capsys):
    # the whole of sym:4 as the subgroup induces S itself, whose elements
    # sorted by element index would start with (1 2), not with (3 4)
    sub = tmp_path / "gens.txt"
    sub.write_text("(1 2)\n(1 2 3 4)\n", encoding="utf-8")
    s = tmp_path / "set.txt"
    s.write_text("(1 2)\n(1 2 3 4)\n(3 4) * 3\n", encoding="utf-8")
    code, payload = run_json(
        ["rs-induce", "--group", "sym:4", "--subgroup", str(sub), "--set", str(s),
         "--symmetrize"],
        capsys,
    )
    assert code == 0
    results = payload["results"]
    assert results["induced_multiset"] == [
        ["(3 4)", 6], ["(1 2)", 2], ["(1 2 3 4)", 1], ["(1 4 3 2)", 1]
    ]
    assert results["induced_multiset_text"] == "(3 4) * 6\n(1 2) * 2\n(1 2 3 4)\n(1 4 3 2)\n"


def test_unknown_group_is_a_clean_error(capsys):
    code = main(["theta", "--group", "sporadic:1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_outfile_and_csv_flatten(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["theta", "--group", "cyclic:8", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    rows = dict(
        line.rsplit(",", 1)
        for line in out.read_text(encoding="utf-8").strip().splitlines()
    )
    assert rows["results.omega"] == "8"
    assert float(rows["results.theta"]) == pytest.approx(8.0, rel=1e-12)


def test_report_determinism(tmp_path):
    args = ["bounds", "--group", "dihedral:8", "--set", "random:2",
            "--symmetrize", "--seed", "11"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = tmp_path / "a" / "report.json"
    second = tmp_path / "b" / "report.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a["config"].pop("output")
    b["config"].pop("output")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_symmetrize_without_set_is_refused(capsys):
    code = main(["verify-nilpotent", "--group", "heisenberg:3", "--symmetrize", "--seed", "1"])
    assert code == 2
    assert "error: --symmetrize needs --set" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-nilpotent", "verify-thm1"])
def test_trials_below_one_are_refused(command, capsys):
    code = main([command, "--group", "heisenberg:3", "--trials", "0", "--seed", "1"])
    assert code == 2
    assert "error: --trials must be at least 1, not 0" in capsys.readouterr().err


def test_random_set_size_must_be_an_integer(capsys):
    code = main(["spectrum", "--group", "cyclic:6", "--set", "random:abc", "--seed", "1"])
    assert code == 2
    assert "error: --set random:m needs an integer m, not 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "verify-nilpotent"])
@pytest.mark.parametrize("symmetrize", [[], ["--symmetrize"]])
@pytest.mark.parametrize("m", [0, -2])
def test_random_size_below_one_is_refused_naming_the_flag(command, symmetrize, m, capsys):
    argv = [command, "--group", "cyclic:6", "--set", f"random:{m}", "--seed", "1"]
    assert main(argv + symmetrize) == 2
    assert capsys.readouterr().err == f"error: --set random:m needs m >= 1, not {m}\n"


def test_symmetrize_is_refused_by_the_search(tmp_path, capsys):
    sub = tmp_path / "rot.txt"
    sub.write_text("(1 2 3 4)\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        main(
            ["search-counterexample", "--group", "dihedral:8", "--subgroup", str(sub),
             "--symmetrize"]
        )
    assert exit_.value.code == 2
    assert "unrecognized arguments: --symmetrize" in capsys.readouterr().err
    config = ExperimentConfig(
        command="search-counterexample", group_spec="dihedral:8", subgroup_spec=str(sub),
        symmetrize=True,
    )
    with pytest.raises(ValueError, match="^search-counterexample takes no --symmetrize$"):
        run(config)


def test_dimension_cap_binds_on_the_block_path(tmp_path, capsys):
    # alt:7 regular has 2520 points; its spectrum would be solved in blocks of 360
    gens = tmp_path / "alt7-set.txt"
    gens.write_text("degree 7\n(1 2 3)\n(1 2 3 4 5 6 7)\n", encoding="utf-8")
    code = main(
        ["spectrum", "--group", "alt:7", "--set", str(gens), "--symmetrize", "--cap-dim", "1000"]
    )
    assert code == 2
    assert "error: dimension 2520 exceeds the cap of 1000" in capsys.readouterr().err


def test_dimension_cap_binds_before_any_dense_matrix(tmp_path, capsys):
    # sym:7 regular has 5040 points: dense counts and walk take about 200 MB each
    gens = tmp_path / "sym7-set.txt"
    gens.write_text("degree 7\n(1 2)\n(1 2 3 4 5 6 7)\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["spectrum", "--group", "sym:7", "--set", str(gens), "--symmetrize"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "error: dimension 5040 exceeds the cap of 3000" in capsys.readouterr().err
    assert peak < 64 * 2**20


def test_subgroup_is_refused_where_no_command_reads_it(monkeypatch, capsys):
    from schreierlab import cli as cli_module

    parse = cli_module.config_from_args
    monkeypatch.setattr(
        cli_module,
        "config_from_args",
        lambda args: dataclasses.replace(parse(args), subgroup_spec="cyclic:2"),
    )
    code = main(["theta", "--group", "cyclic:4"])
    assert code == 2
    assert "error: theta takes no --subgroup" in capsys.readouterr().err


def test_run_requires_set_when_needed():
    config = ExperimentConfig(command="spectrum", group_spec="cyclic:6")
    with pytest.raises(ValueError):
        run(config)


def test_render_csv_uses_seventeen_digits():
    config = ExperimentConfig(command="theta", group_spec="cyclic:6", format="csv")
    report = run(config)
    text = render_report(report)
    assert f"results.log_theta,{math.log(6.0):.17g}" in text
    value = float(text.split("results.log_theta,")[1].splitlines()[0])
    assert value == math.log(6.0)


def test_failing_verdict_yields_exit_one(monkeypatch, capsys):
    from schreierlab import cli as cli_module

    def fake_runner(config, report, group, stabilizer, subgroup):
        report.results = {"note": "forced"}
        report.verdicts.append(cli_module.Verdict("forced-failure", False, "injected"))

    theta = cli_module._COMMANDS["theta"]
    monkeypatch.setitem(cli_module._COMMANDS, "theta", theta._replace(runner=fake_runner))
    code = main(["theta", "--group", "cyclic:4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False


def test_sweep_command_wiring(monkeypatch, capsys):
    from schreierlab import cli as cli_module
    from schreierlab.sweeps import CriterionResult

    fake = [
        CriterionResult("a", "first check", True, {"n": 1}, 0.1),
        CriterionResult("b", "second check", True, {"n": 2}, 0.2),
    ]
    monkeypatch.setattr(cli_module, "run_all", lambda progress=None: fake)
    code, payload = run_json(["sweep"], capsys)
    assert code == 0
    assert [v["name"] for v in payload["verdicts"]] == ["a", "b"]
    assert len(payload["results"]["criteria"]) == 2


def test_a_criterion_over_its_budget_fails_the_sweep_apart_from_its_mathematics(
    monkeypatch, capsys
):
    from schreierlab import cli as cli_module
    from schreierlab import sweeps

    # every reading of the clock is 11 s after the last: over cycle-gap's 10 s
    clock = itertools.count(0.0, 11.0)
    monkeypatch.setattr(sweeps, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(cli_module, "run_all", lambda progress=None: [sweeps.check_cycle_gap()])
    code, payload = run_json(["sweep"], capsys)
    assert [(v["name"], v["passed"]) for v in payload["verdicts"]] == [
        ("cycle-gap", True),
        ("cycle-gap-budget", False),
    ]
    budget = payload["verdicts"][1]
    assert (budget["lhs"], budget["rhs"], budget["margin"]) == (11.0, 10.0, -1.0)
    assert payload["results"]["criteria"][0]["passed"] is True
    assert code == 1
    assert main(["sweep", "--format", "csv"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [
        ["cycle-gap", "True"],
        ["cycle-gap-budget", "False"],
    ]


def test_all_symmetric_subsets_only_for_search(tmp_path, capsys):
    # the search is exhaustive: it reads no --set, so it refuses one, and
    # to any other command all-symmetric-subsets is a missing multiset file
    code = main(
        ["spectrum", "--group", "cyclic:4", "--set", "all-symmetric-subsets"]
    )
    assert code == 2
    assert "all-symmetric-subsets" in capsys.readouterr().err
    sub = tmp_path / "rot.txt"
    sub.write_text("(1 2 3 4)\n", encoding="utf-8")
    argv = ["search-counterexample", "--group", "dihedral:8", "--subgroup", str(sub)]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--set", "all-symmetric-subsets"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --set all-symmetric-subsets" in capsys.readouterr().err
    config = ExperimentConfig(
        command="search-counterexample", group_spec="dihedral:8", subgroup_spec=str(sub),
        multiset_spec="all-symmetric-subsets",
    )
    with pytest.raises(ValueError, match="^search-counterexample takes no --set$"):
        run(config)
    code, payload = run_json(argv, capsys)
    assert code == 0
    assert payload["results"]["witness_count"] >= 1


def test_sweep_csv_table(monkeypatch, capsys):
    from schreierlab import cli as cli_module
    from schreierlab.sweeps import CriterionResult

    fake = [CriterionResult("a", "first check", True, {}, 0.5)]
    monkeypatch.setattr(cli_module, "run_all", lambda progress=None: fake)
    code = main(["sweep", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "key,passed,seconds,title"
    assert out.splitlines()[1].startswith("a,True,0.5")


def test_cosets_of_action_through_cli(tmp_path, capsys):
    stab = tmp_path / "stab.txt"
    stab.write_text("(1 2)\n", encoding="utf-8")
    code, payload = run_json(
        ["spectrum", "--group", "sym:4", "--action", f"cosets-of:{stab}",
         "--set", "random:3", "--symmetrize", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["vertices"] == 12


def test_subgroup_file_mentions_only_moved_points(tmp_path, capsys):
    sub = tmp_path / "sub.txt"
    sub.write_text("(1 2)\n", encoding="utf-8")
    s = tmp_path / "set.txt"
    s.write_text("(1 2 3 4)\n", encoding="utf-8")
    code, payload = run_json(
        ["rs-induce", "--group", "sym:4", "--subgroup", str(sub),
         "--set", str(s), "--symmetrize"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["subgroup_order"] == 2
    assert payload["results"]["induced_size"] == 24


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--group", "sym:3", "--set", "{f}", "--symmetrize"],
        ["theta", "--group", "sym:3", "--action", "cosets-of:{f}"],
    ],
)
def test_group_and_multiset_files_share_the_degree_rule(argv, tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("degree 2\n(1 2 3)\n", encoding="utf-8")
    assert main([a.format(f=path) for a in argv]) == 2
    assert "declared degree 2 too small for the points used" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("(1 2) * x", "multiplicity must be a positive integer: '(1 2) * x'"),
        ("(1 2) * 0", "multiplicity must be a positive integer: '(1 2) * 0'"),
        ("(1 a)", "cannot parse cycle notation: '(1 a)'"),
    ],
)
def test_multiset_parse_errors_name_the_input(line, message, tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text(line + "\n", encoding="utf-8")
    assert main(["spectrum", "--group", "sym:3", "--set", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["spectrum", "--group", "cyclic:4", "--action", "cosets-of:{f}", "--set", "random:2", "--seed", "1"],
            "(1 2)",
            "subgroup generator (1 2) lies outside the group",
        ),
        (
            ["spectrum", "--group", "cyclic:4", "--set", "{f}"],
            "(1 2 3 4) * 2\n(1 4 3 2)",
            "multiset is not symmetric at (1 2 3 4): multiplicity 2 vs 1 for the inverse",
        ),
    ],
)
def test_errors_print_elements_in_the_input_notation(argv, text, message, tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text(text + "\n", encoding="utf-8")
    assert main([a.format(f=path) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_permutations_are_built_only_at_parse_and_print(
    tmp_path, monkeypatch, capsys, built_permutations
):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    path = tmp_path / "set.txt"
    path.write_text("(" + " ".join(map(str, range(1, 1025))) + ")\n", encoding="utf-8")
    spectrum = ["spectrum", "--group", "cyclic:1024", "--set", str(path), "--symmetrize"]
    assert main(spectrum) == 0  # fills the cache
    assert (tmp_path / "cache" / "cyclic_1024.npy").exists()
    for argv in (spectrum, ["theta", "--group", "sym:5"]):
        built_permutations.clear()
        assert main(argv) == 0
        assert len(built_permutations) <= 16, argv
    capsys.readouterr()


# A value other than the default for every field a flag sets.
FLAG_VALUES = {
    "group_spec": "cyclic:4",
    "action_spec": "natural",
    "multiset_spec": "random:2",
    "subgroup_spec": "cyclic:4",
    "symmetrize": True,
    "epsilon": 0.5,
    "delta": 0.5,
    "trials": 2,
    "seed": 1,
    "output": "report.json",
    "format": "csv",
    "cap_order": 10,
    "cap_dim": 10,
    "cap_subgroups": 10,
    "dump_matrix_path": "walk.txt",
}
UNREAD = [
    (name, field)
    for name, command in cli._COMMANDS.items()
    for field in cli._FLAGS
    if field not in command.reads
]


def test_every_flag_has_a_value_in_the_table():
    assert set(FLAG_VALUES) == set(cli._FLAGS) == {
        f.name for f in dataclasses.fields(ExperimentConfig)
    } - {"command"}


def _argv(field, value):
    flag = cli._FLAGS[field][0]
    return [flag] if value is True else [flag, str(value)]


@pytest.mark.parametrize("name, field", UNREAD)
def test_a_flag_the_command_does_not_read_is_refused(name, field, capsys):
    required = {f: FLAG_VALUES[f] for f in ("group_spec", "subgroup_spec")
                if f in cli._COMMANDS[name].reads}
    extra = _argv(field, FLAG_VALUES[field])
    with pytest.raises(SystemExit) as exit_:
        main([name, *(a for f, v in required.items() for a in _argv(f, v)), *extra])
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(extra)}\n" in capsys.readouterr().err
    config = ExperimentConfig(name, **required, **{field: FLAG_VALUES[field]})
    with pytest.raises(ValueError, match=f"^{name} takes no {extra[0]}$"):
        run(config)


def test_the_parser_is_built_once_and_survives_a_rejected_call(capsys):
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exit_:
        main(["theta", "--group", "cyclic:4", "--seed", "1"])
    assert exit_.value.code == 2
    assert "error: unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["theta", "--group", "cyclic:4", "--format", "csv"]) == 0
    assert f"results.log_theta,{math.log(4.0):.17g}" in capsys.readouterr().out
    assert main(["theta", "--group", "cyclic:6"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["format"] == "json"


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_help_lists_exactly_the_flags_the_command_reads(name, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([name, "--help"])
    assert exit_.value.code == 0
    listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)) - {"--help"}
    assert listed == {cli._FLAGS[f][0] for f in cli._COMMANDS[name].reads}


@pytest.mark.parametrize("flag", [["--trials", "3"], ["--seed", "1"]])
def test_a_file_multiset_draws_nothing(flag, tmp_path, capsys):
    s = tmp_path / "set.txt"
    s.write_text("(1 2 3)\n", encoding="utf-8")
    argv = ["verify-nilpotent", "--group", "cyclic:3", "--set", str(s), *flag]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: verify-nilpotent takes no {flag[0]} without --set random:m\n"
    )


def test_verify_thm1_honours_a_cap_below_the_action(capsys):
    argv = ["verify-thm1", "--group", "sym:4", "--trials", "1", "--seed", "1", "--cap-dim", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: dimension 24 exceeds the cap of 3\n"


def test_verify_thm1_passes_a_cap_above_the_default_to_the_eigensolve(monkeypatch, capsys):
    from schreierlab import montecarlo

    caps = []
    summary = montecarlo.spectral_summary

    def recorded(graph, dim_cap):
        caps.append(dim_cap)
        return summary(graph, dim_cap=dim_cap)

    monkeypatch.setattr(montecarlo, "spectral_summary", recorded)
    argv = ["verify-thm1", "--group", "sym:3", "--trials", "2", "--seed", "1", "--cap-dim", "6000"]
    code, payload = run_json(argv, capsys)
    assert code == 0
    assert caps == [6000, 6000]
    assert payload["config"]["cap_dim"] == 6000


@pytest.mark.parametrize("kind", ["file", "catalog name"])
def test_subgroup_and_cosets_of_resolve_the_same_subgroup(kind, tmp_path, monkeypatch):
    spec = "dihedral:8"
    if kind == "file":
        spec = tmp_path / "sub.txt"
        spec.write_text("(1 3)\n(1 2 3 4)\n", encoding="utf-8")
    seen = {}

    def fake_runner(config, report, group, stabilizer, subgroup):
        seen.update(group=group, stabilizer=stabilizer, subgroup=subgroup)

    rs_induce = cli._COMMANDS["rs-induce"]
    monkeypatch.setitem(cli._COMMANDS, "rs-induce", rs_induce._replace(runner=fake_runner))
    run(ExperimentConfig(
        "rs-induce", group_spec="sym:4", action_spec=f"cosets-of:{spec}", subgroup_spec=str(spec),
    ))
    group = seen["group"]
    assert seen["subgroup"].order == 8
    assert group.indices_of(seen["subgroup"]) == group.indices_of(seen["stabilizer"])


def test_a_subgroup_spec_of_another_degree_is_refused(capsys):
    argv = ["theta", "--group", "sym:4", "--action", "cosets-of:sym:3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: subgroup 'sym:3' has degree 3, not the group's degree 4\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["theta", "--group", "{missing}"],
        ["theta", "--group", "sym:4", "--action", "cosets-of:{missing}"],
        ["rs-induce", "--group", "sym:4", "--subgroup", "{missing}",
         "--set", "random:2", "--seed", "1"],
    ],
)
def test_a_missing_file_is_named_as_neither_file_nor_catalog_name(args, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    argv = [a.format(missing=missing) for a in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing!r} is neither a file nor a catalog name")


def test_a_subgroup_is_closed_only_inside_its_group(tmp_path, monkeypatch, capsys):
    from schreierlab import catalog

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    closures = []
    closure = catalog.group_from_generators

    def recorded(generators, cap):
        closures.append(generators)
        return closure(generators, cap=cap)

    monkeypatch.setattr(catalog, "group_from_generators", recorded)
    sub = tmp_path / "rot.txt"
    sub.write_text("(1 2 3 4)\n", encoding="utf-8")
    s = tmp_path / "set.txt"
    s.write_text("(2 4)\n", encoding="utf-8")
    code, payload = run_json(
        ["rs-induce", "--group", "dihedral:8", "--subgroup", str(sub), "--set", str(s)], capsys
    )
    assert code == 0
    assert payload["results"]["subgroup_order"] == 4
    assert len(closures) == 1 and closures[0] == catalog.catalog_generators("dihedral:8")
