"""Command-line behavior: output contracts, exit codes, byte-stable reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratiolab import cli
from ratiolab.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- prob


def test_prob_single_cardinality(capsys):
    code, out, err = run_cli(capsys, "prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6")
    assert code == 0 and err == ""
    assert out == "15/1001\n"


def test_prob_union_bound(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6,6,6"
    )
    assert code == 0
    assert out == "45/1001\n"


def test_prob_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "x")
    assert code == 2 and "error:" in err
    code, _, _ = run_cli(capsys, "prob", "--n", "14", "--alpha", "40", "--beta", "1", "--s", "6")
    assert code == 2


# ----------------------------------------------------------------- verify


def test_verify_decreasing_planted(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "decreasing", "--n", "8",
        "--alpha", "3", "--beta", "1", "--epsilon", "1/2", "--plant", "0,1,2",
    )
    assert code == 0
    assert "f: supermodular violations=0" in out
    assert "g: supermodular violations=0" in out
    assert "monotone(nonincreasing) violations=0" in out


def test_verify_increasing_unplanted_checks_both_sides(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "increasing", "--n", "8", "--m", "100",
        "--epsilon", "1/2",
    )
    assert code == 0
    assert out.count("supermodular violations=0") == 2
    assert "monotone(nondecreasing)" in out


def test_verify_increasing_planted_stdout_exact(capsys):
    # the criterion-9 verify command; the query counts are the full plans of
    # the three checks at n = 8: 4864 + 1280 + 256 per side
    code, out, err = run_cli(
        capsys, "verify", "--family", "increasing", "--n", "8", "--m", "100",
        "--epsilon", "1/2", "--plant-seed", "4",
    )
    assert code == 0 and err == ""
    assert out == (
        "f: supermodular violations=0, monotone(nondecreasing) violations=0, "
        "negative values=0, queries=6400\n"
        "g: supermodular violations=0, monotone(nondecreasing) violations=0, "
        "negative values=0, queries=6400\n"
    )


def test_verify_decreasing_unplanted_skips_g(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "decreasing", "--n", "6",
        "--alpha", "3", "--beta", "1",
    )
    assert code == 0
    assert "g:" not in out


def test_verify_csv_meta(tmp_path, capsys):
    out_csv = tmp_path / "v.csv"
    code, _, _ = run_cli(
        capsys, "verify", "--family", "decreasing", "--n", "6",
        "--alpha", "3", "--beta", "1", "--plant-seed", "4", "--out-csv", str(out_csv),
    )
    assert code == 0
    text = out_csv.read_text()
    assert text.startswith("# tool: ratiolab ")
    assert "# command: verify" in text
    assert '"plant": {"seed": 4}' in text
    assert text.rstrip().endswith("base_mask_hex,i,j,lhs,rhs")


# ------------------------------------------------------------------ solve


def test_solve_brute_increasing_planted(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "increasing", "--n", "8", "--m", "100",
        "--epsilon", "1/2", "--plant", "0,1,2,3",
    )
    assert code == 0
    assert "value=4/1 (approx 4)" in out
    assert "argset=[0, 1, 2, 3]" in out
    assert "mask=f" in out
    assert "queries=510" in out


def test_solve_decreasing_with_x(capsys):
    # --x 5 at n=100 derives alpha=10, beta=5, but n=100 exceeds the guard
    code, _, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "100", "--x", "5",
        "--plant-seed", "1",
    )
    assert code == 3
    assert "guard" in err
    # at n=64 the derivation gives alpha=8, beta=5; run a budgeted method
    code, out, _ = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "64", "--x", "5",
        "--plant-seed", "1", "--method", "random", "--budget", "32", "--seed", "9",
    )
    assert code == 0
    assert "method=random" in out and "queries=64" in out


def test_solve_with_x_above_the_ground_cap_exits_2(capsys):
    # the derivation is pure arithmetic; the instance constructor refuses n
    code, _, err = run_cli(capsys, "solve", "--family", "decreasing", "--n", "400", "--x", "10")
    assert code == 2
    assert err == "error: ground size must satisfy 1 <= n <= 128, got 400\n"


def test_solve_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    code, _, _ = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "8", "--alpha", "3",
        "--beta", "1", "--epsilon", "1/2", "--plant", "0,1,2", "--out-csv", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert "method,n,family,value_p,value_q,argset_hex,queries,seed" in lines
    assert "brute,8,decreasing,1,5,7,510,0" in lines


@pytest.mark.parametrize("command, printed", [
    (["verify", "--family", "decreasing", "--n", "6", "--alpha", "3", "--beta", "1", "--plant-seed", "4"], "f: "),
    (["solve", "--family", "increasing", "--n", "6"], "method=brute "),
], ids=["verify", "solve"])
def test_an_unwritable_output_file_exits_2(tmp_path, capsys, command, printed):
    # a write error is one "error:" line and exit 2, not a traceback and
    # exit 1, which would read as "verification found violations"
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, *command, "--out-csv", str(path))
    assert code == 2
    assert out.startswith(printed)
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not path.parent.exists()


def test_budget_units_match_the_help(capsys):
    # random spends two queries per sampled set, local one per budget unit
    code, out, _ = run_cli(capsys, "solve", "--family", "increasing", "--n", "6",
                           "--method", "random", "--budget", "50")
    assert code == 0 and out.endswith(" queries=100\n")
    code, out, _ = run_cli(capsys, "solve", "--family", "increasing", "--n", "10",
                           "--method", "local", "--budget", "50")
    assert code == 0 and out.endswith(" queries=50\n")
    for command in ("solve", "game"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "local: queries, two per ratio; random: sampled sets, two queries each;" in help_text


def test_solve_flag_validation(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--family", "increasing", "--n", "8", "--alpha", "3",
    )
    assert code == 2 and "decreasing family only" in err
    code, _, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "8", "--m", "5",
    )
    assert code == 2 and "increasing family only" in err
    code, _, err = run_cli(capsys, "solve", "--family", "decreasing", "--n", "8")
    assert code == 2 and "--alpha and --beta" in err
    code, _, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "8", "--alpha", "3",
        "--beta", "1", "--x", "5",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "8", "--alpha", "3",
        "--beta", "1", "--plant", "0,1,2", "--plant-seed", "4",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "8", "--alpha", "3",
        "--beta", "5",
    )
    assert code == 2  # beta + 1 <= alpha violated


def test_solve_rejects_a_repeated_plant_element(capsys):
    # 0,0,1 names three elements; collapsed to {0, 1} it would pass as alpha = 2
    code, out, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "5", "--alpha", "2",
        "--beta", "1", "--plant", "0,0,1",
    )
    assert code == 2 and out == ""
    assert "repeats an element" in err


def test_solve_missing_plant_for_decreasing_g(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--family", "decreasing", "--n", "8", "--alpha", "3", "--beta", "1",
    )
    assert code == 2
    assert "plant" in err.lower()


# ------------------------------------------------------------------- game


def test_game_summary_line(capsys):
    code, out, _ = run_cli(
        capsys, "game", "--family", "decreasing", "--n", "14", "--alpha", "4",
        "--beta", "1", "--epsilon", "1/2", "--budget", "20", "--trials", "6", "--seed", "5",
    )
    assert code == 0
    assert out.startswith("family=decreasing n=14 trials=6 distinguished=")
    assert "min_ratio=" in out and "median_ratio=" in out


def test_game_rejects_plant_flags(capsys):
    code, _, err = run_cli(
        capsys, "game", "--family", "decreasing", "--n", "8", "--alpha", "3",
        "--beta", "1", "--plant", "0,1,2", "--trials", "2", "--budget", "10",
    )
    assert code == 2
    assert "manages its own hidden sets" in err


def test_game_increasing_n1_is_a_parameter_error(capsys):
    # the n = 1 plant would be empty; exit 1 would mean "violations found"
    code, out, err = run_cli(
        capsys, "game", "--family", "increasing", "--n", "1", "--m", "10",
        "--trials", "1", "--budget", "5",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n >= 2" in err
    assert "Traceback" not in err


def test_game_csv_and_json_outputs(tmp_path, capsys):
    out_csv = tmp_path / "g.csv"
    out_json = tmp_path / "g.json"
    code, _, _ = run_cli(
        capsys, "game", "--family", "increasing", "--n", "12", "--m", "1000",
        "--epsilon", "1/100", "--budget", "60", "--trials", "4", "--seed", "3",
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    )
    assert code == 0
    text = out_csv.read_text()
    assert "# resolved_budget: 60" in text
    assert "# trial_seeds: [" in text
    header = next(line for line in text.splitlines() if not line.startswith("#"))
    assert header == ",".join(
        ["family", "n", "trial", "seed", "queries", "distinguished", "first_idx",
         "alg_value_p", "alg_value_q", "planted_opt_p", "planted_opt_q",
         "ratio_p", "ratio_q", "union_bound_p", "union_bound_q"]
    )
    assert text.count("\nincreasing,12,") == 4

    payload = json.loads(out_json.read_text())
    assert payload["family"] == "increasing"
    assert payload["trials"] == 4
    assert payload["distinguished_count"] == 0
    assert payload["min_ratio"] == "100/1"
    assert payload["resolved_budget"] == 60
    assert len(payload["trial_seeds"]) == 4
    assert payload["config"]["seed"] == 3


def test_game_exhaustion_is_an_outcome(tmp_path, capsys):
    # 400 random queries at n = 6 cover all 20 candidate plants in every
    # trial; each trial is reported as distinguished instead of exiting 2
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "game", "--family", "increasing", "--n", "6", "--m", "10", "--epsilon", "1/4",
        "--method", "random", "--budget", "400", "--trials", "3", "--out-csv", str(out_csv),
    )
    assert (code, err) == (0, "")
    assert "distinguished=3/3" in out
    rows = [line.split(",") for line in out_csv.read_text().splitlines()
            if line.startswith("increasing,")]
    assert len(rows) == 3
    for row in rows:
        assert row[5] == "true" and 0 <= int(row[6]) <= 400  # 400 entries, then the returned set
        assert row[9:11] == ["3", "1"] and row[13:15] == ["1", "1"]


def test_game_reruns_byte_identical(tmp_path, capsys):
    args = (
        "game", "--family", "decreasing", "--n", "14", "--alpha", "4", "--beta", "1",
        "--epsilon", "1/2", "--budget", "20", "--trials", "5", "--seed", "7",
    )
    first_csv, second_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    first_json, second_json = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run_cli(capsys, *args, "--out-csv", str(first_csv), "--out-json", str(first_json))
    code2, out2, _ = run_cli(capsys, *args, "--out-csv", str(second_csv), "--out-json", str(second_json))
    assert code1 == code2 == 0
    assert out1 == out2
    assert first_csv.read_bytes() == second_csv.read_bytes()
    assert first_json.read_bytes() == second_json.read_bytes()


# ------------------------------------------------------------- exit codes


def test_guard_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--family", "decreasing", "--n", "25", "--alpha", "3", "--beta", "1",
    )
    assert code == 3
    assert "guard" in err
    code, _, _ = run_cli(
        capsys, "verify", "--family", "decreasing", "--n", "8", "--alpha", "3", "--beta", "1",
    )
    assert code == 0


def test_bad_epsilon_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--family", "increasing", "--n", "8", "--epsilon", "9/10",
    )
    assert code == 2
    assert "epsilon" in err


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "sideways", "--n", "8"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ratiolab ")


# ------------------------------------------- repeated calls in one process

# Each subcommand twice, with different flags, in alternating order.
REPEATED = [
    ("solve", "--family", "increasing", "--n", "8", "--m", "100", "--epsilon", "1/2", "--plant", "0,1,2,3"),
    ("verify", "--family", "decreasing", "--n", "8", "--alpha", "3", "--beta", "1", "--plant", "0,1,2"),
    ("game", "--family", "decreasing", "--n", "14", "--alpha", "4", "--beta", "1", "--budget", "20",
     "--trials", "3", "--seed", "5"),
    ("prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6,6,6"),
    ("solve", "--family", "decreasing", "--n", "8", "--alpha", "3", "--beta", "1", "--epsilon", "1/2",
     "--plant-seed", "6", "--method", "random", "--budget", "40", "--seed", "2"),
    ("verify", "--family", "increasing", "--n", "6", "--m", "10", "--plant-seed", "4"),
    ("game", "--family", "increasing", "--n", "8", "--m", "100", "--method", "local", "--trials", "2"),
    ("prob", "--n", "20", "--alpha", "5", "--beta", "2", "--s", "4"),
]


def fresh_parser_run(capsys, argv):
    """The outputs of `main(argv)` with a parser built for this call alone."""
    build_parser.cache_clear()
    return run_cli(capsys, *argv)


def help_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_main_builds_its_parser_once(capsys):
    run_cli(capsys, *REPEATED[3])
    parser = build_parser()
    for argv in REPEATED:
        run_cli(capsys, *argv)
    assert build_parser() is parser


def test_repeated_main_calls_leak_nothing(capsys):
    expected = [fresh_parser_run(capsys, argv) for argv in REPEATED]
    assert [code for code, _, _ in expected] == [0] * len(REPEATED)
    build_parser.cache_clear()
    for _ in range(2):
        # solve --plant-seed after solve --plant must not see the earlier --plant
        assert [run_cli(capsys, *argv) for argv in REPEATED] == expected


@pytest.mark.parametrize("argv", [(), ("verify",), ("solve",), ("game",), ("prob",)])
def test_help_is_the_same_on_every_call(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    build_parser.cache_clear()
    first = help_text(capsys, (*argv, "--help"))
    second = help_text(capsys, (*argv, "--help"))
    build_parser.cache_clear()
    fresh = help_text(capsys, (*argv, "--help"))
    assert first == second == fresh
    assert first.startswith("usage: ratiolab")


def test_an_argparse_error_leaves_the_next_call_intact(capsys):
    prob = ("prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6,6,6")
    assert run_cli(capsys, *prob) == (0, "45/1001\n", "")
    for bad in (("prob", "--n", "14"), ("solve", "--family", "sideways", "--n", "8"), ("nope",)):
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert run_cli(capsys, *prob) == (0, "45/1001\n", "")


def test_commands_are_looked_up_by_name_at_call_time(capsys, monkeypatch):
    # perfbench/tracing.py rebinds cli.cmd_* after the parser may already exist
    prob = ["prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6"]
    assert main(prob) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_prob", lambda args: seen.append(args.s) or 7)
    assert main(prob) == 7
    assert seen == ["6"]
    assert capsys.readouterr().out == "15/1001\n"


def run_module(*argv):
    env = dict(os.environ, COLUMNS="100")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ratiolab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_one_shot_process(capsys, monkeypatch):
    done = run_module("prob", "--n", "14", "--alpha", "4", "--beta", "1", "--s", "6,6,6")
    assert (done.returncode, done.stdout, done.stderr) == (0, "45/1001\n", "")
    done = run_module("--help")
    assert done.returncode == 0 and done.stderr == ""
    monkeypatch.setenv("COLUMNS", "100")
    assert done.stdout == help_text(capsys, ["--help"])
