import json

import pytest

from matchlab.cli import main
from matchlab.fixtures import fixture_path
from matchlab.model import load_problem, matching_from_dict

EX1 = str(fixture_path("ex1"))
EXNOEFF = str(fixture_path("exnoeff"))


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sjbc_plus_emits_expected_matching(capsys):
    code, out, _ = run_cli(capsys, "solve", "--mechanism", "sjbc+", EX1)
    assert code == 0
    problem = load_problem(EX1)
    matching = matching_from_dict(problem, json.loads(out))
    expected = {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
    assert json.loads(out)["assignment"] == expected
    assert matching.assignment[problem.student_id("i1")] == problem.school_id("s2")


def test_solve_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--mechanism", "da", "missing.json")
    assert code == 2
    assert "error:" in err


def test_solve_malformed_instance_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    instance = {
        "students": ["a"],
        "schools": [{"name": "x", "quota": "z"}],
        "prefs": {"a": ["x"]},
        "priorities": {"x": ["a"]},
    }
    bad.write_text(json.dumps(instance))
    code, _, err = run_cli(capsys, "solve", "--mechanism", "da", str(bad))
    assert code == 2
    assert "error:" in err


def test_solve_round_trips_through_analyze(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    code, _, _ = run_cli(capsys, "solve", "--mechanism", "jbc", EX1, "--out", str(out_path))
    assert code == 0
    first = out_path.read_bytes()
    run_cli(capsys, "solve", "--mechanism", "jbc", EX1, "--out", str(out_path))
    assert out_path.read_bytes() == first  # byte-stable output
    code, out, _ = run_cli(capsys, "analyze", EX1, str(out_path))
    assert code == 0
    assert "justifiable: True" in out


def test_analyze_eada_full_outcome_exits_1(tmp_path, capsys):
    out_path = tmp_path / "eada.json"
    code, _, _ = run_cli(
        capsys, "solve", "--mechanism", "eada", "--consent", "all", EX1, "--out", str(out_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", EX1, str(out_path))
    assert code == 1
    assert "justifiable: False" in out
    assert "improvable-non-beneficiary" in out


def test_solve_eada_named_consent(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--mechanism", "eada", "--consent", "i1,i5,i7", EX1
    )
    assert code == 0
    assert json.loads(out)["assignment"]["i1"] == "s4"


def test_solve_jbc_graph_flag(capsys):
    code, out, err = run_cli(capsys, "solve", "--mechanism", "jbc", EX1, "--graph")
    assert code == 0
    assert "s1 -> s5" in err
    assert "cycle: s1 -> s5 -> s4" in err
    assert json.loads(out)["assignment"]["i1"] == "s4"


def test_solve_sjbc_log_phases_flag(capsys):
    code, out, err = run_cli(capsys, "solve", "--mechanism", "sjbc+", EX1, "--log-phases")
    assert code == 0
    assert "expansion t=0: beneficiaries = {i1, i4, i5}" in err
    assert "expansion t=1" in err


def test_consent_with_other_mechanism_is_an_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--mechanism", "da", "--consent", "all", EX1)
    assert code == 2
    assert "consent" in err


def test_trace_layout(capsys):
    code, out, _ = run_cli(capsys, "trace", EX1)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:3] == ["round", "s1", "s2"]
    assert len([l for l in lines[1:] if l.startswith("r")]) == 13
    assert "i6*" in lines[1]  # i6 rejected from s4 in round 1


def test_envy_output(capsys):
    code, out, _ = run_cli(capsys, "envy", EX1)
    assert code == 0
    assert "i1 -> i6 [i3,i5]" in out
    assert "i1 -> i4 []" in out
    assert "improvable: ['i1', 'i2', 'i3', 'i4', 'i5', 'i6']" in out


def test_oracle_cli(capsys):
    code, out, _ = run_cli(capsys, "oracle", EXNOEFF)
    assert code == 0
    assert "justifiable family size: 1" in out
    assert "justifiable and efficient: 0" in out
    assert "FAILED" not in out


def test_oracle_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "oracle", EX1, "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_eada_orbit_cli(capsys):
    code, out, _ = run_cli(capsys, "eada-orbit", EX1)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 128
    assert lines[0].startswith("W={-}")


def test_simulate_writes_csv(tmp_path, capsys):
    agg = tmp_path / "stats.csv"
    per = tmp_path / "per.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--n", "6",
        "--model", "iid",
        "--reps", "4",
        "--seed", "11",
        "--out", str(agg),
        "--per-instance", str(per),
    )
    assert code == 0
    header, *rows = agg.read_text().strip().splitlines()
    assert header == "mechanism,metric,mean,stderr"
    assert len(rows) == 16  # 4 mechanisms x 4 metrics
    per_rows = per.read_text().strip().splitlines()
    assert per_rows[0] == "replication,mechanism,metric,value"
    assert len(per_rows) == 1 + 4 * 16


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "6", "--model", "iid", "--reps", "2"])
    assert exc.value.code == 2


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("solve", "analyze", "trace", "envy", "oracle", "eada-orbit", "simulate"):
        assert sub in out


def test_fixture_dir_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MATCHLAB_FIXTURES", str(tmp_path))
    from matchlab.fixtures import fixture_path as fp

    assert str(fp("ex1")).startswith(str(tmp_path))
    monkeypatch.delenv("MATCHLAB_FIXTURES")
