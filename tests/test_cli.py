import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchlab
from matchlab import cli, jbc, simgen, sjbc_plus
from matchlab.cli import main
from matchlab.fixtures import fixture_path
from matchlab.analysis import is_justifiable
from matchlab.da import run_da
from matchlab.eada import run_eada
from matchlab.jbc import run_jbc
from matchlab.model import (
    load_matching,
    load_problem,
    matching_from_dict,
    problem_from_dict,
    problem_to_dict,
)
from matchlab.sjbc_plus import run_sjbc_plus

from conftest import large_markets

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


@pytest.mark.parametrize(
    "command, content",
    [
        ("solve", b"\xff"),
        ("analyze", b"\xff"),
        ("solve", b"[" * 100_000),
        ("solve", b'{"students": 1' + b"0" * 5_000 + b"}"),  # past int()'s digit limit
    ],
    ids=["non-utf8-instance", "non-utf8-matching", "deep-instance", "huge-int-instance"],
)
def test_undecodable_or_deep_file_is_exit_2(tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = ["solve", "--mechanism", "da", str(bad)] if command == "solve" else ["analyze", EX1, str(bad)]
    # a real process, so an escaping exception shows as a traceback and exit 1
    env = {**os.environ, "PYTHONPATH": str(Path(matchlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "matchlab.cli", *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_large_markets_round_trip_through_files(tmp_path, capsys):
    # Quotas above one, truncated lists and both seat balances, through
    # files: each solve loads back to the in-process outcome, and analyze
    # exits by the in-process verdict, which holds for DA, JBC and SJBC+.
    eada_codes = set()
    for k, problem in enumerate(large_markets()[:6]):
        instance = tmp_path / f"market{k}.json"
        instance.write_text(json.dumps(problem_to_dict(problem)), encoding="utf-8")
        outcomes = {
            ("da",): run_da(problem)[0],
            ("jbc",): run_jbc(problem)[0],
            ("sjbc+",): run_sjbc_plus(problem),
            ("eada", "--consent", "all"): run_eada(problem, range(problem.n_students))[0],
        }
        for flags, expected in outcomes.items():
            out = tmp_path / f"market{k}-{flags[0]}.json"
            args = ("solve", "--mechanism", *flags, str(instance), "--out", str(out))
            assert run_cli(capsys, *args) == (0, "", "")
            assert load_matching(problem, out) == expected, (k, flags)
            code, _, err = run_cli(capsys, "analyze", str(instance), str(out))
            justifiable = is_justifiable(problem, expected).justifiable
            assert (code, err) == (0 if justifiable else 1, ""), (k, flags)
            if flags[0] == "eada":
                eada_codes.add(code)
            else:
                assert code == 0, (k, flags)
    assert eada_codes == {0, 1}


def test_solve_eada_named_consent(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--mechanism", "eada", "--consent", "i1,i5,i7", EX1
    )
    assert code == 0
    assert json.loads(out)["assignment"]["i1"] == "s4"


EX1_GRAPH = [
    "s1 -> s5  (mover i5)",
    "s2 -> s1  (mover i1)",
    "s3 -> s5  (mover i5)",
    "s4 -> s1  (mover i1)",
    "s5 -> s4  (mover i4)",
    "s6 -> s3  (mover i3)",
    "cycle: s1 -> s5 -> s4",
]
EX1_PHASES = [
    "expansion t=0: beneficiaries = {i1, i4, i5}",
    "expansion t=1: beneficiaries = {i1, i2, i3, i4, i5, i6}",
    "expansion t=2: beneficiaries = {i1, i2, i3, i4, i5, i6}",
]


def test_solve_jbc_graph_flag(capsys):
    code, out, err = run_cli(capsys, "solve", "--mechanism", "jbc", EX1, "--graph")
    assert code == 0
    assert "s1 -> s5" in err
    assert "cycle: s1 -> s5 -> s4" in err
    assert err == "".join(line + "\n" for line in EX1_GRAPH)
    assert json.loads(out)["assignment"]["i1"] == "s4"


def test_solve_sjbc_log_phases_flag(capsys):
    code, out, err = run_cli(capsys, "solve", "--mechanism", "sjbc+", EX1, "--log-phases")
    assert code == 0
    assert "expansion t=0: beneficiaries = {i1, i4, i5}" in err
    assert "expansion t=1" in err
    assert err == "".join(line + "\n" for line in EX1_PHASES)  # no line of JBC's run


def test_module_loggers_carry_the_flag_lines(caplog, ex1, explus):
    # The flags only show these records: a library caller at INFO gets the
    # same lines, and SJBC+ shows none of the JBC run inside its expansion.
    caplog.set_level(logging.INFO, logger="matchlab.sjbc_plus")
    run_sjbc_plus(ex1)
    assert caplog.messages == EX1_PHASES
    caplog.clear()
    run_sjbc_plus(explus)
    assert caplog.messages[-1] == "refinement cycle: i2 -> i3 -> i2"
    caplog.clear()
    caplog.set_level(logging.INFO, logger="matchlab.jbc")
    run_jbc(ex1)
    assert caplog.messages == EX1_GRAPH
    assert {(r.name, r.levelno) for r in caplog.records} == {("matchlab.jbc", logging.INFO)}


def test_flags_leave_the_module_loggers_as_found(capsys, monkeypatch):
    # Each flag raises its own module's logger to INFO with a stderr handler
    # for the call only, also when the mechanism raises.
    loggers = [logging.getLogger(name) for name in ("matchlab.jbc", "matchlab.sjbc_plus")]
    before = [(logger.level, list(logger.handlers)) for logger in loggers]
    kept, during = logging.NullHandler(), []

    def state():
        return [(logger.level, list(logger.handlers)) for logger in loggers]

    def failing(*args):
        during.append(state())
        raise RuntimeError("mechanism failed")

    try:
        for logger in loggers:
            logger.addHandler(kept)
            logger.setLevel(logging.ERROR)
        found = state()
        run_cli(capsys, "solve", "--mechanism", "jbc", EX1, "--graph")
        run_cli(capsys, "solve", "--mechanism", "sjbc+", EX1, "--log-phases")
        assert state() == found
        monkeypatch.setattr(jbc, "run_jbc", failing)
        monkeypatch.setattr(sjbc_plus, "run_sjbc_plus", failing)
        for flags in (["jbc", "--graph"], ["sjbc+", "--log-phases"]):
            with pytest.raises(RuntimeError, match="mechanism failed"):
                main(["solve", "--mechanism", *flags, EX1])
            assert state() == found
        (jbc_on, sjbc_off), (jbc_off, sjbc_on) = during
        assert (jbc_off, sjbc_off) == tuple(found)
        for (level, handlers), name in ((jbc_on, "jbc"), (sjbc_on, "sjbc+")):
            assert level == logging.INFO and handlers[0] is kept, name
            assert [type(h) for h in handlers[1:]] == [logging.StreamHandler], name
    finally:
        for logger, (level, _) in zip(loggers, before):
            logger.removeHandler(kept)
            logger.setLevel(level)
    assert state() == before


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_simulate_non_positive_jobs_is_exit_2(tmp_path, capsys, jobs):
    agg, per = tmp_path / "stats.csv", tmp_path / "per.csv"
    args = ("--n", "6", "--model", "iid", "--reps", "2", "--seed", "11", "--jobs", jobs)
    code, out, err = run_cli(
        capsys, "simulate", *args, "--out", str(agg), "--per-instance", str(per)
    )
    assert (code, out, err) == (2, "", "error: jobs must be at least 1\n")
    assert not agg.exists() and not per.exists()
    code, out, err = run_cli(capsys, "simulate", *args)
    assert (code, out, err) == (2, "", "error: jobs must be at least 1\n")


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("solve", "analyze", "trace", "envy", "oracle", "eada-orbit", "simulate"):
        assert sub in out


# SHA-256 of the stdout of `envy`, `eada-orbit` and `trace` on every fixture.
GOLDEN_STDOUT = {
    ("ex1", "envy"): "5886047c35b33d48f9e99e0e2f7420ba9e7ef031e0feb0c73030d6e14638e2cb",
    ("exd", "envy"): "37be4efbfbd9f1b900cb0a000edc98c09aeb8f982c06f078cc681e2d41791033",
    ("exe", "envy"): "045aa10ac4e6946f93c596223bd53f2e0c45bef6e08322f467ceaf064b7c4ddc",
    ("exnoeff", "envy"): "6f74a0f2d62e78d93216dcf5e7d21eda869452a40d5a021d5b4e2456487d5cfd",
    ("explus", "envy"): "32a3a332c7ad1194da50955b95a2c19fe5c9e950070016061faa4114760a8e16",
    ("ex1", "eada-orbit"): "647cd57e250f4c2fbc02ae62bb86423ff476c9db9c61514845b1978cc1127b92",
    ("ex1", "trace"): "261b9c331c0ad5ae3173caf6253e905a77ad5ccde9ca62e25949942f033457cb",
    ("exd", "eada-orbit"): "bd253d31ae5e6e92298e29da307b64ccbb410742ffd0df3e0f378a501f38df1b",
    ("exd", "trace"): "baa3f3bbd0b4ed63c16dcf5d79d8b707f0422a48c73f0700c54c894447e5690f",
    ("exe", "eada-orbit"): "4e04b9128272d6aaa1376b6fe8d8e50f3732fe8f8325e428d5657e996eac1c35",
    ("exe", "trace"): "dc9997f77ca590e4d1f668bd3ea023d96edd4d5872375813459ef5c95c471359",
    ("exnoeff", "eada-orbit"): "839ea61b39b017c2a362a57464ab020efb2f090737354466bfd45b752a4b0deb",
    ("exnoeff", "trace"): "05f34ee5fcfcbe19e7c6790bb4ff6219291911100c6278ccefd9c45c678dc42f",
    ("explus", "eada-orbit"): "f81d1166702da4fc6da8ad5e6261b6a1653725c51caab6d2806b08aa927187bc",
    ("explus", "trace"): "88a87c653ee0c7eb0c0d2edbc23fc34c4cfb488d97e4db5bda562f5330f703af",
}


@pytest.mark.parametrize("fixture, command", sorted(GOLDEN_STDOUT))
def test_fixture_stdout_is_byte_stable(capsys, fixture, command):
    code, out, _ = run_cli(capsys, command, str(fixture_path(fixture)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[fixture, command]


SOLVE_FLAGS = {"da": [], "jbc": ["--graph"], "sjbc+": ["--log-phases"], "eada": ["--consent", "all"]}

# SHA-256 of `solve`'s stderr and matching file (written with --out, so stdout stays empty).
GOLDEN_SOLVE = {
    ("ex1", "da"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "9cbedaea42cc36e3bdaf8812ff4f2b825bb7792c7395be67a9fa90d433e90ee1",
    ),
    ("ex1", "jbc"): (
        "3e21254534ed8d3f829899fe04458c8fed0bbfbec9952f24c0862231dd2ff4d5",
        "40830d01f2076c9b67986780eee51f0eb144d57e2b10cb14a0a425fc02cb1bb3",
    ),
    ("ex1", "sjbc+"): (
        "ce9510500465591047ff3133966775b37356c5d3b82b6a3d734bde3e0e3ead67",
        "0bcea378f6c2010013615e8d608cfeaabd88c3de8fcac7c2171fac666d6f9520",
    ),
    ("ex1", "eada"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "689c25c9fe097d442c2e568c6d61aa4b500332ed8c8804048ae0b8755a7a0ea9",
    ),
    ("exd", "da"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eba30b44468acbebb5f1134ae682294b0f55f96208e4e45fd417195d8b6a9ecc",
    ),
    ("exd", "jbc"): (
        "2025127f3fccc322c80c8cfeb214b8ce34eaddb6cd5ba9423a638dc49b030187",
        "ee527b2d65b44f5a694ee10d3d2f965489a687303ff0dd8fcb266915fad2c29f",
    ),
    ("exd", "sjbc+"): (
        "e39ec65dcd3ea78d651697892c080aae90d3bf9ee5e7227cd0b74dd4144fb9d1",
        "d4a05da4f02d051d4a1f8b90fca55b6e57a2ab4a4702e068fab9015300345064",
    ),
    ("exd", "eada"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "d4a05da4f02d051d4a1f8b90fca55b6e57a2ab4a4702e068fab9015300345064",
    ),
    ("exe", "da"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5d5bcc497307019717dc6cd26aec40e4b0f96cb9e7c65fc7e4db69998cc79528",
    ),
    ("exe", "jbc"): (
        "d7a5e2008f5cf47a2f4accd6cfdc626b9600e78ce99ea0afbe63a8064e0bf887",
        "ae78ba4c2cd1a1d8bd150e53e099ddb01c91bf77a3179fe3ea172637807be5f5",
    ),
    ("exe", "sjbc+"): (
        "4c358a7cd2dc2f75aca5ec566d6e6cd77d26ad67604542d1a5ecad1d04529fa5",
        "5b29cee69ff62e70630929a967b283034793f38c353e7f0f3b0c8c3ecd41d046",
    ),
    ("exe", "eada"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5b29cee69ff62e70630929a967b283034793f38c353e7f0f3b0c8c3ecd41d046",
    ),
    ("exnoeff", "da"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5d5bcc497307019717dc6cd26aec40e4b0f96cb9e7c65fc7e4db69998cc79528",
    ),
    ("exnoeff", "jbc"): (
        "d7a5e2008f5cf47a2f4accd6cfdc626b9600e78ce99ea0afbe63a8064e0bf887",
        "ae78ba4c2cd1a1d8bd150e53e099ddb01c91bf77a3179fe3ea172637807be5f5",
    ),
    ("exnoeff", "sjbc+"): (
        "a237f7f07a2fe2a76ced39ad81332e37ffc1f61a6d32fbe34f6b29fa4e932ca1",
        "ae78ba4c2cd1a1d8bd150e53e099ddb01c91bf77a3179fe3ea172637807be5f5",
    ),
    ("exnoeff", "eada"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6f8f41aa2834ad4bd89226a884f3899d1fd21d44de65f15a2e65953ce2680bb4",
    ),
    ("explus", "da"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2c38b686c0ca3438ce444866a8d77a948b7033705b35ec6a88229e9013ecf14c",
    ),
    ("explus", "jbc"): (
        "555b4904c683575a71fe71e101968b49be617679999079f6c7e62e6c0830725a",
        "dfdc85cec45e30e8a09321d4754b0ada2c2f9ef0b7b7d205ecf9e4d6ecb16433",
    ),
    ("explus", "sjbc+"): (
        "fb9bbaedb5c0b659017208a21d6dcf2cc9e582c1d0aecd4d1790be3f617f0b06",
        "dbfee6e03432cb7fc7a64d0da7a6893092a844dc9dae7fdcc8fdf49945b9d30d",
    ),
    ("explus", "eada"): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "dbfee6e03432cb7fc7a64d0da7a6893092a844dc9dae7fdcc8fdf49945b9d30d",
    ),
}


def assert_solve_golden(tmp_path, capsys, fixture, mechanism):
    out_path = tmp_path / "m.json"
    code, out, err = run_cli(
        capsys, "solve", "--mechanism", mechanism, *SOLVE_FLAGS[mechanism],
        str(fixture_path(fixture)), "--out", str(out_path),
    )
    assert (code, out) == (0, "")
    digests = (hashlib.sha256(err.encode()).hexdigest(), hashlib.sha256(out_path.read_bytes()).hexdigest())
    assert digests == GOLDEN_SOLVE[fixture, mechanism]


@pytest.mark.parametrize("fixture, mechanism", sorted(GOLDEN_SOLVE))
def test_fixture_solve_is_byte_stable(tmp_path, capsys, fixture, mechanism):
    assert_solve_golden(tmp_path, capsys, fixture, mechanism)


# SHA-256 of the stdout of `analyze` on each fixture's SJBC+ matching file.
GOLDEN_ANALYZE = {
    "ex1": "a089f5339bdb6971034bfab884abacd859bae6afa4ed636ebfdc3e01c8187713",
    "exd": "cdc71443a7f174d395d9da45e871e83563047b53f370dcb53f75922ced39c00a",
    "exe": "032377244f4ccb66fd1e298efc3e5622d1587238dc862168f647f4fa09d6992f",
    "exnoeff": "05e7cea60a6192694cf8e42460a53d8a65ea9ee9042ea214e9f85498ca18cc3e",
    "explus": "9b055f42fa7a0cf98bd03048d6fb9844aa3568076727b7b315090e791d677d25",
}


def assert_analyze_golden(tmp_path, capsys, fixture):
    instance, out_path = str(fixture_path(fixture)), tmp_path / "m.json"
    assert run_cli(capsys, "solve", "--mechanism", "sjbc+", instance, "--out", str(out_path))[0] == 0
    code, out, err = run_cli(capsys, "analyze", instance, str(out_path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ANALYZE[fixture]


@pytest.mark.parametrize("fixture", sorted(GOLDEN_ANALYZE))
def test_fixture_analyze_is_byte_stable(tmp_path, capsys, fixture):
    assert_analyze_golden(tmp_path, capsys, fixture)


def test_solve_then_analyze_builds_the_problem_once(tmp_path, capsys, monkeypatch):
    # analyze reuses the problem that solve built from the same instance
    # bytes, and answers as it does from a problem of its own.
    builds = []

    def counted(data):
        builds.append(data["students"])
        return problem_from_dict(data)

    monkeypatch.setattr("matchlab.model.problem_from_dict", counted)
    monkeypatch.setattr("matchlab.model._last_problem", None)
    assert_solve_golden(tmp_path, capsys, "ex1", "sjbc+")
    assert_analyze_golden(tmp_path, capsys, "ex1")
    assert len(builds) == 1
    monkeypatch.setattr("matchlab.model._last_problem", None)
    assert_analyze_golden(tmp_path, capsys, "ex1")
    assert len(builds) == 2


def test_rewritten_instance_is_loaded_afresh(tmp_path, capsys, monkeypatch):
    # The same path, rewritten with another market of the same byte length
    # (i1 and i7 trade places at s4), answers for the market it now holds.
    matching = tmp_path / "jbc.json"
    assert run_cli(capsys, "solve", "--mechanism", "jbc", EX1, "--out", str(matching))[0] == 0
    original = Path(EX1).read_text(encoding="utf-8")
    swapped = original.replace('"i4", "i7", "i1"', '"i4", "i1", "i7"')
    assert swapped != original and len(swapped.encode()) == len(original.encode())
    instance = tmp_path / "market.json"
    verdicts = []
    for text in (original, swapped, original):
        instance.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(instance), str(matching))
        monkeypatch.setattr("matchlab.model._last_problem", None)
        assert run_cli(capsys, "analyze", str(instance), str(matching)) == (code, out, err)
        verdicts.append(out)
    assert verdicts[0] == verdicts[2] != verdicts[1]
    assert "victim i7 at s4" in verdicts[0] and "victim i7" not in verdicts[1]


@pytest.mark.parametrize(
    "content",
    ['{"students": [', json.dumps({"students": ["a"], "schools": [{"name": "x", "quota": "z"}]})],
    ids=["bad-json", "bad-market"],
)
def test_failed_load_leaves_the_last_problem_usable(tmp_path, capsys, content):
    good = run_cli(capsys, "envy", EX1)
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    for _ in range(2):  # a failed load is not kept, so it fails again alike
        code, out, err = run_cli(capsys, "envy", str(bad))
        assert (code, out) == (2, "") and err.startswith("error: ")
    assert run_cli(capsys, "envy", EX1) == good
    assert hashlib.sha256(good[1].encode()).hexdigest() == GOLDEN_STDOUT["ex1", "envy"]


def assert_simulate_golden(tmp_path, capsys):
    agg, per = tmp_path / "stats.csv", tmp_path / "per.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--n", "20",
        "--model", "correlated",
        "--rho", "0.5",
        "--reps", "20",
        "--seed", "7",
        "--out", str(agg),
        "--per-instance", str(per),
    )
    assert code == 0
    assert hashlib.sha256(agg.read_bytes()).hexdigest() == (
        "d7ccd7d9aafa4287685762a84367bd0252536c87ace41ebb6ab68ef8f0bbae4c"
    )
    assert hashlib.sha256(per.read_bytes()).hexdigest() == (
        "1cb6451afc2ac1af328fcbddea426e980e6c25568a5b8268d54b45b3687bf95e"
    )


def test_simulate_csv_is_byte_stable(tmp_path, capsys):
    assert_simulate_golden(tmp_path, capsys)


def test_main_is_reentrant_with_one_parser(tmp_path, capsys):
    # One parser serves every call in the process: a parse that fails and a
    # command that fails leave nothing behind that changes later output.
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "6", "--model", "iid", "--reps", "2"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    # each mechanism's own flag is refused with every other mechanism
    for owner, flags in SOLVE_FLAGS.items():
        if not flags:
            continue
        for mechanism in sorted(set(SOLVE_FLAGS) - {owner}):
            code, out, err = run_cli(capsys, "solve", "--mechanism", mechanism, *flags, EX1)
            assert (code, out) == (2, "")
            assert err == f"error: {flags[0]} only applies to --mechanism {owner}\n"
    for fixture, mechanism in sorted(GOLDEN_SOLVE):
        assert_solve_golden(tmp_path, capsys, fixture, mechanism)
    for fixture in sorted(GOLDEN_ANALYZE):
        assert_analyze_golden(tmp_path, capsys, fixture)
    assert_simulate_golden(tmp_path, capsys)
    assert cli._parser() is cli._parser()


def test_simulate_csv_identical_across_jobs(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2"):
        agg, per = tmp_path / f"stats{jobs}.csv", tmp_path / f"per{jobs}.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--n", "12",
            "--model", "correlated",
            "--rho", "0.5",
            "--reps", "10",
            "--seed", "5",
            "--jobs", jobs,
            "--out", str(agg),
            "--per-instance", str(per),
        )
        assert code == 0
        outputs.append((agg.read_bytes(), per.read_bytes()))
    assert outputs[0] == outputs[1]


def test_simulate_starts_at_most_one_worker_per_replication(tmp_path, capsys, monkeypatch):
    workers = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(simgen, "ProcessPoolExecutor", SerialPool)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    # Three replications, then more replications than CPUs: the pool starts
    # at most one worker per replication and per CPU.
    for reps in (3, cpus + 2):
        outputs = []
        for jobs in ("1", "1000"):
            agg = tmp_path / f"stats{reps}-{jobs}.csv"
            args = ("--n", "8", "--model", "iid", "--reps", str(reps), "--seed", "5", "--jobs", jobs)
            assert run_cli(capsys, "simulate", *args, "--out", str(agg))[0] == 0
            outputs.append(agg.read_bytes())
        assert outputs[0] == outputs[1]
    assert workers == [min(3, cpus), cpus]


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert simgen._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simgen._usable_cpus() == 1
