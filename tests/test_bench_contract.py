"""The benchmark's tracer names library functions and reads their results.

``bench/tracing.py`` wraps functions by name and extracts counts from their
return values, so a library refactor can break ``bench/run.py --trace 1``
without failing any other test.  These checks load the tracer by path and
only read it.
"""

import importlib
import types
from pathlib import Path

from matchlab import cli
from matchlab.envy import build_envy
from matchlab.fixtures import fixture_path
from matchlab.model import Problem
from matchlab.sjbc_plus import ExpansionState

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    # Executed from source so that no bytecode cache is written under bench/.
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


def test_traced_functions_exist():
    tracing = load_tracing()
    for layer, functions in tracing.TRACED.items():
        home = importlib.import_module(f"matchlab.{layer}")
        for name in functions:
            assert callable(getattr(home, name, None)), f"matchlab.{layer}.{name}"
    assert callable(Problem.__post_init__)


def test_count_extractors_accept_live_results(ex1):
    tracing = load_tracing()
    digraph = build_envy(ex1)
    start = ExpansionState(frozenset(), {i: i for i in digraph.improvable})
    args = {
        "da.run_da": (ex1,),
        "envy.build_envy": (ex1,),
        "jbc.run_jbc": (ex1,),
        "sjbc_plus.run_expansion": (ex1,),
        "sjbc_plus.expansion_step": (ex1, start),
        "eada.run_eada": (ex1, range(ex1.n_students)),
    }
    counts = {}
    for layer, functions in tracing.TRACED.items():
        home = importlib.import_module(f"matchlab.{layer}")
        for name, extract in functions.items():
            if extract is None:
                continue
            key = f"{layer}.{name}"
            counts[key] = extract(getattr(home, name)(*args[key]), args[key])
            assert all(isinstance(v, int) for v in counts[key].values()), key
    assert counts["envy.build_envy"]["edges"] == sum(map(len, digraph.edges.values()))
    assert counts["jbc.run_jbc"]["cycles"] == 1
    assert counts["sjbc_plus.expansion_step"]["k"] == len(digraph.improvable)
    assert counts["da.run_da"]["rounds"] == 13
    assert counts["da.run_da"]["proposals"] > 0
    assert counts["eada.run_eada"]["deleted_pairs"] > 0


def test_tracer_sees_the_cli_loads(tmp_path, capsys, monkeypatch):
    # The CLI loads instances through model.load_problem, so both loads are
    # spans; analyze gets back the problem solve built, so one build.
    tracing = load_tracing()
    monkeypatch.setattr("matchlab.model._last_problem", None)
    instance, out = str(fixture_path("ex1")), str(tmp_path / "m.json")
    with tracing.Tracer().installed() as tracer:
        assert cli.main(["solve", "--mechanism", "sjbc+", instance, "--out", out]) == 0
        assert cli.main(["analyze", instance, out]) == 0
    capsys.readouterr()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("model.load_problem") == 2
    assert names.count(tracing.PROBLEM_BUILD) == 1
    assert names.count("model.load_matching") == 1
