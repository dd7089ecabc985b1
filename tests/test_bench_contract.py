"""The benchmark's tracer names library functions and reads their results.

``bench/tracing.py`` wraps functions by name and extracts counts from their
return values, so a library refactor can break ``bench/run.py --trace 1``
without failing any other test.  These checks load the tracer by path and
only read it.
"""

import importlib
import types
from pathlib import Path

from matchlab.envy import build_envy
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
    start = ExpansionState(0, frozenset(), {i: i for i in digraph.improvable}, {})
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
