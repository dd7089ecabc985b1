"""Any mutation of a fixture's instance file, of its bytes, or of a matching
file exits 0 or 2 from every CLI subcommand that reads it (1 only for an
unjustifiable matching), never a traceback."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

from matchlab.cli import main
from matchlab.fixtures import fixture_path

from conftest import assert_loads_as_parsed

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RAW = {name: fixture_path(name).read_bytes() for name in ("ex1", "exd", "exe", "exnoeff", "explus")}
FIXTURES = {name: json.loads(raw.decode("utf-8")) for name, raw in RAW.items()}
FIELDS = ("students", "schools", "prefs", "priorities")
# The subcommands that read only an instance; the oracle's budget keeps it quick.
INSPECTORS = (["trace"], ["envy"], ["eada-orbit"], ["oracle", "--budget", "200000"])

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _names(data, field):
    """Names already present in the file, to reuse as repeats."""
    if field == "schools":
        entries = data.get("schools")
        return [e.get("name") for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []
    names = data.get("students")
    return list(names) if isinstance(names, list) else []


@st.composite
def mutated_instances(draw):
    data = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop-key", "retype-key", "school", "row", "student"]))
        if kind == "drop-key":
            data.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "retype-key":
            data[draw(st.sampled_from(FIELDS))] = draw(junk)
        elif kind == "school" and isinstance(data.get("schools"), list) and data["schools"]:
            entry = draw(st.sampled_from(data["schools"]))
            if isinstance(entry, dict):
                key = draw(st.sampled_from(["name", "quota"]))
                if draw(st.booleans()):
                    entry.pop(key, None)
                else:
                    entry[key] = draw(junk | st.sampled_from(_names(data, "schools") or [0]))
        elif kind == "row":
            field = draw(st.sampled_from(["prefs", "priorities"]))
            rows = data.get(field)
            if isinstance(rows, dict) and rows:
                key = draw(st.sampled_from(sorted(rows)))
                row = rows[key]
                pool = _names(data, "schools" if field == "prefs" else "students") or ["zz"]
                bad = draw(junk | st.sampled_from(pool + ["zz"]))
                action = draw(st.sampled_from(["replace-row", "drop-row", "append", "set-item"]))
                if action == "replace-row":
                    rows[key] = bad
                elif action == "drop-row":
                    del rows[key]
                elif isinstance(row, list):
                    if action == "append" or not row:
                        row.append(draw(st.sampled_from(row)) if row and draw(st.booleans()) else bad)
                    else:
                        row[draw(st.integers(0, len(row) - 1))] = bad
        elif kind == "student" and isinstance(data.get("students"), list) and data["students"]:
            pool = data["students"]
            if draw(st.booleans()):
                pool.append(draw(st.sampled_from(pool)))
            else:
                pool[draw(st.integers(0, len(pool) - 1))] = draw(junk)
    return data


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=mutated_instances())
def test_mutated_instances_exit_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        instance, matching = Path(tmp) / "inst.json", Path(tmp) / "m.json"
        instance.write_text(json.dumps(data), encoding="utf-8")
        matching.write_text('{"assignment": {}}', encoding="utf-8")
        assert main(["solve", "--mechanism", "da", str(instance), "--out", str(matching)]) in (0, 2)
        # solve's DA matching is stable, hence justifiable; a file solve refused, analyze refuses too
        assert main(["analyze", str(instance), str(matching)]) in (0, 2)
        for command in INSPECTORS:
            assert main([*command, str(instance)]) in (0, 2), command


@st.composite
def mutated_bytes(draw):
    raw = RAW[draw(st.sampled_from(sorted(RAW)))]
    at = draw(st.integers(0, len(raw)))
    kind = draw(st.sampled_from(["truncate", "insert-ff", "nest"]))
    if kind == "truncate":
        return raw[:at]
    if kind == "insert-ff":
        return raw[:at] + b"\xff" + raw[at:]
    depth = draw(st.sampled_from([10, 1_000, 100_000]))
    return raw[:at] + b"[" * depth + raw[at:]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(raw=mutated_bytes())
def test_mutated_instance_bytes_exit_0_or_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        instance, matching = Path(tmp) / "inst.json", Path(tmp) / "m.json"
        instance.write_bytes(raw)
        matching.write_text('{"assignment": {}}', encoding="utf-8")
        assert main(["solve", "--mechanism", "da", str(instance), "--out", str(matching)]) in (0, 2)
        assert main(["analyze", str(instance), str(matching)]) in (0, 2)
        for command in INSPECTORS:
            assert main([*command, str(instance)]) in (0, 2), command


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=mutated_instances(), reverse=st.booleans(), indent=st.sampled_from([None, 2]))
def test_mutated_instances_load_as_the_full_parse(data, reverse, indent):
    # The streamed load and the full parse agree on the problem or the error
    # text, with the top-level keys in either order.
    if reverse:
        data = dict(reversed(data.items()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(data, indent=indent), encoding="utf-8")
        assert_loads_as_parsed(path)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(raw=mutated_bytes())
def test_mutated_instance_bytes_load_as_the_full_parse(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_bytes(raw)
        assert_loads_as_parsed(path)


def _solved(name, mechanism):
    """The matching file that ``solve`` writes for a fixture, as parsed JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "m.json"
        assert main(["solve", "--mechanism", mechanism, str(fixture_path(name)), "--out", str(out)]) == 0
        return json.loads(out.read_text(encoding="utf-8"))


SOLVED = {
    (name, mechanism): _solved(name, mechanism)
    for name in FIXTURES
    for mechanism in ("da", "jbc", "sjbc+", "eada")
}


@st.composite
def mutated_matchings(draw):
    name, mechanism = draw(st.sampled_from(sorted(SOLVED)))
    data = FIXTURES[name]
    schools = [e["name"] for e in data["schools"]]
    matching = copy.deepcopy(SOLVED[name, mechanism])
    assignment = matching["assignment"]
    for _ in range(draw(st.integers(0, 2))):  # no mutation: a solver's own file
        kind = draw(st.sampled_from(["swap", "value", "unknown", "repeat", "drop", "retype", "top"]))
        if kind == "swap" and len(assignment) > 1:
            pair = st.lists(st.sampled_from(sorted(assignment)), min_size=2, max_size=2, unique=True)
            a, b = draw(pair)
            assignment[a], assignment[b] = assignment[b], assignment[a]
        elif kind == "value" and assignment:
            assignment[draw(st.sampled_from(sorted(assignment)))] = draw(junk)
        elif kind == "unknown":
            student = draw(st.sampled_from(["zz", *data["students"]]))
            assignment[student] = draw(st.sampled_from(["zz", *schools]))
        elif kind == "repeat" and assignment:
            # a second student sent to a school already named in the file
            named = sorted(map(str, assignment.values()))
            assignment[draw(st.sampled_from(data["students"]))] = draw(st.sampled_from(named))
        elif kind == "drop" and assignment:
            del assignment[draw(st.sampled_from(sorted(assignment)))]
        elif kind == "retype":
            matching["assignment"] = assignment = draw(junk)
            if not isinstance(assignment, dict):
                break
        elif kind == "top":
            return name, draw(junk)
    return name, matching


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=mutated_matchings())
def test_mutated_matchings_exit_0_1_or_2(case):
    name, matching = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(matching), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["analyze", str(fixture_path(name)), str(path)])
    assert code in (0, 1, 2)
    if code == 1:  # exit 1 is a verdict on a well-formed matching, never an input error
        assert "justifiable: False" in out.getvalue()
