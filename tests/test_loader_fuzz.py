"""Any mutation of a fixture's instance file exits 0 or 2 from the CLI, never a traceback."""

import copy
import json
import tempfile
from pathlib import Path

import pytest

from matchlab.cli import main
from matchlab.fixtures import fixture_path

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIXTURES = {
    name: json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for name in ("ex1", "exd", "exe", "exnoeff", "explus")
}
FIELDS = ("students", "schools", "prefs", "priorities")

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
