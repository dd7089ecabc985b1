"""Bundled instance files: the worked examples used throughout the tests."""

from pathlib import Path

from matchlab.model import Problem, load_problem


def fixture_path(name: str) -> Path:
    return Path(__file__).parent / f"{name}.json"


def load_fixture(name: str) -> Problem:
    return load_problem(fixture_path(name))
