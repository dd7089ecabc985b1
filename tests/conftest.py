import pytest

from matchlab.fixtures import load_fixture
from matchlab.model import Matching, Problem


@pytest.fixture(scope="session")
def ex1():
    return load_fixture("ex1")


@pytest.fixture(scope="session")
def exnoeff():
    return load_fixture("exnoeff")


@pytest.fixture(scope="session")
def explus():
    return load_fixture("explus")


@pytest.fixture(scope="session")
def exd():
    return load_fixture("exd")


@pytest.fixture(scope="session")
def exe():
    return load_fixture("exe")


def matching_by_name(problem, moves: dict) -> Matching:
    """Build a matching from {student name: school name}; others unassigned."""
    assignment = [-1] * problem.n_students
    for sname, cname in moves.items():
        assignment[problem.student_id(sname)] = problem.school_id(cname)
    return Matching(tuple(assignment))


def names_of(problem, ids):
    return sorted(problem.students[i] for i in ids)


def flag_completed(problem, label):
    """Instances whose priority lists were completed on load get a visible
    note: expectations that touch the appended entries rest on that choice."""
    if problem.completed_priorities:
        done = sorted(problem.schools[s] for s in problem.completed_priorities)
        print(f"note[{label}]: priorities completed for {done}")


def random_market(rng):
    """Quotas 1-3, truncated preference lists, unequal side sizes."""
    n, m = rng.randint(3, 9), rng.randint(2, 5)
    priorities = []
    for _ in range(m):
        order = list(range(n))
        rng.shuffle(order)
        priorities.append(tuple(order))
    return Problem(
        students=tuple(f"i{k}" for k in range(n)),
        schools=tuple(f"s{k}" for k in range(m)),
        quotas=tuple(rng.randint(1, 3) for _ in range(m)),
        prefs=tuple(tuple(rng.sample(range(m), rng.randint(0, m))) for _ in range(n)),
        priorities=tuple(priorities),
    )
