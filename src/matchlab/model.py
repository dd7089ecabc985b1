"""Core types for school-choice problems: instances, matchings, ranks, violations.

A problem holds students and schools (dense integer ids, stable external
names), strict preference lists, strict priority lists and quotas.  All types
are immutable after construction: a problem keeps its names and rows, and a
matching its assignment, as tuples whatever sequences they are given, so
values hash, compare by value and can be shared freely across threads.  The
operations are pure functions, apart from ``load_problem``, which keeps the
last problem it built.

Rank convention (lower is better): a listed school ranks at its 1-based
position, the null school ranks one past the end of the list, and unlisted
schools all rank one past the null school.  Both rank tables are built while
a problem validates and kept as tuples; the null rank sits at slot -1 of a
student's table.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from operator import index

NULL_SCHOOL = -1

A_DOMINATES = "A-dominates"
B_DOMINATES = "B-dominates"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


class InputError(ValueError):
    """Raised for malformed instances, matchings or operation arguments."""


@dataclass(frozen=True)
class Problem:
    """A school-choice instance.

    Attributes:
        students: external student names; ids are indices in this tuple.
        schools: external school names; ids are indices in this tuple.
        quotas: per school, a positive integer capacity.
        prefs: per student, the strictly ordered tuple of acceptable school
            ids (best first).  Schools missing from the tuple rank below the
            null school.
        priorities: per school, a permutation of all student ids (highest
            priority first): n ids that fill every slot of the school's rank
            table and sum to n(n-1)/2, since a negative id aliases a slot
            from the end and lowers the sum.
        completed_priorities: ids of schools whose priority list was only
            partially given in the source file and was completed by appending
            the missing students in declaration order; kept as the frozenset
            of school ids ``_check_ids`` admits.

    Validating the lists fills both flat rank tables, indexed by id and
    kept as tuples; a student's table keeps the null rank at slot -1, where
    NULL_SCHOOL reads it.  Each row is read once into a tuple, in its
    iteration order, so any iterable row is taken and a tuple row is kept
    as itself; a row that is not iterable raises ``InputError`` naming its
    student or school.  The names are kept as tuples too.  The ids and
    quotas follow ``_check_ids``: a bool is refused, and an id of another
    integer type counts by its ``operator.index`` value.  The quotas, and
    each row that passes only when judged id by id, are kept as those
    values.  A row whose sum is no ``int`` (one numpy id makes it numpy) is
    judged id by id too.
    """

    students: tuple[str, ...]
    schools: tuple[str, ...]
    quotas: tuple[int, ...]
    prefs: tuple[tuple[int, ...], ...]
    priorities: tuple[tuple[int, ...], ...]
    completed_priorities: frozenset[int] = frozenset()

    def __post_init__(self):
        self.__dict__.update(students=tuple(self.students), schools=tuple(self.schools))
        n, m = len(self.students), len(self.schools)
        if len(set(self.students)) != n or len(set(self.schools)) != m:
            raise InputError("duplicate student or school names")
        if len(self.quotas) != m or len(self.prefs) != n or len(self.priorities) != m:
            raise InputError("field lengths do not match student/school counts")
        for q in self.quotas:
            if isinstance(q, bool) or not hasattr(q, "__index__") or index(q) < 1:
                raise InputError("quotas must be >= 1")
        ranks = list(range(1, max(n, m) + 1))  # one set of rank ints shared by every table
        prefs, pref_rank = [], []
        for i, plist in enumerate(self.prefs):
            try:
                plist = tuple(plist)  # the row itself when it is a tuple
            except TypeError:
                raise InputError(f"preference list of {self.students[i]} is not iterable") from None
            unlisted = len(plist) + 2
            table = [unlisted] * (m + 1)
            table[-1] = len(plist) + 1  # the null rank sits at slot -1
            checked = False
            # An id past m or not an integer stops the fill; it, an id of m or a
            # repeat leaves extra unlisted slots.  Ids that min cannot order, or
            # whose sum is no int (numpy ids), fail the check too, and are
            # judged one by one below.
            with suppress(IndexError, TypeError):
                for s, pos in zip(plist, ranks):
                    table[s] = pos
                checked = (
                    table.count(unlisted) == m - len(plist)
                    and min(plist, default=0) >= 0
                    and type(sum(plist)) is int
                    and not _bool_filled(plist, table)
                )
            if not checked:
                with suppress(TypeError):  # an unhashable id is left to _check_ids
                    if len(set(map(_id_value, plist))) != len(plist):
                        raise InputError(f"duplicate school in preference list of {self.students[i]}")
                try:
                    plist = _check_ids("school", plist, range(m))
                except InputError as exc:
                    raise InputError(f"{exc} in preferences of {self.students[i]}") from None
            prefs.append(plist)
            pref_rank.append(table)
        priorities, prio_rank = [], []  # filling a school's rank table completes its permutation check
        for s, plist in enumerate(self.priorities):
            table = [0] * n
            checked = False
            with suppress(TypeError):  # a row that is not iterable is no permutation
                plist = tuple(plist)
            # An id past the last student or not an integer stops the fill with a
            # slot empty; a negative id aliases a slot from the end and lowers the
            # sum, and a numpy id makes the sum numpy.
            with suppress(IndexError, TypeError):
                if len(plist) == n:
                    for i, pos in zip(plist, ranks):
                        table[i] = pos
                    total = sum(plist)
                    checked = type(total) is int and total == n * (n - 1) // 2 and not _bool_filled(plist, table)
            if not checked:  # judge the ids one by one, by value
                with suppress(InputError, TypeError):
                    plist, checked = _check_ids("student", plist, range(n)), True
            if not checked or len(plist) != n or 0 in table:  # a repeat leaves a slot empty
                raise InputError(f"priority list of {self.schools[s]} is not a permutation of all students")
            priorities.append(plist)
            prio_rank.append(table)
        self.__dict__.update(
            quotas=tuple(map(index, self.quotas)),
            prefs=tuple(prefs),
            priorities=tuple(priorities),
            _pref_rank=tuple(map(tuple, pref_rank)),
            _prio_rank=tuple(map(tuple, prio_rank)),
            completed_priorities=_id_set(self, self.completed_priorities, "completed_priorities", "school"),
        )

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def n_schools(self) -> int:
        return len(self.schools)

    @cached_property
    def _student_ids(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.students)}

    @cached_property
    def _school_ids(self) -> dict[str, int]:
        return {name: s for s, name in enumerate(self.schools)}

    def student_id(self, name: str) -> int:
        try:
            return self._student_ids[name]
        except (KeyError, TypeError):
            raise InputError(f"unknown student {name!r}") from None

    def school_id(self, name: str) -> int:
        try:
            return self._school_ids[name]
        except (KeyError, TypeError):
            raise InputError(f"unknown school {name!r}") from None


@dataclass(frozen=True)
class Matching:
    """Per-student assignment; ``NULL_SCHOOL`` means unassigned.

    Any sequence is kept as a tuple of its seats; ``check_feasible`` judges
    them against a problem."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))

    def rosters(self, problem: Problem) -> list[list[int]]:
        """Per school, the list of assigned students in ascending id order,
        read off the seats that ``check_feasible`` returns."""
        return _rosters(problem, check_feasible(problem, self))


def trade(matching: Matching, takes) -> Matching:
    """Each student ``i`` in ``takes`` moves to the seat that ``takes[i]``
    holds under ``matching``; everyone else keeps hers."""
    assignment = list(matching.assignment)
    for i, j in takes.items():
        assignment[i] = matching.assignment[j]
    return Matching(assignment)


@dataclass(frozen=True)
class Violation:
    """A blocking triple: ``victim`` prefers ``school`` to her assignment,
    ``occupant`` is assigned there, and the victim has higher priority."""

    victim: int
    occupant: int
    school: int


def rank_of(problem: Problem, student: int, school: int) -> int:
    """1-based rank of ``school`` (or ``NULL_SCHOOL``) for ``student``.

    The null school ranks ``len(prefs) + 1``; unlisted schools rank
    ``len(prefs) + 2``, uniformly, so every comparison is total.
    """
    (student,) = _check_ids("student", (student,), range(problem.n_students))
    (school,) = _check_ids("school", (school,), range(NULL_SCHOOL, problem.n_schools))
    return problem._pref_rank[student][school]


def priority_rank_of(problem: Problem, school: int, student: int) -> int:
    """1-based priority rank of ``student`` at ``school`` (1 = highest)."""
    (school,) = _check_ids("school", (school,), range(problem.n_schools))
    (student,) = _check_ids("student", (student,), range(problem.n_students))
    return problem._prio_rank[school][student]


def _check_ids(kind: str, ids, valid: range) -> tuple[int, ...]:
    """The ``operator.index`` values of ``ids``, in order, as a tuple of
    ints; ``InputError`` unless each is an integer that ``operator.index``
    accepts (numpy integers do), not a bool, in ``valid``.

    The library's one rule for an id from outside: each public entry applies
    it once, computes on the values it returns and reads the rank tables
    directly.  A range that starts at ``NULL_SCHOOL`` admits the null school.
    """
    values = []
    for value in ids:
        try:
            if not isinstance(value, bool) and (v := index(value)) in valid:
                values.append(v)
                continue
        except TypeError:
            pass
        raise InputError(f"invalid {kind} id {value}")
    return tuple(values)


def _id_value(value):
    """``operator.index(value)``, or ``value`` itself where that fails: how
    ``Problem`` compares the ids of a row it refuses."""
    try:
        return index(value)
    except TypeError:
        return value


def _bool_filled(plist, table) -> bool:
    """Whether a bool in ``plist`` filled slot 0 or 1 of its rank ``table``,
    which must have both.  Only False aliases slot 0 and only True slot 1,
    so two looks suffice; a slot that no position of ``plist`` filled holds
    a rank outside ``1..len(plist)``."""
    first, second, k = table[0], table[1], len(plist)
    return 0 < first <= k and plist[first - 1] is False or 0 < second <= k and plist[second - 1] is True


def _id_set(problem: Problem, ids, name: str, kind: str = "student") -> frozenset[int]:
    """The ``kind`` ids of the collection ``ids`` as a frozenset of the
    values ``_check_ids`` returns; anything that is no collection raises
    ``InputError`` naming the argument ``name``."""
    try:
        members = frozenset(ids)
    except TypeError:
        raise InputError(f"{name} must be a collection of {kind} ids") from None
    count = problem.n_students if kind == "student" else problem.n_schools
    return frozenset(_check_ids(kind, members, range(count)))


def _ranks(problem: Problem, seats) -> list[int]:
    """Each student's rank of her seat in ``seats``, read straight off the
    rank table; the seats are those ``check_feasible`` returns."""
    return [table[s] for table, s in zip(problem._pref_rank, seats)]


def check_feasible(problem: Problem, matching: Matching) -> tuple[int, ...]:
    """The matching's seats as a tuple of ints, the values ``_check_ids``
    returns; ``InputError`` unless the matching is well-formed and respects
    quotas.  Callers compute on these seats, not on the assignment, however
    its seats are spelled (a list, a numpy array, numpy integers)."""
    if len(matching.assignment) != problem.n_students:
        raise InputError("matching length does not match student count")
    seats = _check_ids("school", matching.assignment, range(NULL_SCHOOL, problem.n_schools))
    counts = [0] * (problem.n_schools + 1)  # the null school counts at slot -1
    for s in seats:
        counts[s] += 1
    for s, c in enumerate(counts[:-1]):
        if c > problem.quotas[s]:
            raise InputError(f"school {problem.schools[s]} over quota ({c} > {problem.quotas[s]})")
    return seats


def envied(problem: Problem, assignment) -> list[list[int]]:
    """Per school, the students who strictly prefer it to their own seat, in id order.

    Walks each student's preference prefix above her seat, so it costs
    O(sum of ranks), not O(n^2).  The assignment holds the seats that
    ``check_feasible`` returns.
    """
    out: list[list[int]] = [[] for _ in range(problem.n_schools)]
    for i, (plist, ranks) in enumerate(zip(problem.prefs, problem._pref_rank)):
        # A null or unlisted seat ranks below every listed school.
        for school in plist[: ranks[assignment[i]] - 1]:
            out[school].append(i)
    return out


def _seated(problem: Problem, matching: Matching):
    """The seats that one ``check_feasible`` returns, and their rosters and
    ``envied`` lists.

    Blocking triples, waste and Pareto efficiency all read these; a caller
    that needs several of them computes them once.
    """
    seats = check_feasible(problem, matching)
    return seats, _rosters(problem, seats), envied(problem, seats)


def _rosters(problem: Problem, seats) -> list[list[int]]:
    """``Matching.rosters`` of the seats that ``check_feasible`` returns."""
    out = [[] for _ in range(problem.n_schools)]
    for i, s in enumerate(seats):
        if s != NULL_SCHOOL:
            out[s].append(i)
    return out


def _blocking(problem: Problem, rosters, envious) -> list[Violation]:
    """``violations`` from a matching's rosters and ``envied`` lists."""
    found = []
    for school, students in enumerate(envious):
        prio = problem._prio_rank[school]
        for victim in students:
            for occupant in rosters[school]:
                if prio[victim] < prio[occupant]:
                    found.append(Violation(victim, occupant, school))
    found.sort(key=lambda v: (v.victim, v.school, v.occupant))
    return found


def _wasteful(problem: Problem, rosters, envious) -> bool:
    """True iff someone envies a school with a free seat, read off a
    matching's rosters and ``envied`` lists."""
    return any(
        students and len(rosters[s]) < problem.quotas[s] for s, students in enumerate(envious)
    )


def violations(problem: Problem, matching: Matching) -> list[Violation]:
    """All blocking triples of the matching, duplicate-free.

    Empty exactly when the matching is stable.  Triples are ordered by
    (victim, school, occupant) for deterministic output.
    """
    return _blocking(problem, *_seated(problem, matching)[1:])


def respects_priorities_of(problem: Problem, matching: Matching, protected) -> bool:
    """True iff no blocking triple has its victim in ``protected``."""
    protected = _id_set(problem, protected, "protected")
    return all(v.victim not in protected for v in violations(problem, matching))


def is_nonwasteful(problem: Problem, matching: Matching) -> bool:
    """True iff no student prefers a school with a free seat to her assignment."""
    return not _wasteful(problem, *_seated(problem, matching)[1:])


def pareto_compare(problem: Problem, a: Matching, b: Matching) -> str:
    """Compare two matchings by student welfare.

    Returns ``A_DOMINATES`` / ``B_DOMINATES`` when one matching makes every
    student weakly better off and at least one strictly, ``EQUAL`` when all
    ranks coincide, ``INCOMPARABLE`` otherwise.
    """
    a_seats, b_seats = check_feasible(problem, a), check_feasible(problem, b)
    pairs = list(zip(_ranks(problem, a_seats), _ranks(problem, b_seats)))
    a_better = any(ra < rb for ra, rb in pairs)
    b_better = any(rb < ra for ra, rb in pairs)
    if a_better and b_better:
        return INCOMPARABLE
    if a_better:
        return A_DOMINATES
    if b_better:
        return B_DOMINATES
    return EQUAL


# ---------------------------------------------------------------------------
# File formats


def _row_ids(raw: dict, name: str, ids: dict, kind: str, field: str) -> tuple[int, ...]:
    """Ids of the names listed under ``name`` in the ``field`` mapping ``raw``."""
    row = raw.get(name, [])
    if not isinstance(row, list):
        raise InputError(f"malformed instance file: {field} of {name} must be a list")
    try:
        return tuple(map(ids.__getitem__, row))
    except (KeyError, TypeError) as exc:
        raise InputError(f"unknown {kind} {exc} in {field} of {name}") from None


def problem_from_dict(data: dict) -> Problem:
    try:
        student_names = data["students"]
        school_entries = data["schools"]
        prefs_raw = data["prefs"]
        prio_raw = data["priorities"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance file: missing {exc}") from None
    if not isinstance(student_names, list) or not all(isinstance(v, str) for v in student_names):
        raise InputError("malformed instance file: students must be a list of names")
    if not isinstance(prefs_raw, dict) or not isinstance(prio_raw, dict):
        raise InputError("malformed instance file: prefs and priorities must be keyed by name")
    if not isinstance(school_entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and type(e.get("quota")) is int
        for e in school_entries
    ):
        raise InputError("malformed instance file: each school needs a name and an integer quota")
    school_names = [e["name"] for e in school_entries]
    quotas = [e["quota"] for e in school_entries]
    sid = {name: i for i, name in enumerate(student_names)}
    cid = {name: s for s, name in enumerate(school_names)}

    prefs = tuple(_row_ids(prefs_raw, name, cid, "school", "preferences") for name in student_names)
    priorities = []
    completed = set()
    try:
        for s, name in enumerate(school_names):
            listed = _row_ids(prio_raw, name, sid, "student", "priorities")
            if len(listed) < len(student_names):
                # Partial lists are completed by appending everyone missing, in
                # declaration order; the instance records which schools this hit.
                seen = set(listed)
                listed += tuple(i for i in range(len(student_names)) if i not in seen)
                completed.add(s)
            priorities.append(listed)
        problem = Problem(
            students=tuple(student_names),
            schools=tuple(school_names),
            quotas=tuple(quotas),
            prefs=prefs,
            priorities=tuple(priorities),
            completed_priorities=frozenset(completed),
        )
    except InputError:
        # Name the first repeat among the rows mapped so far, in file order;
        # else the error stands, an unknown name in the next row included.
        for name, listed in zip(school_names, priorities):
            if len(set(listed)) != len(listed):
                raise InputError(f"duplicate student in priorities of {name}") from None
        raise
    # A row keyed by no one would be dropped unread; it is refused after
    # every other check, so a file with another fault keeps its error text.
    for rows, ids, kind, field in (
        (prefs_raw, sid, "student", "preferences"),
        (prio_raw, cid, "school", "priorities"),
    ):
        for key in rows:
            if key not in ids:
                raise InputError(f"unknown {kind} {key!r} keys a row of {field}")
    return problem


def problem_to_dict(problem: Problem) -> dict:
    return {
        "students": list(problem.students),
        "schools": [
            {"name": name, "quota": problem.quotas[s]}
            for s, name in enumerate(problem.schools)
        ],
        "prefs": {
            problem.students[i]: [problem.schools[s] for s in problem.prefs[i]]
            for i in range(problem.n_students)
        },
        "priorities": {
            problem.schools[s]: [problem.students[i] for i in problem.priorities[s]]
            for s in range(problem.n_schools)
        },
    }


def _instance_digest(problem: Problem) -> str:
    """The first 16 hex digits of the SHA-256 of the problem's sorted-key
    JSON: it names the instance in the message of an error that should not
    happen, and is computed only when one is raised."""
    text = json.dumps(problem_to_dict(problem), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _read_bytes(path) -> bytes:
    """The file's bytes, read once in binary: the one reader of instance
    and matching files."""
    with open(path, "rb") as fh:
        return fh.read()


def _decode(raw: bytes, path) -> str:
    """The bytes as UTF-8 text mode reads them: newlines translated, and a
    decode error with text mode's message."""
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None


def _parse_json(text: str, path):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too deep
        raise InputError(f"invalid JSON in {path}: {exc}") from None


# The last problem loaded, as (SHA-256 of its file's bytes, problem).
_last_problem: tuple[bytes, Problem] | None = None


def load_problem(path) -> Problem:
    """The problem in the instance file at ``path``.

    The file is read once, in binary.  The problem built last is kept: a
    file whose bytes hash the same gets that problem back, with the DA
    context kept on it, and nothing is decoded, parsed or built.  Copies of
    one instance whose bytes differ (LF and CRLF line ends, say) are loaded
    apart.  A failed load keeps nothing.
    """
    global _last_problem
    raw = _read_bytes(path)
    digest = hashlib.sha256(raw).digest()
    kept = _last_problem  # read once: another thread may replace it meanwhile
    if kept is None or kept[0] != digest:
        # Free the old problem before the decode, the bytes before the parse
        # and the text once it is parsed: held longer, each raises peak memory.
        _last_problem = kept = None
        text = _decode(raw, path)
        del raw
        data = _parse_json(text, path)
        del text
        kept = _last_problem = (digest, problem_from_dict(data))
    return kept[1]


def matching_from_dict(problem: Problem, data: dict) -> Matching:
    try:
        raw = data["assignment"]
    except (KeyError, TypeError):
        raise InputError("malformed matching file: missing 'assignment'") from None
    if not isinstance(raw, dict):
        raise InputError("malformed matching file: 'assignment' must be keyed by student name")
    assignment = [NULL_SCHOOL] * problem.n_students
    for sname, cname in raw.items():
        assignment[problem.student_id(sname)] = problem.school_id(cname)
    return Matching(assignment)


def matching_to_dict(problem: Problem, matching: Matching) -> dict:
    # Students at the null school are omitted; absence means unassigned.
    return {
        "assignment": {
            problem.students[i]: problem.schools[s]
            for i, s in enumerate(matching.assignment)
            if s != NULL_SCHOOL
        }
    }


def load_matching(problem: Problem, path) -> Matching:
    return matching_from_dict(problem, _parse_json(_decode(_read_bytes(path), path), path))


def dump_matching(problem: Problem, matching: Matching) -> str:
    """Byte-stable JSON text for a matching (sorted keys, trailing newline)."""
    return json.dumps(matching_to_dict(problem, matching), sort_keys=True, indent=2) + "\n"
