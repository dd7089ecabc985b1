"""School-choice improvement mechanisms over deferred acceptance.

Solvers (DA, JBC, SJBC+, EADA), verifiers for justifiability and
Pareto-efficiency, a brute-force oracle for small instances, and a seeded
Monte-Carlo comparison harness.
"""

from matchlab.model import (
    A_DOMINATES,
    B_DOMINATES,
    EQUAL,
    INCOMPARABLE,
    NULL_SCHOOL,
    InputError,
    Problem,
    Violation,
    is_nonwasteful,
    pareto_compare,
    rank_of,
    respects_priorities_of,
    violations,
)
from matchlab.da import DaTrace, interrupters, run_da
from matchlab.envy import (
    LabelledEnvyDigraph,
    build_envy,
    decompose_as_packing,
    packing_label,
)
from matchlab.analysis import (
    Verdict,
    beneficiaries,
    is_justifiable,
    is_pareto_efficient,
    is_strongly_justifiable,
    reassignment_chain,
)
from matchlab.jbc import SchoolGraph, run_jbc, strongly_justifiable_family
from matchlab.sjbc_plus import run_expansion, run_refinement, run_sjbc_plus
from matchlab.eada import EadaRun, eada_orbit, run_eada
from matchlab.oracle import enumerate_matchings, oracle_report
from matchlab.simgen import GenConfig, gen_instance, run_experiment

__all__ = [
    "A_DOMINATES",
    "B_DOMINATES",
    "EQUAL",
    "INCOMPARABLE",
    "NULL_SCHOOL",
    "InputError",
    "Problem",
    "Violation",
    "DaTrace",
    "LabelledEnvyDigraph",
    "Verdict",
    "SchoolGraph",
    "EadaRun",
    "GenConfig",
    "beneficiaries",
    "build_envy",
    "decompose_as_packing",
    "eada_orbit",
    "enumerate_matchings",
    "gen_instance",
    "interrupters",
    "is_justifiable",
    "is_nonwasteful",
    "is_pareto_efficient",
    "is_strongly_justifiable",
    "oracle_report",
    "packing_label",
    "pareto_compare",
    "rank_of",
    "reassignment_chain",
    "respects_priorities_of",
    "run_da",
    "run_eada",
    "run_expansion",
    "run_experiment",
    "run_jbc",
    "run_refinement",
    "run_sjbc_plus",
    "strongly_justifiable_family",
    "violations",
]
