"""Relational substrate: relation states, algebra, UR databases, join
dependencies, semijoin programs, Yannakakis' algorithm and Section 6 query
programs.

Performance notes
-----------------
The kernel keeps rows as **canonical tuples in sorted-column order** and the
operators build their outputs through the internal trusted constructor
``Relation._from_trusted(schema, columns, frozenset_rows)``, which skips
per-row validation.  Any new operator must either emit rows in that canonical
order or go through the validating public constructor ``Relation(attributes,
rows)``.  Column→position maps and the ``Relation.key_index(attrs)`` hash
indexes are cached per (immutable) instance, so repeated semijoins/joins on
the same key — e.g. the two passes of a full reducer — share one index.
See ``docs/performance.md`` for the full invariant list and the PR-1
benchmark baseline recorded in ``BENCH_PR1.json``.

Since PR 4 the serving hot path no longer runs on these object-tuple
operators at all: :mod:`repro.relational.compiled` compiles each prepared
query into a positional row program (``CompiledPlan``, whose
``encode_state`` returns an ``EncodedState``) that runs on the state's own
row tuples with prebuilt ``itemgetter`` keys and builds the answer
:class:`Relation` straight from its final rows.  The operators here remain
the semantics reference — the equivalence suite checks the compiled kernel
against them on random schemas and states.

:mod:`repro.relational.vectorized` runs the same positional layout as an
array-backed kernel: values interned to contiguous int64 code
columns, semijoins as membership masks over sorted key arrays, joins as
``searchsorted`` bucket matches plus index gathers (it requires numpy,
imported only when the first such plan is built; without numpy every
backend name that would reach it resolves to compiled).  ``backend="auto"`` prefers it for large states; classic and
compiled stay as the property-test oracles.  Both kernels are subclasses of
one ``EncodedPlan`` core that owns the per-slot encode cache and the batch
entry points; each kernel adds its encoder and step program, and the
vectorized one its interner and epochs.
"""

from .relation import Relation, Row
from .compiled import CompiledPlan, EncodedPlan, EncodedState, ExecutionStats
from .vectorized import VectorizedPlan, numpy_available
from .algebra import (
    intermediate_join_sizes,
    join_all,
    join_all_in_order,
    natural_join,
    project,
    semijoin,
)
from .database import DatabaseState, is_universal_database, universal_database
from .universal import (
    chain_correlated_universal_relation,
    random_database_state,
    random_universal_relation,
    random_ur_database,
)
from .query import (
    NaturalJoinQuery,
    weakly_contained_empirically,
    weakly_equivalent_empirically,
)
from .dependencies import (
    DecompositionReport,
    decompose_and_rejoin,
    satisfies_join_dependency,
    search_implication_counterexample,
)
from .yannakakis import (
    SemijoinStep,
    YannakakisRun,
    full_reduce,
    full_reducer_semijoins,
    naive_join_project,
    rooted_orientation,
    yannakakis,
)
from .program import (
    JoinStatement,
    Program,
    ProjectStatement,
    SemijoinStatement,
    Statement,
    default_base_names,
)

__all__ = [
    "Relation",
    "Row",
    "CompiledPlan",
    "EncodedPlan",
    "EncodedState",
    "ExecutionStats",
    "VectorizedPlan",
    "numpy_available",
    "project",
    "natural_join",
    "semijoin",
    "join_all",
    "join_all_in_order",
    "intermediate_join_sizes",
    "DatabaseState",
    "universal_database",
    "is_universal_database",
    "random_universal_relation",
    "random_ur_database",
    "random_database_state",
    "chain_correlated_universal_relation",
    "NaturalJoinQuery",
    "weakly_contained_empirically",
    "weakly_equivalent_empirically",
    "satisfies_join_dependency",
    "DecompositionReport",
    "decompose_and_rejoin",
    "search_implication_counterexample",
    "SemijoinStep",
    "rooted_orientation",
    "full_reducer_semijoins",
    "full_reduce",
    "YannakakisRun",
    "yannakakis",
    "naive_join_project",
    "JoinStatement",
    "ProjectStatement",
    "SemijoinStatement",
    "Statement",
    "Program",
    "default_base_names",
]
