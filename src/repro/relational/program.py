"""Query programs made of join, project and semijoin statements (Section 6).

A *program* ``P`` is a finite sequence of statements, each creating a new
named relation:

* ``R_k := R_i ⋈ R_j``   (join statement)
* ``R_k := π_X(R_i)``    (project statement)
* ``R_k := R_i ⋉ R_j``   (semijoin statement)

``P`` *solves* ``(D, X)`` when, for every UR database for ``D``, the value of
the last statement equals ``π_X(⋈ D)``.

A program maps the original database schema and state to a new schema and
state: ``P(D)`` (the original relation schemas plus the schema of every
created relation) and ``P(D)`` on states.  The schema map ``P(D)`` is what
the tree-projection theorems of Section 6 quantify over (Theorems 6.1–6.4,
implemented in :mod:`repro.treeproj`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import ProgramError
from ..hypergraph.generators import ResolvableRandom, resolve_rng
from ..hypergraph.schema import Attribute, DatabaseSchema, RelationSchema
from .database import DatabaseState
from .query import NaturalJoinQuery
from .relation import Relation
from .universal import random_universal_relation

__all__ = [
    "JoinStatement",
    "ProjectStatement",
    "SemijoinStatement",
    "Statement",
    "Program",
    "default_base_names",
]


def default_base_names(schema: DatabaseSchema) -> Tuple[str, ...]:
    """The default names given to the base relations: ``R0, R1, ...``."""
    return tuple(f"R{index}" for index in range(len(schema)))


@dataclass(frozen=True)
class JoinStatement:
    """``result := left ⋈ right``."""

    result: str
    left: str
    right: str

    def describe(self) -> str:
        """Human readable rendering of the statement."""
        return f"{self.result} := {self.left} ⋈ {self.right}"


@dataclass(frozen=True)
class ProjectStatement:
    """``result := π_attributes(source)``."""

    result: str
    source: str
    attributes: RelationSchema

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, RelationSchema):
            object.__setattr__(self, "attributes", RelationSchema(self.attributes))

    def describe(self) -> str:
        """Human readable rendering of the statement."""
        return f"{self.result} := π_{self.attributes.to_notation()}({self.source})"


@dataclass(frozen=True)
class SemijoinStatement:
    """``result := left ⋉ right``."""

    result: str
    left: str
    right: str

    def describe(self) -> str:
        """Human readable rendering of the statement."""
        return f"{self.result} := {self.left} ⋉ {self.right}"


Statement = Union[JoinStatement, ProjectStatement, SemijoinStatement]


class Program:
    """A validated sequence of statements over a base database schema.

    On construction every statement is checked: operands must refer to a base
    relation or a previously created relation, result names must be fresh, and
    projection targets must be contained in the operand's schema.  The induced
    schema of every relation (base and created) is available via
    :meth:`schema_of` and the full schema map via :meth:`extended_schema`.
    """

    def __init__(
        self,
        base_schema: DatabaseSchema,
        statements: Iterable[Statement] = (),
        base_names: Optional[Sequence[str]] = None,
    ) -> None:
        self._base_schema = base_schema
        self._base_names = (
            tuple(base_names) if base_names is not None else default_base_names(base_schema)
        )
        if len(self._base_names) != len(base_schema):
            raise ProgramError(
                f"{len(self._base_names)} base names given for "
                f"{len(base_schema)} base relations"
            )
        if len(set(self._base_names)) != len(self._base_names):
            raise ProgramError("base relation names must be distinct")
        self._schemas: Dict[str, RelationSchema] = {
            name: relation
            for name, relation in zip(self._base_names, base_schema.relations)
        }
        self._statements: List[Statement] = []
        for statement in statements:
            self.append(statement)

    # -- construction -----------------------------------------------------------

    def append(self, statement: Statement) -> "Program":
        """Validate and append one statement; returns ``self`` for chaining."""
        if not isinstance(statement, (JoinStatement, ProjectStatement, SemijoinStatement)):
            raise ProgramError(f"unknown statement type {type(statement).__name__}")
        if statement.result in self._schemas:
            raise ProgramError(
                f"statement result {statement.result!r} is already defined"
            )
        if isinstance(statement, JoinStatement):
            left = self._schema_of_operand(statement.left)
            right = self._schema_of_operand(statement.right)
            self._schemas[statement.result] = left.union(right)
        elif isinstance(statement, SemijoinStatement):
            left = self._schema_of_operand(statement.left)
            self._schema_of_operand(statement.right)
            self._schemas[statement.result] = left
        elif isinstance(statement, ProjectStatement):
            source = self._schema_of_operand(statement.source)
            if not statement.attributes <= source:
                raise ProgramError(
                    f"cannot project {statement.source!r} "
                    f"({source.to_notation()}) onto {statement.attributes.to_notation()}"
                )
            self._schemas[statement.result] = statement.attributes
        else:
            raise ProgramError(f"unknown statement type {type(statement).__name__}")
        self._statements.append(statement)
        return self

    def join(self, result: str, left: str, right: str) -> "Program":
        """Append a join statement (fluent helper)."""
        return self.append(JoinStatement(result=result, left=left, right=right))

    def product(self, result: str, left: str, right: str) -> "Program":
        """Alias of :meth:`join` (a join of attribute-disjoint relations)."""
        return self.join(result, left, right)

    def project(
        self, result: str, source: str, attributes: Union[RelationSchema, Iterable[Attribute]]
    ) -> "Program":
        """Append a project statement (fluent helper)."""
        return self.append(
            ProjectStatement(result=result, source=source, attributes=RelationSchema(attributes))
        )

    def semijoin(self, result: str, left: str, right: str) -> "Program":
        """Append a semijoin statement (fluent helper)."""
        return self.append(SemijoinStatement(result=result, left=left, right=right))

    def _schema_of_operand(self, name: str) -> RelationSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise ProgramError(f"statement refers to undefined relation {name!r}") from None

    # -- inspection ----------------------------------------------------------------

    @property
    def base_schema(self) -> DatabaseSchema:
        """The database schema the program runs against."""
        return self._base_schema

    @property
    def base_names(self) -> Tuple[str, ...]:
        """The names of the base relations, aligned with the base schema."""
        return self._base_names

    @property
    def statements(self) -> Tuple[Statement, ...]:
        """The statements in execution order."""
        return tuple(self._statements)

    def __len__(self) -> int:
        return len(self._statements)

    def created_names(self) -> Tuple[str, ...]:
        """Names of the relations created by the program, in creation order."""
        return tuple(statement.result for statement in self._statements)

    def schema_of(self, name: str) -> RelationSchema:
        """The relation schema of a base or created relation."""
        return self._schema_of_operand(name)

    def result_name(self) -> str:
        """The name of the relation produced by the last statement.

        An empty program has no result; asking for it is an error.
        """
        if not self._statements:
            raise ProgramError("an empty program has no result relation")
        return self._statements[-1].result

    def extended_schema(self) -> DatabaseSchema:
        """``P(D)``: the base schema plus the schema of every created relation."""
        created = [self._schemas[name] for name in self.created_names()]
        return DatabaseSchema(tuple(self._base_schema.relations) + tuple(created))

    def statement_count(self) -> Dict[str, int]:
        """How many statements of each kind the program contains."""
        counts = {"join": 0, "project": 0, "semijoin": 0}
        for statement in self._statements:
            if isinstance(statement, JoinStatement):
                counts["join"] += 1
            elif isinstance(statement, ProjectStatement):
                counts["project"] += 1
            else:
                counts["semijoin"] += 1
        return counts

    def describe(self) -> str:
        """The whole program as numbered, human readable lines."""
        lines = [
            f"-- base relations: "
            + ", ".join(
                f"{name}({relation.to_notation()})"
                for name, relation in zip(self._base_names, self._base_schema.relations)
            )
        ]
        for index, statement in enumerate(self._statements):
            lines.append(f"{index:3d}: {statement.describe()}")
        return "\n".join(lines)

    # -- execution ----------------------------------------------------------------------

    def execute(self, state: DatabaseState) -> Dict[str, Relation]:
        """Run the program over a state for the base schema.

        Returns the environment mapping every (base and created) relation name
        to its value; the query answer, if the program computes one, is the
        value of ``self.result_name()``.
        """
        if state.schema != self._base_schema:
            raise ProgramError("the state is for a different schema than the program")
        environment: Dict[str, Relation] = {
            name: relation for name, relation in zip(self._base_names, state.relations)
        }
        for statement in self._statements:
            if isinstance(statement, JoinStatement):
                value = environment[statement.left].natural_join(environment[statement.right])
            elif isinstance(statement, SemijoinStatement):
                value = environment[statement.left].semijoin(environment[statement.right])
            else:
                value = environment[statement.source].project(statement.attributes)
            environment[statement.result] = value
        return environment

    def run(self, state: DatabaseState) -> Relation:
        """Execute and return the value of the last statement."""
        return self.execute(state)[self.result_name()]

    # -- does the program solve a query? -----------------------------------------------

    def solves_on(self, query: NaturalJoinQuery, state: DatabaseState) -> bool:
        """Whether the program's result equals the query answer on one state."""
        return self.run(state) == query.evaluate(state)

    def solves_empirically(
        self,
        target: Union[RelationSchema, Iterable[Attribute]],
        *,
        trials: int = 20,
        tuple_count: int = 12,
        domain_size: int = 3,
        rng: ResolvableRandom = None,
        universal: bool = True,
    ) -> Optional[DatabaseState]:
        """Empirically test whether the program solves ``(D, X)``.

        Samples random UR databases (or arbitrary states when
        ``universal=False``) and compares the program's result with the query
        answer.  Returns a counterexample state, or ``None`` when all trials
        agreed.  Agreement on samples is evidence, not proof — the exact
        criteria are the tree-projection theorems.
        """
        from .database import universal_database
        from .universal import random_database_state

        query = NaturalJoinQuery(self._base_schema, RelationSchema(target))
        generator = resolve_rng(rng)
        for _ in range(trials):
            if universal:
                seed = random_universal_relation(
                    self._base_schema.attributes,
                    tuple_count=tuple_count,
                    domain_size=domain_size,
                    rng=generator,
                )
                state = universal_database(self._base_schema, seed)
            else:
                state = random_database_state(
                    self._base_schema,
                    tuple_count=tuple_count,
                    domain_size=domain_size,
                    rng=generator,
                )
            if not self.solves_on(query, state):
                return state
        return None
