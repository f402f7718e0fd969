"""Every concrete schema, query and example appearing in the paper.

The constants below are keyed by figure / section so tests, benchmarks and
``EXPERIMENTS.md`` can refer to the paper's artifacts by name.

Notes on fidelity
-----------------

* Figures 1, the Section 3.2 example, the Section 5.1 counterexample and the
  Section 6 example are transcribed verbatim from the paper.
* Figure 2(c) is only partially legible in the available scan (OCR damage);
  :data:`FIGURE_2C_SCHEMA` is a reconstruction that provably satisfies the
  figure's caption: deleting ``X = abgi`` and eliminating subsets yields an
  Aring of size 4, deleting ``X = efgi`` yields an Aclique of size 4, and the
  schema contains the supersets (``cda`` of ``cd``, ``ace`` of ``ce``,
  ``bcd``, ``cda``) that Figure 7 refers back to.  The reconstruction is
  flagged in ``EXPERIMENTS.md``.
* Figures 3–6 and 8 illustrate proof constructions rather than specific
  instances; the corresponding machinery is exercised by the theorem checkers
  listed in ``DESIGN.md``.
"""

from __future__ import annotations

from ..hypergraph.parsing import parse_schema
from ..hypergraph.schema import RelationSchema

__all__ = [
    "FIGURE_1_TREE_CHAIN",
    "FIGURE_1_CYCLIC_TRIANGLE",
    "FIGURE_1_TREE_FOUR_RELATIONS",
    "FIGURE_1_CASES",
    "FIGURE_2_ARING_4",
    "FIGURE_2_ACLIQUE_4",
    "FIGURE_2C_SCHEMA",
    "FIGURE_2C_ARING_DELETION",
    "FIGURE_2C_ACLIQUE_DELETION",
    "SECTION_3_2_D",
    "SECTION_3_2_D_DOUBLE_PRIME",
    "SECTION_3_2_D_PRIME",
    "SECTION_5_1_SCHEMA",
    "SECTION_5_1_SUBSCHEMA",
    "SECTION_6_SCHEMA",
    "SECTION_6_TARGET",
    "SECTION_6_EXPECTED_CC",
    "FIGURE_7_ARING_PAIR",
    "FIGURE_7_ACLIQUE_PAIR",
]

# -- Figure 1: tree vs cyclic classification ----------------------------------------

#: ``(ab, bc, cd)`` — a tree schema whose (only) qual tree is the chain.
FIGURE_1_TREE_CHAIN = parse_schema("ab,bc,cd")

#: ``(ab, bc, ac)`` — cyclic: its only qual graph is the triangle.
FIGURE_1_CYCLIC_TRIANGLE = parse_schema("ab,bc,ac")

#: ``(abc, cde, ace, afe)`` — a tree schema (qual tree abc - ace - aef with cde
#: attached to ace).
FIGURE_1_TREE_FOUR_RELATIONS = parse_schema("abc,cde,ace,afe")

#: The three Figure 1 rows as ``(schema, expected_is_tree)`` pairs.
FIGURE_1_CASES = (
    (FIGURE_1_TREE_CHAIN, True),
    (FIGURE_1_CYCLIC_TRIANGLE, False),
    (FIGURE_1_TREE_FOUR_RELATIONS, True),
)

# -- Figure 2: Arings, Acliques, and cyclic schemas built on them ---------------------

#: Figure 2(a): the Aring of size 4, ``(ab, bc, cd, da)``.
FIGURE_2_ARING_4 = parse_schema("ab,bc,cd,da")

#: Figure 2(b): the Aclique of size 4, ``(bcd, acd, abd, abc)``.
FIGURE_2_ACLIQUE_4 = parse_schema("bcd,acd,abd,abc")

#: Figure 2(c) (reconstructed, see the module docstring): a cyclic schema that
#: reduces to an Aring of size 4 under ``X = abgi`` and to an Aclique of size 4
#: under ``X = efgi``.
FIGURE_2C_SCHEMA = parse_schema("fi,bef,ace,abdf,bcd,cg,acd,abcg")

#: The attribute deletion producing the Aring core in Figure 2(c).
FIGURE_2C_ARING_DELETION = RelationSchema("abgi")

#: The attribute deletion producing the Aclique core in Figure 2(c).
FIGURE_2C_ACLIQUE_DELETION = RelationSchema("efgi")

# -- Section 3.2: the tree projection example ------------------------------------------

#: ``D = (ab, bc, cd, de, ef, fg, gh, ha)`` — an Aring of size 8 (cyclic).
SECTION_3_2_D = parse_schema("ab,bc,cd,de,ef,fg,gh,ha")

#: ``D'' = (ab, abch, cdgh, defg, ef)`` — a tree schema with
#: ``D <= D'' <= D'``; the paper's witness tree projection.
SECTION_3_2_D_DOUBLE_PRIME = parse_schema("ab,abch,cdgh,defg,ef")

#: ``D' = (abef, abch, cdgh, defg, ef)`` — cyclic, the upper schema.
SECTION_3_2_D_PRIME = parse_schema("abef,abch,cdgh,defg,ef")

# -- Section 5.1: the lossless-join counterexample --------------------------------------

#: ``D = (abc, ab, bc)``: a tree schema.
SECTION_5_1_SCHEMA = parse_schema("abc,ab,bc")

#: ``D' = (ab, bc)``: not a subtree of ``D`` and ``⋈D ⊭ ⋈D'``.
SECTION_5_1_SUBSCHEMA = parse_schema("ab,bc")

# -- Section 6: irrelevant relations and the canonical connection ------------------------

#: ``D = (R1=abg, R2=bcg, R3=acf, R4=ad, R5=de, R6=ea)``.
SECTION_6_SCHEMA = parse_schema("abg,bcg,acf,ad,de,ea")

#: The query target ``X = abc``.
SECTION_6_TARGET = RelationSchema("abc")

#: The canonical connection the paper derives: ``(abg, bcg, ac)`` — relations
#: ``ad``, ``de``, ``ea`` are irrelevant and column ``f`` is projected away.
SECTION_6_EXPECTED_CC = parse_schema("abg,bcg,ac")

# -- Figure 7: deleting intersections inside Arings / Acliques ---------------------------

#: Figure 7(a): in the Aring of Figure 2, ``R = cd`` and ``S = ce`` have
#: supersets ``cda`` and ``ace``; deleting ``ac`` leaves ``d`` and ``e`` connected.
FIGURE_7_ARING_PAIR = (RelationSchema("cda"), RelationSchema("ace"))

#: Figure 7(b): in the Aclique of Figure 2, ``R = bcd`` and ``S = cda``;
#: deleting ``cd`` leaves ``b`` and ``a`` connected.
FIGURE_7_ACLIQUE_PAIR = (RelationSchema("bcd"), RelationSchema("cda"))
