"""Independent element census used to audit the translator's step accounting.

The census walks the model and counts what a correct translation must
touch, one number per element class. It deliberately shares no code with
the translation loops: agreement between the two is the evidence that the
translation performs exactly one step per element.

Counting conventions:

* attribute ranges and cardinality bounds are consumed while translating
  their attribute or set and add no steps of their own;
* compulsory declarations count one step per listed mapping (a per-line
  figure is carried alongside);
* single-mapping uniqueness counts one step per declaration, concatenated
  uniqueness one step per declaration;
* formalized single-variable rules count as tuple checks, everything else
  declared as "other" counts as nonrelational.

:func:`verify_translation` is the four-property audit built on the census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .formula import quantifier_count
from .model import (
    COMPUTED,
    ENTITY,
    RELATIONSHIP,
    CompulsoryBody,
    ERModel,
    InclusionBody,
    OtherBody,
    UniquenessBody,
    source_universe,
)
from .scheme import check_scheme

if TYPE_CHECKING:
    from .translator import TranslationResult


@dataclass(frozen=True)
class Tallies:
    entity_sets: int = 0
    relationship_sets: int = 0
    computed_sets: int = 0
    roles: int = 0
    structural_functions: int = 0
    attributes: int = 0
    nonrelational: int = 0
    inclusions: int = 0
    compulsory_members: int = 0
    unique_singletons: int = 0
    concatenated_keys: int = 0
    tuple_checks: int = 0
    compulsory_lines: int = 0  # alternative per-declaration reading, not in totals

    @property
    def sets_total(self) -> int:
        return self.entity_sets + self.relationship_sets + self.computed_sets

    @property
    def mappings_total(self) -> int:
        return self.roles + self.structural_functions + self.attributes

    @property
    def constraints_total(self) -> int:
        return (
            self.nonrelational
            + self.inclusions
            + self.compulsory_members
            + self.unique_singletons
            + self.concatenated_keys
            + self.tuple_checks
        )

    @property
    def total(self) -> int:
        return self.sets_total + self.mappings_total + self.constraints_total

    def as_dict(self) -> dict[str, int]:
        return {
            **asdict(self),
            "sets_total": self.sets_total,
            "mappings_total": self.mappings_total,
            "constraints_total": self.constraints_total,
            "total": self.total,
        }


def census(model: ERModel) -> Tallies:
    """Count every translatable element of *model*."""
    entity_sets = relationship_sets = computed_sets = 0
    roles = functions = attributes = inclusions = 0
    for s in model.object_sets():
        if s.kind == ENTITY:
            entity_sets += 1
        elif s.kind == RELATIONSHIP:
            relationship_sets += 1
        elif s.kind == COMPUTED:
            computed_sets += 1
        roles += len(s.roles)
        functions += len(s.structural_functions)
        attributes += len(s.attributes)
        inclusions += len(s.included_in)

    nonrelational = compulsory_members = compulsory_lines = 0
    unique_singletons = concatenated_keys = tuple_checks = 0
    for r in model.restrictions:
        body = r.body
        if isinstance(body, InclusionBody):
            inclusions += 1
        elif isinstance(body, CompulsoryBody):
            compulsory_lines += 1
            compulsory_members += len(body.mappings)
        elif isinstance(body, UniquenessBody):
            if body.is_singleton:
                unique_singletons += 1
            else:
                concatenated_keys += 1
        elif isinstance(body, OtherBody):
            if body.formal is not None and quantifier_count(body.formal) == 1:
                tuple_checks += 1
            else:
                nonrelational += 1

    return Tallies(
        entity_sets=entity_sets,
        relationship_sets=relationship_sets,
        computed_sets=computed_sets,
        roles=roles,
        structural_functions=functions,
        attributes=attributes,
        nonrelational=nonrelational,
        inclusions=inclusions,
        compulsory_members=compulsory_members,
        unique_singletons=unique_singletons,
        concatenated_keys=concatenated_keys,
        tuple_checks=tuple_checks,
        compulsory_lines=compulsory_lines,
    )


def verify_translation(result: TranslationResult) -> dict[str, list[str]]:
    """Audit *result* against the model it translated.

    Maps linearity, soundness, completeness and optimality, in that order,
    to the witnesses against each property; an empty list means it holds.
    The census and the source references are those of ``result.model``:
    the model after the input defaults, whoever answered their questions.
    """
    report = result.report
    expected = census(result.model)
    if report.tallies is None:
        linearity = ["no step tallies were recorded"]
    else:
        got = report.tallies.as_dict()
        linearity = [
            f"{name}: {got[name]} in the step tallies, {want} in the census"
            for name, want in expected.as_dict().items() if got[name] != want
        ]
    if len(report.steps) != expected.total:
        linearity.append(f"steps: {len(report.steps)} logged, {expected.total} in the census")

    if result.scheme is None:
        no_scheme = "no scheme was produced"
        soundness = [d.render() for d in report.diagnostics if d.is_error] or [no_scheme]
        completeness = [no_scheme]
    else:
        soundness = [d.render() for d in check_scheme(result.scheme)]
        # A compulsory restriction covers its reference through one entry per
        # member, so the part of a provenance value before a "[" is covered too.
        covered = set(result.scheme.provenance.values())
        covered |= {v[:i] for v in covered if "[" in v for i, c in enumerate(v) if c == "["}
        completeness = [
            f"{ref} has no provenance" for ref in sorted(source_universe(result.model) - covered)
        ]

    optimality = [
        f"{source} is the source of {count} steps"
        for source, count in Counter(s.source for s in report.steps).items() if count > 1
    ]
    if linearity:
        optimality.append("needs linearity, which fails")
    return {
        "linearity": linearity,
        "soundness": soundness,
        "completeness": completeness,
        "optimality": optimality,
    }
