"""Independent element census used to audit the translator's step accounting.

The census walks the model and counts what a correct translation must
touch, one number per element class. It deliberately shares no code with
the translation loops: agreement between the two is the evidence that the
translation performs exactly one step per element.

The counting conventions are :data:`CONVENTIONS`, which every report carries.

:func:`verify_translation` is the four-property audit built on the census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
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


# How the translator and the census count steps; every report carries these lines.
CONVENTIONS = (
    "one step per object set, role, structural function, and attribute",
    "ranges and cardinality bounds are consumed by their owning step",
    "compulsory declarations count one step per listed mapping",
    "single-mapping uniqueness counts per declaration; concatenations count per declaration",
    "formalized single-variable rules are tuple checks; the rest are nonrelational",
    "enrichment additions are recorded as actions, not steps",
)


def _counted(step_kind: str, group: str) -> int:
    """The ``Tallies`` field of an element class, and its ELEMENT_CLASSES row."""
    return field(default=0, metadata={"step_kind": step_kind, "group": group})


@dataclass(frozen=True)
class Tallies:
    entity_sets: int = _counted("entity-set", "sets_total")
    relationship_sets: int = _counted("relationship-set", "sets_total")
    computed_sets: int = _counted("computed-set", "sets_total")
    roles: int = _counted("role", "mappings_total")
    structural_functions: int = _counted("structural-function", "mappings_total")
    attributes: int = _counted("attribute", "mappings_total")
    nonrelational: int = _counted("nonrelational", "constraints_total")
    inclusions: int = _counted("inclusion", "constraints_total")
    compulsory_members: int = _counted("compulsory", "constraints_total")
    unique_singletons: int = _counted("unique-singleton", "constraints_total")
    concatenated_keys: int = _counted("concatenated-key", "constraints_total")
    tuple_checks: int = _counted("tuple-check", "constraints_total")
    compulsory_lines: int = 0  # alternative per-declaration reading, not in totals

    @property
    def total(self) -> int:
        return sum(getattr(self, name) for name in ELEMENT_CLASSES)

    def as_dict(self) -> dict[str, int]:
        """The fields, then each group total, then the total."""
        counts = vars(self)
        groups: dict[str, int] = {}
        for name, (_, group) in ELEMENT_CLASSES.items():
            groups[group] = groups.get(group, 0) + counts[name]
        return {**counts, **groups, "total": sum(groups.values())}


# Every element class the census counts, in report order: the ``Tallies``
# field, the step kind the translator logs for it, and the group total it
# adds to. The translator names its steps by these classes.
ELEMENT_CLASSES: dict[str, tuple[str, str]] = {
    f.name: (f.metadata["step_kind"], f.metadata["group"]) for f in fields(Tallies) if f.metadata
}

_SET_CLASSES = {
    ENTITY: "entity_sets", RELATIONSHIP: "relationship_sets", COMPUTED: "computed_sets",
}


def census(model: ERModel) -> Tallies:
    """Count every translatable element of *model*."""
    counts: Counter[str] = Counter()  # a class never counted stays at its default 0
    for s in model.object_sets():
        counts[_SET_CLASSES[s.kind]] += 1
        counts["roles"] += len(s.roles)
        counts["structural_functions"] += len(s.structural_functions)
        counts["attributes"] += len(s.attributes)
        counts["inclusions"] += len(s.included_in)

    for r in model.restrictions:
        body = r.body
        if isinstance(body, InclusionBody):
            counts["inclusions"] += 1
        elif isinstance(body, CompulsoryBody):
            counts["compulsory_lines"] += 1
            counts["compulsory_members"] += len(body.mappings)
        elif isinstance(body, UniquenessBody):
            counts["unique_singletons" if body.is_singleton else "concatenated_keys"] += 1
        elif isinstance(body, OtherBody):
            if body.formal is not None and quantifier_count(body.formal) == 1:
                counts["tuple_checks"] += 1
            else:
                counts["nonrelational"] += 1
    return Tallies(**counts)


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
        soundness = [d.render() for d in report.diagnostics.errors] or [no_scheme]
        completeness = [no_scheme]
    else:
        soundness = [d.render() for d in check_scheme(result.scheme)]
        # A compulsory restriction covers its reference through one entry per
        # member, so the part of a provenance value before each "[" is covered too.
        covered = set(result.scheme.provenance.values())
        for v in result.scheme.provenance.values():
            while type(v) is str and (i := v.rfind("[")) >= 0:  # soundness flags any other
                v = v[:i]
                covered.add(v)
        completeness = [
            f"{ref} has no provenance" for ref in sorted(source_universe(result.model) - covered)
        ]

    optimality = [
        f"{source} is the source of {count} steps"
        for source, count in Counter(source for _, source, _ in report.steps).items() if count > 1
    ]
    if linearity:
        optimality.append("needs linearity, which fails")
    return {
        "linearity": linearity,
        "soundness": soundness,
        "completeness": completeness,
        "optimality": optimality,
    }
