"""The translation pipeline: ordering, set construction, and step accounting.

Rectangles are processed bottom-up (referenced sets first), then diamonds in
the same order; nonrelational rules come last; the enrichment pass closes
the run. Every translated element is logged as exactly one step so the step
log can be audited against the independent census.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping as MappingType

from .census import Tallies
from .diagnostics import ERROR, WARNING, Diagnostic
from .enrichment import (
    EnrichmentAction,
    PendingQuestion,
    Prompter,
    RULE_STRUCTURAL_KEY,
    apply_input_defaults,
    enrich_scheme,
    resolve_answer,
)
from .formula import Formula, parse_formula, quantifier_count, quantifier_domains
from .model import (
    COMPUTED,
    RELATIONSHIP,
    Attribute,
    CompulsoryBody,
    ERModel,
    NatRange,
    ObjectSet,
    OtherBody,
    Restriction,
    UniquenessBody,
    OBJECT_IDENTIFIER,
    effective_cardinality,
    effective_inclusions,
    effective_range,
    src_attribute,
    src_function,
    src_restriction,
    src_role,
    src_set,
    validate_model,
)
from . import scheme as sch
from .scheme import (
    EMDMScheme,
    EMDMSet,
    InclusionConstraint,
    Key,
    Mapping,
    NonrelationalConstraint,
    TupleConstraint,
    is_implicit_key,
    ref_constraint,
    ref_key,
    ref_mapping,
    ref_set,
    resolve_formula,
)

STEP_ENTITY_SET = "entity-set"
STEP_RELATIONSHIP_SET = "relationship-set"
STEP_COMPUTED_SET = "computed-set"
STEP_ROLE = "role"
STEP_STRUCTURAL_FUNCTION = "structural-function"
STEP_ATTRIBUTE = "attribute"
STEP_NONRELATIONAL = "nonrelational"
STEP_INCLUSION = "inclusion"
STEP_COMPULSORY = "compulsory"
STEP_UNIQUE = "unique-singleton"
STEP_KEY = "concatenated-key"
STEP_TUPLE = "tuple-check"

_STEP_TO_TALLY = {
    STEP_ENTITY_SET: "entity_sets",
    STEP_RELATIONSHIP_SET: "relationship_sets",
    STEP_COMPUTED_SET: "computed_sets",
    STEP_ROLE: "roles",
    STEP_STRUCTURAL_FUNCTION: "structural_functions",
    STEP_ATTRIBUTE: "attributes",
    STEP_NONRELATIONAL: "nonrelational",
    STEP_INCLUSION: "inclusions",
    STEP_COMPULSORY: "compulsory_members",
    STEP_UNIQUE: "unique_singletons",
    STEP_KEY: "concatenated_keys",
    STEP_TUPLE: "tuple_checks",
}

CONVENTIONS = (
    "one step per object set, role, structural function, and attribute",
    "ranges and cardinality bounds are consumed by their owning step",
    "compulsory declarations count one step per listed mapping",
    "single-mapping uniqueness counts per declaration; concatenations count per declaration",
    "formalized single-variable rules are tuple checks; the rest are nonrelational",
    "enrichment additions are recorded as actions, not steps",
)


@dataclass
class Step:
    kind: str
    source: str
    produced: str


@dataclass(frozen=True)
class TranslationOptions:
    dbms_max_cardinality: int = 10 ** 9
    interactive: bool = False
    answers: MappingType | None = None
    prompter: Prompter | None = None


@dataclass
class ImplicitKeyNote:
    set_name: str
    label: str
    mappings: tuple[str, ...]
    origin: str  # "declared-absorbed" | "generated"


@dataclass
class TranslationReport:
    conventions: tuple[str, ...] = CONVENTIONS
    steps: list[Step] = field(default_factory=list)
    tallies: Tallies | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    pending_questions: list[PendingQuestion] = field(default_factory=list)
    implicit_keys: list[ImplicitKeyNote] = field(default_factory=list)
    enrichment_actions: list[EnrichmentAction] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def to_json_dict(self) -> dict:
        return {
            "conventions": list(self.conventions),
            "tallies": self.tallies.as_dict() if self.tallies else None,
            "steps": [{"kind": s.kind, "source": s.source, "produced": s.produced}
                      for s in self.steps],
            "diagnostics": [
                {"severity": d.severity, "code": d.code, "message": d.message,
                 "element": d.element}
                for d in self.diagnostics
            ],
            "pending_questions": [
                {"subject": p.question.subject, "kind": p.question.kind,
                 "prompt": p.question.prompt, "answer": p.answer, "origin": p.origin}
                for p in self.pending_questions
            ],
            "implicit_keys": [
                {"set": k.set_name, "label": k.label, "mappings": list(k.mappings),
                 "origin": k.origin}
                for k in self.implicit_keys
            ],
            "enrichment_actions": [
                {"rule": a.rule, "target": a.target, "description": a.description,
                 "resulting_labels": list(a.resulting_labels)}
                for a in self.enrichment_actions
            ],
        }


@dataclass
class TranslationResult:
    scheme: EMDMScheme | None
    report: TranslationReport


def tallies_from_steps(steps: list[Step], compulsory_lines: int = 0) -> Tallies:
    counts = {name: 0 for name in _STEP_TO_TALLY.values()}
    for step in steps:
        counts[_STEP_TO_TALLY[step.kind]] += 1
    return Tallies(compulsory_lines=compulsory_lines, **counts)


# --- ordering ---


def surrogate_digits(max_cardinality: int) -> int:
    """Smallest n >= 1 with 10^n covering *max_cardinality*."""
    if max_cardinality < 1:
        raise ValueError("maximum cardinality must be at least 1")
    n = 1
    while 10 ** n < max_cardinality:
        n += 1
    return n


def _reference_order(
    sets: list[ObjectSet], diagnostics: list[Diagnostic] | None = None
) -> list[ObjectSet]:
    """Kahn's algorithm over the set-reference graph, referenced sets first.

    Edges run from a referencing set to each set its roles, structural
    functions, and inclusions point at (self-references excluded). Ties
    break by declaration order; cycles degrade to declaration order for the
    stuck sets, with a warning.
    """
    index = {s.name: i for i, s in enumerate(sets)}
    depends: dict[int, set[int]] = {i: set() for i in range(len(sets))}
    dependents: dict[int, set[int]] = {i: set() for i in range(len(sets))}
    for i, s in enumerate(sets):
        targets = [r.target for r in s.roles]
        targets += [f.target for f in s.structural_functions]
        targets += list(s.included_in)
        for t in targets:
            j = index.get(t)
            if j is None or j == i:
                continue
            depends[i].add(j)
            dependents[j].add(i)

    ready = [i for i in range(len(sets)) if not depends[i]]
    heapq.heapify(ready)
    remaining = {i for i in range(len(sets)) if depends[i]}
    order: list[int] = []
    while ready or remaining:
        if not ready:
            stuck = min(remaining)  # cycle: fall back to declaration order
            if diagnostics is not None:
                diagnostics.append(Diagnostic(
                    WARNING, "reference-cycle",
                    f"{sets[stuck].name} participates in a reference cycle; "
                    "declaration order used",
                    sets[stuck].name,
                ))
            remaining.discard(stuck)
            heapq.heappush(ready, stuck)
            for j in dependents[stuck]:
                depends[j].discard(stuck)
            continue
        i = heapq.heappop(ready)
        order.append(i)
        for j in sorted(dependents[i]):
            if j in remaining:
                depends[j].discard(i)
                if not depends[j]:
                    remaining.discard(j)
                    heapq.heappush(ready, j)
    return [sets[i] for i in order]


# --- the translator ---


class Translator:
    """Single-use pipeline turning one validated model into a scheme."""

    def __init__(self, model: ERModel, options: TranslationOptions | None = None):
        self.options = options or TranslationOptions()
        self.model = model
        self.scheme = EMDMScheme()
        self.report = TranslationReport()
        self._prompter = self.options.prompter if self.options.interactive else None

    # -- plumbing --

    def _step(self, kind: str, source: str, produced: str) -> None:
        self.report.steps.append(Step(kind, source, produced))

    def _diag(self, severity: str, code: str, message: str, element: str = "") -> None:
        self.report.diagnostics.append(Diagnostic(severity, code, message, element))

    def _provenance(self, ref: str, source: str) -> None:
        self.scheme.provenance[ref] = source

    # -- pipeline --

    def run(self) -> TranslationResult:
        issues = validate_model(self.model)
        self.report.diagnostics.extend(issues)
        if any(i.is_error for i in issues):
            return TranslationResult(None, self.report)

        defaults = apply_input_defaults(
            self.model, self.options.dbms_max_cardinality,
            self.options.answers, self._prompter,
        )
        self.model = defaults.model
        self.report.diagnostics.extend(defaults.diagnostics)
        self.report.enrichment_actions.extend(defaults.actions)
        self.report.pending_questions.extend(defaults.pending)
        post_issues = [i for i in validate_model(self.model) if i.is_error]
        if post_issues:
            for issue in post_issues:
                self._diag(ERROR, issue.code,
                           f"after input defaults: {issue.message}", issue.element)
            return TranslationResult(None, self.report)

        global_order = _reference_order(self.model.object_sets(), self.report.diagnostics)
        rank = {s.name: i for i, s in enumerate(global_order)}
        for d in self.model.diagrams:
            rectangles = sorted(
                (s for s in d.sets if s.kind != RELATIONSHIP), key=lambda s: rank[s.name]
            )
            for s in rectangles:
                if s.kind == COMPUTED:
                    self.add_computed_set(s)
                else:
                    self.add_set(s)
            diamonds = sorted(
                (s for s in d.sets if s.kind == RELATIONSHIP), key=lambda s: rank[s.name]
            )
            for s in diamonds:
                self.add_relationship(s)

        self._translate_nonrelational()
        self._enrich()

        compulsory_lines = sum(
            1 for r in self.model.restrictions if isinstance(r.body, CompulsoryBody)
        )
        self.report.tallies = tallies_from_steps(self.report.steps, compulsory_lines)
        if self.report.has_errors:
            return TranslationResult(None, self.report)
        return TranslationResult(self.scheme, self.report)

    # -- sets --

    def add_computed_set(self, s: ObjectSet) -> None:
        if self.scheme.set(s.name) is not None:
            return
        self.scheme.sets.append(EMDMSet(
            name=s.name, kind=sch.COMPUTED, computed_definition=s.computed_definition,
        ))
        self._provenance(ref_set(s.name), src_set(s.name))
        self._step(STEP_COMPUTED_SET, src_set(s.name), ref_set(s.name))

    def add_set(self, s: ObjectSet) -> EMDMScheme:
        """Add a rectangle: set, identifier, inclusions, then its members."""
        if self._add_set_core(s, sch.ENTITY_DERIVED, STEP_ENTITY_SET):
            self.complete_scheme(s)
        return self.scheme

    def add_relationship(self, s: ObjectSet) -> EMDMScheme:
        """Add a diamond: set, identifier, inclusions, roles, then members."""
        if not self._add_set_core(s, sch.RELATIONSHIP_DERIVED, STEP_RELATIONSHIP_SET):
            return self.scheme
        target = self.scheme.set(s.name)
        signature = []
        for role in s.roles:
            mapping = Mapping(
                name=role.name, source=s.name, codomain=role.target,
                flavor=sch.ROLE, total=False, one_to_one=role.declared_unique,
            )
            target.mappings.append(mapping)
            signature.append((role.name, role.target))
            self._provenance(ref_mapping(s.name, role.name), src_role(s.name, role.name))
            self._step(STEP_ROLE, src_role(s.name, role.name), ref_mapping(s.name, role.name))
        target.role_signature = tuple(signature)
        self.complete_scheme(s)
        return self.scheme

    def _add_set_core(self, s: ObjectSet, kind: str, step_kind: str) -> bool:
        if self.scheme.set(s.name) is not None:
            return False  # re-encounters are no-ops with zero steps
        max_card, card_source = effective_cardinality(self.model, s)
        if max_card is None:
            # unreachable after input defaults; kept as a hard stop for direct calls
            max_card, card_source = self.options.dbms_max_cardinality, src_set(s.name)
        identifier = Mapping(
            name=OBJECT_IDENTIFIER, source=s.name,
            codomain=NatRange(surrogate_digits(max_card)),
            flavor=sch.OBJECT_IDENTIFIER, total=True, one_to_one=True,
        )
        self.scheme.sets.append(EMDMSet(name=s.name, kind=kind, object_identifier=identifier))
        self._provenance(ref_set(s.name), src_set(s.name))
        self._provenance(ref_mapping(s.name, OBJECT_IDENTIFIER), card_source or src_set(s.name))
        self._step(step_kind, src_set(s.name), ref_set(s.name))

        for superset, source, label in effective_inclusions(self.model, s):
            if self.model.set(superset) is None:
                self._diag(ERROR, "unresolved-set",
                           f"{s.name} included in unknown set {superset!r}", s.name)
                continue
            constraint = InclusionConstraint(subset=s.name, superset=superset, label=label)
            self.scheme.constraints.append(constraint)
            self._provenance(ref_constraint(constraint), source)
            self._step(STEP_INCLUSION, source, ref_constraint(constraint))
        return True

    # -- members and per-set restrictions --

    def complete_scheme(self, s: ObjectSet) -> EMDMScheme:
        target = self.scheme.set(s.name)
        restrictions = self.model.restrictions_on(s.name)

        for fn in s.structural_functions:
            mapping = Mapping(
                name=fn.name, source=s.name, codomain=fn.target,
                flavor=sch.STRUCTURAL_FUNCTION,
                computed_definition=fn.computed_definition,
            )
            target.mappings.append(mapping)
            self._provenance(ref_mapping(s.name, fn.name), src_function(s.name, fn.name))
            self._step(STEP_STRUCTURAL_FUNCTION, src_function(s.name, fn.name),
                       ref_mapping(s.name, fn.name))

        for attr in s.attributes:
            self._add_attribute(s, target, attr)

        for r in restrictions:
            if isinstance(r.body, UniquenessBody) and r.body.is_singleton:
                name = r.body.mappings[0]
                mapping = target.mapping(name)
                if mapping is None:
                    self._diag(ERROR, "unknown-mapping",
                               f"{r.label} names unknown mapping {name!r}", r.label)
                    continue
                mapping.one_to_one = True
                mapping.source_labels["unique"] = r.label
                facet = ref_mapping(s.name, name, f"unique:{r.label}")
                self._provenance(facet, src_restriction(r.label))
                self._step(STEP_UNIQUE, src_restriction(r.label), facet)

        for r in restrictions:
            if isinstance(r.body, CompulsoryBody):
                for name in r.body.mappings:
                    mapping = target.mapping(name)
                    if mapping is None:
                        self._diag(ERROR, "unknown-mapping",
                                   f"{r.label} names unknown mapping {name!r}", r.label)
                        continue
                    mapping.total = True
                    mapping.source_labels["total"] = r.label
                    facet = ref_mapping(s.name, name, f"total:{r.label}")
                    self._provenance(facet, src_restriction(r.label, name))
                    self._step(STEP_COMPULSORY, src_restriction(r.label, name), facet)

        for r in restrictions:
            if isinstance(r.body, UniquenessBody) and not r.body.is_singleton:
                missing = [n for n in r.body.mappings if target.mapping(n) is None]
                if missing:
                    self._diag(ERROR, "unknown-mapping",
                               f"{r.label} names unknown mappings {missing}", r.label)
                    continue
                key = Key(label=r.label, mappings=tuple(r.body.mappings))
                key.implicit = is_implicit_key(key, target)
                target.keys.append(key)
                self._provenance(ref_key(s.name, r.label), src_restriction(r.label))
                self._step(STEP_KEY, src_restriction(r.label), ref_key(s.name, r.label))
                if key.implicit:
                    self.report.implicit_keys.append(ImplicitKeyNote(
                        s.name, r.label, key.mappings, "declared-absorbed",
                    ))

        for r in restrictions:
            if isinstance(r.body, OtherBody) and r.body.formal is not None:
                if quantifier_count(r.body.formal) == 1:
                    self._add_tuple_constraint(r.label, s.name, r.body.formal,
                                               STEP_TUPLE, src_restriction(r.label))
        return self.scheme

    def _add_attribute(self, s: ObjectSet, target: EMDMSet, attr: Attribute) -> None:
        source = src_attribute(s.name, attr.name)
        if attr.is_computed:
            mapping = Mapping(
                name=attr.name, source=s.name, codomain=None,
                flavor=sch.ATTRIBUTE, computed_definition=attr.computed_definition,
            )
        else:
            rng, rng_source = effective_range(self.model, s, attr)
            mapping = Mapping(
                name=attr.name, source=s.name, codomain=rng, flavor=sch.ATTRIBUTE,
            )
            if rng_source is not None and rng_source.startswith("restriction:"):
                label = rng_source.split(":", 1)[1]
                mapping.source_labels["codomain"] = label
                self._provenance(ref_mapping(s.name, attr.name, "codomain"), rng_source)
        target.mappings.append(mapping)
        self._provenance(ref_mapping(s.name, attr.name), source)
        self._step(STEP_ATTRIBUTE, source, ref_mapping(s.name, attr.name))

    def _add_tuple_constraint(
        self, label: str, set_name: str, formula: Formula, step_kind: str, source: str
    ) -> None:
        constraint = TupleConstraint(label=label, set_name=set_name, formula=formula)
        problems = resolve_formula(self.scheme, formula)
        for problem in problems:
            self._diag(ERROR, "formula-resolution", f"{label}: {problem}", label)
        self.scheme.constraints.append(constraint)
        self._provenance(ref_constraint(constraint), source)
        self._step(step_kind, source, ref_constraint(constraint))

    # -- trailing nonrelational pass --

    def _translate_nonrelational(self) -> None:
        for r in self.model.restrictions:
            if not isinstance(r.body, OtherBody):
                continue
            formula = r.body.formal
            if formula is not None and quantifier_count(formula) == 1:
                continue  # already placed in its set's block
            source = src_restriction(r.label)
            if formula is None:
                formula = self._formalize(r)
            if formula is not None and quantifier_count(formula) == 1:
                # A late answer turned out single-variable; it still counts as
                # a nonrelational step because this loop performed it.
                self._add_tuple_constraint(
                    r.label, quantifier_domains(formula)[0], formula,
                    STEP_NONRELATIONAL, source,
                )
                continue
            constraint = NonrelationalConstraint(
                label=r.label, formula=formula, informal=r.body.informal,
            )
            if formula is not None:
                for problem in resolve_formula(self.scheme, formula):
                    self._diag(ERROR, "formula-resolution", f"{r.label}: {problem}", r.label)
            self.scheme.constraints.append(constraint)
            self._provenance(ref_constraint(constraint), source)
            self._step(STEP_NONRELATIONAL, source, ref_constraint(constraint))

    def _formalize(self, r: Restriction) -> Formula | None:
        answer = resolve_answer(
            r.label, "formalization",
            f"{r.label} ({r.body.informal or 'no informal text'}) has no formal body; "
            "provide a formula",
            self.options.answers, self._prompter, self.report.pending_questions,
        )
        if answer is None:
            self._diag(WARNING, "unformalized",
                       f"{r.label} remains unformalized; carried as informal text only",
                       r.label)
            return None
        try:
            return parse_formula(answer)
        except Exception as exc:  # noqa: BLE001 - surfaced as a diagnostic
            self._diag(WARNING, "bad-formalization",
                       f"supplied formula for {r.label} does not parse: {exc}", r.label)
            return None

    # -- enrichment --

    def _enrich(self) -> None:
        enriched, actions, diagnostics, pending = enrich_scheme(
            self.scheme, self.options.answers, self._prompter,
        )
        self.scheme = enriched
        self.report.enrichment_actions.extend(actions)
        self.report.diagnostics.extend(diagnostics)
        self.report.pending_questions.extend(pending)
        for action in actions:
            if action.rule == RULE_STRUCTURAL_KEY and action.resulting_labels:
                self.report.implicit_keys.append(ImplicitKeyNote(
                    action.details["set"], action.details["label"],
                    tuple(action.details["mappings"]), "generated",
                ))


def translate(model: ERModel, options: TranslationOptions | None = None) -> TranslationResult:
    """Translate *model*; on any error diagnostic the scheme is withheld."""
    return Translator(model, options).run()
