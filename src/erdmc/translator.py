"""The translation pipeline: ordering, set construction, and step accounting.

Rectangles are processed bottom-up (referenced sets first), then diamonds in
the same order; nonrelational rules come last; the enrichment pass closes
the run. Every translated element is logged as exactly one step so the step
log can be audited against the independent census.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .census import ELEMENT_CLASSES, Tallies
from .diagnostics import WARNING, Diagnostics, ParseFailure
from .enrichment import (
    Answers,
    EnrichmentAction,
    EnrichmentLog,
    PendingQuestion,
    Prompter,
    RULE_MISSING_DEFINITION,
    RULE_STRUCTURAL_KEY,
    apply_input_defaults,
    enrich_scheme,
)
from .formula import Formula, parse_formula, quantifier_count, quantifier_domains
from .model import (
    COMPUTED,
    RELATIONSHIP,
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
    ENRICHMENT_PREFIX,
    Constraint,
    EMDMScheme,
    EMDMSet,
    InclusionConstraint,
    Key,
    Mapping,
    NonrelationalConstraint,
    TupleConstraint,
    check_constraint,
    is_implicit_key,
    ref_constraint,
    ref_key,
    ref_mapping,
    ref_set,
    role_names,
)


@dataclass(frozen=True)
class TranslationOptions:
    """How to translate; the translator prompts only when *prompter* is given."""

    dbms_max_cardinality: int = 10 ** 9
    answers: Answers | None = None
    prompter: Prompter | None = None


class ImplicitKeyNote(NamedTuple):
    set_name: str
    label: str
    mappings: tuple[str, ...]
    origin: str  # "declared-absorbed" | "generated"


@dataclass
class TranslationReport:
    steps: list[tuple[str, str, str]] = field(default_factory=list)  # (kind, source, produced)
    tallies: Tallies | None = None
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    pending_questions: list[PendingQuestion] = field(default_factory=list)
    implicit_keys: list[ImplicitKeyNote] = field(default_factory=list)
    enrichment_actions: list[EnrichmentAction] = field(default_factory=list)


@dataclass
class TranslationResult:
    """A translation and what it translated.

    *model* is the model after the input defaults, or the model as given
    when validation rejected it before they ran.
    """

    scheme: EMDMScheme | None
    report: TranslationReport
    model: ERModel


def tallies_from_steps(steps: list[tuple[str, str, str]], compulsory_lines: int = 0) -> Tallies:
    logged = Counter(kind for kind, _, _ in steps)
    counts = {name: logged[kind] for name, (kind, _) in ELEMENT_CLASSES.items()}
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


def _reference_order(model: ERModel, diagnostics: Diagnostics) -> list[ObjectSet]:
    """Kahn's algorithm over the set-reference graph, referenced sets first.

    Edges run from a referencing set to each other set that its roles,
    structural functions and inclusions (inline or restrictions) point at.
    Ties break by declaration order; cycles degrade to declaration order
    for the stuck sets, with a warning.
    """
    sets = model.object_sets()
    index = {s.name: i for i, s in enumerate(sets)}
    depends: dict[int, set[int]] = {i: set() for i in range(len(sets))}
    dependents: dict[int, set[int]] = {i: set() for i in range(len(sets))}
    for i, s in enumerate(sets):
        targets = [r.target for r in s.roles]
        targets += [f.target for f in s.structural_functions]
        targets += [superset for superset, _, _ in effective_inclusions(model, s)]
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
    stuck = 0  # the least of remaining at a cycle; remaining only shrinks, so it only grows
    while ready or remaining:
        if not ready:  # cycle: fall back to declaration order
            while stuck not in remaining:
                stuck += 1
            diagnostics.add("reference-cycle", sets[stuck].name, f"{sets[stuck].name} "
                            "participates in a reference cycle; declaration order used", WARNING)
            remaining.discard(stuck)
            heapq.heappush(ready, stuck)  # popped next, it frees its dependents below
            continue
        i = heapq.heappop(ready)
        order.append(i)
        for j in dependents[i]:
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
        self.members: dict[str, dict[str, Mapping]] = {}  # each set's members by name, as translated
        # Questions and firings of every rule, and the formalization
        # questions, go straight into the report in the order they happen.
        self.log = EnrichmentLog(
            self.options.answers, self.options.prompter,
            actions=self.report.enrichment_actions,
            diagnostics=self.report.diagnostics,
            pending=self.report.pending_questions,
        )

    # -- plumbing --

    def _step(self, element_class: str, source: str, produced: str) -> None:
        """Record one step of *element_class* and the provenance of what it produced."""
        self.scheme.provenance[produced] = source
        self.report.steps.append((ELEMENT_CLASSES[element_class][0], source, produced))

    # -- pipeline --

    def run(self) -> TranslationResult:
        issues = validate_model(self.model)
        self.report.diagnostics.extend(issues)
        if not issues.errors:
            dbms_max = self.options.dbms_max_cardinality
            self.model = apply_input_defaults(self.model, dbms_max, log=self.log).model
            # Rules (i)-(iii) write the maximum or DEFAULT_RANGE only where none is declared,
            # valid if the maximum is at least 1: only rule (iv) can break the model otherwise.
            if dbms_max < 1 or any(a.rule == RULE_MISSING_DEFINITION for a in self.log.actions):
                issues = validate_model(self.model)
                for issue in issues.errors:
                    self.report.diagnostics.add(
                        issue.code, issue.element, f"after input defaults: {issue.message}")
        if issues.errors:
            return TranslationResult(None, self.report, self.model)

        global_order = _reference_order(self.model, self.report.diagnostics)
        rank = {s.name: i for i, s in enumerate(global_order)}
        for d in self.model.diagrams:
            # Rectangles first, then diamonds, each in reference order.
            for s in sorted(d.sets, key=lambda s: (s.kind == RELATIONSHIP, rank[s.name])):
                self._add_set(s)

        self._translate_nonrelational()
        # Checked once all are in: a check may reach sets added after its own.
        sets = {s.name: s for s in self.scheme.sets}  # valid, so no two share a name
        for c in self.scheme.constraints:
            check_constraint(sets, self.members, c, self.report.diagnostics.add)
        self._enrich()

        compulsory_lines = sum(
            1 for r in self.model.restrictions if isinstance(r.body, CompulsoryBody)
        )
        self.report.tallies = tallies_from_steps(self.report.steps, compulsory_lines)
        scheme = None if self.report.diagnostics.errors else self.scheme
        return TranslationResult(scheme, self.report, self.model)

    # -- sets --

    def _add_set(self, s: ObjectSet) -> None:
        """Add *s*: the set, its identifier, inclusions, roles, structural
        functions and attributes, then the restrictions on it.

        Precondition: the model passes validate_model after the input defaults
        (run checks it again where they can break it), and *s* is not yet added.
        So a computed set brings only its definition, only a relationship has
        roles, and every mapping a restriction names exists on the set.
        """
        if s.kind == COMPUTED:
            kind, element_class = sch.COMPUTED, "computed_sets"
        elif s.kind == RELATIONSHIP:
            kind, element_class = sch.RELATIONSHIP_DERIVED, "relationship_sets"
        else:
            kind, element_class = sch.ENTITY_DERIVED, "entity_sets"
        target = EMDMSet(
            name=s.name, kind=kind,
            role_signature=tuple((role.name, role.target) for role in s.roles),
        )
        self.scheme.sets.append(target)
        self._step(element_class, src_set(s.name), ref_set(s.name))
        if s.kind == COMPUTED:
            target.computed_definition = s.computed_definition
        else:
            max_card, card_source = effective_cardinality(self.model, s)
            target.object_identifier = Mapping(
                name=OBJECT_IDENTIFIER, codomain=NatRange(surrogate_digits(max_card)),
                flavor=sch.OBJECT_IDENTIFIER, total=True, one_to_one=True,
            )
            self.scheme.provenance[ref_mapping(s.name, OBJECT_IDENTIFIER)] = card_source

        for superset, source, label in effective_inclusions(self.model, s):
            self._add_constraint(InclusionConstraint(s.name, superset, label), "inclusions", source)

        for role in s.roles:
            target.mappings.append(Mapping(
                name=role.name, codomain=role.target,
                flavor=sch.ROLE, total=False, one_to_one=role.declared_unique,
            ))
            self._step("roles", src_role(s.name, role.name), ref_mapping(s.name, role.name))

        for fn in s.structural_functions:
            mapping = Mapping(
                name=fn.name, codomain=fn.target, flavor=sch.STRUCTURAL_FUNCTION,
                computed_definition=fn.computed_definition,
            )
            target.mappings.append(mapping)
            self._step("structural_functions", src_function(s.name, fn.name),
                       ref_mapping(s.name, fn.name))

        for attr in s.attributes:
            rng, rng_source = effective_range(self.model, s, attr)  # a computed one has none
            mapping = Mapping(
                name=attr.name, codomain=rng, flavor=sch.ATTRIBUTE,
                computed_definition=attr.computed_definition,
            )
            if rng_source is not None and rng_source.startswith("restriction:"):
                mapping.source_labels["codomain"] = rng_source.split(":", 1)[1]
                self.scheme.provenance[ref_mapping(s.name, attr.name, "codomain")] = rng_source
            target.mappings.append(mapping)
            self._step("attributes", src_attribute(s.name, attr.name),
                       ref_mapping(s.name, attr.name))

        restrictions = self.model.restrictions_on(s.name)
        mappings = self.members[s.name] = {m.name: m for m in target.mappings}
        if target.object_identifier is not None:  # valid, so no other member is named x
            mappings[OBJECT_IDENTIFIER] = target.object_identifier
        for r in restrictions:
            if isinstance(r.body, UniquenessBody) and r.body.is_singleton:
                name = r.body.mappings[0]
                mapping = mappings[name]
                mapping.one_to_one = True
                mapping.source_labels["unique"] = r.label
                facet = ref_mapping(s.name, name, f"unique:{r.label}")
                self._step("unique_singletons", src_restriction(r.label), facet)

        for r in restrictions:
            if isinstance(r.body, CompulsoryBody):
                for name in r.body.mappings:
                    mapping = mappings[name]
                    mapping.total = True
                    mapping.source_labels["total"] = r.label
                    facet = ref_mapping(s.name, name, f"total:{r.label}")
                    self._step("compulsory_members", src_restriction(r.label, name), facet)

        roles = role_names(target)
        for r in restrictions:
            if isinstance(r.body, UniquenessBody) and not r.body.is_singleton:
                key = Key(label=r.label, mappings=tuple(r.body.mappings))
                key.implicit = is_implicit_key(key, target, roles)
                target.keys.append(key)
                self._step("concatenated_keys", src_restriction(r.label), ref_key(s.name, r.label))

        for r in restrictions:
            if isinstance(r.body, OtherBody) and r.body.formal is not None:
                if quantifier_count(r.body.formal) == 1:
                    self._add_constraint(
                        TupleConstraint(label=r.label, set_name=s.name, formula=r.body.formal),
                        "tuple_checks", src_restriction(r.label),
                    )

    def _add_constraint(self, constraint: Constraint, element_class: str, source: str) -> None:
        self.scheme.constraints.append(constraint)
        self._step(element_class, source, ref_constraint(constraint))

    # -- trailing nonrelational pass --

    def _translate_nonrelational(self) -> None:
        for r in self.model.restrictions:
            if not isinstance(r.body, OtherBody):
                continue
            formula = r.body.formal
            if formula is not None and quantifier_count(formula) == 1:
                continue  # already placed in its set's block
            if formula is None:
                formula = self._formalize(r)
            if formula is not None and quantifier_count(formula) == 1:
                # A late answer turned out single-variable; it still counts as
                # a nonrelational step because this loop performed it.
                constraint = TupleConstraint(
                    label=r.label, set_name=quantifier_domains(formula)[0], formula=formula,
                )
            else:
                constraint = NonrelationalConstraint(
                    label=r.label, formula=formula, informal=r.body.informal,
                )
            self._add_constraint(constraint, "nonrelational", src_restriction(r.label))

    def _formalize(self, r: Restriction) -> Formula | None:
        answer = self.log.ask(
            r.label, "formalization",
            f"{r.label} ({r.body.informal or 'no informal text'}) has no formal body; "
            "provide a formula",
        )
        if answer is None:
            self.report.diagnostics.add("unformalized", r.label, f"{r.label} remains "
                                        "unformalized; carried as informal text only", WARNING)
            return None
        try:
            return parse_formula(answer)
        except ParseFailure as exc:
            self.report.diagnostics.add("bad-formalization", r.label, f"supplied formula for "
                                        f"{r.label} does not parse: {exc}", WARNING)
            return None

    # -- enrichment --

    def _enrich(self) -> None:
        """Enrich, then list the finished scheme's implicit keys, declared before generated."""
        enrich_scheme(self.scheme, self.log)
        provenance, generated = self.scheme.provenance, ENRICHMENT_PREFIX + RULE_STRUCTURAL_KEY
        notes = [
            ImplicitKeyNote(s.name, k.label, k.mappings,
                            "generated" if provenance.get(ref_key(s.name, k.label)) == generated
                            else "declared-absorbed")
            for s in self.scheme.sets for k in s.keys if k.implicit
        ]
        self.report.implicit_keys = sorted(notes, key=lambda note: note.origin == "generated")


def translate(model: ERModel, options: TranslationOptions | None = None) -> TranslationResult:
    """Translate *model*; on any error diagnostic the scheme is withheld."""
    return Translator(model, options).run()
