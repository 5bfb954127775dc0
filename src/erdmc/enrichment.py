"""Deterministic enrichment rules applied around the core translation.

Rules (i)-(iv) repair the input model before translation: missing
cardinalities, oversized cardinalities, missing attribute ranges, and
computed elements without definitions. Rules (v)-(ix) complete the
translated scheme: role/identifier totality, binary-relationship collapse,
structural keys, a fallback compulsory mapping, and a fallback uniqueness
mapping. Every rule asks its questions and records its firings through one
:class:`EnrichmentLog`: each firing is an action plus at least one
diagnostic.

Rules (v)-(ix) and :func:`enrich_scheme` change the scheme they are given in
place and return nothing: a rule changes the scheme, and records the
provenance of what it changed, where it decides to fire, since labels, free
names and references depend on earlier firings. The translator owns its
scheme, so copying it would only cost time.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping as MappingType, NamedTuple

from .diagnostics import INFO, WARNING, Diagnostics
from .formula import quantifier_domains
from .model import (
    COMPUTED,
    AsciiRange,
    Attribute,
    CardinalityBody,
    Diagram,
    ERModel,
    ObjectSet,
    Restriction,
    StructuralFunction,
    breaks_line,
    effective_cardinality,
    effective_range,
    facet_of,
    src_attribute,
    src_function,
    src_set,
)
from . import scheme as sch
from .scheme import (
    EMDMScheme,
    EMDMSet,
    ENRICHMENT_PREFIX,
    GENERATED,
    Key,
    Mapping,
    RELATIONSHIP_DERIVED,
    STRUCTURAL_FUNCTION,
    ref_key,
    ref_mapping,
    ref_owner,
    ref_set,
)

RULE_MISSING_CARDINALITY = "i"
RULE_CARDINALITY_CLAMP = "ii"
RULE_DEFAULT_RANGE = "iii"
RULE_MISSING_DEFINITION = "iv"
RULE_TOTALITY = "v"
RULE_COMPULSORY = "vi"
RULE_STRUCTURAL_KEY = "vii"
RULE_COLLAPSE = "viii"
RULE_UNIQUENESS = "ix"

FALLBACK_COMPULSORY = "Compulsory"
FALLBACK_UNIQUE = "UniqueMapping"
# The range of rule (iii) and of the rule (vi)/(ix) mappings. Ranges are
# immutable, so every defaulted attribute and generated mapping shares it.
DEFAULT_RANGE = AsciiRange(255)


class Question(NamedTuple):
    """An interactive prompt issued while translating or enriching."""

    subject: str  # set name, mapping path, or restriction label
    kind: str  # "computed-definition" | "bijection-direction" | "formalization"
    prompt: str


class PendingQuestion(NamedTuple):
    question: Question
    answer: str | None
    origin: str  # "answers" | "prompt" | "unanswered"


class EnrichmentAction(NamedTuple):
    """One rule firing, as the report lists it."""

    rule: str
    target: str
    description: str
    resulting_labels: tuple[str, ...] = ()


Prompter = Callable[[Question], "str | None"]
# Each question subject to its answers by kind; None stands for no answer.
Answers = MappingType[str, MappingType[str, "str | None"]]


@dataclass
class EnrichmentLog:
    """Where the rules ask their questions and record their firings.

    It holds the scripted *answers*, the *prompter*, and the lists that
    questions, actions and diagnostics land in, in the order they happen.
    The translator builds one over its report's own lists.
    """

    answers: Answers | None = None
    prompter: Prompter | None = None
    actions: list[EnrichmentAction] = field(default_factory=list)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    pending: list[PendingQuestion] = field(default_factory=list)

    def ask(self, subject: str, kind: str, prompt: str) -> str | None:
        """Look up a scripted answer, fall back to an interactive prompt.

        Either way the exchange is kept in *pending*, so a translation's
        questions can be replayed from its report.
        """
        question = Question(subject, kind, prompt)
        scripted = self.answers.get(subject, {}).get(kind) if self.answers else None
        if scripted is not None:
            self.pending.append(PendingQuestion(question, scripted, "answers"))
            return scripted
        answer = self.prompter(question) if self.prompter is not None else None
        if answer:
            self.pending.append(PendingQuestion(question, answer, "prompt"))
            return answer
        self.pending.append(PendingQuestion(question, None, "unanswered"))
        return None

    def record(
        self, action: EnrichmentAction, code: str, element: str, message: str, severity: str
    ) -> None:
        """Record one firing with its diagnostic."""
        self.actions.append(action)
        self.diagnostics.add(code, element, message, severity)


@dataclass
class InputDefaultsResult:
    model: ERModel
    diagnostics: Diagnostics
    actions: list[EnrichmentAction]
    pending: list[PendingQuestion]


def apply_input_defaults(
    model: ERModel, dbms_max_cardinality: int, *, log: EnrichmentLog | None = None,
) -> InputDefaultsResult:
    """Rules (i)-(iv): repair the model before translation.

    Questions and firings go to *log*, or to a fresh log with no answers
    and no prompter; the result carries that log's lists.
    """
    if log is None:
        log = EnrichmentLog()
    diagrams = []
    for d in model.diagrams:
        sets = (_default_one_set(s, model, dbms_max_cardinality, log) for s in d.sets)
        diagrams.append(Diagram(name=d.name, sets=tuple(s for s in sets if s is not None)))

    restrictions = []
    for r in model.restrictions:
        if isinstance(r.body, CardinalityBody) and r.body.maximum > dbms_max_cardinality:
            log.record(
                EnrichmentAction(
                    RULE_CARDINALITY_CLAMP, r.label,
                    f"clamped {r.label} to {dbms_max_cardinality}",
                ),
                "cardinality-clamped", r.label,
                f"{r.label} exceeds the DBMS maximum {dbms_max_cardinality}; clamped", WARNING,
            )
            r = Restriction(r.label, r.target, CardinalityBody(dbms_max_cardinality, None))
        restrictions.append(r)

    return InputDefaultsResult(
        ERModel(tuple(diagrams), tuple(restrictions), model.description),
        log.diagnostics, log.actions, log.pending,
    )


def _default_one_set(
    s: ObjectSet, model: ERModel, dbms_max: int, log: EnrichmentLog
) -> ObjectSet | None:
    # A record is rebuilt with one constructor call: a third of the cost of dataclasses.replace.
    card, pow10, definition = s.max_cardinality, s.cardinality_pow10, s.computed_definition
    attributes, functions = s.attributes, s.structural_functions
    if s.kind == COMPUTED:
        if (definition := _define(definition, "set", s.name, src_set(s.name), log)) is None:
            return None
    else:
        effective, _ = effective_cardinality(model, s)
        if effective is None:
            log.record(
                EnrichmentAction(
                    RULE_MISSING_CARDINALITY, src_set(s.name),
                    f"defaulted cardinality of {s.name} to {dbms_max}",
                ),
                "cardinality-defaulted", s.name,
                f"{s.name} has no maximum cardinality; using the DBMS maximum {dbms_max}", INFO,
            )
            card, pow10 = dbms_max, None
        elif effective > dbms_max and card is not None and card > dbms_max:
            log.record(
                EnrichmentAction(
                    RULE_CARDINALITY_CLAMP, src_set(s.name),
                    f"clamped cardinality of {s.name} to {dbms_max}",
                ),
                "cardinality-clamped", s.name,
                f"{s.name} cardinality exceeds the DBMS maximum {dbms_max}; clamped", WARNING,
            )
            card, pow10 = dbms_max, None

        attributes, functions = [], []
        for a in s.attributes:
            if a.is_computed:
                if (d := _define(a.computed_definition, "attribute", f"{s.name}.{a.name}",
                                 src_attribute(s.name, a.name), log)) is None:
                    continue
                a = Attribute(name=a.name, range=a.range, computed_definition=d)
            elif effective_range(model, s, a)[0] is None:
                log.record(
                    EnrichmentAction(
                        RULE_DEFAULT_RANGE, src_attribute(s.name, a.name),
                        f"defaulted range of {s.name}.{a.name} to ASCII(255)",
                    ),
                    "range-defaulted", f"{s.name}.{a.name}",
                    f"{s.name}.{a.name} has no range; assuming ASCII(255)", INFO,
                )
                a = Attribute(name=a.name, range=DEFAULT_RANGE, computed_definition=None)
            attributes.append(a)
        for f in s.structural_functions:
            if f.is_computed:
                if (d := _define(f.computed_definition, "function", f"{s.name}.{f.name}",
                                 src_function(s.name, f.name), log)) is None:
                    continue
                f = StructuralFunction(name=f.name, target=f.target, computed_definition=d)
            functions.append(f)
        attributes, functions = tuple(attributes), tuple(functions)

    # Tuples compare their items by identity first, so the test is cheap.
    if (card, pow10, definition, attributes, functions) == (s.max_cardinality,
            s.cardinality_pow10, s.computed_definition, s.attributes, s.structural_functions):
        return s
    return ObjectSet(name=s.name, kind=s.kind, attributes=attributes, roles=s.roles,
                     structural_functions=functions, included_in=s.included_in,
                     max_cardinality=card, cardinality_pow10=pow10, computed_definition=definition)


def _define(definition: str | None, noun: str, name: str, source: str, log: EnrichmentLog):
    """Rule (iv) for a computed set, attribute or function, given its *definition*.

    A definition that is missing or blank is asked of *log*; returns the
    definition the element ends up with, or None when it is dropped. A blank
    answer counts as none, unless it breaks a line: validation then refuses it.
    """
    if (definition or "").strip():
        return definition
    definition = log.ask(
        name, "computed-definition", f"computed {noun} {name} has no definition; provide one",
    ) or ""
    if not definition.strip() and not breaks_line(definition):
        log.record(
            EnrichmentAction(RULE_MISSING_DEFINITION, source, f"dropped computed {noun} {name}"),
            "computed-dropped", name,
            f"computed {noun} {name} has no definition and was ignored", WARNING,
        )
        return None
    # A set's message names its kind; a member's, only its dotted name.
    supplied = f"computed set {name}" if noun == "set" else name
    log.record(
        EnrichmentAction(
            RULE_MISSING_DEFINITION, source, f"filled definition of computed {noun} {name}",
        ),
        "computed-definition-supplied", name,
        f"definition for {supplied} supplied interactively", INFO,
    )
    return definition


# --- scheme-side rules (v)-(ix) ---


def ensure_totality(scheme: EMDMScheme, log: EnrichmentLog) -> None:
    """Rule (v): every role and object identifier is total."""
    for s in scheme.sets:
        candidates = list(s.mappings)
        if s.object_identifier is not None:
            candidates.append(s.object_identifier)
        for m in candidates:
            if m.flavor in (sch.ROLE, sch.OBJECT_IDENTIFIER) and not m.total:
                m.total = True
                scheme.provenance[ref_mapping(s.name, m.name, "total")] = (
                    ENRICHMENT_PREFIX + RULE_TOTALITY)
                element = f"{s.name}.{m.name}"
                log.record(
                    EnrichmentAction(
                        RULE_TOTALITY, ref_mapping(s.name, m.name), f"made {element} total",
                    ),
                    "totality-added", element, f"added totality to {element}", INFO,
                )


_LABEL = re.compile(r"R0*(\d+)")
# A restriction's provenance: "restriction:", its label, then a [member] for some.
_RESTRICTION_LABEL = re.compile(rf"restriction:{_LABEL.pattern}(?:\[|\Z)")


def _labels_in_use(scheme: EMDMScheme) -> set[int]:
    """Numeric values of every Rnn label visible anywhere in the scheme."""
    labels = [k.label for s in scheme.sets for k in s.keys]
    labels += [lbl for s in scheme.sets for m in s.mappings for lbl in m.source_labels.values()]
    labels += [c.label for c in scheme.constraints]
    values = {int(m.group(1)) for m in map(_LABEL.fullmatch, filter(None, labels)) if m}
    values.update(int(m.group(1))
                  for m in map(_RESTRICTION_LABEL.match, scheme.provenance.values()) if m)
    return values


def next_label(scheme: EMDMScheme) -> str:
    """Continue numbering from the largest Rnn label in use."""
    used = _labels_in_use(scheme)
    return f"R{(max(used) + 1 if used else 1):02d}"


def ensure_structural_key(scheme: EMDMScheme, log: EnrichmentLog) -> None:
    """Rule (vii): every relationship-derived set gets a roles-only key.

    A set already holding a roles-only key or a one-to-one role is left
    alone. Single-role sets receive the degenerate form: a uniqueness flag
    on their only role.

    Only this loop adds labels, so the scheme is scanned for its largest
    label once, at the first generated key; each later key takes the
    previous label plus one, which is what a fresh scan would give.
    """
    source = ENRICHMENT_PREFIX + RULE_STRUCTURAL_KEY
    label = None
    for s in scheme.sets:
        if s.kind != RELATIONSHIP_DERIVED:
            continue
        roles = s.role_mappings()
        if not roles:
            continue
        role_names = {m.name for m in roles}
        has_structural = any(set(k.mappings) <= role_names for k in s.keys) or any(
            m.one_to_one for m in roles
        )
        if has_structural:
            continue
        if len(roles) == 1:
            (role,) = roles
            role.one_to_one = True
            scheme.provenance[ref_mapping(s.name, role.name, "unique")] = source
            element = f"{s.name}.{role.name}"
            log.record(
                EnrichmentAction(
                    RULE_STRUCTURAL_KEY, ref_mapping(s.name, role.name),
                    f"made single role {element} one-to-one (degenerate structural key)",
                ),
                "structural-key-added", element,
                f"single role {element} made one-to-one in place of a structural key; "
                "review against the business rules", INFO,
            )
            continue
        label = next_label(scheme) if label is None else f"R{int(label[1:]) + 1:02d}"
        mappings = tuple(m.name for m in roles)
        s.keys.append(Key(label, mappings, implicit=True))
        scheme.provenance[ref_key(s.name, label)] = source
        bullet = " • ".join(mappings)
        log.record(
            EnrichmentAction(
                RULE_STRUCTURAL_KEY, ref_set(s.name), f"{label}: {bullet}",
                resulting_labels=(label,),
            ),
            "structural-key-added", s.name,
            f"added structural key {label} ({bullet}) to {s.name}; "
            "review whether it matches a real business rule", INFO,
        )


def ensure_compulsory(scheme: EMDMScheme, log: EnrichmentLog) -> None:
    """Rule (vi): fundamental sets without a total mapping gain one."""
    _ensure_fallback(
        scheme, log, RULE_COMPULSORY, FALLBACK_COMPULSORY,
        lambda s: any(m.total for m in s.mappings),
        "total mapping", "compulsory-added", "compulsory mapping",
    )


def ensure_uniqueness(scheme: EMDMScheme, log: EnrichmentLog) -> None:
    """Rule (ix): fundamental sets without any uniqueness gain a unique mapping."""
    _ensure_fallback(
        scheme, log, RULE_UNIQUENESS, FALLBACK_UNIQUE,
        lambda s: bool(s.keys) or any(m.one_to_one for m in s.mappings),
        "one-to-one total mapping", "uniqueness-added", "uniqueness",
    )


def _ensure_fallback(
    scheme: EMDMScheme,
    log: EnrichmentLog,
    rule: str,
    wanted: str,
    satisfied: Callable[[EMDMSet], bool],
    added: str,
    code: str,
    lacking: str,
) -> None:
    """Rules (vi) and (ix): give each unsatisfied fundamental set a generated mapping."""
    for s in scheme.sets:
        if s.kind == sch.COMPUTED or satisfied(s):
            continue
        name, clash = _free_name(lambda n: s.mapping(n) is not None, wanted)
        element = f"{s.name}.{name}"
        if clash:
            log.diagnostics.add("name-clash", element, f"{s.name} already has a mapping named "
                                f"{wanted}; using {name}", WARNING)
        s.mappings.append(Mapping(
            name=name, codomain=DEFAULT_RANGE,
            flavor=GENERATED, total=True, one_to_one=rule == RULE_UNIQUENESS,
        ))
        scheme.provenance[ref_mapping(s.name, name)] = ENRICHMENT_PREFIX + rule
        log.record(
            EnrichmentAction(rule, ref_set(s.name), f"added {added} {element} into ASCII(255)"),
            code, element, f"{s.name} has no {lacking}; added {name}", INFO,
        )


def _free_name(taken: Callable[[str], bool], wanted: str) -> tuple[str, bool]:
    """*wanted*, or if it is *taken* the first of *wanted* 1, 2, ... that is not; and whether it was."""
    if not taken(wanted):
        return wanted, False
    n = 1
    while taken(f"{wanted}{n}"):
        n += 1
    return f"{wanted}{n}", True


def collapse_binary_relationships(scheme: EMDMScheme, log: EnrichmentLog) -> None:
    """Rule (viii): a binary relationship with a unique role becomes a function.

    ``R = (f -> S, g -> T)`` with ``f`` unique collapses into the mapping
    ``R : S -> T`` placed on ``S``; both roles unique yields a one-to-one
    mapping in the user-chosen direction. Relationships carrying attributes,
    or referenced by other mappings or constraints, are skipped with a
    warning because the replacement text covers only roles. So is one whose
    new mapping would sit on, or point at, the relationship itself, which
    the collapse removes, one whose home is a computed set, and one whose
    new mapping's name would read as a facet of a member of its home.

    At the first collapse the provenance references are grouped by owning
    set, and each collapse moves its relationship's group. The groups stay
    complete: rule (v) has already run, and a collapse records only under
    its home, which then holds a third mapping and so never collapses.
    Collapsed relationships leave ``scheme.sets`` at the end of the pass. No lookup
    reaches one before: a role naming a relationship references it, which blocks its collapse.
    """
    sets = {s.name: s for s in reversed(scheme.sets)}  # the first of a name wins
    references: Counter[str] | None = None  # counted at the first candidate
    owned: dict[str, list[str]] | None = None  # grouped at the first collapse
    names: dict[str, set[str]] = {}  # each home's mapping names, from its first collapse on
    gone: list[EMDMSet] = []

    for s in scheme.sets:
        if s.kind != RELATIONSHIP_DERIVED:
            continue
        roles = s.role_mappings()
        if len(roles) != 2:
            continue
        first, second = roles
        if not (first.one_to_one or second.one_to_one):
            continue
        if len(s.mappings) != 2:  # anything beyond the two roles blocks the collapse
            log.diagnostics.add("collapse-skipped", s.name, f"{s.name} has a unique role but "
                                "carries attributes; left as a relationship", WARNING)
            continue
        if references is None:
            references = _reference_counts(scheme)
        if references[s.name]:
            log.diagnostics.add("collapse-skipped", s.name, f"{s.name} has a unique role but "
                                "is referenced elsewhere; left as a relationship", WARNING)
            continue

        if first.one_to_one and second.one_to_one:
            default = f"{first.codomain}->{second.codomain}"
            reverse = f"{second.codomain}->{first.codomain}"
            answer = log.ask(
                s.name, "bijection-direction",
                f"{s.name} is one-to-one both ways; choose {default} or {reverse}",
            )
            if answer == reverse and default != reverse:
                source_role, target_role = second, first
            else:
                if answer not in (default, reverse):
                    log.diagnostics.add("collapse-default-direction", s.name, "no usable "
                                        f"direction for {s.name}; defaulting to {default}", WARNING)
                source_role, target_role = first, second
            one_to_one = True
        elif first.one_to_one:
            source_role, target_role = first, second
            one_to_one = False
        else:
            source_role, target_role = second, first
            one_to_one = False

        home = sets.get(source_role.codomain)
        if home is s or home.kind == sch.COMPUTED:
            log.diagnostics.add("collapse-skipped", s.name,
                                f"{s.name} cannot collapse onto {home.name}", WARNING)
            continue
        if target_role.codomain == s.name:
            log.diagnostics.add("collapse-skipped", s.name, f"{s.name} cannot collapse into a "
                                f"mapping that targets {s.name}", WARNING)
            continue
        if (taken := names.get(home.name)) is None:
            taken = names[home.name] = {m.name for m in home.mappings}
        ident = home.object_identifier and home.object_identifier.name  # clashes, owns no facet
        name, clash = _free_name(lambda n: n in taken or n == ident, s.name)
        if collision := facet_of(name, taken):
            owner, facet = collision
            log.diagnostics.add("collapse-skipped", s.name, f"{s.name} cannot collapse onto "
                                f"{home.name}: a mapping named {name} would read as the {facet} "
                                f"facet of {home.name}.{owner}", WARNING)
            continue
        if clash:
            log.diagnostics.add("name-clash", f"{home.name}.{name}", f"{home.name} already has a "
                                f"mapping named {s.name}; using {name}", WARNING)
        if owned is None:
            owned = {}
            for ref in scheme.provenance:
                if (owner := ref_owner(ref)) is not None:
                    owned.setdefault(owner, []).append(ref)
        _collapse(scheme, s, home, name, source_role, target_role, one_to_one,
                  owned.pop(s.name, []))
        taken.add(name)
        gone.append(s)
        log.record(
            EnrichmentAction(
                RULE_COLLAPSE, ref_set(s.name),
                f"replaced {s.name} by the structural function "
                f"{name} : {home.name} {'<->' if one_to_one else '->'} {target_role.codomain}",
            ),
            "relationship-collapsed", s.name,
            f"binary relationship {s.name} replaced by a structural function on {home.name}", INFO,
        )
        references.subtract(role.codomain for role in roles)  # the roles left with it
        if target_role.codomain != home.name:  # the new mapping on the home
            references[target_role.codomain] += 1
    scheme.remove_sets(gone)


def _reference_counts(scheme: EMDMScheme) -> Counter[str]:
    """How often each set name is referenced from outside its own set.

    Mapping codomains count from every set but the one named; inclusion
    endpoints, tuple-constraint sets and formula quantifier domains always
    count.
    """
    counts: Counter[str] = Counter()
    for s in scheme.sets:
        for m in s.mappings:
            if isinstance(m.codomain, str) and m.codomain != s.name:
                counts[m.codomain] += 1
    for c in scheme.constraints:
        if isinstance(c, sch.InclusionConstraint):
            counts.update((c.subset, c.superset))
        elif isinstance(c, sch.TupleConstraint):
            counts[c.set_name] += 1
            counts.update(quantifier_domains(c.formula))
        elif isinstance(c, sch.NonrelationalConstraint) and c.formula is not None:
            counts.update(quantifier_domains(c.formula))
    return counts


def _collapse(
    scheme: EMDMScheme, rel: EMDMSet, home: EMDMSet, name: str,
    source_role: Mapping, target_role: Mapping, one_to_one: bool, refs: list[str],
) -> None:
    """Rule (viii)'s change: add *name* to *home* and move the provenance *refs* of *rel* to it."""
    home.mappings.append(Mapping(
        name=name,
        codomain=target_role.codomain,
        flavor=STRUCTURAL_FUNCTION,
        total=source_role.total,
        one_to_one=one_to_one,
    ))

    # Every displaced provenance entry survives under the new mapping so
    # completeness over the input elements still holds.
    moved = {ref: scheme.provenance.pop(ref) for ref in refs}
    new_base = ref_mapping(home.name, name)
    scheme.provenance[new_base] = moved.pop(ref_set(rel.name), f"set:{rel.name}")
    for old_ref, source in moved.items():
        scheme.provenance[f"{new_base}#absorbed:{old_ref}"] = source


def enrich_scheme(scheme: EMDMScheme, log: EnrichmentLog) -> None:
    """Run rules (v), (viii), (vii), (vi), (ix) in that order, on *scheme* in place.

    Collapse runs before structural keys so vanishing relationships never
    receive one; the fallback compulsory and uniqueness rules run last so
    collapse products count toward their conditions.
    """
    for rule in (ensure_totality, collapse_binary_relationships, ensure_structural_key,
                 ensure_compulsory, ensure_uniqueness):
        rule(scheme, log)
