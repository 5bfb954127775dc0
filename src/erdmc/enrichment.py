"""Deterministic enrichment rules applied around the core translation.

Rules (i)-(iv) repair the input model before translation: missing
cardinalities, oversized cardinalities, missing attribute ranges, and
computed elements without definitions. Rules (v)-(ix) complete the
translated scheme: role/identifier totality, binary-relationship collapse,
structural keys, a fallback compulsory mapping, and a fallback uniqueness
mapping. Every firing is recorded as a replayable action plus at least one
diagnostic.

Rules (v)-(ix) only plan: each decides which action fires and hands it to
``_apply``, the one function that changes a scheme for them. Replay through
:func:`apply_actions` runs the same ``_apply`` over the recorded actions, so
replay equals execution by construction.

Rules (v)-(ix) and :func:`enrich_scheme` change the scheme they are given in
place and return that same object: the translator owns its scheme, so
copying it would only cost time. :func:`apply_actions` deep-copies, because
it replays onto a pre-enrichment scheme that its caller keeps.
"""

from __future__ import annotations

import copy
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping as MappingType

from .diagnostics import INFO, WARNING, Diagnostic
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
    effective_cardinality,
    effective_range,
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


@dataclass(frozen=True)
class Question:
    """An interactive prompt issued while translating or enriching."""

    subject: str  # set name, mapping path, or restriction label
    kind: str  # "computed-definition" | "bijection-direction" | "formalization"
    prompt: str


@dataclass(frozen=True)
class PendingQuestion:
    question: Question
    answer: str | None
    origin: str  # "answers" | "prompt" | "default" | "unanswered"


@dataclass(frozen=True)
class EnrichmentAction:
    """One rule firing; replayable through :func:`apply_actions`."""

    rule: str
    target: str
    description: str
    resulting_labels: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)


Prompter = Callable[[Question], "str | None"]


def resolve_answer(
    subject: str,
    kind: str,
    prompt_text: str,
    answers: MappingType | None,
    prompter: Prompter | None,
    pending: list[PendingQuestion],
) -> str | None:
    """Look up a scripted answer, fall back to an interactive prompt.

    Either way the exchange is mirrored into *pending* so a session can be
    replayed from its report.
    """
    question = Question(subject, kind, prompt_text)
    scripted = None
    if answers:
        scripted = answers.get(subject, {}).get(kind)
    if scripted is not None:
        pending.append(PendingQuestion(question, str(scripted), "answers"))
        return str(scripted)
    if prompter is not None:
        answer = prompter(question)
        if answer:
            pending.append(PendingQuestion(question, answer, "prompt"))
            return answer
    pending.append(PendingQuestion(question, None, "unanswered"))
    return None


@dataclass
class InputDefaultsResult:
    model: ERModel
    diagnostics: list[Diagnostic]
    actions: list[EnrichmentAction]
    pending: list[PendingQuestion]


def apply_input_defaults(
    model: ERModel,
    dbms_max_cardinality: int,
    answers: MappingType | None = None,
    prompter: Prompter | None = None,
) -> InputDefaultsResult:
    """Rules (i)-(iv): repair the model before translation."""
    diagnostics: list[Diagnostic] = []
    actions: list[EnrichmentAction] = []
    pending: list[PendingQuestion] = []

    new_diagrams: list[Diagram] = []
    for d in model.diagrams:
        new_sets: list[ObjectSet] = []
        for s in d.sets:
            s2 = _default_one_set(
                s, model, dbms_max_cardinality, answers, prompter,
                diagnostics, actions, pending,
            )
            if s2 is not None:
                new_sets.append(s2)
        new_diagrams.append(replace(d, sets=tuple(new_sets)))

    new_restrictions: list[Restriction] = []
    for r in model.restrictions:
        if isinstance(r.body, CardinalityBody) and r.body.maximum > dbms_max_cardinality:
            diagnostics.append(Diagnostic(
                WARNING, "cardinality-clamped",
                f"{r.label} exceeds the DBMS maximum {dbms_max_cardinality}; clamped",
                r.label,
            ))
            actions.append(EnrichmentAction(
                RULE_CARDINALITY_CLAMP, r.label,
                f"clamped {r.label} to {dbms_max_cardinality}",
                details={"label": r.label, "maximum": dbms_max_cardinality},
            ))
            new_restrictions.append(replace(
                r, body=CardinalityBody(dbms_max_cardinality, None)
            ))
        else:
            new_restrictions.append(r)

    return InputDefaultsResult(
        replace(model, diagrams=tuple(new_diagrams), restrictions=tuple(new_restrictions)),
        diagnostics, actions, pending,
    )


def _default_one_set(
    s: ObjectSet,
    model: ERModel,
    dbms_max: int,
    answers,
    prompter,
    diagnostics: list[Diagnostic],
    actions: list[EnrichmentAction],
    pending: list[PendingQuestion],
) -> ObjectSet | None:
    if s.kind == COMPUTED:
        definition = s.computed_definition
        if not definition:
            definition = resolve_answer(
                s.name, "computed-definition",
                f"computed set {s.name} has no definition; provide one",
                answers, prompter, pending,
            )
            if not definition:
                diagnostics.append(Diagnostic(
                    WARNING, "computed-dropped",
                    f"computed set {s.name} has no definition and was ignored", s.name,
                ))
                actions.append(EnrichmentAction(
                    RULE_MISSING_DEFINITION, src_set(s.name),
                    f"dropped computed set {s.name}",
                ))
                return None
            diagnostics.append(Diagnostic(
                INFO, "computed-definition-supplied",
                f"definition for computed set {s.name} supplied interactively", s.name,
            ))
            actions.append(EnrichmentAction(
                RULE_MISSING_DEFINITION, src_set(s.name),
                f"filled definition of computed set {s.name}",
                details={"definition": definition},
            ))
            return replace(s, computed_definition=definition)
        return s

    changed = s
    card, _ = effective_cardinality(model, s)
    if card is None:
        diagnostics.append(Diagnostic(
            INFO, "cardinality-defaulted",
            f"{s.name} has no maximum cardinality; using the DBMS maximum {dbms_max}",
            s.name,
        ))
        actions.append(EnrichmentAction(
            RULE_MISSING_CARDINALITY, src_set(s.name),
            f"defaulted cardinality of {s.name} to {dbms_max}",
            details={"maximum": dbms_max},
        ))
        changed = replace(changed, max_cardinality=dbms_max, cardinality_pow10=None)
    elif card > dbms_max and s.max_cardinality is not None and s.max_cardinality > dbms_max:
        diagnostics.append(Diagnostic(
            WARNING, "cardinality-clamped",
            f"{s.name} cardinality exceeds the DBMS maximum {dbms_max}; clamped", s.name,
        ))
        actions.append(EnrichmentAction(
            RULE_CARDINALITY_CLAMP, src_set(s.name),
            f"clamped cardinality of {s.name} to {dbms_max}",
            details={"maximum": dbms_max},
        ))
        changed = replace(changed, max_cardinality=dbms_max, cardinality_pow10=None)

    new_attributes: list[Attribute] = []
    attrs_changed = False
    for a in changed.attributes:
        if a.is_computed and not a.computed_definition.strip():
            a = _define_member(s.name, a, "attribute", src_attribute(s.name, a.name),
                               answers, prompter, diagnostics, actions, pending)
            attrs_changed = True
            if a is not None:
                new_attributes.append(a)
            continue
        if not a.is_computed:
            rng, _ = effective_range(model, s, a)
            if rng is None:
                diagnostics.append(Diagnostic(
                    INFO, "range-defaulted",
                    f"{s.name}.{a.name} has no range; assuming ASCII(255)",
                    f"{s.name}.{a.name}",
                ))
                actions.append(EnrichmentAction(
                    RULE_DEFAULT_RANGE, src_attribute(s.name, a.name),
                    f"defaulted range of {s.name}.{a.name} to ASCII(255)",
                    details={"length": 255},
                ))
                new_attributes.append(replace(a, range=DEFAULT_RANGE))
                attrs_changed = True
                continue
        new_attributes.append(a)
    if attrs_changed:
        changed = replace(changed, attributes=tuple(new_attributes))

    new_functions = []
    fns_changed = False
    for f in changed.structural_functions:
        if f.is_computed and not f.computed_definition.strip():
            f = _define_member(s.name, f, "function", src_function(s.name, f.name),
                               answers, prompter, diagnostics, actions, pending)
            fns_changed = True
            if f is None:
                continue
        new_functions.append(f)
    if fns_changed:
        changed = replace(changed, structural_functions=tuple(new_functions))
    return changed


def _define_member(
    set_name: str,
    member,
    noun: str,
    source: str,
    answers,
    prompter,
    diagnostics: list[Diagnostic],
    actions: list[EnrichmentAction],
    pending: list[PendingQuestion],
):
    """Rule (iv) for a computed attribute or function with an empty definition.

    Returns the member with the supplied definition, or None to drop it.
    """
    element = f"{set_name}.{member.name}"
    definition = resolve_answer(
        element, "computed-definition",
        f"computed {noun} {element} has no definition; provide one",
        answers, prompter, pending,
    )
    if not definition:
        diagnostics.append(Diagnostic(
            WARNING, "computed-dropped",
            f"computed {noun} {element} has no definition and was ignored", element,
        ))
        actions.append(EnrichmentAction(
            RULE_MISSING_DEFINITION, source, f"dropped computed {noun} {element}",
        ))
        return None
    diagnostics.append(Diagnostic(
        INFO, "computed-definition-supplied",
        f"definition for {element} supplied interactively", element,
    ))
    actions.append(EnrichmentAction(
        RULE_MISSING_DEFINITION, source,
        f"filled definition of computed {noun} {element}",
        details={"definition": definition},
    ))
    return replace(member, computed_definition=definition)


# --- scheme-side rules (v)-(ix) ---


def _fire(scheme: EMDMScheme, actions: list[EnrichmentAction], action: EnrichmentAction) -> None:
    """Apply *action* at once, since labels, free names and references depend
    on earlier firings, then record it."""
    _apply(scheme, action)
    actions.append(action)


def _apply(scheme: EMDMScheme, action: EnrichmentAction) -> None:
    """Carry out one firing of rules (v)-(ix) on *scheme* in place.

    Actions of rules (i)-(iv), and actions whose target is missing, are ignored.
    """
    d = action.details
    rule = action.rule
    if rule == RULE_COLLAPSE:
        _do_collapse(scheme, d)
        return
    if rule not in (RULE_TOTALITY, RULE_STRUCTURAL_KEY, RULE_COMPULSORY, RULE_UNIQUENESS):
        return
    target = scheme.set(d["set"])
    if target is None:
        return
    source = ENRICHMENT_PREFIX + rule
    if rule in (RULE_COMPULSORY, RULE_UNIQUENESS):
        target.mappings.append(Mapping(
            name=d["mapping"], source=target.name, codomain=DEFAULT_RANGE,
            flavor=GENERATED, total=True, one_to_one=rule == RULE_UNIQUENESS,
        ))
        scheme.record(ref_mapping(target.name, d["mapping"]), source)
    elif "label" in d:  # a roles-only structural key
        target.keys.append(Key(d["label"], tuple(d["mappings"]), implicit=True))
        scheme.record(ref_key(target.name, d["label"]), source)
    else:  # totality, or the degenerate structural key of a single role
        mapping = target.mapping(d["mapping"])
        if mapping is None:
            return
        if rule == RULE_TOTALITY:
            mapping.total = True
            facet = "total"
        else:
            mapping.one_to_one = True
            facet = "unique"
        scheme.record(ref_mapping(target.name, mapping.name, facet), source)


def ensure_totality(scheme: EMDMScheme) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic]]:
    """Rule (v): every role and object identifier is total."""
    actions: list[EnrichmentAction] = []
    diagnostics: list[Diagnostic] = []
    for s in scheme.sets:
        candidates = list(s.mappings)
        if s.object_identifier is not None:
            candidates.append(s.object_identifier)
        for m in candidates:
            if m.flavor in (sch.ROLE, sch.OBJECT_IDENTIFIER) and not m.total:
                element = f"{s.name}.{m.name}"
                _fire(scheme, actions, EnrichmentAction(
                    RULE_TOTALITY, ref_mapping(s.name, m.name),
                    f"made {element} total",
                    details={"set": s.name, "mapping": m.name},
                ))
                diagnostics.append(Diagnostic(
                    INFO, "totality-added", f"added totality to {element}", element,
                ))
    return scheme, actions, diagnostics


_LABEL = re.compile(r"R0*(\d+)")
_RESTRICTION_LABEL = re.compile(r"restriction:R0*(\d+)")


def _labels_in_use(scheme: EMDMScheme) -> set[int]:
    """Numeric values of every Rnn label visible anywhere in the scheme."""
    labels = [k.label for s in scheme.sets for k in s.keys]
    labels += [lbl for s in scheme.sets for m in s.mappings for lbl in m.source_labels.values()]
    labels += [getattr(c, "label", None) for c in scheme.constraints]
    values = {int(m.group(1)) for m in map(_LABEL.fullmatch, filter(None, labels)) if m}
    values.update(int(m.group(1))
                  for m in map(_RESTRICTION_LABEL.match, scheme.provenance.values()) if m)
    return values


def next_label(scheme: EMDMScheme) -> str:
    """Continue numbering from the largest Rnn label in use."""
    used = _labels_in_use(scheme)
    return f"R{(max(used) + 1 if used else 1):02d}"


def ensure_structural_key(
    scheme: EMDMScheme,
) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic]]:
    """Rule (vii): every relationship-derived set gets a roles-only key.

    A set already holding a roles-only key or a one-to-one role is left
    alone. Single-role sets receive the degenerate form: a uniqueness flag
    on their only role.

    Only this loop adds labels, so the scheme is scanned for its largest
    label once, at the first generated key; each later key takes the
    previous label plus one, which is what a fresh scan would give.
    """
    actions: list[EnrichmentAction] = []
    diagnostics: list[Diagnostic] = []
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
            element = f"{s.name}.{roles[0].name}"
            _fire(scheme, actions, EnrichmentAction(
                RULE_STRUCTURAL_KEY, ref_mapping(s.name, roles[0].name),
                f"made single role {element} one-to-one (degenerate structural key)",
                details={"set": s.name, "mapping": roles[0].name},
            ))
            diagnostics.append(Diagnostic(
                INFO, "structural-key-added",
                f"single role {element} made one-to-one in place of a structural key; "
                "review against the business rules",
                element,
            ))
            continue
        label = next_label(scheme) if label is None else f"R{int(label[1:]) + 1:02d}"
        mappings = tuple(m.name for m in roles)
        bullet = " • ".join(mappings)
        _fire(scheme, actions, EnrichmentAction(
            RULE_STRUCTURAL_KEY, ref_set(s.name),
            f"{label}: {bullet}",
            resulting_labels=(label,),
            details={"set": s.name, "label": label, "mappings": list(mappings)},
        ))
        diagnostics.append(Diagnostic(
            INFO, "structural-key-added",
            f"added structural key {label} ({bullet}) to {s.name}; "
            "review whether it matches a real business rule",
            s.name,
        ))
    return scheme, actions, diagnostics


def ensure_compulsory(
    scheme: EMDMScheme,
) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic]]:
    """Rule (vi): fundamental sets without a total mapping gain one."""
    return _ensure_fallback(
        scheme, RULE_COMPULSORY, FALLBACK_COMPULSORY,
        lambda s: any(m.total for m in s.mappings),
        "total mapping", "compulsory", "compulsory mapping",
    )


def ensure_uniqueness(
    scheme: EMDMScheme,
) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic]]:
    """Rule (ix): fundamental sets without any uniqueness gain a unique mapping."""
    return _ensure_fallback(
        scheme, RULE_UNIQUENESS, FALLBACK_UNIQUE,
        lambda s: bool(s.keys) or any(m.one_to_one for m in s.mappings),
        "one-to-one total mapping", "uniqueness", "uniqueness",
    )


def _ensure_fallback(
    scheme: EMDMScheme,
    rule: str,
    wanted: str,
    satisfied: Callable[[EMDMSet], bool],
    added: str,
    code: str,
    lacking: str,
) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic]]:
    """Rules (vi) and (ix): give each unsatisfied fundamental set a generated mapping."""
    actions: list[EnrichmentAction] = []
    diagnostics: list[Diagnostic] = []
    for s in scheme.sets:
        if s.kind == sch.COMPUTED or satisfied(s):
            continue
        name, clash = _free_name(s, wanted)
        element = f"{s.name}.{name}"
        if clash:
            diagnostics.append(Diagnostic(
                WARNING, "name-clash",
                f"{s.name} already has a mapping named {wanted}; using {name}",
                element,
            ))
        _fire(scheme, actions, EnrichmentAction(
            rule, ref_set(s.name),
            f"added {added} {element} into ASCII(255)",
            details={"set": s.name, "mapping": name},
        ))
        diagnostics.append(Diagnostic(
            INFO, f"{code}-added",
            f"{s.name} has no {lacking}; added {name}", element,
        ))
    return scheme, actions, diagnostics


def _free_name(s: EMDMSet, wanted: str) -> tuple[str, bool]:
    if s.mapping(wanted) is None:
        return wanted, False
    n = 1
    while s.mapping(f"{wanted}{n}") is not None:
        n += 1
    return f"{wanted}{n}", True


def collapse_binary_relationships(
    scheme: EMDMScheme,
    answers: MappingType | None = None,
    prompter: Prompter | None = None,
) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic], list[PendingQuestion]]:
    """Rule (viii): a binary relationship with a unique role becomes a function.

    ``R = (f -> S, g -> T)`` with ``f`` unique collapses into the mapping
    ``R : S -> T`` placed on ``S``; both roles unique yields a one-to-one
    mapping in the user-chosen direction. Relationships carrying attributes,
    or referenced by other mappings or constraints, are skipped with a
    warning because the replacement text covers only roles.
    """
    actions: list[EnrichmentAction] = []
    diagnostics: list[Diagnostic] = []
    pending: list[PendingQuestion] = []
    references: Counter[str] | None = None  # counted at the first candidate

    for s in list(scheme.sets):
        if s.kind != RELATIONSHIP_DERIVED:
            continue
        roles = s.role_mappings()
        if len(roles) != 2:
            continue
        first, second = roles
        if not (first.one_to_one or second.one_to_one):
            continue
        if len(s.mappings) != 2:  # anything beyond the two roles blocks the collapse
            diagnostics.append(Diagnostic(
                WARNING, "collapse-skipped",
                f"{s.name} has a unique role but carries attributes; left as a relationship",
                s.name,
            ))
            continue
        if references is None:
            references = _reference_counts(scheme)
        if references[s.name]:
            diagnostics.append(Diagnostic(
                WARNING, "collapse-skipped",
                f"{s.name} has a unique role but is referenced elsewhere; left as a relationship",
                s.name,
            ))
            continue

        if first.one_to_one and second.one_to_one:
            default = f"{first.codomain}->{second.codomain}"
            reverse = f"{second.codomain}->{first.codomain}"
            answer = resolve_answer(
                s.name, "bijection-direction",
                f"{s.name} is one-to-one both ways; choose {default} or {reverse}",
                answers, prompter, pending,
            )
            if answer == reverse and default != reverse:
                source_role, target_role = second, first
            else:
                if answer not in (default, reverse) or answer is None:
                    diagnostics.append(Diagnostic(
                        WARNING, "collapse-default-direction",
                        f"no usable direction for {s.name}; defaulting to {default}", s.name,
                    ))
                source_role, target_role = first, second
            one_to_one = True
        elif first.one_to_one:
            source_role, target_role = first, second
            one_to_one = False
        else:
            source_role, target_role = second, first
            one_to_one = False

        home = scheme.set(source_role.codomain)
        if home is None or home.kind == sch.COMPUTED:
            diagnostics.append(Diagnostic(
                WARNING, "collapse-skipped",
                f"{s.name} cannot collapse onto {source_role.codomain}", s.name,
            ))
            continue
        name, clash = _free_name(home, s.name)
        if clash:
            diagnostics.append(Diagnostic(
                WARNING, "name-clash",
                f"{home.name} already has a mapping named {s.name}; using {name}",
                f"{home.name}.{name}",
            ))
        _fire(scheme, actions, EnrichmentAction(
            RULE_COLLAPSE, ref_set(s.name),
            f"replaced {s.name} by the structural function "
            f"{name} : {home.name} {'<->' if one_to_one else '->'} {target_role.codomain}",
            details={
                "relationship": s.name,
                "home": home.name,
                "mapping": name,
                "target": str(target_role.codomain),
                "source_role": source_role.name,
                "one_to_one": one_to_one,
            },
        ))
        for role in roles:  # the relationship's roles left with it
            if role.codomain != s.name:
                references[role.codomain] -= 1
        if target_role.codomain != home.name:  # the new mapping on the home
            references[target_role.codomain] += 1
        diagnostics.append(Diagnostic(
            INFO, "relationship-collapsed",
            f"binary relationship {s.name} replaced by a structural function on {home.name}",
            s.name,
        ))
    return scheme, actions, diagnostics, pending


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


def _do_collapse(scheme: EMDMScheme, d: dict) -> None:
    """The rule (viii) branch of :func:`_apply`: move a relationship onto its home."""
    rel = scheme.set(d["relationship"])
    home = scheme.set(d["home"])
    if rel is None or home is None:
        return
    source_role = rel.mapping(d["source_role"])
    target_role = next(m for m in rel.role_mappings() if m.name != d["source_role"])
    home.mappings.append(Mapping(
        name=d["mapping"],
        source=home.name,
        codomain=target_role.codomain,
        flavor=STRUCTURAL_FUNCTION,
        total=source_role.total,
        one_to_one=d["one_to_one"],
    ))
    scheme.remove_set(rel)

    # Every displaced provenance entry survives under the new mapping so
    # completeness over the input elements still holds.
    moved = scheme.take_provenance(rel.name)
    new_base = ref_mapping(home.name, d["mapping"])
    scheme.record(new_base, moved.pop(ref_set(rel.name), f"set:{rel.name}"))
    for old_ref, source in moved.items():
        scheme.record(f"{new_base}#absorbed:{old_ref}", source)


def enrich_scheme(
    scheme: EMDMScheme,
    answers: MappingType | None = None,
    prompter: Prompter | None = None,
) -> tuple[EMDMScheme, list[EnrichmentAction], list[Diagnostic], list[PendingQuestion]]:
    """Run rules (v), (viii), (vii), (vi), (ix) in that order, on *scheme* in place.

    Collapse runs before structural keys so vanishing relationships never
    receive one; the fallback compulsory and uniqueness rules run last so
    collapse products count toward their conditions.
    """
    _, actions, diagnostics = ensure_totality(scheme)
    _, a, d, pending = collapse_binary_relationships(scheme, answers, prompter)
    actions += a
    diagnostics += d
    for rule in (ensure_structural_key, ensure_compulsory, ensure_uniqueness):
        _, a, d = rule(scheme)
        actions += a
        diagnostics += d
    return scheme, actions, diagnostics, pending


def apply_actions(scheme: EMDMScheme, actions: list[EnrichmentAction]) -> EMDMScheme:
    """Replay recorded scheme-side actions onto a pre-enrichment scheme."""
    out = copy.deepcopy(scheme)
    for action in actions:
        _apply(out, action)
    return out
