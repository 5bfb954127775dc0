"""(Elementary) Mathematical Data Model scheme types and their soundness check.

A scheme is an ordered list of sets carrying mappings, keys, and
constraints, plus a provenance map tying every scheme element back to the
model element it came from (or to the enrichment rule that generated it).

Construction is single-writer (the translator, then the enrichment rules,
which change it in place); after translation a scheme is treated as
immutable and is safe to share read-only across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .diagnostics import Diagnostics
from .formula import (
    COMPARE_OPS,
    CONNECTIVES,
    Binary,
    Compare,
    Forall,
    Formula,
    Literal,
    Not,
    Term,
    Var,
    quantifier_count,
    quantifier_domains,
)
from .lexer import MAX_DIGITS, NAME_RE, is_integer
from .model import (
    FACETS, NatRange, Range, holds_surrogate, range_form_fault, validate_definition, validate_range,
)

ENTITY_DERIVED = "entity-derived"
RELATIONSHIP_DERIVED = "relationship-derived"
COMPUTED = "computed"
SET_KINDS = (ENTITY_DERIVED, RELATIONSHIP_DERIVED, COMPUTED)

ATTRIBUTE = "attribute"
ROLE = "role"
STRUCTURAL_FUNCTION = "structural-function"
OBJECT_IDENTIFIER = "object-identifier"
GENERATED = "enrichment-generated"
MAPPING_FLAVORS = (ATTRIBUTE, ROLE, STRUCTURAL_FUNCTION, GENERATED)

# Provenance values carrying this prefix mark elements added by an
# enrichment rule rather than translated from a model element.
ENRICHMENT_PREFIX = "enrichment:"


@dataclass
class Mapping:
    """A function from the scheme set that holds it into a value range or another set."""

    name: str
    codomain: Range | str | None
    flavor: str
    total: bool = False
    one_to_one: bool = False
    computed_definition: str | None = None
    # Labels of the restrictions that induced a flag or codomain, keyed by
    # facet name ("total", "unique", "codomain").
    source_labels: dict[str, str] = field(default_factory=dict)


@dataclass
class Key:
    """A minimal-uniqueness constraint over two or more mappings."""

    label: str
    mappings: tuple[str, ...]
    implicit: bool = False


@dataclass
class EMDMSet:
    name: str
    kind: str
    object_identifier: Mapping | None = None
    mappings: list[Mapping] = field(default_factory=list)
    keys: list[Key] = field(default_factory=list)
    role_signature: tuple[tuple[str, str], ...] = ()
    computed_definition: str | None = None

    def mapping(self, name: str) -> Mapping | None:
        if self.object_identifier is not None and self.object_identifier.name == name:
            return self.object_identifier
        for m in self.mappings:
            if m.name == name:
                return m
        return None

    def role_mappings(self) -> list[Mapping]:
        return [m for m in self.mappings if m.flavor == ROLE]


@dataclass
class InclusionConstraint:
    subset: str
    superset: str
    label: str | None = None


@dataclass
class TupleConstraint:
    """A single-variable check constraint living inside its set's block."""

    label: str
    set_name: str
    formula: Formula


@dataclass
class NonrelationalConstraint:
    """A multi-variable business rule, possibly not yet formalized."""

    label: str
    formula: Formula | None = None
    informal: str | None = None


Constraint = InclusionConstraint | TupleConstraint | NonrelationalConstraint


@dataclass
class EMDMScheme:
    """Sets in emit order, constraints, and the provenance map: plain data, which the
    translator and the enrichment rules change in place."""

    sets: list[EMDMSet] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)

    def set(self, name: str) -> EMDMSet | None:
        """The first set named *name*, found by a scan of ``sets``."""
        return next((s for s in self.sets if s.name == name), None)

    def remove_sets(self, gone: Iterable[EMDMSet]) -> None:
        """Remove each set of *gone* itself, found by identity rather than by ==."""
        ids = {id(s) for s in gone}
        self.sets[:] = [s for s in self.sets if id(s) not in ids]


# --- scheme element references ---


def ref_set(name: str) -> str:
    return f"set:{name}"


def ref_mapping(set_name: str, mapping: str, facet: str | None = None) -> str:
    base = f"mapping:{set_name}.{mapping}"
    return f"{base}#{facet}" if facet else base


def ref_key(set_name: str, label: str) -> str:
    return f"key:{set_name}.{label}"


def ref_owner(ref: str) -> str | None:
    """The set a ``set:``, ``mapping:`` or ``key:`` reference belongs to.

    Set names never contain ".", so the owner of a mapping or key reference
    is everything before its first ".". Constraint references have none.
    """
    kind, _, rest = ref.partition(":")
    if kind == "set":
        return rest
    if kind in ("mapping", "key"):
        owner, dot, _ = rest.partition(".")
        return owner if dot else None
    return None


def ref_constraint(c: Constraint) -> str:
    if isinstance(c, InclusionConstraint):
        if c.label:
            return f"constraint:{c.label}"
        return f"constraint:inclusion:{c.subset}<={c.superset}"
    return f"constraint:{c.label}"


# --- structural keys ---


def role_names(s: EMDMSet) -> frozenset[str]:
    """The names of the roles of *s*, or none if one is no str: what is_implicit_key compares."""
    names = [m.name for m in s.mappings if m.flavor == ROLE]
    return frozenset(names) if all(type(n) is str for n in names) else frozenset()


def is_implicit_key(k: Key, s: EMDMSet, roles: frozenset[str] | None = None) -> bool:
    """True iff *k* spans exactly the full role set of a relationship-derived set.

    Such keys are implied by the relationship's header notation and are not
    rendered in the text output. *roles* is ``role_names(s)``, which a caller
    that asks for each key of *s* collects once.
    """
    if s.kind != RELATIONSHIP_DERIVED:
        return False
    if roles is None:
        roles = role_names(s)
    return bool(roles) and all(type(n) is str for n in k.mappings) and frozenset(k.mappings) == roles


# --- formula resolution against a scheme ---

_VALUE = "(value)"


def resolve_formula(members: dict, f: Formula, element: str, bad: Callable) -> None:
    """Call ``bad(code, element, message)`` for each problem of *f* over *members*, which maps
    each set name to its members by name: ``bad-name`` for a quantified variable that is not a
    name, ``bad-formula`` for an operator or literal the text reader would not read, and
    ``formula-resolution`` for a name that is no set or mapping there, or a mixed comparison."""
    _resolve_node(members, f, (), lambda code, message: bad(code, element, message))


# *env* pairs each variable in scope, innermost last, with its domain: found by ==, never hashed.
def _resolve_node(members: dict, node: Formula, env: tuple, bad: Callable) -> None:
    if isinstance(node, Forall):
        if type(node.variable) is not str or not NAME_RE.fullmatch(node.variable):
            bad("bad-name", f"quantified variable {node.variable!r} is not a name")
        if type(node.domain) is not str or node.domain not in members:
            bad("formula-resolution", f"quantifier domain {node.domain!r} is not a scheme set")
            return
        _resolve_node(members, node.body, (*env, (node.variable, node.domain)), bad)
    elif isinstance(node, Binary):
        if node.op not in CONNECTIVES:
            bad("bad-formula", f"unknown connective {node.op!r}")
        _resolve_node(members, node.left, env, bad)
        _resolve_node(members, node.right, env, bad)
    elif isinstance(node, Not):
        _resolve_node(members, node.body, env, bad)
    elif isinstance(node, Compare):
        if node.op not in COMPARE_OPS:
            bad("bad-formula", f"unknown comparison operator {node.op!r}")
        lhs = _term_type(members, node.lhs, env, bad)
        rhs = _term_type(members, node.rhs, env, bad)
        if lhs is None or rhs is None:
            return
        if lhs != rhs and _VALUE not in (lhs, rhs):
            bad("formula-resolution", f"comparison mixes {lhs} with {rhs}")
        elif _VALUE in (lhs, rhs) and lhs != rhs:
            bad("formula-resolution", "comparison mixes an object set with a plain value")


def _term_type(members: dict, term: Term, env: tuple, bad: Callable) -> str | None:
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, str):
            if holds_surrogate(value):
                bad("bad-formula", "string literal holds a lone surrogate, which UTF-8 cannot "
                    "encode for the text output")
        elif not is_integer(value):
            bad("bad-formula", f"literal is neither a string nor an integer of at most {MAX_DIGITS} digits")
        return _VALUE
    if isinstance(term, Var):
        for variable, domain in reversed(env):
            if variable == term.name:
                return domain
        bad("formula-resolution", f"variable {term.name!r} is not quantified")
        return None
    # What is left is an Apply.
    arg_type = _term_type(members, term.argument, env, bad)
    if arg_type is None:
        return None
    if arg_type == _VALUE:
        bad("formula-resolution", f"{term.mapping!r} applied to a plain value")
        return None
    owner = members.get(arg_type)
    mapping = owner.get(term.mapping) if owner and type(term.mapping) is str else None
    if mapping is None:
        bad("formula-resolution", f"{term.mapping!r} is not a mapping on {arg_type}")
        return None
    if isinstance(mapping.codomain, str):
        return mapping.codomain
    return _VALUE


# --- the soundness gate ---


def check_scheme(scheme: EMDMScheme) -> Diagnostics:
    """Verify every scheme invariant; an empty result certifies soundness."""
    diagnostics = Diagnostics()
    bad = diagnostics.add

    def check_name(value, element, seen: dict, entry, code: str, reuse: tuple[str, str]) -> None:
        # Each name that emit_text prints bare must be a str and one; no other value is hashed.
        if type(value) is not str:
            bad("bad-name", element, f"{value!r} is not a name")
            return
        if not NAME_RE.fullmatch(value):
            bad("bad-name", element, f"{value!r} is not a name")
        if value in seen:
            bad(code, element, reuse[0] + value + reuse[1])
        else:
            seen[value] = entry

    # Each set name to its first set's members by name, the first member of a name winning;
    # and to that set.
    members: dict[str, dict[str, Mapping]] = {}
    sets: dict[str, EMDMSet] = {}
    owns: list[dict[str, Mapping]] = []  # each set's own members by name
    seen_labels: dict[str, None] = {}
    for s in scheme.sets:
        owns.append(own := {})
        check_name(s.name, s.name, members, own, "duplicate-set", ("scheme set ", " appears twice"))
        if type(s.name) is str:
            sets.setdefault(s.name, s)
        if s.kind not in SET_KINDS:
            bad("unknown-set-kind", s.name, f"{s.name} has unknown kind {s.kind!r}")
        validate_definition(s.computed_definition, s.name, bad)

    # The reference of each element that needs a provenance entry, in scheme order.
    refs: list[str] = []
    for s, own in zip(scheme.sets, owns):
        refs.append(ref_set(s.name))
        ident = s.object_identifier
        walk = s.mappings if ident is None else [ident, *s.mappings]
        if s.kind == COMPUTED:
            if not s.computed_definition:
                bad("missing-definition", s.name, f"computed set {s.name} has no definition")
            if walk or s.keys:
                bad("computed-set-structure", s.name,
                    f"computed set {s.name} must carry only its definition")
                refs.extend(ref_mapping(s.name, m.name) for m in walk)
                # Unchecked, but a formula may apply them: the first of a name wins.
                own.update((m.name, m) for m in reversed(walk) if type(m.name) is str)
                refs.extend(ref_key(s.name, k.label) for k in s.keys)
            continue
        if ident is None:
            bad("missing-identifier", s.name, f"{s.name} has no object identifier")
        else:
            if ident.flavor != OBJECT_IDENTIFIER:
                bad("identifier-flavor", s.name,
                    f"object identifier of {s.name} has flavor {ident.flavor!r}")
            if not (ident.one_to_one and ident.total):
                bad("identifier-flags", s.name,
                    f"object identifier of {s.name} must be one-to-one and total")
            codomain = ident.codomain
            if isinstance(codomain, NatRange) and (fault := range_form_fault(codomain)):
                bad("bad-range", f"{s.name}.{ident.name}", fault)
            elif not isinstance(codomain, NatRange) or codomain.digits < 1:
                bad("identifier-codomain", s.name,
                    f"object identifier of {s.name} must map onto NAT(n), n >= 1")
        reuse = ("mapping ", f" appears twice on {s.name}")
        roles: list[tuple[str, Range | str | None]] = []
        for i, m in enumerate(walk):
            element = f"{s.name}.{m.name}"
            refs.append(ref_mapping(s.name, m.name))
            check_name(m.name, element, own, m, "duplicate-mapping", reuse)
            validate_definition(m.computed_definition, element, bad)
            if type(m.total) is not bool or type(m.one_to_one) is not bool:
                bad("bad-flag", element, f"total and one_to_one of {m.name} must be true or false")
            for facet in m.source_labels:
                if facet not in FACETS:
                    bad("unknown-facet", element, f"source label of unknown facet {facet!r}")
            if i == 0 and ident is not None:
                continue  # the identifier takes the checks above alone
            if m.flavor == ROLE:
                roles.append((m.name, m.codomain))
                if not isinstance(m.codomain, str):
                    bad("role-codomain", element, "roles must map into an object set")
                if not m.total:
                    bad("role-totality", element, f"role {m.name} is not total")
            if m.flavor == OBJECT_IDENTIFIER:
                bad("stray-identifier", element,
                    "object identifiers live outside the mapping list")
            elif m.flavor not in MAPPING_FLAVORS:
                bad("unknown-flavor", element, f"mapping {m.name} has unknown flavor {m.flavor!r}")
            if isinstance(m.codomain, str):
                if m.codomain not in sets:
                    bad("unresolved-codomain", element,
                        f"mapping {m.name} targets unknown set {m.codomain!r}")
            elif m.codomain is not None:
                validate_range(m.codomain, element, bad)
            elif m.computed_definition is None:
                bad("missing-codomain", element,
                    f"mapping {m.name} has neither a codomain nor a definition")
        if s.kind == RELATIONSHIP_DERIVED:
            if s.role_signature != tuple(roles):
                bad("role-signature", s.name,
                    f"role signature of {s.name} does not match its role mappings")
        elif roles:
            bad("roles-on-entity", s.name, f"{s.kind} set {s.name} carries role mappings")

        seen_key_sets: set[frozenset[str]] = set()
        full_roles = role_names(s)
        for k in s.keys:
            element = f"{s.name}.{k.label}"
            refs.append(ref_key(s.name, k.label))
            if len(k.mappings) < 2:
                bad("singleton-key", element,
                    "single-mapping uniqueness is a mapping flag, not a key")
            for name in k.mappings:
                if type(name) is not str or name not in own:
                    bad("unresolved-key-mapping", element,
                        f"key {k.label} names unknown mapping {name!r}")
            if all(type(name) is str for name in k.mappings):  # no other value is hashed
                mapping_set = frozenset(k.mappings)
                if mapping_set in seen_key_sets:
                    bad("duplicate-key", element, f"two keys of {s.name} span the same mappings")
                seen_key_sets.add(mapping_set)
            if type(k.implicit) is not bool:
                bad("bad-flag", element, f"implicit of key {k.label} must be true or false")
            elif k.implicit != is_implicit_key(k, s, full_roles):
                bad("implicit-flag", element,
                    f"key {k.label} implicit flag disagrees with the full-role-set rule")
            check_name(k.label, element, seen_labels, None, "duplicate-label", ("label ", " reused"))

    for c in scheme.constraints:
        refs.append(ref_constraint(c))
        check_constraint(sets, members, c, bad)
        if c.label is not None:
            check_name(c.label, f"constraint:{c.label}", seen_labels, None, "duplicate-label",
                       ("label ", " reused"))

    for ref in refs:
        if ref not in scheme.provenance:
            bad("missing-provenance", ref, f"{ref} has no provenance entry")
    # Any other entry must be a facet (mapping:S.m#total) of an element that
    # the scheme holds. Names may hold "#" too, so the element is the part
    # before some "#", not always the first.
    base = set(refs)
    for ref, source in scheme.provenance.items():
        if type(source) is not str:
            bad("stray-provenance", ref, f"{ref} has the source {source!r}, which is no reference")
        if ref not in base:
            cut = ref.find("#")
            while cut != -1 and ref[:cut] not in base:
                cut = ref.find("#", cut + 1)
            if cut == -1:
                bad("stray-provenance", ref, f"{ref} names no element of the scheme")
    return diagnostics


def check_constraint(sets: dict[str, EMDMSet], members: dict, c: Constraint,
                     bad: Callable) -> None:
    """Call ``bad(code, element, message)`` for each fault of *c*, bar its label's. Its sets
    resolve in *sets*, by name, and its formula over *members*, as :func:`resolve_formula`
    takes them."""
    element = ref_constraint(c)
    if isinstance(c, InclusionConstraint):
        if c.subset == c.superset:
            bad("self-inclusion", element, f"{c.subset} cannot be included in itself")
        for is_subset, endpoint in ((True, c.subset), (False, c.superset)):
            found = sets.get(endpoint) if type(endpoint) is str else None
            if found is None:
                bad("unresolved-inclusion", element,
                    f"inclusion endpoint {endpoint!r} is not a scheme set")
            elif is_subset and found.kind == COMPUTED:  # its text is its definition alone
                bad("restriction-on-computed-set", element,
                    f"computed set {endpoint!r} cannot carry an inclusion in {c.superset!r}")
    elif isinstance(c, TupleConstraint):
        owner = sets.get(c.set_name) if type(c.set_name) is str else None
        if owner is None:
            bad("unresolved-set", element, f"tuple constraint set {c.set_name!r} missing")
        elif owner.kind == COMPUTED:
            bad("restriction-on-computed-set", element,
                f"tuple constraint {c.label} is a check over computed set {c.set_name!r}")
        domains = quantifier_domains(c.formula)
        if len(domains) != 1:
            bad("tuple-arity", element,
                f"tuple constraint {c.label} must quantify exactly one variable")
        elif domains[0] != c.set_name:
            bad("tuple-domain-mismatch", element,
                f"tuple constraint {c.label} quantifies over {domains[0]!r} "
                f"but belongs to {c.set_name!r}")
        resolve_formula(members, c.formula, element, bad)
    elif isinstance(c, NonrelationalConstraint):
        if c.informal and holds_surrogate(c.informal):
            bad("informal-encoding", element, f"informal text of {c.label} holds a lone "
                "surrogate, which UTF-8 cannot encode for the text output")
        if c.formula is None:
            if not c.informal:
                bad("empty-constraint", element,
                    f"constraint {c.label} has neither formula nor informal text")
        else:
            if quantifier_count(c.formula) < 2:
                bad("nonrelational-arity", element,
                    f"nonrelational constraint {c.label} must quantify at least two variables")
            resolve_formula(members, c.formula, element, bad)
