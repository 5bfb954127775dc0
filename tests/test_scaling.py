"""Enrichment, the soundness check and the text emitter walk the scheme a fixed number of times.

Rules (v)-(ix) run in time linear in the scheme when no rule walks the
provenance map or the constraint list once per firing. Rule (viii) used to
do both for every collapse: it scanned every provenance key to move the
relationship's entries, and walked every constraint to see whether the
relationship was referenced. The text emitter likewise walked every
constraint twice per set, to find the set's inclusions and tuple checks.
These tests count the walks directly, on relationship-heavy generated
models of 3.6k and 21.8k census elements (random_model(3, ...) with the
relational workload's limits times k), so they do not depend on the speed
of the machine.

A wall-time form of this check (the time per census element at k=4 below
1.4 times that at k=1) was tried and left out: on a shared machine whose
speed swings by 1.5-1.8x, and with a full cyclic-GC pass landing in the
k=4 run but not in the k=1 run, its reading moved by more than the gap it
had to detect.
"""

from __future__ import annotations

import pytest

from erdmc.emitter import emit_text
from erdmc.enrichment import EnrichmentLog, enrich_scheme
from erdmc.generator import random_model
from erdmc.scheme import check_scheme
from erdmc.translator import Translator, translate

# The relational workload's limits, as perfbench/workloads.py sets them.
RELATIONAL_LIMITS = dict(
    max_entities=800, max_relationships=400, max_computed=40,
    max_attributes=6, max_restrictions=6400,
)
# The provenance map and the constraint list are each walked once to find
# the largest label (rule vii) and at most once more by rule (viii).
WALKS = 2
# emit_text walks the constraint list once in the soundness check, once to
# file each constraint under its set, and there is one walk to spare.
EMIT_WALKS = 3


class _WalkCountingDict(dict):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


class _WalkCountingList(list):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _relational_model(k: int):
    return random_model(3, **{name: limit * k for name, limit in RELATIONAL_LIMITS.items()})


def _pre_enrichment_scheme(k: int):
    translator = Translator(_relational_model(k))
    translator._enrich = lambda: None
    scheme = translator.run().scheme
    assert scheme is not None
    return scheme


@pytest.mark.parametrize("k", [1, 4])
def test_enrichment_walks_provenance_and_constraints_a_fixed_number_of_times(k):
    scheme = _pre_enrichment_scheme(k)
    scheme.provenance = _WalkCountingDict(scheme.provenance)
    scheme.constraints = _WalkCountingList(scheme.constraints)
    log = EnrichmentLog()
    enrich_scheme(scheme, log)
    collapses = sum(1 for a in log.actions if a.rule == "viii")
    assert collapses >= 5
    assert scheme.provenance.walks <= WALKS
    assert scheme.constraints.walks <= WALKS


@pytest.mark.parametrize("k", [1, 4])
def test_emit_text_walks_the_constraints_a_fixed_number_of_times(k):
    scheme = translate(_relational_model(k)).scheme
    assert scheme is not None and len(scheme.sets) > 300 * k
    for unicode in (False, True):
        scheme.constraints = _WalkCountingList(scheme.constraints)
        emit_text(scheme, unicode=unicode)
        assert scheme.constraints.walks <= EMIT_WALKS


def test_check_scheme_walks_the_sets_twice_and_the_constraints_once():
    # Each element's provenance reference is taken as the walk checks it.
    scheme = translate(_relational_model(1)).scheme
    assert scheme is not None
    scheme.sets = _WalkCountingList(scheme.sets)
    scheme.constraints = _WalkCountingList(scheme.constraints)
    assert check_scheme(scheme) == []
    assert (scheme.sets.walks, scheme.constraints.walks) == (2, 1)
