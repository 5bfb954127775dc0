"""Byte-identity guard: sha256 digests of every output on fixed generated models.

The digests were taken from the text, structured and report outputs before
rule (viii) and the model lookups were indexed. A change meant to keep the
output as it is must leave them as they are; a change meant to alter the
output updates them in the same commit and says why.
"""

from __future__ import annotations

import hashlib

from erdmc.emitter import emit_structured, emit_text, encode_report
from erdmc.generator import random_model
from erdmc.translator import translate

# The relational workload's limits, as perfbench/workloads.py sets them.
RELATIONAL_LIMITS = dict(
    max_entities=800, max_relationships=400, max_computed=40,
    max_attributes=6, max_restrictions=6400,
)


def _outputs(model) -> tuple[str, str, str]:
    """Text, structured and report output, as `erdmc translate` writes them."""
    result = translate(model)
    report = encode_report(result.report)
    assert result.scheme is not None
    return emit_text(result.scheme), emit_structured(result.scheme, report), report


def _digests(models) -> tuple[str, str, str]:
    hashes = [hashlib.sha256() for _ in range(3)]
    for model in models:
        for h, out in zip(hashes, _outputs(model)):
            h.update(out.encode())
    return tuple(h.hexdigest() for h in hashes)


def test_relational_model_outputs_are_pinned():
    assert _digests([random_model(3, **RELATIONAL_LIMITS)]) == (
        "4884dcdcfd8495d10d1d0494a0782d0540711787ddc1da9b9d801563c354f701",
        "c42c35328de5e4c537abc34fb273f93d7db3c5a92fc1ec64c4d8365722587d1f",
        "9066a9ef9560ad4ec8afdc75b8d9c451166e713a344d6d5a9d92ada70ba7bdfb",
    )


def test_small_random_model_outputs_are_pinned():
    assert _digests(random_model(seed) for seed in range(50)) == (
        "d42825f0a00cfda58858460eee1801d4813f8f9187da26896dd8071aeeb840e2",
        "f20a60132753d2342accf7122268c080b11e7ce7fcbbe2f26123a4f57c8abbcf",
        "0f8e4ea291c8374072694ce4cfe6bbdab2327a8d899a5f14e1cdbfeb3a802b60",
    )
