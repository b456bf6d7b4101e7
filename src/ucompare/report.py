"""Comparison reports and their canonical JSON encoding.

The encoder is deliberately hand-rolled: keys keep insertion order and every
float is written with 17 significant digits, so a report is byte-identical
across runs with the same inputs and parses back to the same values. None,
booleans, integers and strings go through json.dumps, which escapes only
backslash, double quote and control characters in strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA_VERSION = 1


def _encode(value, pieces: list[str]) -> None:
    if isinstance(value, float):
        pieces.append(format(value, ".17g"))
    elif value is None or isinstance(value, (int, str)):
        pieces.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(", ")
            _encode(item, pieces)
        pieces.append("]")
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            _encode(str(key), pieces)
            pieces.append(": ")
            _encode(item, pieces)
        pieces.append("}")
    else:
        raise TypeError(f"cannot encode {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    pieces: list[str] = []
    _encode(value, pieces)
    return "".join(pieces)


@dataclass(frozen=True)
class ComparisonReport:
    """Everything one comparison run reports: inputs, results, provenance.

    Each part is a dict whose insertion order is the key order in the JSON.
    """

    inputs: dict
    outputs: dict
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())
