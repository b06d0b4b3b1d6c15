"""Run configuration: the one run setting, the stabilization preset
(`--alpha0`), and the hash that names an experiment manifest: the preset
and the quality cuts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import quality
from .mesh import ValidationError


@dataclass(frozen=True)
class RunConfig:
    alpha0: str | float = "auto"   # "auto" | "unit" | number

    def config_hash(self):
        import hashlib   # ~3 ms of import that only this call needs
        parts = [
            "",   # a retired override's slot: every hash keeps its value
            str(self.alpha0),
            repr((quality.ANGLE_DEG, quality.FACE_AREA_REL,
                  quality.FACE_SEPARATION, quality.EDGE_REL)),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def build_config(alpha0=None):
    """The RunConfig of an --alpha0 value (None: "auto")."""
    if alpha0 in (None, "auto", "unit"):
        return RunConfig(alpha0 or "auto")
    try:
        value = float(alpha0)
    except (TypeError, ValueError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise ValidationError("alpha0 must be auto, unit or a positive "
                              f"finite number, got {alpha0!r}")
    return RunConfig(value)
