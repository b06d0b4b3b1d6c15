"""Run configuration: material overrides, stabilization preset, lumping,
quality thresholds.

Configs load from a flat key=value text file; command-line flags override
file values.  The configuration hash identifies an experiment manifest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, fields

from .mesh import MaterialParams, ValidationError
from .quality import QualityThresholds, DEFAULT_THRESHOLDS

_THRESHOLD_KEYS = tuple(f.name for f in fields(QualityThresholds))
_KEYS = ("E", "nu", "rho", "alpha0", "lumping") + _THRESHOLD_KEYS


@dataclass(frozen=True)
class RunConfig:
    material: MaterialParams | None = None   # None: use the mesh's material
    alpha0: str | float = "auto"             # "auto" | "unit" | number
    lumping: str = "auto"                    # "auto" | "row_sum" | "diag_scale"
    thresholds: QualityThresholds = DEFAULT_THRESHOLDS

    def config_hash(self):
        m = self.material
        parts = [
            "" if m is None else f"{m.youngs_modulus!r}/{m.poisson_ratio!r}"
                                 f"/{m.density!r}",
            str(self.alpha0), self.lumping,
            repr(astuple(self.thresholds)),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def parse_config_file(path):
    """key = value pairs, # comments, blank lines ignored."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: "
                              f"{exc.strerror or exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _number(key, raw, what="a number"):
    """A config value as a float; the ValidationError names the key."""
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be {what}, got {raw!r}") from None


def _positive(key, raw, what="a positive finite number"):
    value = _number(key, raw, what)
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{key} must be {what}, got {raw!r}")
    return value


def build_config(file_values=None, **overrides):
    """Merge file values and explicit overrides into a RunConfig."""
    values = dict(file_values or {})
    values.update({k: v for k, v in overrides.items() if v is not None})
    mat_keys = ("E", "nu", "rho")
    material = None
    if set(mat_keys) & set(values):
        if not set(mat_keys) <= set(values):
            raise ValidationError(
                "material override needs all of E, nu, rho")
        material = MaterialParams(*(_number(k, values[k]) for k in mat_keys))
    alpha0 = values.get("alpha0", "auto")
    if alpha0 not in ("auto", "unit"):
        alpha0 = _positive("alpha0", alpha0,
                           "auto, unit or a positive finite number")
    lumping = values.get("lumping", "auto")
    if lumping not in ("auto", "row_sum", "diag_scale"):
        raise ValidationError(f"unknown lumping mode {lumping!r}")
    thresholds = {key: _positive(key, values[key])
                  for key in _THRESHOLD_KEYS if key in values}
    if thresholds.get("angle_deg", 0.0) >= 90.0:
        raise ValidationError(
            f"angle_deg must be below 90, got {values['angle_deg']!r}")
    return RunConfig(material=material, alpha0=alpha0, lumping=lumping,
                     thresholds=QualityThresholds(**thresholds))


def apply_material(mesh, config):
    if config.material is None:
        return mesh
    from .mesh import Mesh
    return Mesh(mesh.dimension, mesh.vertices, mesh.elements, config.material)
