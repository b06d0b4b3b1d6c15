"""Run configuration: material overrides and the stabilization preset.

Configs load from a flat key=value text file; command-line flags override
file values.  The keys are `E`, `nu`, `rho` and `alpha0`; the quality cuts
are constants of `quality`, not keys.  The configuration hash identifies an
experiment manifest: the config's values and the quality cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import quality
from .mesh import MaterialParams, ValidationError

_KEYS = ("E", "nu", "rho", "alpha0")


@dataclass(frozen=True)
class RunConfig:
    material: MaterialParams | None = None   # None: use the mesh's material
    alpha0: str | float = "auto"             # "auto" | "unit" | number

    def config_hash(self):
        import hashlib   # ~3 ms of import that only this call needs
        m = self.material
        parts = [
            "" if m is None else f"{m.youngs_modulus!r}/{m.poisson_ratio!r}"
                                 f"/{m.density!r}",
            str(self.alpha0),
            repr((quality.ANGLE_DEG, quality.FACE_AREA_REL,
                  quality.FACE_SEPARATION, quality.EDGE_REL)),
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
    alpha0 = raw = values.get("alpha0", "auto")
    if alpha0 not in ("auto", "unit"):
        what = "auto, unit or a positive finite number"
        alpha0 = _number("alpha0", raw, what)
        if not 0.0 < alpha0 < math.inf:
            raise ValidationError(f"alpha0 must be {what}, got {raw!r}")
    return RunConfig(material=material, alpha0=alpha0)


def apply_material(mesh, config):
    if config.material is None:
        return mesh
    return replace(mesh, material=config.material)
