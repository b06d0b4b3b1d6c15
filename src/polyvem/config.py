"""Run configuration: material overrides, stabilization preset, lumping,
quality thresholds.

Configs load from a flat key=value text file; command-line flags override
file values.  The configuration hash identifies an experiment manifest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .mesh import MaterialParams, ValidationError
from .quality import QualityThresholds, DEFAULT_THRESHOLDS

_KEYS = ("E", "nu", "rho", "alpha0", "lumping", "angle_deg",
         "face_area_rel", "face_separation", "edge_rel")


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
            repr((self.thresholds.angle_deg, self.thresholds.face_area_rel,
                  self.thresholds.face_separation, self.thresholds.edge_rel)),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def parse_config_file(path):
    """key = value pairs, # comments, blank lines ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def build_config(file_values=None, **overrides):
    """Merge file values and explicit overrides into a RunConfig."""
    values = dict(file_values or {})
    values.update({k: v for k, v in overrides.items() if v is not None})
    mat_keys = {"E", "nu", "rho"}
    material = None
    if mat_keys & set(values):
        if not mat_keys <= set(values):
            raise ValidationError(
                "material override needs all of E, nu, rho")
        material = MaterialParams(
            youngs_modulus=float(values["E"]),
            poisson_ratio=float(values["nu"]),
            density=float(values["rho"]),
        )
    alpha0 = values.get("alpha0", "auto")
    if alpha0 not in ("auto", "unit"):
        try:
            alpha0 = float(alpha0)
        except (TypeError, ValueError):
            alpha0 = math.nan
        if not (math.isfinite(alpha0) and alpha0 > 0.0):
            raise ValidationError(
                "alpha0 must be auto, unit or a positive finite number, "
                f"got {values['alpha0']!r}")
    lumping = values.get("lumping", "auto")
    if lumping not in ("auto", "row_sum", "diag_scale"):
        raise ValidationError(f"unknown lumping mode {lumping!r}")
    thresholds = QualityThresholds(
        angle_deg=float(values.get("angle_deg",
                                   DEFAULT_THRESHOLDS.angle_deg)),
        face_area_rel=float(values.get("face_area_rel",
                                       DEFAULT_THRESHOLDS.face_area_rel)),
        face_separation=float(values.get(
            "face_separation", DEFAULT_THRESHOLDS.face_separation)),
        edge_rel=float(values.get("edge_rel", DEFAULT_THRESHOLDS.edge_rel)),
    )
    return RunConfig(material=material, alpha0=alpha0, lumping=lumping,
                     thresholds=thresholds)


def apply_material(mesh, config):
    if config.material is None:
        return mesh
    from .mesh import Mesh
    return Mesh(mesh.dimension, mesh.vertices, mesh.elements, config.material)
