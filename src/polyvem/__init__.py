"""Polytopal virtual-element elastodynamics toolkit.

First-order virtual elements on polygons and polyhedra built by
agglomerating poor-quality finite elements, element-eigenvalue critical
time-step estimation, and explicit central-difference simulation.
"""

from . import (agglomerate, benchmarks, dynamics, eig, fem, hni, mesh,
               quality, vem)
from .mesh import (Element, MaterialParams, Mesh, MeshError, ParseError,
                   ValidationError, extrude, load_mesh, save_mesh)
from .benchmarks import gen_benchmark
from .eig import critical_dt, global_max_frequency
from .dynamics import assemble, central_difference_run, tapered_beam_experiment

__version__ = "0.1.0"
