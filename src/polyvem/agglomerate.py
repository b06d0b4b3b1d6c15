"""Merge groups of elements into single polytopal virtual elements.

Internal faces (shared by exactly two group members with opposite
orientation) are removed; the union keeps the remaining boundary faces
verbatim, so face integration stays exact and nothing is re-triangulated.
Faces match by one rule on the geometry table (``Mesh.geometry``): equal
sorted rows of its stacked faces (loop edges in 2D).  The unions of all
groups and auto-agglomeration's face-contact table are both built that way.
"""

from __future__ import annotations

import numpy as np

from . import mesh as meshmod, quality
from .mesh import Element, Mesh, ValidationError

VOLUME_FLOOR = 1e-3  # auto-agglomeration stops at volume >= this * h^dim


class MergeError(ValidationError):
    """A group cannot be merged into a valid single element."""


def merge(mesh, group):
    """Replace a face-connected group by its union element.

    The union takes the slot of the smallest group index; other group
    elements are dropped (indices above them shift down).
    """
    return _rebuild(mesh, [group])[0]


def merge_groups(mesh, groups):
    """Merge several disjoint groups in one pass.

    Group indices refer to the input mesh (no re-indexing between merges).
    Each union lands at its smallest member's slot.  Returns the new mesh
    and {new element id: tuple of original ids}.
    """
    return _rebuild(mesh, groups)


def _rebuild(mesh, groups):
    """The mesh with each group replaced by its union at the slot of its
    smallest member; the other elements keep their order.  The one group
    rule: a non-empty list of disjoint groups, each of at least two
    distinct element indices in range.  Every union must pass validation
    and must not be degenerate; the first union in element order that
    fails either raises.  Returns the new mesh and {new element id: tuple
    of original ids}."""
    meshmod.validate_mesh(mesh)  # an invalid mesh is refused (cached)
    groups = [sorted(set(int(g) for g in group)) for group in groups]
    ids = [g for members in groups for g in members]
    if not groups:
        raise MergeError("no merge groups")
    if any(len(members) < 2 for members in groups):
        raise MergeError("merge groups need at least two elements")
    if len(set(ids)) < len(ids):
        raise MergeError("merge groups overlap")
    if min(ids) < 0 or max(ids) >= mesh.num_elements:
        raise MergeError("merge group index out of range")
    slot_of = {members[0]: members for members in groups}
    union_at = dict(zip(slot_of, _unions(mesh, groups)))
    consumed = {g for members in groups for g in members[1:]}
    kept = [i for i in range(mesh.num_elements) if i not in consumed]
    out = Mesh(mesh.dimension, mesh.vertices,
               [union_at.get(i, mesh.elements[i]) for i in kept],
               mesh.material)
    g = out.geometry
    slots = np.searchsorted(kept, sorted(slot_of))  # the unions' new ids
    bad = slots[(g.failed_check[slots] >= 0) | g.degenerate[slots]]
    if bad.size and g.failed_check[bad[0]] >= 0:
        raise ValidationError(g.error(bad[0]))
    if bad.size:
        raise MergeError(
            f"merged element {bad[0]} has vanishing measure; agglomerate "
            "with more neighbors so the polytope keeps finite measure")
    return out, {k: tuple(slot_of.get(i, (i,))) for k, i in enumerate(kept)}


def _unions(mesh, groups):
    """The union element of each group, from one pass over its members'
    rows of the geometry table's stacked faces (loop edges in 2D), matched
    as ``_contacts`` matches them.  A row held once is boundary, kept in
    member then face order.  A row held twice is internal (a valid mesh
    holds no row more than twice, nor twice in one direction), and such
    pairs must connect the group."""
    size = np.array([len(members) for members in groups])
    members = np.concatenate(groups)
    rows, pos = meshmod.face_rows(mesh, members)
    faces = mesh.geometry.faces[rows]
    member_group = np.arange(len(groups)).repeat(size)
    group = member_group[pos]
    key = np.sort(faces, axis=1)
    order, run = meshmod._runs(group, *key.T)
    copies = np.bincount(run)[run]
    i, j = order[copies == 2].reshape(-1, 2).T
    apart = (_components(len(members), pos[i], pos[j])
             != (size.cumsum() - size).repeat(size))
    if apart.any():
        raise MergeError(f"group {groups[member_group[np.argmax(apart)]]} "
                         "is not face-connected")
    alone = np.sort(order[copies == 1])
    cuts = np.searchsorted(group[alone], np.arange(len(groups) + 1)).tolist()
    boundary = faces[alone].tolist()
    if mesh.dimension == 2:
        return [Element(loop=_loop(boundary[a:b]), kind="poly")
                for a, b in zip(cuts, cuts[1:])]
    return [Element(faces=tuple(map(tuple, boundary[a:b])), kind="poly")
            for a, b in zip(cuts, cuts[1:])]


def _components(n, a, b):
    """Per node of the graph with edges (a[k], b[k]) on nodes 0..n-1: the
    smallest node of its connected component."""
    label = np.arange(n)
    while (label[a] != label[b]).any():
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
        label = label[label]
    return label


def _loop(edges):
    """2D boundary edges (a, b) walked into one loop from the smallest
    vertex; a vertex touched twice or a second loop (a hole) is refused."""
    if not edges:
        raise MergeError("merged boundary is empty")
    succ = {}
    for a, b in edges:
        if a in succ:
            raise MergeError("merged region is not edge-connected or "
                             "touches itself at a vertex")
        succ[a] = b
    loop = [min(succ)]
    while succ[loop[-1]] != loop[0]:
        loop.append(succ[loop[-1]])
    if len(loop) != len(succ):
        raise MergeError("merged region has a hole or is disconnected")
    return tuple(loop)


def _contacts(mesh):
    """Face contacts of the elements, from the geometry table's stacked
    faces (loop edges in 2D): (neighbors, area).  neighbors[e] is the set
    of elements sharing a face with e (each later copy of a face links its
    element to the first element holding it); area[e, nb] is the area of
    nb's copies of the faces it shares with e, summed in nb's face order."""
    g, owner = mesh.geometry, mesh.geometry.face_owner
    order, run = meshmod._runs(*np.sort(g.faces, axis=1).T)
    first = np.empty_like(order)
    first[order] = order[np.searchsorted(run, run)]
    later = (first != np.arange(len(first))).nonzero()[0]
    a, b = owner[later].tolist(), owner[first[later]].tolist()
    neighbors = [set() for _ in range(mesh.num_elements)]
    for i, j in zip(a, b):
        neighbors[i].add(j)
        neighbors[j].add(i)
    area, areas = {}, g.face_areas.tolist()
    for e, nb, f in sorted(zip(a + b, b + a,
                               first[later].tolist() + later.tolist())):
        area[e, nb] = area.get((e, nb), 0.0) + areas[f]
    return neighbors, area


def auto_agglomerate(mesh):
    """Merge every pathological element with neighbors, greedily.

    Each flagged element absorbs the neighbor sharing the largest contact
    area until its volume reaches VOLUME_FLOOR * h_E^dim.  Returns the new
    mesh and a mapping {new element id: tuple of original ids}.  The mesh
    is validated once, up front; a mesh with nothing to merge comes back as
    the same object with the identity mapping.
    """
    bad = [r.element for r in quality.mesh_report(meshmod.validate_mesh(mesh))
           if r.classification not in ("good", "not_applicable")]
    groups = {i: {i} for i in range(mesh.num_elements)}
    owner = list(range(mesh.num_elements))
    adj, shared = _contacts(mesh)
    unmerged, g = [], mesh.geometry
    for seed in bad:
        while True:
            root = owner[seed]
            members, ids = groups[root], sorted(groups[root])
            nodes = np.unique(g.faces[meshmod.face_rows(mesh, ids)[0]])
            h = meshmod._max_pairwise_distance(mesh.vertices[nodes])
            if (len(ids) > 1 and g.volume[ids].sum()
                    >= VOLUME_FLOOR * h ** mesh.dimension):
                break
            candidates = {}
            for e in members:
                for nb in adj[e]:
                    nroot = owner[nb]
                    if nroot == root:
                        continue
                    candidates[nroot] = (candidates.get(nroot, 0.0)
                                         + shared[e, nb])
            if not candidates:
                if len(members) == 1:
                    unmerged.append(seed)
                break
            best = max(sorted(candidates), key=lambda k: candidates[k])
            keep, drop = min(root, best), max(root, best)
            groups[keep] = groups[keep] | groups.pop(drop)
            for e in groups[keep]:
                owner[e] = keep

    groups = sorted(sorted(m) for m in groups.values() if len(m) > 1)
    if not groups:
        return mesh, {i: (i,) for i in range(mesh.num_elements)}, unmerged
    # _rebuild checks every union; a kept element's checks are its own.
    return (*_rebuild(mesh, groups), unmerged)
