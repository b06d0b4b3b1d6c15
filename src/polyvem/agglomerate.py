"""Merge groups of elements into single polytopal virtual elements.

Internal faces (shared by exactly two group members with opposite
orientation) are removed; the union keeps the remaining boundary faces
verbatim, so face integration stays exact and nothing is re-triangulated.
Auto-agglomeration reads face contacts and node lists from the mesh's
geometry table (``Mesh.geometry``).
"""

from __future__ import annotations

import numpy as np

from . import mesh as meshmod, quality
from .mesh import Element, Mesh, TAU_GEOM, ValidationError


class MergeError(ValidationError):
    """A group cannot be merged into a valid single element."""


def _merged_faces_3d(mesh, group):
    keyed = {}
    for e in group:
        for f in mesh.elements[e].faces:
            key = tuple(sorted(f))
            keyed.setdefault(key, []).append((e, f))
    boundary = []
    internal = set()
    for key, hits in keyed.items():
        if len(hits) == 1:
            boundary.append(hits[0][1])
        elif len(hits) == 2:
            (e1, f1), (e2, f2) = hits
            # Same cyclic orientation from both sides means overlap.
            if _same_cycle(f1, f2):
                raise MergeError(
                    f"elements {e1} and {e2} traverse shared face {key} "
                    "in the same direction (orientation mismatch)")
            internal.add(key)
        else:
            raise MergeError(f"face {key} shared by more than two elements")
    if not internal and len(group) > 1:
        raise MergeError("group elements share no faces (disconnected)")
    # Face-connectivity of the group must form one component.
    adj = {e: set() for e in group}
    for key, hits in keyed.items():
        if len(hits) == 2:
            (e1, _), (e2, _) = hits
            adj[e1].add(e2)
            adj[e2].add(e1)
    seen = set()
    stack = [next(iter(group))]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        stack.extend(adj[e] - seen)
    if seen != set(group):
        raise MergeError("group is not face-connected")
    return tuple(boundary)


def _same_cycle(f1, f2):
    rot = [tuple(f2[k:]) + tuple(f2[:k]) for k in range(3)]
    return tuple(f1) in rot


def _merged_loop_2d(mesh, group):
    directed = {}
    for e in group:
        loop = mesh.elements[e].loop
        n = len(loop)
        for k in range(n):
            a, b = loop[k], loop[(k + 1) % n]
            if (b, a) in directed:
                directed.pop((b, a))
            elif (a, b) in directed:
                raise MergeError(
                    f"edge ({a},{b}) traversed twice in the same direction")
            else:
                directed[(a, b)] = e
    if not directed:
        raise MergeError("merged boundary is empty")
    succ = {}
    for a, b in directed:
        if a in succ:
            raise MergeError("merged region is not edge-connected or "
                             "touches itself at a vertex")
        succ[a] = b
    start = min(succ)
    loop = [start]
    cur = succ[start]
    while cur != start:
        loop.append(cur)
        if len(loop) > len(succ):
            raise MergeError("boundary does not close into a single loop")
        cur = succ[cur]
    if len(loop) != len(succ):
        raise MergeError("merged region has a hole or is disconnected")
    return tuple(loop)


def merge(mesh, group):
    """Replace a face-connected group by its union element.

    The union takes the slot of the smallest group index; other group
    elements are dropped (indices above them shift down).
    """
    group = sorted(set(int(g) for g in group))
    if not group:
        raise MergeError("empty merge group")
    return _rebuild(mesh, [group])[0]


def merge_groups(mesh, groups):
    """Merge several disjoint groups in one pass.

    Group indices refer to the input mesh (no re-indexing between merges).
    Each union lands at its smallest member's slot.  Returns the new mesh
    and {new element id: tuple of original ids}.
    """
    cleaned = [sorted(set(int(g) for g in group)) for group in groups]
    if any(len(members) < 2 for members in cleaned):
        raise MergeError("merge groups need at least two elements")
    ids = [g for members in cleaned for g in members]
    if len(set(ids)) < len(ids):
        raise MergeError("merge groups overlap")
    return _rebuild(mesh, cleaned)


def _rebuild(mesh, groups):
    """The mesh with each group (sorted, disjoint member lists) replaced by
    its union at the slot of its smallest member; the other elements keep
    their order.  Every union is validated and must keep a finite measure.
    Returns the new mesh and {new element id: tuple of original ids}."""
    if any(g < 0 or g >= mesh.num_elements for members in groups
           for g in members):
        raise MergeError("merge group index out of range")
    slot_of = {members[0]: members for members in groups}
    consumed = {g for members in groups for g in members[1:]}
    elements = []
    mapping = {}
    for i in range(mesh.num_elements):
        if i not in consumed:
            members = slot_of.get(i, (i,))
            elements.append(_union_element(mesh, members) if i in slot_of
                            else mesh.elements[i])
            mapping[len(elements) - 1] = tuple(members)
    out = Mesh(mesh.dimension, mesh.vertices, elements, mesh.material)
    for new_id, members in mapping.items():
        if members[0] not in slot_of:
            continue
        meshmod.validate_element(out, new_id)
        g = out.geometry
        if g.volume[new_id] < TAU_GEOM * g.diameter[new_id] ** mesh.dimension:
            raise MergeError(
                f"merged element {new_id} has vanishing measure; agglomerate "
                "with more neighbors so the polytope keeps finite measure")
    return out, mapping


def _contacts(mesh):
    """Face contacts of the elements, from the geometry table's stacked
    faces (loop edges in 2D): (neighbors, area).  neighbors[e] is the set
    of elements sharing a face with e (each later copy of a face links its
    element to the first element holding it); area[e, nb] is the area of
    nb's copies of the faces it shares with e, summed in nb's face order."""
    g = mesh.geometry
    owner = np.repeat(np.arange(mesh.num_elements), np.diff(g.face_start))
    order, run = meshmod._runs(*np.sort(g.faces, axis=1).T)
    first = np.empty_like(order)
    first[order] = order[np.searchsorted(run, run)]
    later = np.flatnonzero(first != np.arange(len(first)))
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


def auto_agglomerate(mesh, thresholds=quality.DEFAULT_THRESHOLDS,
                     volume_floor=1e-3):
    """Merge every pathological element with neighbors, greedily.

    Each flagged element absorbs the neighbor sharing the largest contact
    area until its volume reaches volume_floor * h_E^dim.  Returns the new
    mesh and a mapping {new element id: tuple of original ids}.  Good meshes
    come back untouched with the identity mapping.
    """
    reports = quality.mesh_report(mesh, thresholds)
    bad = [r.element for r in reports
           if r.classification not in ("good", "not_applicable")]
    groups = {i: {i} for i in range(mesh.num_elements)}
    owner = list(range(mesh.num_elements))
    adj, shared = _contacts(mesh)
    unmerged = []

    def group_volume(members):
        members = sorted(members)
        nodes = np.unique(np.concatenate(
            [meshmod.element_nodes(mesh, [e])[0] for e in members]))
        return (mesh.geometry.volume[members].sum(),
                meshmod._max_pairwise_distance(mesh.vertices[nodes]))

    for seed in bad:
        while True:
            root = owner[seed]
            members = groups[root]
            vol, h = group_volume(members)
            if len(members) > 1 and vol >= volume_floor * h ** mesh.dimension:
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

    out, mapping = _rebuild(mesh, sorted(
        sorted(m) for m in groups.values() if len(m) > 1))
    meshmod.validate_mesh(out)
    return out, mapping, unmerged


def _union_element(mesh, members):
    if mesh.dimension == 2:
        return Element(loop=_merged_loop_2d(mesh, members), kind="poly")
    return Element(faces=_merged_faces_3d(mesh, members), kind="poly")


def write_mapping_csv(mapping, path):
    with open(path, "w") as fh:
        fh.write("new_element_id,old_element_ids\n")
        for new_id in sorted(mapping):
            olds = ",".join(str(o) for o in mapping[new_id])
            fh.write(f"{new_id},\"{olds}\"\n")
