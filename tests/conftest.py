"""Shared fixtures and independent oracles.

The moment oracle integrates monomials over polytopes by signed simplicial
decomposition about a reference point, with each simplex integrated through
the barycentric factorial formula.  It shares no code path with the
boundary-reduction integrator it is used to check.
"""

import itertools
import math
import os
import platform

import numpy as np
import pytest

from polyvem import benchmarks, eig, mesh as meshmod


# ---------------------------------------------------------------------------
# Leak guard: a central-difference run may fork a helper process for its
# products and pin itself and the helper to CPUs; no test may leave a child
# process behind or this process's CPU affinity changed.


def helper_capable():
    """Whether a long central-difference run here forks its K @ u helper
    (an x86-64 machine with two or more allowed CPUs)."""
    return (platform.machine() == "x86_64"
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


_affinity = getattr(os, "sched_getaffinity", lambda pid: None)


def as_scipy(K):
    """An ``eig.Csr`` as a scipy CSR matrix on the same arrays, for the
    checks that use scipy's operators."""
    import scipy.sparse as sp
    return sp.csr_matrix((K.data, K.indices, K.indptr), shape=K.shape)


def csr(K):
    """A dense or scipy sparse K as an ``eig.Csr``, the one form of K the
    library takes: a scipy matrix's CSR arrays as they are, a dense K's as
    scipy's ``csr_matrix`` lays them out (its zeros not stored)."""
    import scipy.sparse as sp
    K = K.tocsr() if sp.issparse(K) else sp.csr_matrix(K)
    return eig.Csr(K.data, K.indices, K.indptr, K.shape)


@pytest.fixture(autouse=True)
def no_child_left():
    cpus = _affinity(0)  # read past any monkeypatch of the test's
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)  # also reaps an exited child
    except ChildProcessError:
        left = None
    if left is not None:
        pytest.fail(f"the test left a child process behind: {left}")
    if _affinity(0) != cpus:
        changed = _affinity(0)
        os.sched_setaffinity(0, cpus)  # later tests run as before
        pytest.fail(f"the test left this process's CPU affinity changed: "
                    f"{sorted(changed)}, not {sorted(cpus)}")


# ---------------------------------------------------------------------------
# Oracle: exact monomial integrals over simplices and polytopes


def _multinomial_terms(vectors, power):
    """Expand (sum_i c_i)^power into monomials of the barycentric weights.

    vectors is a list of per-vertex scalars (the vertex coordinates along
    one axis); yields (coefficient, exponent tuple over vertices).
    """
    k = len(vectors)
    for combo in itertools.combinations_with_replacement(range(k), power):
        counts = [0] * k
        for c in combo:
            counts[c] += 1
        coef = math.factorial(power)
        for c in counts:
            coef //= math.factorial(c)
        value = coef
        for i, c in enumerate(counts):
            value *= vectors[i] ** c
        yield value, tuple(counts)


def simplex_monomial_integral(verts, exponent):
    """Exact integral of x^a y^b (z^c) over a simplex (signed by orientation).

    Expands the monomial in barycentric coordinates and applies
    integral(prod lambda_i^{k_i}) = d! V prod(k_i!) / (sum k_i + d)!.
    """
    verts = np.asarray(verts, dtype=float)
    d = verts.shape[1]
    jac = np.linalg.det(verts[1:] - verts[0])
    vol = jac / math.factorial(d)
    total = 0.0
    # Accumulate products over axes by iterating exponent axes jointly.
    partial = {(0,) * (d + 1): 1.0}
    for axis, power in enumerate(exponent):
        if power == 0:
            continue
        coords = verts[:, axis]
        new = {}
        for counts0, val0 in partial.items():
            for val, counts in _multinomial_terms(list(coords), power):
                key = tuple(a + b for a, b in zip(counts0, counts))
                new[key] = new.get(key, 0.0) + val0 * val
        partial = new
    for counts, coef in partial.items():
        num = 1.0
        for c in counts:
            num *= math.factorial(c)
        total += coef * num / math.factorial(sum(counts) + d)
    return total * math.factorial(d) * vol


def polytope_monomial_oracle(mesh, index, exponent):
    """Signed decomposition about the first vertex of the element."""
    el = mesh.elements[index]
    if mesh.dimension == 2:
        loop = el.loop
        ref = mesh.vertices[loop[0]]
        total = 0.0
        for k in range(1, len(loop) - 1):
            tri = np.array([ref, mesh.vertices[loop[k]],
                            mesh.vertices[loop[k + 1]]])
            total += simplex_monomial_integral(tri, exponent)
        return total
    ref = mesh.vertices[meshmod.element_nodes(mesh, [index])[0, 0]]
    total = 0.0
    for f in el.faces:
        tet = np.array([ref, *mesh.vertices[list(f)]])
        total += simplex_monomial_integral(tet, exponent)
    return total


def exponents_up_to(dim, max_degree):
    if dim == 2:
        return [(a, b) for a in range(max_degree + 1)
                for b in range(max_degree + 1 - a)]
    return [(a, b, c) for a in range(max_degree + 1)
            for b in range(max_degree + 1 - a)
            for c in range(max_degree + 1 - a - b)]


# ---------------------------------------------------------------------------
# Random well-shaped geometry helpers


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_tet_mesh(rng, scale=1.0):
    """A single random tetrahedron with bounded aspect ratio."""
    while True:
        verts = rng.uniform(-1.0, 1.0, size=(4, 3)) * scale
        vol = meshmod.tet_volume(*verts)
        if vol < 0:
            verts[[1, 2]] = verts[[2, 1]]
            vol = -vol
        h = max(np.linalg.norm(a - b) for a in verts for b in verts)
        if vol > 0.05 * h ** 3:
            return meshmod.Mesh(3, verts, [meshmod.tet_element((0, 1, 2, 3))])


def clustered_polygon(cluster):
    """The convex polygon with unit-circle vertices at the angles
    `cluster`, then 2 and 4 rad past the last one.  Its VEM mass row sums
    go non-positive when the cluster is tight enough."""
    a = np.r_[cluster, cluster[-1] + 2.0, cluster[-1] + 4.0]
    return meshmod.validate_mesh(meshmod.Mesh(
        2, np.c_[np.cos(a), np.sin(a)],
        [meshmod.Element(loop=tuple(range(len(a))))]))


# ---------------------------------------------------------------------------
# Cached benchmark meshes (generation is not free; share per session)


@pytest.fixture(scope="session")
def beam_meshes():
    return {
        (case, variant): benchmarks.gen_benchmark(f"beam{case}",
                                                  variant=variant)
        for case in ("A", "B") for variant in ("fem", "vem")
    }


@pytest.fixture(scope="session")
def kite_meshes():
    return {
        (eps, variant): benchmarks.gen_benchmark("kite", eps, variant)
        for eps in (1e-1, 1e-5) for variant in ("fem", "vem")
    }
