"""Seeded input generators for the benchmark.

Everything here is plain Python and independent of ``trisweep``: the
generators build JSON texts and plain tuples, and the small oracles at
the bottom (dihedral and permutation arithmetic, text formatting) check
the program's results without calling the code under test.

Every generator takes a ``random.Random`` (or a seed string) and iterates
only over sorted or indexed data, so its output does not depend on the
interpreter's string-hash randomisation.
"""

from __future__ import annotations

import json
import random

# -- complexes ---------------------------------------------------------------


def torus(n: int, tag: str = "v") -> tuple[list[str], list[tuple[str, str, str]]]:
    """Triangulated torus T(n): an n x n grid with one diagonal per square.

    Vertex (i, j) is named ``f"{tag}{i}_{j}"``; the square at (i, j) splits
    along the diagonal (i, j)-(i+1, j+1).  There are n^2 vertices, 3n^2
    edges and 2n^2 triangles; n >= 3 keeps the complex simplicial.
    """
    if n < 3:
        raise ValueError("torus needs n >= 3")

    def v(i: int, j: int) -> str:
        return f"{tag}{i % n}_{j % n}"

    vertices = [v(i, j) for i in range(n) for j in range(n)]
    triangles = []
    for i in range(n):
        for j in range(n):
            triangles.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            triangles.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return vertices, triangles


def band(columns: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Cylinder band: a bottom ring b0..b(m-1) and a top ring t0..t(m-1).

    Square c has corners b_c, b_{c+1}, t_c, t_{c+1} (indices mod m) and
    splits along b_c-t_{c+1} into {b_c, b_{c+1}, t_{c+1}} and
    {b_c, t_c, t_{c+1}}, so the band has 2m triangles.
    """
    if columns < 3:
        raise ValueError("band needs at least 3 columns")
    m = columns
    vertices = [f"b{c}" for c in range(m)] + [f"t{c}" for c in range(m)]
    triangles = []
    for c in range(m):
        d = (c + 1) % m
        triangles.append((f"b{c}", f"b{d}", f"t{d}"))
        triangles.append((f"b{c}", f"t{c}", f"t{d}"))
    return vertices, triangles


def edges_of(triangles) -> list[tuple[str, str]]:
    """Sorted unordered edges of a triangle list, each as a sorted pair."""
    out = set()
    for tri in triangles:
        a, b, c = tri
        for x, y in ((a, b), (a, c), (b, c)):
            out.add((x, y) if x < y else (y, x))
    return sorted(out)


def alpha_markings(triangles) -> list[tuple[str, str, str]]:
    """Every (source, apex, target) marking of every triangle, six per face."""
    out = []
    for tri in sorted(tuple(sorted(t)) for t in triangles):
        for apex in tri:
            u, w = sorted(set(tri) - {apex})
            out.append((u, apex, w))
            out.append((w, apex, u))
    return out


def complex_json(vertices, triangles, rng: random.Random | None = None) -> str:
    """The complex file text; ``rng`` shuffles the triangle order."""
    tris = [list(t) for t in triangles]
    if rng is not None:
        rng.shuffle(tris)
    return json.dumps({"vertices": list(vertices), "triangles": tris, "pure_dim2": True})


def neighbours(triangles) -> dict[str, list[str]]:
    adj: dict[str, set[str]] = {}
    for a, b in edges_of(triangles):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return {v: sorted(ws) for v, ws in sorted(adj.items())}


# -- group elements as plain data and as text ----------------------------------


def random_dihedral(n: int, rng: random.Random) -> tuple[int, int]:
    return (rng.randrange(n), rng.randrange(2))


def dihedral_text(x: tuple[int, int]) -> str:
    """Normal-form text r^k*s of a dihedral element (rotation, flip)."""
    rot, flip = x
    parts = []
    if rot:
        parts.append("r" if rot == 1 else f"r^{rot}")
    if flip:
        parts.append("s")
    return "*".join(parts) or "e"


def dihedral_mul(n: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """r^i s^f * r^j s^g = r^(i + (-1)^f j) s^(f+g) in D_n."""
    (i, f), (j, g) = x, y
    return ((i + (j if f == 0 else -j)) % n, f ^ g)


def random_perm(degree: int, rng: random.Random) -> tuple[int, ...]:
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return tuple(images)


def perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Composition with the package's pinned order: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img - 1] = i + 1
    return tuple(out)


def random_free_word(gens, rng: random.Random, syllables: int) -> list[tuple[str, int]]:
    """A reduced word: adjacent syllables never share a generator."""
    out: list[tuple[str, int]] = []
    while len(out) < syllables:
        g = rng.choice(gens)
        if out and out[-1][0] == g:
            continue
        out.append((g, rng.choice((-2, -1, 1, 2))))
    return out


def free_text(word) -> str:
    return "*".join(g if k == 1 else f"{g}^{k}" for g, k in word) or "e"


# -- connections -----------------------------------------------------------------


def dihedral_connection(n: int, vertices, triangles, rng: random.Random):
    """Random D_n values on every edge and every triangle marking.

    Returns the connection file text and the edge values as plain pairs,
    keyed by the sorted vertex pair, for the holonomy oracle.
    """
    edges = edges_of(triangles)
    values = {e: random_dihedral(n, rng) for e in edges}
    cells = {m: random_dihedral(n, rng) for m in alpha_markings(triangles)}
    text = json.dumps(
        {
            "group": {"dihedral": n},
            "edges": {f"{a}>{b}": dihedral_text(x) for (a, b), x in values.items()},
            "cells": {".".join(m): dihedral_text(x) for m, x in cells.items()},
        }
    )
    return text, values


def symbolic_connection(triangles) -> tuple[str, dict[tuple[str, str, str], str]]:
    """The paper's symbolic connection: trivial edges, one free generator per cell.

    Generators are ``x``, ``y`` and ``c0, c1, ...`` in marking order.
    Returns the file text and the marking -> generator map.
    """
    markings = alpha_markings(triangles)
    names = {m: f"c{k}" for k, m in enumerate(markings)}
    text = json.dumps(
        {
            "group": {"free": ["x", "y"] + [names[m] for m in markings]},
            "edges": {f"{a}>{b}": "e" for a, b in edges_of(triangles)},
            "cells": {".".join(m): names[m] for m in markings},
        }
    )
    return text, names


def random_perm_values(keys, degree: int, rng: random.Random) -> dict:
    return {k: random_perm(degree, rng) for k in keys}


def gauge_twist_perms(edge_values: dict, gauge: dict) -> dict:
    """n_a^-1 * f_ab * n_b for every edge (a, b), in plain permutations."""
    return {
        (a, b): perm_mul(perm_mul(perm_inv(gauge[a]), f), gauge[b])
        for (a, b), f in edge_values.items()
    }


# -- paths and schemes -------------------------------------------------------------


def loop_path(chain: list[str]) -> list[tuple[str, str]]:
    """The closed edge-path visiting ``chain`` in order and returning to its start."""
    return [(chain[k], chain[(k + 1) % len(chain)]) for k in range(len(chain))]


def torus_loops(n: int, tag: str, rng: random.Random):
    """The two generator loops of T(n) through a seeded base point."""
    i0, j0 = rng.randrange(n), rng.randrange(n)
    first = loop_path([f"{tag}{(i0 + k) % n}_{j0}" for k in range(n)])
    second = loop_path([f"{tag}{i0}_{(j0 + k) % n}" for k in range(n)])
    return first, second


def _faces_on_edge(triangles, a: str, b: str) -> list[str]:
    return sorted(next(iter(set(t) - {a, b})) for t in triangles if a in t and b in t)


def search_pair(triangles, rng: random.Random, length: int = 2, moves: int = 2):
    """A short walk p and the path q reached from it by ``moves`` edge expansions.

    Each expansion replaces one step (a, b) by (a, c), (c, b) across a face,
    so q is at most ``moves`` homotopy moves away from p.
    """
    adj = neighbours(triangles)
    at = rng.choice(sorted(adj))
    p = []
    for _ in range(length):
        nxt = rng.choice(adj[at])
        p.append((at, nxt))
        at = nxt
    q = list(p)
    for _ in range(moves):
        i = rng.randrange(len(q))
        a, b = q[i]
        apex = rng.choice(_faces_on_edge(triangles, a, b))
        q[i : i + 1] = [(a, apex), (apex, b)]
    return p, q


def _column_positions(order: list[int], width: int) -> list[int]:
    """Step index of each column's bottom edge when columns are swept in ``order``.

    Every swept column has grown by ``width`` extra steps; the others are one step.
    """
    done: list[int] = []
    out = []
    for c in order:
        out.append(c + width * sum(1 for d in done if d < c))
        done.append(c)
    return out


def strip_sweep_steps(columns: int, order: list[int]) -> list[dict]:
    """Sweep the bottom ring of the band across the strip, then back.

    Forward: each column's bottom edge b_c -> b_{c+1} is expanded across
    {b_c, b_{c+1}, t_{c+1}} and the new edge b_c -> t_{c+1} across
    {b_c, t_c, t_{c+1}}, so the path climbs over the column top.  Back: the
    exact inverse moves in reverse order, so the path and the section
    return to the start.  2 * columns moves each way.
    """
    m = columns
    forward = []
    for c, pos in zip(order, _column_positions(order, 2)):
        d = (c + 1) % m
        forward.append({"move": "alpha_expand", "cell": f"b{c}.t{d}.b{d}", "position": pos})
        forward.append({"move": "alpha_expand", "cell": f"b{c}.t{c}.t{d}", "position": pos})
    back = [dict(step, move="alpha_merge") for step in reversed(forward)]
    return forward + back


def strip_route_steps(columns: int, order: list[int], route: str) -> list[dict]:
    """Lift every bottom edge b_c -> b_{c+1} to b_c -> t_{c+1} -> b_{c+1}.

    Route ``"alpha"`` expands the edge across the triangle cell.  Route
    ``"loop"`` inserts a degenerate step, expands it across the boundary
    loop b_c.t_{c+1}.b_{c+1}.b_c and cancels the backtracking pair.  Both
    routes end on the same path; their final words differ.
    """
    m = columns
    steps = []
    for c, pos in zip(order, _column_positions(order, 1)):
        d = (c + 1) % m
        if route == "alpha":
            steps.append({"move": "alpha_expand", "cell": f"b{c}.t{d}.b{d}", "position": pos})
        elif route == "loop":
            steps.append({"move": "deg_insert", "position": pos})
            steps.append({"move": "beta_expand", "cell": f"b{c}.t{d}.b{d}.b{c}", "position": pos})
            steps.append({"move": "x1_cancel", "position": pos + 2})
        else:
            raise ValueError(f"unknown route {route!r}")
    return steps


def scheme_json(start: list[tuple[str, str]], steps: list[dict]) -> str:
    return json.dumps({"start": [list(s) for s in start], "steps": steps})


def bottom_ring(columns: int) -> list[tuple[str, str]]:
    return loop_path([f"b{c}" for c in range(columns)])
