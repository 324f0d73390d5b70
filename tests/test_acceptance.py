"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import random
import time

import trisweep as ts
from conftest import (
    compose_perms,
    random_connection1,
    random_connection2,
    random_element,
    random_gauge,
    random_section,
    random_walk,
)
from test_sweep import swap_disjoint_pair

FREE = ts.free_group(["x", "y", "p", "q"])
Z12 = ts.cyclic_group(12)
S3 = ts.symmetric_group(3)
S4 = ts.symmetric_group(4)
D4 = ts.dihedral_group(4)


def _report(num: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _load_tetra_setup():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    conn = ts.load_connection(ts.data_path("tetrahedron_symbolic.json").read_text(), K)
    s1 = ts.load_scheme(ts.data_path("scheme1.json").read_text())
    s2 = ts.load_scheme(ts.data_path("scheme2.json").read_text())
    start = ts.Section(
        ts.EdgePath((("a", "c"), ("c", "b"))),
        (ts.parse_element("x", conn.group), ts.parse_element("y", conn.group)),
    )
    return K, conn, s1, s2, start


def test_criterion_1_golden_reproduction():
    _K, conn, s1, s2, start = _load_tetra_setup()
    t0 = time.monotonic()
    trace1 = ts.run_scheme(start, s1, conn)
    trace2 = ts.run_scheme(start, s2, conn)
    elapsed = time.monotonic() - t0

    def fmt(trace):
        return [[ts.format_element(l) for l in s.letters] for s in trace.sections]

    ok = fmt(trace1) == [
        ["x", "y"],
        ["x*y*phi_acb^-1"],
        ["x*y*phi_acb^-1", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_adb", "phi_dcb"],
        ["x*y*phi_acb^-1*phi_adb*phi_adc^-1", "phi_dcb"],
    ]
    ok = ok and fmt(trace2) == [
        ["x", "y"],
        ["x*y*phi_acb^-1"],
        ["x*y*phi_acb^-1", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_acd", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_acd*phi_adb*phi_cdb^-1"],
    ]
    ok = ok and elapsed < 1.0
    _report(1, "both word successions reproduced exactly", ok)


def test_criterion_2_scheme_discrepancy():
    _K, conn, s1, s2, start = _load_tetra_setup()
    t0 = time.monotonic()
    result = ts.compare_schemes(s1, s2, start, conn)
    elapsed = time.monotonic() - t0
    ok = result.verdict == "different"
    ok = ok and any(q.payload for q in result.quotient)
    ok = ok and all(q == ts.element(conn.group, q.payload) for q in result.quotient)
    ok = ok and elapsed < 1.0
    _report(2, "the two sweeps differ by a nonempty reduced quotient word", ok)


def test_criterion_3_center_obstruction():
    ok = True
    t0 = time.monotonic()

    # independent permutation oracles for the symmetric groups
    for degree, group in ((3, S3), (4, S4)):
        elems = list(itertools.permutations(range(1, degree + 1)))
        oracle = {
            z for z in elems if all(compose_perms(z, u) == compose_perms(u, z) for u in elems)
        }
        got = ts.center_obstruction_check(group)
        ok = ok and oracle == {z.payload for z in got}
        ok = ok and got == ts.center(group)
        ok = ok and [ts.format_element(z) for z in got] == ["e"]
        ok = ok and time.monotonic() - t0 < 1.0
        t0 = time.monotonic()

    # dihedral oracle: corner permutations of the square
    rot = (2, 3, 4, 1)
    flip = (1, 4, 3, 2)
    dihedral_elems = set()
    rk = (1, 2, 3, 4)
    for _ in range(4):
        dihedral_elems.add(rk)
        dihedral_elems.add(compose_perms(rk, flip))
        rk = compose_perms(rk, rot)
    oracle = {
        z
        for z in dihedral_elems
        if all(compose_perms(z, u) == compose_perms(u, z) for u in dihedral_elems)
    }
    got = ts.center_obstruction_check(D4)
    ok = ok and len(oracle) == 2 and len(got) == 2
    ok = ok and got == ts.center(D4)
    ok = ok and [ts.format_element(z) for z in got] == ["e", "r^2"]
    ok = ok and time.monotonic() - t0 < 1.0

    for n in (2, 5, 6, 9):
        t0 = time.monotonic()
        Zn = ts.cyclic_group(n)
        got = ts.center_obstruction_check(Zn)
        ok = ok and got == ts.enumerate_elements(Zn)
        ok = ok and got == ts.center(Zn)
        ok = ok and time.monotonic() - t0 < 1.0
    _report(3, "trivial connective structure forces cell values into the center", ok)


def test_criterion_4_holonomy_properties():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    rng = random.Random(0)
    backends = (Z12, S3, D4)
    t0 = time.monotonic()
    ok = True

    for i in range(1000):
        group = backends[i % len(backends)]
        conn = random_connection1(K, group, rng)
        p = random_walk(K, rng, rng.randrange(1, 6), stay_prob=0.1)
        q = random_walk(K, rng, rng.randrange(1, 6), start=p.target, stay_prob=0.1)
        ok = ok and ts.holonomy(conn, p * q) == ts.multiply(
            ts.holonomy(conn, p), ts.holonomy(conn, q)
        )

    for i in range(1000):
        group = backends[i % len(backends)]
        conn = random_connection1(K, group, rng)
        p = random_walk(K, rng, rng.randrange(1, 8), stay_prob=0.25)
        ok = ok and ts.holonomy(conn, p) == ts.holonomy(conn, ts.reduce_x1(p))

    for i in range(1000):
        group = backends[i % len(backends)]
        conn = random_connection1(K, group, rng)
        n = random_gauge(K, group, rng)
        a = rng.choice(K.sorted_vertices)
        walk = random_walk(K, rng, rng.randrange(1, 6), start=a)
        loop = walk if walk.target == a else walk * ts.EdgePath(((walk.target, a),))
        before = ts.holonomy(conn, loop)
        after = ts.holonomy(ts.gauge_transform(conn, n), loop)
        ok = ok and after == ts.multiply(ts.multiply(ts.inverse(n.get(a)), before), n.get(a))

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(4, f"3000 randomized holonomy checks in {elapsed:.2f}s with zero failures", ok)


def test_criterion_5_move_inverses():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    rng = random.Random(1)
    ok = True
    for group in (FREE, Z12, S4, D4):
        for _ in range(1000):
            conn = random_connection2(K, group, rng)
            tri = rng.choice(K.sorted_triangles)
            apex = rng.choice(tri)
            u, w = sorted(set(tri) - {apex})
            a, b = (u, w) if rng.random() < 0.5 else (w, u)

            # triangle moves: expand then merge is the identity
            s_edge = ts.Section(ts.EdgePath(((a, b),)), (random_element(group, rng),))
            expand = ts.HomotopyStep("alpha_expand", 0, (a, apex, b))
            merge = ts.HomotopyStep("alpha_merge", 0, (a, apex, b))
            expanded = ts.apply_move_section(s_edge, expand, conn)
            ok = ok and ts.apply_move_section(expanded, merge, conn) == s_edge

            # loop moves: expand then merge is the identity
            s_loop = ts.Section(ts.EdgePath.identity(apex), (random_element(group, rng),))
            cell = (apex, a, b, apex)
            blown = ts.apply_move_section(s_loop, ts.HomotopyStep("beta_expand", 0, cell), conn)
            ok = ok and ts.apply_move_section(blown, ts.HomotopyStep("beta_merge", 0, cell), conn) == s_loop

            # merge then expand returns a section that is the original one
            # re-gauged at the interior vertex
            pair = ts.Section(
                ts.EdgePath(((a, apex), (apex, b))),
                (random_element(group, rng), random_element(group, rng)),
            )
            back = ts.apply_move_section(ts.apply_move_section(pair, merge, conn), expand, conn)
            gauge = ts.sections_gauge_equivalent(back, pair, movable={apex})
            ok = ok and gauge is not None and ts.twist_section(back, gauge) == pair
            if not ok:
                break
        if not ok:
            break
    _report(5, "triangle and loop moves invert exactly; reverse order re-gauges", ok)


def test_criterion_6_locality():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    rng = random.Random(2)
    backends = (FREE, Z12, S3)
    ok = True
    done = 0
    while done < 500:
        group = backends[done % len(backends)]
        conn = random_connection2(K, group, rng)
        section = random_section(K, group, rng, rng.randrange(4, 9), stay_prob=0.2)
        pair = swap_disjoint_pair(section, K, conn, rng)
        if pair is None:
            continue
        ordered, swapped = pair
        ok = ok and ordered == swapped
        if not ok:
            break
        done += 1
    _report(6, f"{done} disjoint move pairs commuted exactly", ok)


def test_criterion_7_reduction_confluence():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    rng = random.Random(3)
    ok = True

    from test_paths import _reduce_scan

    for _ in range(1000):
        p = random_walk(K, rng, rng.randrange(1, 10), stay_prob=0.25)
        left = _reduce_scan(p, leftmost=True)
        right = _reduce_scan(p, leftmost=False)
        ok = ok and left == right == ts.reduce_x1(p)

    def cancel_scan(raw, leftmost):
        work = list(raw)
        while True:
            spots = [
                i
                for i in range(len(work) - 1)
                if work[i][0] == work[i + 1][0] or work[i][1] == 0
            ]
            spots += [i for i, (_g, k) in enumerate(work) if k == 0]
            if not spots:
                break
            i = min(spots) if leftmost else max(spots)
            if i < len(work) - 1 and work[i][0] == work[i + 1][0]:
                g, k1 = work[i]
                _g, k2 = work[i + 1]
                work[i : i + 2] = [(g, k1 + k2)] if k1 + k2 else []
            else:
                del work[i]
        return tuple(work)

    for _ in range(1000):
        raw = [
            (rng.choice(("x", "y", "p", "q")), rng.choice([-2, -1, 0, 1, 2]))
            for _ in range(rng.randrange(14))
        ]
        left = cancel_scan(raw, leftmost=True)
        right = cancel_scan(raw, leftmost=False)
        ok = ok and left == right == ts.element(FREE, raw).payload

    _report(7, "leftmost and rightmost reduction orders agree everywhere", ok)


def test_criterion_8_flat_curvature():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    gens = ts.free_group(["x", "y"])
    flat = ts.Connection2.flat(gens, K)
    x = ts.parse_element("x", gens)
    y = ts.parse_element("y", gens)
    ok = True
    count = 0
    for a, b, c, d in itertools.permutations("abcd"):
        start = ts.Section(ts.EdgePath(((a, b), (b, d))), (x, y))
        report = ts.curvature_square(a, b, c, d, start, flat)
        ok = ok and report.is_flat()
        count += 1
    ok = ok and count == 24
    _report(8, "identity cell values give identity defects on all 24 squares", ok)
