"""Checks of the benchmark's own code: generators, oracles, goldens, tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs as gen  # noqa: E402
import trisweep as ts  # noqa: E402
from speed import Probe, corrected_runs  # noqa: E402
from tracer import _FUNCTIONS, _METHODS, Tracer, layer_metrics  # noqa: E402
from workloads import CLI_VARIANTS, WORKLOADS, BandSweep, FiniteGroups  # noqa: E402

SKIP = {"rng", "root", "env", "goldens"}


def fingerprint(workload) -> str:
    state = {k: v for k, v in vars(workload).items() if k not in SKIP}
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_deterministic_per_seed(name):
    make = WORKLOADS[name]
    assert fingerprint(make(7, ROOT)) == fingerprint(make(7, ROOT))
    if name != "tetra-cli":  # its only input is the seeded command order
        assert fingerprint(make(7, ROOT)) != fingerprint(make(8, ROOT))


def test_generators_ignore_string_hash_randomisation():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
        "from test_inputs import fingerprint; from workloads import WORKLOADS;"
        "from pathlib import Path;"
        "print(*(fingerprint(WORKLOADS[n](3, Path(sys.argv[3]))) for n in sorted(WORKLOADS)))"
    )
    digests = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent), str(BENCH), str(ROOT)],
            env=env, capture_output=True, text=True, check=True, cwd=ROOT,
        )
        digests.add(done.stdout)
    assert len(digests) == 1


def _band_complex(columns):
    vertices, triangles = gen.band(columns)
    return ts.load_complex(gen.complex_json(vertices, triangles))


def test_band_sweep_schemes_validate():
    w = BandSweep(11, ROOT)
    K = _band_complex(w.columns)
    for entry in w.entries:
        scheme = ts.load_scheme(entry["scheme"])
        paths = ts.validate_scheme(scheme, K)
        assert len(paths) == entry["moves"] + 1 == 4 * w.columns + 1
        assert paths[-1] == paths[0] == scheme.start_path


def test_finite_group_route_schemes_validate_and_meet():
    w = FiniteGroups(11, ROOT)
    K = _band_complex(w.columns)
    ends = []
    for text in w.scheme_texts:
        paths = ts.validate_scheme(ts.load_scheme(text), K)
        ends.append(paths[-1])
    assert ends[0] == ends[1]
    assert len(ends[0]) == 2 * w.columns


@pytest.mark.parametrize("columns", [3, 5, 8])
def test_strip_schemes_validate_in_any_column_order(columns):
    K = _band_complex(columns)
    order = list(range(columns))[::-1]
    start = gen.bottom_ring(columns)
    texts = [
        gen.scheme_json(start, gen.strip_sweep_steps(columns, order)),
        gen.scheme_json(start, gen.strip_route_steps(columns, order, "alpha")),
        gen.scheme_json(start, gen.strip_route_steps(columns, order, "loop")),
    ]
    for text in texts:
        ts.validate_scheme(ts.load_scheme(text), K)


def test_search_pairs_are_reachable():
    vertices, triangles = gen.torus(5, "v")
    K = ts.load_complex(gen.complex_json(vertices, triangles))
    rng = random.Random("pairs")
    for _ in range(5):
        p, q = gen.search_pair(triangles, rng)
        scheme = ts.search_homotopy(ts.EdgePath(tuple(p)), ts.EdgePath(tuple(q)), K, 3)
        assert scheme is not None
        assert ts.validate_scheme(scheme, K)[-1] == ts.EdgePath(tuple(q))


def test_torus_is_a_closed_surface():
    vertices, triangles = gen.torus(4, "v")
    K = ts.load_complex(gen.complex_json(vertices, triangles))
    assert len(K.triangles) == 32 and len(K.edges) == 48
    assert ts.validate_complex(K, require_pure_dim2=True) == []
    # every edge of a closed surface lies on exactly two faces
    assert all(len(K.faces_containing_edge(*e)) == 2 for e in K.sorted_edges)


def test_oracles_follow_the_documented_conventions():
    # (1 2)*(2 3) = (1 2 3) fixes the permutation action order
    assert gen.perm_mul((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    D5 = ts.dihedral_group(5)
    for rot in range(5):
        for flip in range(2):
            text = gen.dihedral_text((rot, flip))
            assert ts.format_element(ts.parse_element(text, D5)) == text
            for rot2 in range(5):
                for flip2 in range(2):
                    got = ts.multiply(ts.parse_element(text, D5), ts.parse_element(gen.dihedral_text((rot2, flip2)), D5))
                    assert ts.format_element(got) == gen.dihedral_text(gen.dihedral_mul(5, (rot, flip), (rot2, flip2)))


def test_goldens_hold_the_paper_successions():
    goldens = json.loads((BENCH / "goldens.json").read_text())
    assert sorted(goldens) == sorted(name for name, _argv in CLI_VARIANTS)
    sweep1 = [s["letters"] for s in json.loads(goldens["sweep1.json"])]
    assert sweep1 == [
        ["x", "y"],
        ["x*y*phi_acb^-1"],
        ["x*y*phi_acb^-1", "phi_adb"],
        ["x*y*phi_acb^-1", "phi_adb", "phi_dcb"],
        ["x*y*phi_acb^-1*phi_adb*phi_adc^-1", "phi_dcb"],
    ]
    sweep2 = [s["letters"] for s in json.loads(goldens["sweep2.json"])]
    assert sweep2[-1] == ["x*y*phi_acb^-1", "phi_acd*phi_adb*phi_cdb^-1"]
    assert json.loads(goldens["compare.json"])["verdict"] == "different"
    assert goldens["compare.text"].startswith("different\n")
    assert json.loads(goldens["center.json"]) == {"center": ["e"]}


def test_tracer_restores_every_wrapped_name():
    def current():
        out = []
        for modname, attr, _name, _hot in _FUNCTIONS:
            out.append(getattr(importlib.import_module(modname), attr))
        for modname, clsname, attr, _name, _hot in _METHODS:
            out.append(getattr(importlib.import_module(modname), clsname).__dict__[attr])
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(before, current()))
        tracer.begin_job(0)
        K = ts.complexes.load_complex(ts.data_path("tetrahedron.json").read_text())
        ts.complexes.validate_complex(K)
        raw = tracer.end_job()
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(before, current()))
    assert raw["complexes.load_complex.calls"] == 1
    assert raw["complexes.queries.calls"] > 0
    assert [span[0] for span in tracer.spans] == ["complexes.load_complex", "complexes.validate_complex"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "band-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_trace_hook_counts_letters_but_not_its_own_formatting():
    K = ts.load_complex(ts.data_path("tetrahedron.json").read_text())
    conn = ts.load_connection(ts.data_path("tetrahedron_symbolic.json").read_text(), K)
    scheme = ts.load_scheme(ts.data_path("scheme1.json").read_text())
    start = ts.Section(scheme.start_path, tuple(ts.parse_element(w, conn.group) for w in ("x", "y")))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        ts.sweep.run_scheme(start, scheme, conn)
        tracer.end_job()
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer.jobs)
    # five sections of 2, 1, 2, 3 and 2 letters; the longest letter has 5 factors
    assert metrics["sweep.trace.letters"] == 10
    assert metrics["sweep.word.peak_syllables"] == 5
    assert "groups.format_element.calls" not in metrics
    assert metrics["sweep.apply_move_section.calls"] == 4


def test_speed_probe_runs_apart_and_stops():
    with Probe() as probe:
        assert probe.proc.pid != os.getpid()
        assert probe.ms() > 0
        calls = []
        times = corrected_runs(lambda: calls.append(1), 4, probe)
        assert len(times) == 4 and len(calls) == 4 and all(t >= 0 for t in times)
    assert probe.proc.returncode == 0
