"""The four benchmark workloads.

Each workload is a closed loop: one client in one process runs one job at
a time.  Its inputs come from ``--seed`` alone and are generated before
anything is timed; the program only ever sees the generated JSON texts or
objects built through the package's public constructors.  Jobs draw from
a seeded pool, so consecutive jobs never share an input.

``setup`` holds the program calls made before the first timed job and is
what ``setup_s`` times; ``job`` holds one job's program calls and is what
the latency metrics time; ``check`` compares a job's output with oracles
that do not depend on the code under test and runs untimed.  The package
is imported inside the methods, so that ``run.py`` can load this module
and then report a checkout that has no package.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import inputs as gen

HERE = Path(__file__).resolve().parent


class JobTimeout(Exception):
    """A job ran past its wall-time cap."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def call_with_cap(fn, cap_s: float):
    """Run ``fn()`` in this process, raising JobTimeout after ``cap_s`` seconds."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Workload:
    name = ""
    sizes: dict = {}
    pool = 8
    setup_reps = 15  # setup_s is their median
    job_cap_s = 10.0
    in_process = True  # False: jobs are subprocesses, traced and measured there

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> str | None:
        """None when the output is right, else the reason it is not."""
        raise NotImplementedError

    def label(self, k: int) -> str:
        return self.name

    def run_job(self, k: int, tracer=None):
        """One capped job; with a tracer, its layer counters go to the tracer."""
        if tracer is not None:
            tracer.begin_job(k)
        try:
            return call_with_cap(lambda: self.job(k), self.job_cap_s)
        finally:
            if tracer is not None:
                tracer.end_job()


# -- tetra-cli ---------------------------------------------------------------------

_TETRA = ["--complex", "tetrahedron.json", "--connection", "tetrahedron_symbolic.json"]
# the README's command lines: (name, argv); the subcommand is argv[0]
CLI_COMMANDS = [
    ("validate", ["validate", "--complex", "tetrahedron.json"]),
    ("holonomy", ["holonomy", *_TETRA, "--path", "a,b,d,a"]),
    ("sweep1", ["sweep", *_TETRA, "--scheme", "scheme1.json", "--word", "x,y"]),
    ("sweep2", ["sweep", *_TETRA, "--scheme", "scheme2.json", "--word", "x,y"]),
    ("compare", ["compare", *_TETRA, "--scheme", "scheme1.json", "--scheme", "scheme2.json", "--word", "x,y"]),
    ("curvature", ["curvature", *_TETRA, "a", "b", "c", "d", "--word", "x,y"]),
    ("center", ["center", '{"symmetric":3}']),
]
CLI_VARIANTS = [
    (f"{name}.{fmt}", argv + ["--format", fmt]) for name, argv in CLI_COMMANDS for fmt in ("text", "json")
]


class TetraCli(Workload):
    name = "tetra-cli"
    sizes = {
        "commands": [name for name, _argv in CLI_VARIANTS],
        "complex": "bundled tetrahedron (4 vertices, 4 triangles)",
        "process": "one python -m trisweep.cli subprocess per job, PYTHONPATH=src",
    }
    # a fresh interpreter per repetition is at the mercy of slow spells the
    # speed probe tracks less well; 45 repetitions span about 5 s
    setup_reps = 45
    job_cap_s = 20.0
    in_process = False

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.order = list(range(len(CLI_VARIANTS)))
        self.rng.shuffle(self.order)
        self.goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _variant(self, k: int):
        return CLI_VARIANTS[self.order[k % len(self.order)]]

    def label(self, k: int) -> str:
        return self._variant(k)[1][0]

    def _run(self, cmd: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, timeout=self.job_cap_s
        )

    def setup(self) -> None:
        # the fixed part of every call: a fresh interpreter importing the CLI
        done = self._run([sys.executable, "-c", "import trisweep.cli"])
        if done.returncode != 0:
            raise RuntimeError(done.stderr.decode(errors="replace"))

    def job(self, k: int):
        _name, argv = self._variant(k)
        try:
            done = self._run([sys.executable, "-m", "trisweep.cli", *argv])
        except subprocess.TimeoutExpired as exc:
            raise JobTimeout() from exc
        return done.returncode, done.stdout

    def run_job(self, k: int, tracer=None):
        if tracer is None:
            return self.job(k)
        _name, argv = self._variant(k)
        child = [sys.executable, str(HERE / "cli_child.py"), *argv]
        spawned = time.monotonic_ns()
        try:
            done = self._run(child)
        except subprocess.TimeoutExpired as exc:
            raise JobTimeout() from exc
        report = json.loads(done.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1])
        metrics = report["metrics"]
        metrics["interp.start_ms"] = (report["started_ns"] - spawned) / 1e6
        metrics["cli.import_ms"] = report["import_ns"] / 1e6
        tracer.jobs.append(metrics)
        tracer.spans.extend(tuple(span[:5]) + (k,) for span in report["spans"])
        return done.returncode, done.stdout

    def check(self, k: int, out) -> str | None:
        code, stdout = out
        name, _argv = self._variant(k)
        if code != 0:
            return f"{name}: exit code {code}"
        if stdout.decode() != self.goldens[name]:
            return f"{name}: stdout differs from the recorded golden"
        return None


# -- surface-ingest -------------------------------------------------------------------

D5 = 5


class SurfaceIngest(Workload):
    name = "surface-ingest"
    torus_n = 16
    sizes = {
        "complex": "torus T(16): 256 vertices, 768 edges, 512 triangles, pure_dim2",
        "group": "dihedral D_5, random value on every edge and on all 3072 triangle markings",
        "holonomy": "both generator loops, 16 steps each",
        "search": "search_homotopy, depth bound 3, from a 2-step walk to a path 2 expansions away",
        "pool": 8,
    }

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        rng = self.rng
        n = self.torus_n
        self.entries = []
        for k in range(self.pool + 1):  # the last entry is set-up's own
            tag = "".join(rng.choice("abcdefghjkmnpqrsuwz") for _ in range(2)) + f"{k}x"
            vertices, triangles = gen.torus(n, tag)
            conn_text, values = gen.dihedral_connection(D5, vertices, triangles, rng)
            p, q = gen.search_pair(triangles, rng)
            self.entries.append(
                {
                    "complex": gen.complex_json(vertices, triangles, rng),
                    "connection": conn_text,
                    "values": values,
                    "loops": gen.torus_loops(n, tag, rng),
                    "p": p,
                    "q": q,
                    "letters": [gen.dihedral_text(gen.random_dihedral(D5, rng)) for _ in p],
                }
            )

    def _ingest(self, e: dict):
        import trisweep.bundle as bundle
        import trisweep.complexes as complexes
        import trisweep.groups as groups
        import trisweep.paths as paths
        import trisweep.sweep as sweep

        K = complexes.load_complex(e["complex"])
        diagnostics = complexes.validate_complex(K, require_pure_dim2=True)
        conn = sweep.load_connection(e["connection"], K)
        loops = [paths.EdgePath(tuple(loop)) for loop in e["loops"]]
        hol = [bundle.holonomy(conn.base, loop) for loop in loops]
        p, q = paths.EdgePath(tuple(e["p"])), paths.EdgePath(tuple(e["q"]))
        scheme = paths.search_homotopy(p, q, K, 3)
        G = conn.group
        start = sweep.Section(p, tuple(groups.parse_element(t, G) for t in e["letters"]))
        final = sweep.run_scheme(start, scheme, conn).final
        flat = sweep.Connection2.flat(G, K)
        e_start = sweep.Section(p, tuple(groups.identity(G) for _ in e["p"]))
        flat_final = sweep.run_scheme(e_start, scheme, flat).final
        return {
            "diagnostics": diagnostics, "conn": conn, "loops": loops, "holonomy": hol,
            "scheme": scheme, "q": q, "final": final, "flat_final": flat_final,
        }

    def setup(self) -> None:
        out = self._ingest(self.entries[-1])
        problem = self._check(self.entries[-1], out)
        if problem:
            raise RuntimeError(f"set-up output check failed: {problem}")

    def job(self, k: int):
        return self._ingest(self.entries[k % self.pool])

    def check(self, k: int, out) -> str | None:
        return self._check(self.entries[k % self.pool], out)

    def _check(self, e: dict, out: dict) -> str | None:
        import trisweep.bundle as bundle
        import trisweep.groups as groups
        import trisweep.sweep as sweep

        if out["diagnostics"]:
            return f"validate_complex reported {len(out['diagnostics'])} diagnostics on a torus"
        if out["scheme"] is None:
            return "search_homotopy found no scheme within depth 3"
        if out["final"].path != out["q"] or out["flat_final"].path != out["q"]:
            return "the found scheme does not end on the target path"
        G = out["conn"].group
        reference = sweep.Section(out["q"], tuple(groups.identity(G) for _ in e["q"]))
        if not sweep.two_holonomy(reference, out["flat_final"]).is_flat():
            return "nonzero defect on the flat connection"
        for loop, hol in zip(out["loops"], out["holonomy"]):
            expected = (0, 0)
            for a, b in loop.steps:
                x = e["values"][(a, b)] if a < b else e["values"][(b, a)]
                if a > b:  # the stored orientation is the sorted pair
                    x = _dihedral_inverse(D5, x)
                expected = gen.dihedral_mul(D5, expected, x)
            if groups.format_element(hol) != gen.dihedral_text(expected):
                return f"holonomy {groups.format_element(hol)} != {gen.dihedral_text(expected)}"
            back = bundle.holonomy(out["conn"].base, loop.inverse())
            if hol != groups.inverse(back):
                return "loop holonomy is not the inverse of the reversed loop's"
        return None


def _dihedral_inverse(n: int, x: tuple[int, int]) -> tuple[int, int]:
    rot, flip = x
    return ((-rot) % n, 0) if flip == 0 else x


# -- band-sweep ----------------------------------------------------------------------


class BandSweep(Workload):
    name = "band-sweep"
    columns = 40
    sizes = {
        "complex": "cylinder band, 2 vertex rows x 40 columns: 80 vertices, 80 triangles",
        "group": "free group on x, y and one generator per triangle marking (482 generators)",
        "scheme": "40-step ring path; 80 alpha_expand moves over the strip in a seeded column order, then the 80 alpha_merge moves back",
        "word": "one 2-syllable word in x, y per step",
        "output": "the full trace, serialised with trace_to_json",
        "pool": 8,
    }

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        rng = self.rng
        m = self.columns
        vertices, triangles = gen.band(m)
        self.complex_text = gen.complex_json(vertices, triangles)
        self.connection_text, names = gen.symbolic_connection(triangles)
        self.entries = []
        for _ in range(self.pool):
            order = list(range(m))
            rng.shuffle(order)
            steps = gen.strip_sweep_steps(m, order)
            words = [gen.free_text(gen.random_free_word(["x", "y"], rng, 2)) for _ in range(m)]
            self.entries.append(
                {"scheme": gen.scheme_json(gen.bottom_ring(m), steps), "moves": len(steps), "words": words}
            )
        # after the forward half every column reads (w, phi_{b_c t_c t_d}, phi_{b_c t_d b_d})
        self.top_path = []
        self.top_cells = []
        for c in range(m):
            d = (c + 1) % m
            self.top_path += [[f"b{c}", f"t{c}"], [f"t{c}", f"t{d}"], [f"t{d}", f"b{d}"]]
            self.top_cells.append(
                (names[(f"b{c}", f"t{c}", f"t{d}")], names[(f"b{c}", f"t{d}", f"b{d}")])
            )

    def setup(self) -> None:
        import trisweep.complexes as complexes
        import trisweep.sweep as sweep

        self.K = complexes.load_complex(self.complex_text)
        self.conn = sweep.load_connection(self.connection_text, self.K)

    def job(self, k: int):
        import trisweep.groups as groups
        import trisweep.paths as paths
        import trisweep.sweep as sweep

        e = self.entries[k % self.pool]
        scheme = paths.load_scheme(e["scheme"])
        paths.validate_scheme(scheme, self.K)
        G = self.conn.group
        start = sweep.Section(scheme.start_path, tuple(groups.parse_element(w, G) for w in e["words"]))
        return sweep.trace_to_json(sweep.run_scheme(start, scheme, self.conn))

    def check(self, k: int, out) -> str | None:
        e = self.entries[k % self.pool]
        if len(out) != e["moves"] + 1:
            return f"trace has {len(out)} sections for {e['moves']} moves"
        if out[0]["letters"] != e["words"]:
            return "the first section is not the start word"
        if out[-1] != out[0]:
            return "the final section differs from the start"
        mid = out[e["moves"] // 2]
        expected = [x for w, (p1, p2) in zip(e["words"], self.top_cells) for x in (w, p1, p2)]
        if mid["path"] != self.top_path or mid["letters"] != expected:
            return "the section after the forward sweep is wrong"
        return None


# -- finite-groups ------------------------------------------------------------------------

# closed forms of the centers: trivial for S_5, {e, r^20} for D_40, all of
# Z_60, and Z(S_3) x Z(D_6) = {e} x {e, r^3}
CENTERS = [
    ({"symmetric": 5}, ["e"]),
    ({"dihedral": 40}, ["e", "r^20"]),
    ({"cyclic": 60}, [str(i) for i in range(60)]),
    ({"product": [{"symmetric": 3}, {"dihedral": 6}]}, ['["e", "e"]', '["e", "r^3"]']),
]


class FiniteGroups(Workload):
    name = "finite-groups"
    pool = 16
    torus_n = 8
    columns = 32
    sizes = {
        "center": "center_obstruction_check on S_5, D_40, Z_60 and S_3 x D_6",
        "isomorphism": "find_isomorphism between two gauge-related S_4 connections on T(8) (64 vertices, 192 edges)",
        "compare": "compare_schemes over S_4 on a 32-column band: 32 alpha_expand moves left to right against 96 loop-route moves right to left",
        "pool": 16,
    }

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        rng = self.rng
        vertices, triangles = gen.torus(self.torus_n, "f")
        self.torus_text = gen.complex_json(vertices, triangles, rng)
        self.pairs = []
        root = min(vertices)
        for _ in range(self.pool):
            f = gen.random_perm_values(gen.edges_of(triangles), 4, rng)
            gauge = {v: gen.random_perm(4, rng) for v in vertices}
            # the search enumerates the root vertex's value; the last
            # permutation in lexicographic order makes every job a full search
            gauge[root] = (4, 3, 2, 1)
            self.pairs.append((f, gen.gauge_twist_perms(f, gauge)))
        m = self.columns
        band_vertices, band_triangles = gen.band(m)
        self.band_text = gen.complex_json(band_vertices, band_triangles)
        self.band_edges = gen.random_perm_values(gen.edges_of(band_triangles), 4, rng)
        self.band_cells = gen.random_perm_values(gen.alpha_markings(band_triangles), 4, rng)
        order = list(range(m))
        self.scheme_texts = (
            gen.scheme_json(gen.bottom_ring(m), gen.strip_route_steps(m, order, "alpha")),
            gen.scheme_json(gen.bottom_ring(m), gen.strip_route_steps(m, order[::-1], "loop")),
        )
        identity = tuple(range(1, 5))
        self.words = []
        for _ in range(self.pool):
            # no identity letters: the alpha route keeps each letter where the
            # loop route leaves e, so the final words must differ
            word = []
            while len(word) < m:
                x = gen.random_perm(4, rng)
                if x != identity:
                    word.append(x)
            self.words.append(word)
        self.checked_center = False

    def setup(self) -> None:
        import trisweep.bundle as bundle
        import trisweep.complexes as complexes
        import trisweep.groups as groups
        import trisweep.paths as paths
        import trisweep.sweep as sweep

        S4 = groups.symmetric_group(4)
        self.groups = [groups.descriptor_from_json(d) for d, _center in CENTERS]
        K = complexes.load_complex(self.torus_text)

        def build(values, complex):
            return bundle.Connection1.build(S4, complex, {e: groups.element(S4, x) for e, x in values.items()})

        self.connections = [(build(f, K), build(g, K)) for f, g in self.pairs]
        band = complexes.load_complex(self.band_text)
        cells = {mk: groups.element(S4, x) for mk, x in self.band_cells.items()}
        self.band_conn = sweep.Connection2.build(build(self.band_edges, band), cells)
        self.schemes = [paths.load_scheme(text) for text in self.scheme_texts]
        path = self.schemes[0].start_path
        self.starts = [
            sweep.Section(path, tuple(groups.element(S4, x) for x in word)) for word in self.words
        ]

    def job(self, k: int):
        import trisweep.bundle as bundle
        import trisweep.sweep as sweep

        centers = [sweep.center_obstruction_check(G) for G in self.groups]
        f, g = self.connections[k % self.pool]
        gauge = bundle.find_isomorphism(f, g)
        s1, s2 = self.schemes
        comparison = sweep.compare_schemes(s1, s2, self.starts[k % self.pool], self.band_conn)
        return centers, gauge, comparison

    def check(self, k: int, out) -> str | None:
        import trisweep.bundle as bundle
        import trisweep.groups as groups

        centers, gauge, comparison = out
        for (descriptor, expected), got in zip(CENTERS, centers):
            if sorted(groups.format_element(z) for z in got) != sorted(expected):
                return f"center of {descriptor} is not the closed form"
        if not self.checked_center:
            # groups.center is the exhaustive definition; once per run is enough
            for G, got in zip(self.groups, centers):
                if groups.center(G) != got:
                    return f"center_obstruction_check disagrees with groups.center on {G}"
            self.checked_center = True
        f, g = self.connections[k % self.pool]
        if gauge is None or bundle.gauge_transform(f, gauge) != g:
            return "find_isomorphism did not return a gauge carrying f to g"
        if comparison.verdict == "equal":
            return "the two sweep routes compared equal"
        if len(comparison.quotient) != 2 * self.columns:
            return f"quotient has {len(comparison.quotient)} letters, expected {2 * self.columns}"
        return None


WORKLOADS = {w.name: w for w in (TetraCli, SurfaceIngest, BandSweep, FiniteGroups)}

