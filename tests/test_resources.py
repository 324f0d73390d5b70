"""Small hostile inputs end in bounded memory and a short message.

Each reader runs under ``tracemalloc`` on a text of a few KB at most that
declares a huge size, nests deeply or holds a huge number.  It either
returns or raises a ``TrisweepError``; its peak allocation and the
length of its message stay under bounds fixed here, not read off a run.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

import trisweep as ts

# bytes: a permutation at the symmetric degree limit (10,000 points) takes about
# 0.4 MB and a reader holds a few of them, while one that built what an input
# declares (a permutation of 10**9 points, say) would need gigabytes
PEAK_BOUND = 4 << 20
# characters: every message quotes at most 60 characters of the input
MESSAGE_BOUND = 200
# characters: a 5,000-digit exponent is past the interpreter's int-to-str limit
INPUT_BOUND = 5_100

DEEP_ARRAY = "[" * 512 + "]" * 512
DEEP_OBJECT = '{"a":' * 200 + "1" + "}" * 200
HUGE_EXPONENT = "x^" + "9" * 5000

GROUPS = {
    "free": ts.free_group(["x"]),
    "cyclic": ts.cyclic_group(7),
    "symmetric": ts.symmetric_group(5),
    "dihedral": ts.dihedral_group(5),
    "product": ts.product_group(ts.cyclic_group(3), ts.symmetric_group(3)),
    "symmetric-huge-degree": ts.symmetric_group(10**9),
}


TETRA = ts.load_complex(ts.data_path("tetrahedron.json").read_text())


def connection_text(group: object, first: str = "e") -> str:
    """The tetrahedron's six edges over ``group``: the first carries ``first``, the others the identity."""
    edges = dict.fromkeys(["a>b", "a>c", "a>d", "b>c", "b>d", "c>d"], "e")
    return json.dumps({"group": group, "edges": edges | {"a>b": first}})


def scheme_text(position: int) -> str:
    return json.dumps({"start": [["a", "b"]], "steps": [{"move": "deg_insert", "position": position}]})


# (id, reader, text, the reader's other arguments)
CASES = [
    ("complex-deep-array", ts.load_complex, DEEP_ARRAY, ()),
    ("complex-deep-object", ts.load_complex, DEEP_OBJECT, ()),
    ("complex-long-integer", ts.load_complex, '{"vertices": [' + "1" * 5000 + "]}", ()),
    ("connection-deep-array", ts.load_connection, DEEP_ARRAY, (TETRA,)),
    ("connection-symmetric-1e9", ts.load_connection, connection_text({"symmetric": 10**9}), (TETRA,)),
    ("connection-cyclic-1e400", ts.load_connection, connection_text({"cyclic": 10**400}), (TETRA,)),
    ("connection-huge-exponent", ts.load_connection, connection_text({"cyclic": 7}, "x^" + "9" * 4900), (TETRA,)),
    # the largest degree allowed: each parsed permutation is a tuple of 10,000 points
    ("connection-symmetric-at-limit", ts.load_connection, connection_text({"symmetric": 10000}, "(1 10000)"), (TETRA,)),
    (
        "connection-product-of-huge",
        ts.load_connection,
        connection_text({"product": [{"symmetric": 10**9}, {"dihedral": 10**400}]}),
        (TETRA,),
    ),
    ("scheme-deep-array", ts.load_scheme, DEEP_ARRAY, ()),
    ("scheme-huge-position", ts.load_scheme, scheme_text(10**300), ()),
    ("descriptor-symmetric-1e9", ts.descriptor_from_json, '{"symmetric": 1000000000}', ()),
    ("descriptor-cyclic-1e400", ts.descriptor_from_json, '{"cyclic": 1' + "0" * 400 + "}", ()),
    ("descriptor-dihedral-1e400", ts.descriptor_from_json, '{"dihedral": 1' + "0" * 400 + "}", ()),
    ("descriptor-deep-product", ts.descriptor_from_json, '{"product": [' * 60 + '{"cyclic": 2}' + "]}" * 60, ()),
    ("descriptor-deep-array", ts.descriptor_from_json, DEEP_ARRAY, ()),
] + [
    (f"element-{kind}-{name}", ts.parse_element, text, (group,))
    for kind, group in GROUPS.items()
    for name, text in (("huge-exponent", HUGE_EXPONENT), ("huge-point", "(" + "9" * 1000 + " 1)"), ("transposition", "(1 2)"))
]


def run_reader(reader, text: str, args: tuple):
    # descriptor_from_json reads a decoded value; the others read the text itself
    if reader is ts.descriptor_from_json:
        try:
            text = json.loads(text)
        except (ValueError, RecursionError):
            pytest.fail("a descriptor case must hold a JSON text the decoder accepts")
    return reader(text, *args)


@pytest.mark.parametrize("reader, text, args", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_a_small_hostile_input_ends_in_bounded_memory_and_a_short_message(reader, text, args):
    assert len(text) <= INPUT_BOUND
    tracemalloc.start()
    try:
        run_reader(reader, text, args)
    except ts.TrisweepError as exc:
        assert len(str(exc)) <= MESSAGE_BOUND, str(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= PEAK_BOUND
