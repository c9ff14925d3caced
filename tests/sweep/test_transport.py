"""How sweep results travel: a plain-data check, then the pool's pickle.

The sweep's determinism guarantee flows *through* this path -- the
fingerprint hashes ``repr`` of merged results, so a worker's result must
come back with identical types, not merely equal-ish values.  The
hypothesis suite drives arbitrary plain-data trees through the check and
the pickler the pool's pipe uses, and trees with one non-plain leaf
through the check alone; the edge values (int64 boundaries, bigints,
subnormals, long series, tuple-vs-list, bool-vs-int, dict order) go
through one 2-worker sweep and must ``repr`` as the serial run's do.
"""

import pickle
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import SweepRunner, SweepTask
from repro.sweep.runner import _check_plain

# NaN excluded: pickle carries NaN bits exactly, but NaN != NaN would make
# the equality assertions vacuous
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40)
)
_keys = st.none() | st.booleans() | st.integers() | st.text(max_size=20)
_plain = st.recursive(
    _scalars,
    lambda kids: (
        st.lists(kids, max_size=8)
        | st.lists(kids, max_size=8).map(tuple)
        | st.dictionaries(_keys, kids, max_size=8)
    ),
    max_leaves=40,
)


class _Opaque:
    pass


class _Count(int):
    pass


class _Row(list):
    pass


_not_plain = (
    st.builds(_Opaque)
    | st.sets(st.integers(), max_size=3)
    | st.integers().map(_Count)
    | st.lists(st.integers(), max_size=3).map(_Row)
)


def _beside(siblings, kids):
    """``kids`` placed among plain siblings, in a list, tuple or dict."""
    listed = st.tuples(siblings, kids, siblings).map(lambda t: [*t[0], t[1], *t[2]])
    keyed = st.tuples(st.dictionaries(_keys, _plain, max_size=4), _keys, kids).map(
        lambda t: {**t[0], t[1]: t[2]}
    )
    return listed | listed.map(tuple) | keyed


#: a plain tree with exactly one non-plain leaf, at any depth
_tainted = st.recursive(
    _not_plain, lambda kids: _beside(st.lists(_plain, max_size=3), kids), max_leaves=6
)


def _types_match(a, b):
    """Recursive type-exact equality (tuple != list, bool != int)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_types_match(x, y) for x, y in zip(a, b, strict=True))
    if isinstance(a, dict):
        return list(a.keys()) == list(b.keys()) and all(
            _types_match(a[k], b[k]) for k in a
        )
    return a == b


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(_plain)
    def test_round_trip_identity(self, value):
        _check_plain(value)
        back = pickle.loads(ForkingPickler.dumps(value))
        assert back == value
        assert _types_match(back, value)
        # repr identity is what the sweep fingerprint actually hashes
        assert repr(back) == repr(value)

    @settings(max_examples=200, deadline=None)
    @given(_tainted)
    def test_a_non_plain_leaf_at_any_depth_is_refused(self, value):
        with pytest.raises(TypeError, match="plain data"):
            _check_plain(value)


NUMBERS = [
    0,
    -1,
    2**63 - 1,
    -(2**63),
    2**63,  # past int64
    -(2**63) - 1,
    2**200,
    -(2**200),
    0.0,
    -0.0,
    float("inf"),
    float("-inf"),
    5e-324,  # smallest subnormal: bit-exactness matters
]

EDGES = {
    **{f"num {v!r}": v for v in NUMBERS},
    "kinds": {"t": (1, 2), "l": [1, 2], "b": True, "i": 1, "f": 1.0},
    "bool run": [True] * 32,
    "bool/int run": [True, 1, False, 0] * 8,
    "order": {"z": 1, "a": 2, "m": 3},
    "floats": [float(i) / 7 for i in range(512)],
    "float tuple": tuple(float(i) / 7 for i in range(512)),
    "ints": list(range(512)),
    "int tuple": tuple(range(512)),
    "mixed run": [1, 2.0] * 16,
    "huge run": [2**64] * 16,
}


def _echo(value):
    return value


@pytest.fixture(scope="module")
def swept():
    """``(serial, parallel)`` results by key, for every edge value."""
    tasks = [SweepTask(key, _echo, args=(value,)) for key, value in EDGES.items()]
    serial = SweepRunner(workers=1).run(tasks)
    parallel = SweepRunner(workers=2).run(tasks)
    return {r.key: r.value for r in serial}, {r.key: r.value for r in parallel}


def _assert_exact(swept, key):
    serial, parallel = swept
    assert repr(parallel[key]) == repr(serial[key])
    assert _types_match(parallel[key], serial[key])
    return parallel[key]


class TestCodecEdges:
    @pytest.mark.parametrize("value", NUMBERS, ids=repr)
    def test_numeric_boundaries(self, swept, value):
        back = _assert_exact(swept, f"num {value!r}")
        assert repr(back) == repr(value)

    def test_tuple_list_and_bool_int_distinctions_survive(self, swept):
        back = _assert_exact(swept, "kinds")
        assert type(back["t"]) is tuple and type(back["l"]) is list
        assert back["b"] is True and type(back["i"]) is int
        assert type(back["f"]) is float

    def test_bool_runs_never_hit_the_int_array_path(self, swept):
        # bools are ints to isinstance, not to the sweep's results
        assert all(type(x) is bool for x in _assert_exact(swept, "bool run"))
        assert [type(x) for x in _assert_exact(swept, "bool/int run")[:4]] == [
            bool, int, bool, int,
        ]

    def test_dict_insertion_order_preserved(self, swept):
        assert list(_assert_exact(swept, "order")) == ["z", "a", "m"]

    def test_homogeneous_series_pack_as_machine_arrays(self, swept):
        for key in ("floats", "float tuple", "ints", "int tuple"):
            assert _assert_exact(swept, key) == EDGES[key], key

    def test_mixed_and_overflowing_int_runs_fall_back_to_per_element(self, swept):
        for key in ("mixed run", "huge run"):
            assert _assert_exact(swept, key) == EDGES[key], key

    def test_live_objects_are_rejected_loudly(self):
        with pytest.raises(TypeError, match="plain data"):
            _check_plain({"leaked": _Opaque()})
        with pytest.raises(TypeError, match="plain data"):
            _check_plain({1, 2, 3})  # sets are not in the result vocabulary
