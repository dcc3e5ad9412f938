"""Tests for message size estimation."""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.message import Message, estimate_size


def test_scalar_sizes():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8


def test_string_size_counts_utf8():
    assert estimate_size("abc") == 5
    assert estimate_size("é") == 2 + 2  # two utf-8 bytes


def test_container_sizes_recursive():
    assert estimate_size([1, 2]) == 2 + 16
    assert estimate_size({"a": 1}) == 2 + (2 + 1) + 8


def test_message_size_includes_header():
    m = Message("m-1", "a", "b", "k", {})
    assert m.size_bytes == 32 + 2  # header + empty dict


def test_message_size_cached():
    m = Message("m-1", "a", "b", "k", {"x": 1})
    assert m.size_bytes == m.size_bytes


def test_bigger_payload_bigger_message():
    small = Message("1", "a", "b", "k", {"x": "hi"})
    large = Message("2", "a", "b", "k", {"x": "hi" * 100})
    assert large.size_bytes > small.size_bytes


def test_size_fixed_at_construction_despite_payload_mutation():
    # Regression for the lazy-size era: the wire size models what was
    # put on the wire, so mutating the payload afterwards (handlers do
    # reuse dicts) must not change size_bytes.
    payload = {"x": 1}
    m = Message("m-1", "a", "b", "k", payload)
    before = m.size_bytes
    payload["huge"] = "y" * 10_000
    assert m.size_bytes == before


def test_deeply_nested_payload_does_not_recurse():
    deep = {"v": 0}
    for _ in range(5_000):
        deep = {"inner": deep}
    m = Message("m-1", "a", "b", "k", deep)  # would RecursionError if recursive
    assert m.size_bytes > 5_000 * 2


def test_lazy_id_pair_formats_on_first_access():
    m = Message(("msg", 42), "a", "b", "k", {})
    assert m._msg_id is None  # not formatted yet
    assert m.msg_id == "msg-42"
    assert m._msg_id == "msg-42"  # memoized


def test_lazy_and_eager_ids_are_interchangeable():
    eager = Message("msg-7", "a", "b", "k", {"x": 1})
    lazy = Message(("msg", 7), "a", "b", "k", {"x": 1})
    assert eager.msg_id == lazy.msg_id
    assert eager.size_bytes == lazy.size_bytes


def test_dedup_fast_branch_matches_general_estimator():
    # The canonical (str, int, int) key takes an interned shortcut; it
    # must price identically to the general walk, for any sender id.
    for sender in ("a", "u00", "host-é"):
        key = (sender, 1, 42)
        with_key = Message("m-1", "a", "b", "k", {}, dedup=key)
        bare = Message("m-2", "a", "b", "k", {})
        assert with_key.size_bytes - bare.size_bytes == estimate_size(list(key))


def test_noncanonical_dedup_shapes_use_general_estimator():
    key = ("a", "weird", 1)  # str where incarnation should be
    m = Message("m-1", "a", "b", "k", {}, dedup=key)
    bare = Message("m-2", "a", "b", "k", {})
    assert m.size_bytes - bare.size_bytes == estimate_size(list(key))


def test_mixed_flat_and_nested_dicts_price_identically():
    # The flat-dict pre-scan bails to the general walk without double
    # counting; a dict that is flat except one nested value must equal
    # the sum of its parts.
    flat_part = {"a": 1, "b": "x"}
    nested = dict(flat_part)
    nested["c"] = [1, 2]
    assert estimate_size(nested) == estimate_size(flat_part) + 2 + len("c") + 2 + 16


def test_bool_and_none_sizes_survive_the_fast_scan():
    assert estimate_size({"t": True, "f": False, "n": None}) == 2 + 3 * (2 + 1 + 1)


# -- equivalence with the pre-ASCII-rule estimator ------------------------------


def reference_estimate_size(value):
    """The estimator as it stood before the ASCII rule and the inline dict
    branch: flat-dict pre-scan, then a stack walk that encodes every
    string. Kept verbatim as the oracle for ``estimate_size``."""
    if value.__class__ is dict:
        total = 2
        for k, v in value.items():
            tv = v.__class__
            if k.__class__ is str and (
                tv is str or tv is int or tv is float or tv is bool or v is None
            ):
                total += 2 + len(k.encode("utf-8"))
                if tv is str:
                    total += 2 + len(v.encode("utf-8"))
                elif tv is bool or v is None:
                    total += 1
                else:
                    total += 8
            else:
                break
        else:
            return total
    total = 0
    stack = [value]
    pop = stack.pop
    while stack:
        v = pop()
        t = v.__class__
        if t is str:
            total += 2 + len(v.encode("utf-8"))
        elif t is int or t is float:
            total += 8
        elif t is dict:
            total += 2
            stack.extend(v.keys())
            stack.extend(v.values())
        elif v is None or t is bool:
            total += 1
        elif t is list or t is tuple:
            total += 2
            stack.extend(v)
        elif t is bytes:
            total += 2 + len(v)
        elif isinstance(v, bool):
            total += 1
        elif isinstance(v, (int, float)):
            total += 8
        elif isinstance(v, str):
            total += 2 + len(v.encode("utf-8"))
        elif isinstance(v, bytes):
            total += 2 + len(v)
        elif isinstance(v, (list, tuple)):
            total += 2
            stack.extend(v)
        elif isinstance(v, dict):
            total += 2
            stack.extend(v.keys())
            stack.extend(v.values())
        else:
            total += 2 + len(repr(v))
    return total


def reference_size_bytes(payload, dedup=None, trace=None, deadline=None):
    size = 32 + reference_estimate_size(payload)
    if deadline is not None:
        size += 8
    if dedup is not None:
        size += reference_estimate_size(list(dedup))
    if trace is not None:
        size += reference_estimate_size(list(trace))
    return size


class Tag(str):
    """A str subclass: must take the encoding ladder branch, not isascii."""


class WideTag(str):
    """A str subclass whose ``encode`` disagrees with its length."""

    def encode(self, *args, **kwargs):
        return super().encode(*args, **kwargs) * 2


class Count(int):
    pass


class Record(dict):
    pass


class Row(list):
    pass


@dataclass(frozen=True)
class Opaque:
    """Not JSON-like: priced by ``repr`` length."""

    name: str
    n: int


ASTRAL = st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF)

strings = st.one_of(
    st.just(""),
    st.text(st.characters(max_codepoint=0x7F), max_size=12),
    st.text(max_size=8),
    st.text(ASTRAL, min_size=1, max_size=4),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    strings,
    st.binary(max_size=8),
    strings.map(Tag),
    strings.map(WideTag),
    st.integers(-5, 5).map(Count),
    st.builds(Opaque, strings, st.integers(-9, 9)),
)

dict_keys = st.one_of(
    strings,
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(0, 3), strings),
    strings.map(Tag),
)

trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3).map(Row),
        st.dictionaries(strings, inner, max_size=4),
        st.dictionaries(dict_keys, inner, max_size=4),
        st.dictionaries(strings, inner, max_size=3).map(Record),
    ),
    max_leaves=25,
)

payloads = st.one_of(
    st.dictionaries(strings, scalars, max_size=6),  # flat: the old pre-scan shape
    st.dictionaries(strings, trees, max_size=5),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trees)
def test_estimate_size_matches_reference_on_any_tree(value):
    assert estimate_size(value) == reference_estimate_size(value)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    payloads,
    st.none() | st.tuples(strings, st.integers(0, 9), st.integers(0, 10**9)),
    st.none() | st.tuples(strings, strings),
    st.none() | st.floats(min_value=0, max_value=1e6),
)
def test_message_size_matches_reference_with_headers(payload, dedup, trace, deadline):
    m = Message(
        ("msg", 1), "a", "b", "invoke", payload, dedup=dedup, trace=trace, deadline=deadline
    )
    assert m.size_bytes == reference_size_bytes(payload, dedup, trace, deadline)


def test_string_sizes_cover_every_utf8_width():
    for s in ("", "a", "é", "€", "\U0001F600", "a\U0001F600é€", "x" * 1000):
        assert estimate_size(s) == 2 + len(s.encode("utf-8"))
        assert estimate_size({s: s}) == reference_estimate_size({s: s})


def test_str_subclass_is_sized_by_its_encode():
    assert estimate_size(WideTag("abc")) == 2 + 6 == reference_estimate_size(WideTag("abc"))
    assert estimate_size({"k": WideTag("abc")}) == reference_estimate_size({"k": WideTag("abc")})


def test_lone_surrogate_raises_like_the_reference():
    for value in ("\ud800", {"k": "\udfff"}, ["\ud800"]):
        with pytest.raises(UnicodeEncodeError):
            reference_estimate_size(value)
        with pytest.raises(UnicodeEncodeError):
            estimate_size(value)


def test_deep_nesting_matches_reference():
    deep = {"v": "é", "n": [1, None]}
    for i in range(5_000):
        deep = {"inner": deep, "i": i} if i % 2 else [deep, "x"]
    assert estimate_size(deep) == reference_estimate_size(deep)
    headers = {"dedup": ("a", 1, 2), "trace": ("t1", "s1"), "deadline": 5.0}
    m = Message("m-1", "a", "b", "k", {"d": deep}, **headers)
    assert m.size_bytes == reference_size_bytes({"d": deep}, **headers)
