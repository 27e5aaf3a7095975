import re
from fractions import Fraction

import pytest

from refdata import descending_recursive
from sonlap import Partition, TracePoly, count, enumerate_upto, general_at, partitions_of
from sonlap.partitions import _descending


def brute_force_partitions(degree):
    """Independent enumeration: grow non-increasing tuples part by part."""
    if degree == 0:
        return {()}
    found = set()
    stack = [((), degree)]
    while stack:
        prefix, left = stack.pop()
        cap = prefix[-1] if prefix else left
        for nxt in range(1, min(cap, left) + 1):
            cand = prefix + (nxt,)
            if left - nxt == 0:
                found.add(cand)
            else:
                stack.append((cand, left - nxt))
    return found


def test_enumerate_upto_k0():
    assert enumerate_upto(0) == [Partition()]


def test_enumerate_upto_k2_order():
    expected = [Partition(()), Partition((1,)), Partition((2,)), Partition((1, 1))]
    assert enumerate_upto(2) == expected


def test_enumerate_upto_k4_length():
    # 1 + 1 + 2 + 3 + 5 partitions of degrees 0..4
    assert len(enumerate_upto(4)) == 12


@pytest.mark.parametrize("degree", range(9))
def test_partitions_of_matches_brute_force(degree):
    got = {p.parts for p in partitions_of(degree)}
    assert got == brute_force_partitions(degree)


def test_descending_lex_order_within_degree():
    parts4 = [p.parts for p in partitions_of(4)]
    assert parts4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("total", range(-1, 21))
def test_descending_matches_the_recursive_reference(total):
    """Same partitions in the same order at every cap, caps below 1 and
    above ``total`` included, and nothing for a negative total."""
    for max_part in range(-1, max(total, 0) + 3):
        assert list(_descending(total, max_part)) == list(descending_recursive(total, max_part))


@pytest.mark.parametrize("k", [0, 4, 7])
def test_count_known_values(k):
    assert count(k) == len(brute_force_partitions(k))


def test_count_vs_enumeration_slices():
    for k in range(21):
        slice_size = sum(1 for p in enumerate_upto(k) if p.degree == k)
        assert count(k) == slice_size


def test_prefix_stability():
    previous = enumerate_upto(0)
    for k in range(1, 13):
        current = enumerate_upto(k)
        assert current[: len(previous)] == previous
        previous = current


def test_canonical_invariants_hold_for_all_emitted():
    for p in enumerate_upto(12):
        assert all(x >= 1 for x in p.parts)
        assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))
        assert p.degree == sum(p.parts)


def test_of_strips_zeros_and_sorts():
    assert Partition.of(2, 1, 0).parts == (2, 1)
    assert Partition.of(1, 3, 2).parts == (3, 2, 1)
    assert Partition.of() == Partition()


def test_invalid_parts_rejected():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition.of(-1)


@pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(3, 2), "3"], ids=repr)
def test_of_refuses_a_part_that_is_not_an_integer(bad):
    """A part is coerced by operator.index, never truncated: 2.5 used to
    give (2,1), Fraction(3, 2) gave (1) and "3" gave (3)."""
    with pytest.raises(ValueError, match=re.escape(f"part {bad!r}")):
        Partition.of(bad, 1)
    with pytest.raises(ValueError, match=re.escape(f"part {bad!r}")):
        TracePoly({(bad,): 1}, general_at(3))


def test_of_accepts_integer_parts():
    np = pytest.importorskip("numpy")
    built = Partition.of(np.int64(2), 1, np.int32(0))
    assert built == Partition((2, 1)) and all(type(p) is int for p in built.parts)
    assert Partition.of(True, 2).parts == (2, 1)


def test_degree_is_stored_by_every_constructor():
    for part in enumerate_upto(10):
        parts = part.parts
        for p in (Partition(parts), Partition.of(*reversed(parts)), Partition._trusted(parts)):
            assert p.degree == sum(parts)
        assert Partition(parts).concat(part).degree == 2 * sum(parts)
    assert repr(Partition((2, 1))) == "Partition(parts=(2, 1))"


def test_serialization_round_trip():
    for p in enumerate_upto(6):
        assert Partition.parse(p.serialize()) == p
    assert Partition.parse("0") == Partition()
    assert Partition.parse("2,1").parts == (2, 1)
    for text in ("abc", "1,,2", "1.5"):
        with pytest.raises(ValueError, match=re.escape(f"got {text!r}")):
            Partition.parse(text)
    assert Partition().serialize() == "0"


def test_padded_display_form():
    assert Partition.of(2, 1).padded() == (2, 1, 0)
    assert Partition.of(4).padded() == (4, 0, 0, 0)
    assert Partition.of(1, 1).padded() == (1, 1)


def test_concat_merges_sorted():
    assert Partition.of(2).concat(Partition.of(3, 1)).parts == (3, 2, 1)


def test_cached_hash_equals_the_dataclass_hash():
    """Every constructor stores hash((parts,)), so no dict or set of
    partitions changes order."""
    for part in enumerate_upto(12):
        parts = part.parts
        built = (Partition(parts), Partition.of(*reversed(parts)), Partition._trusted(parts), part)
        for p in built:
            assert hash(p) == hash((parts,)), p
