"""Interned constants: ``Const(v)`` is the one live constant of
``(type(v), v)``.

The properties pin the identity rule over ints, bools, floats (signed
zeros and infinities), unicode strings and tuples of them; that pickle
and copy hand back the interned object; that the table forgets a
constant nothing holds; and that threads building the same values at
once get the same objects.
"""

import copy
import gc
import math
import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import terms
from repro.datalog.terms import Const
from tests.conftest import examples

scalars = st.one_of(
    st.integers(),
    st.booleans(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0, 1, 1.0, True, False]),
    st.text(max_size=8),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)


def has_nan(value):
    if isinstance(value, tuple):
        return any(has_nan(item) for item in value)
    return value != value


#: values without a NaN: a NaN is never interned, and one inside a
#: tuple equals no copy of itself, as Python compares tuples
interned_values = values.filter(lambda value: not has_nan(value))


def key_of(value):
    return (type(value), value)


class TestIdentity:
    def test_equality_and_hash_are_identitys(self):
        assert Const.__eq__ is object.__eq__
        assert Const.__hash__ is object.__hash__

    @settings(max_examples=examples(300), deadline=None)
    @given(values, values)
    def test_same_object_exactly_for_equal_values_of_one_type(self, a, b):
        const_a, const_b = Const(a), Const(b)
        assert (const_a is const_b) == (type(a) is type(b) and a == b)

    @settings(max_examples=examples(100), deadline=None)
    @given(values)
    def test_the_value_is_kept(self, value):
        const = Const(value)
        assert type(const.value) is type(value)
        if value == value:
            assert const.value == value

    def test_signed_zeros_are_one_constant(self):
        zero = Const(0.0)
        assert Const(-0.0) is zero

    def test_a_nan_equals_no_other_nan(self):
        assert Const(math.nan) is not Const(math.nan)
        assert Const(float("nan")) != Const(float("nan"))

    def test_typed_numbers_stay_apart(self):
        assert len({Const(1), Const(1.0), Const(True)}) == 3


class TestCopies:
    @settings(max_examples=examples(100), deadline=None)
    @given(interned_values)
    def test_pickle_and_copy_return_the_interned_object(self, value):
        const = Const(value)
        assert pickle.loads(pickle.dumps(const)) is const
        assert copy.copy(const) is const
        assert copy.deepcopy(const) is const
        assert copy.deepcopy([const])[0] is const


class TestBoundedTable:
    def test_an_unheld_constant_leaves_the_table(self):
        value = ("interning test", "unheld constant")
        const = Const(value)
        assert terms._interned[key_of(value)]() is const
        del const
        gc.collect()
        assert key_of(value) not in terms._interned

    def test_the_table_holds_live_constants_only(self):
        held = [Const(("interning test", index)) for index in range(50)]
        del held
        gc.collect()
        assert all(ref() is not None for ref in list(terms._interned.values()))

    def test_a_late_callback_leaves_a_live_entry(self):
        # the callback of a dead predecessor may run after a new
        # constant took the entry over: it must not remove that one
        value = ("interning test", "late callback")
        const = Const(value)
        terms._forget(terms._interned[key_of(value)])
        assert terms._interned[key_of(value)]() is const
        assert Const(value) is const


class TestConcurrentConstruction:
    def test_threads_building_the_same_values_get_the_same_objects(self):
        threads_count = 8
        values = [("interning test", "concurrent", index) for index in range(2000)]
        barrier = threading.Barrier(threads_count, timeout=60)
        built = [None] * threads_count

        def build(slot):
            barrier.wait()
            built[slot] = [Const(value) for value in values]

        threads = [
            threading.Thread(target=build, args=(slot,))
            for slot in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        first = built[0]
        assert len(first) == len(values)
        for constants in built[1:]:
            assert len(constants) == len(first)
            assert all(a is b for a, b in zip(first, constants))
