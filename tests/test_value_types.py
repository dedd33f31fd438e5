"""The package's immutable value types, pinned type by type.

For each of the five value types: the repr text, equality and hashing
(with ``SpinLabel``'s ordering), refusal of assignment and deletion,
keyword construction, positional pattern matching, and copy, deepcopy
and pickle round trips that keep the type and the exact bits of every
field.  ``IrrepMatrices`` compares by identity, so its round trips
compare fields.
"""

from __future__ import annotations

import copy
import math
import operator
import pickle
import struct

import pytest

from qhydrogen import (
    DeformationParameter,
    IrrepMatrices,
    QuantumState,
    SpinLabel,
    VerificationReport,
    build_irrep,
    build_irreps,
    verify_commutators,
)

FIELDS = {
    DeformationParameter: ("q", "s"),
    SpinLabel: ("twice_j",),
    QuantumState: ("j", "twice_m", "twice_p"),
    IrrepMatrices: ("j", "d", "ladder", "brackets", "half_brackets"),
    VerificationReport: ("relation_name", "max_abs_deviation", "tolerance", "passed"),
}

# ln(e^0.3) != 0.3 in doubles, so a round trip that rebuilt from q alone
# would change the s of this value.
FROM_S = DeformationParameter.from_s(0.3)
Q2 = DeformationParameter(2.0)
NAN = float("nan")


def _samples():
    """(id, value, repr text) for each type; one value per distinct shape."""
    half = list(build_irreps(SpinLabel(1), Q2))[-1]
    report = verify_commutators(build_irrep(SpinLabel(2), Q2), 1e-12)[2]
    return [
        ("q", DeformationParameter(1.3), "DeformationParameter(q=1.3, s=0.26236426446749106)"),
        ("from_s", FROM_S, "DeformationParameter(q=1.3498588075760032, s=0.3)"),
        ("from_s-0", DeformationParameter.from_s(-0.0), "DeformationParameter(q=1.0, s=-0.0)"),
        ("spin", SpinLabel(3), "SpinLabel(twice_j=3)"),
        ("state", QuantumState(SpinLabel(1), 1, -1),
         "QuantumState(j=SpinLabel(twice_j=1), twice_m=1, twice_p=-1)"),
        ("irrep", build_irrep(SpinLabel(2), Q2),
         "IrrepMatrices(j=SpinLabel(twice_j=2), d=DeformationParameter(q=2.0, "
         "s=0.6931471805599453), ladder=(1.5811388300841898, 1.5811388300841898), "
         "brackets=(0.0, 1.0, 2.5), half_brackets=None)"),
        ("irrep-half", half,
         "IrrepMatrices(j=SpinLabel(twice_j=1), d=DeformationParameter(q=2.0, "
         "s=0.6931471805599453), ladder=(1.0,), brackets=(0.0, 1.0), "
         "half_brackets=(0.4714045207910316, 1.6499158227686106))"),
        ("report", report,
         "VerificationReport(relation_name='[I+,I-] = [2Iz]', "
         "max_abs_deviation=1.77635683940025e-16, tolerance=1e-12, passed=True)"),
    ]


SAMPLES = _samples()
VALUES = pytest.mark.parametrize("value", [v for _, v, _ in SAMPLES],
                                 ids=[i for i, _, _ in SAMPLES])


def _same_bits(a, b) -> bool:
    """Same type and, field by field, the same bits (floats by their bytes)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if type(a) in FIELDS:
        return all(_same_bits(getattr(a, f), getattr(b, f)) for f in FIELDS[type(a)])
    return a == b


@pytest.mark.parametrize("value, text", [(v, t) for _, v, t in SAMPLES],
                         ids=[i for i, _, _ in SAMPLES])
def test_repr(value, text):
    assert repr(value) == text


@VALUES
@pytest.mark.parametrize("how", [
    "copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))
])
def test_round_trip_keeps_type_and_bits(value, how):
    if how == "copy":
        twin = copy.copy(value)
    elif how == "deepcopy":
        twin = copy.deepcopy(value)
    else:
        twin = pickle.loads(pickle.dumps(value, protocol=int(how[len("pickle"):])))
    assert _same_bits(twin, value)
    if type(value) is not IrrepMatrices:
        assert twin == value and hash(twin) == hash(value)


def test_from_s_round_trip_keeps_the_given_s():
    twin = pickle.loads(pickle.dumps(FROM_S))
    assert twin.s == 0.3 and twin.q == math.exp(0.3)
    assert math.log(twin.q) != twin.s


@VALUES
def test_assignment_and_deletion_raise(value):
    before = copy.deepcopy(value)
    for name in (*FIELDS[type(value)], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _same_bits(value, before)


class TestEquality:
    def test_equal_values_are_equal_and_hash_alike(self):
        pairs = [
            (SpinLabel(3), SpinLabel(3)),
            (DeformationParameter(1.3), DeformationParameter(1.3)),
            (DeformationParameter(1.0), DeformationParameter.from_s(0.0)),
            (DeformationParameter.from_s(-0.0), DeformationParameter(1.0)),
            (QuantumState(SpinLabel(1), 1, -1), QuantumState(SpinLabel(1), 1, -1)),
            (VerificationReport("r", 0.5, 1e-12, False),
             VerificationReport("r", 0.5, 1e-12, False)),
            # A caller's NaN tolerance, one float object in both reports.
            (VerificationReport("r", 0.5, NAN, False), VerificationReport("r", 0.5, NAN, False)),
        ]
        for a, b in pairs:
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert a is not b

    @pytest.mark.parametrize(
        "value",
        [v for _, v, _ in SAMPLES if type(v) is not IrrepMatrices],
        ids=[i for i, v, _ in SAMPLES if type(v) is not IrrepMatrices],
    )
    def test_hash_is_the_hash_of_the_field_tuple(self, value):
        assert hash(value) == hash(tuple(getattr(value, name) for name in FIELDS[type(value)]))

    def test_every_field_takes_part(self):
        unequal = [
            (SpinLabel(3), SpinLabel(4)),
            (DeformationParameter(1.3), DeformationParameter(1.5)),
            # Same q, different s: from_s keeps its s.
            (FROM_S, DeformationParameter(FROM_S.q)),
            (QuantumState(SpinLabel(1), 1, -1), QuantumState(SpinLabel(3), 1, -1)),
            (QuantumState(SpinLabel(1), 1, -1), QuantumState(SpinLabel(1), -1, -1)),
            (QuantumState(SpinLabel(1), 1, -1), QuantumState(SpinLabel(1), 1, 1)),
            (VerificationReport("r", 0.5, 1e-12, False),
             VerificationReport("s", 0.5, 1e-12, False)),
            (VerificationReport("r", 0.5, 1e-12, False),
             VerificationReport("r", 0.25, 1e-12, False)),
            (VerificationReport("r", 0.5, 1e-12, False),
             VerificationReport("r", 0.5, 1e-9, False)),
            (VerificationReport("r", 0.5, 1e-12, False),
             VerificationReport("r", 0.5, 1e-12, True)),
        ]
        for a, b in unequal:
            assert a != b and not a == b

    def test_other_types_are_never_equal(self):
        assert SpinLabel(1) != (1,) and SpinLabel(1) != 1
        assert DeformationParameter(2.0) != (2.0, math.log(2.0))
        assert QuantumState(SpinLabel(0), 0, 0) != (SpinLabel(0), 0, 0)
        assert VerificationReport("r", 0.0, 1.0, True) != ("r", 0.0, 1.0, True)
        assert SpinLabel(0) != QuantumState(SpinLabel(0), 0, 0)

    def test_irrep_matrices_compare_by_identity(self):
        r = build_irrep(SpinLabel(2), Q2)
        twin = IrrepMatrices(r.j, r.d, r.ladder, r.brackets)
        assert r == r and r != twin and hash(r) == object.__hash__(r)
        assert len({r, twin}) == 2


class TestOrdering:
    def test_spin_labels_order_by_twice_j(self):
        a, b = SpinLabel(2), SpinLabel(5)
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a or b <= a or a > b or a >= b)
        assert a <= SpinLabel(2) and a >= SpinLabel(2)
        assert not (a < SpinLabel(2) or a > SpinLabel(2))
        assert sorted(map(SpinLabel, [3, 0, 7, 1])) == list(map(SpinLabel, [0, 1, 3, 7]))
        assert max(map(SpinLabel, [3, 0, 7, 1])) == SpinLabel(7)

    def test_spin_labels_do_not_order_against_other_types(self):
        for other in (1, (1,), 1.0):
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(SpinLabel(1), other)

    @pytest.mark.parametrize("a, b", [
        (DeformationParameter(1.3), DeformationParameter(2.0)),
        (QuantumState(SpinLabel(0), 0, 0), QuantumState(SpinLabel(0), 0, 0)),
        (VerificationReport("r", 0.0, 1.0, True), VerificationReport("s", 0.0, 1.0, True)),
    ])
    def test_other_types_have_no_order(self, a, b):
        with pytest.raises(TypeError):
            a < b  # noqa: B015


class TestConstruction:
    def test_keywords(self):
        assert SpinLabel(twice_j=3) == SpinLabel(3)
        assert DeformationParameter(q=1.3) == DeformationParameter(1.3)
        assert (QuantumState(j=SpinLabel(1), twice_m=1, twice_p=-1)
                == QuantumState(SpinLabel(1), 1, -1))
        assert (VerificationReport(relation_name="r", max_abs_deviation=0.5,
                                   tolerance=1e-12, passed=False)
                == VerificationReport("r", 0.5, 1e-12, False))
        r = build_irrep(SpinLabel(2), Q2)
        twin = IrrepMatrices(j=r.j, d=r.d, ladder=r.ladder, brackets=r.brackets)
        assert _same_bits(twin, r) and twin.half_brackets is None
        full = IrrepMatrices(j=r.j, d=r.d, ladder=r.ladder, brackets=r.brackets,
                             half_brackets=(1.0,))
        assert full.half_brackets == (1.0,) and full.dim == 3

    def test_s_is_not_an_argument(self):
        with pytest.raises(TypeError):
            DeformationParameter(q=1.3, s=0.2)
        with pytest.raises(TypeError):
            DeformationParameter(1.3, 0.2)

    def test_missing_and_extra_arguments_raise_type_error(self):
        for build in (
            lambda: SpinLabel(),
            lambda: SpinLabel(1, 2),
            lambda: QuantumState(SpinLabel(1), 1),
            lambda: VerificationReport("r", 0.0, 1.0),
            lambda: IrrepMatrices(SpinLabel(0), Q2, ()),
            lambda: SpinLabel(twice_k=1),
        ):
            with pytest.raises(TypeError):
                build()

    def test_positional_pattern_matching(self):
        match QuantumState(SpinLabel(3), 1, -1):
            case QuantumState(SpinLabel(tj), tm, tp):
                assert (tj, tm, tp) == (3, 1, -1)
            case _:
                pytest.fail("no match")
        match DeformationParameter(2.0):
            case DeformationParameter(q):
                assert q == 2.0
            case _:
                pytest.fail("no match")
        match VerificationReport("r", 0.0, 1.0, True):
            case VerificationReport(name, _, _, passed):
                assert (name, passed) == ("r", True)
            case _:
                pytest.fail("no match")
        r = build_irrep(SpinLabel(0), Q2)
        match r:
            case IrrepMatrices(j, d, ladder, brackets, None):
                assert (j, d, ladder, brackets) == (r.j, r.d, r.ladder, r.brackets)
            case _:
                pytest.fail("no match")
