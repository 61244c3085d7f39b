"""The package's seven records keep the semantics of the frozen records they
were written as: the same repr text, value equality and hashing, fields
that cannot be assigned, every validation message, and copies and pickles
equal to the original.

Five of them, ``SequenceLog``, ``Violation``, ``VerifierReport``,
``EnumerationResult`` and ``FrequencyReport``, are ``NamedTuple`` classes and
so, unlike the frozen records, also behave as tuples: they equal a plain
tuple of their fields, and can be indexed, unpacked and measured with
``len``. ``StarParams`` and ``Tableau`` equal only a record of their own
class."""
import copy
import pickle

import pytest

from starchip import (
    CENTER,
    EnumerationResult,
    FrequencyReport,
    Move,
    SequenceLog,
    StarParams,
    Tableau,
    VerifierReport,
    Violation,
)


def records():
    """For each record class, a factory that builds one anew from the same
    fields, and the repr text of what it builds."""
    one = StarParams(1, 1)
    violation = Violation("outer-precedes", (1, 2), "late")
    return [
        (lambda: StarParams(2, 3), "StarParams(k=2, m=3)"),
        (
            lambda: SequenceLog(one, (Move(CENTER, (1,)),)),
            "SequenceLog(params=StarParams(k=1, m=1), moves=(Move(vertex=Vertex(branch=0, level=0), chips=(1,)),))",
        ),
        (lambda: Tableau(((1, 2), (3, 4))), "Tableau(rows=((1, 2), (3, 4)))"),
        (
            lambda: Violation("outer-precedes", (1, 2), "late"),
            "Violation(rule='outer-precedes', subject=(1, 2), detail='late')",
        ),
        (
            lambda: VerifierReport((violation,)),
            "VerifierReport(violations=(Violation(rule='outer-precedes', subject=(1, 2), detail='late'),))",
        ),
        (
            lambda: EnumerationResult(one, {((1,),): 1}),
            "EnumerationResult(params=StarParams(k=1, m=1), per_outcome={((1,),): 1})",
        ),
        (
            lambda: FrequencyReport(one, 7, {((1,),): 3}),
            "FrequencyReport(params=StarParams(k=1, m=1), seed=7, per_outcome={((1,),): 3})",
        ),
    ]


@pytest.mark.parametrize("make, text", records())
def test_repr_text(make, text):
    assert repr(make()) == text


def test_an_empty_report_passes():
    report = VerifierReport()
    assert repr(report) == "VerifierReport(violations=())"
    assert report.passed and not VerifierReport((Violation("r", (), "d"),)).passed


@pytest.mark.parametrize("make, text", records())
def test_equal_fields_give_equal_records_and_hashes(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, (EnumerationResult, FrequencyReport)):  # they hold a dict, as the frozen records did
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make, text", records())
def test_a_field_cannot_be_assigned(make, text):
    record = make()
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("make, text", records())
def test_copies_and_pickles_are_equal(make, text):
    record = make()
    assert copy.copy(record) == copy.deepcopy(record) == pickle.loads(pickle.dumps(record)) == record


def test_unequal_fields_and_other_classes_differ():
    assert StarParams(2, 3) != StarParams(3, 2)
    assert StarParams(2, 3) != (2, 3)
    assert Tableau(((1, 2), (3, 4))) != Tableau(((1, 3), (2, 4)))
    assert len({StarParams(2, 3), StarParams(2, 3), StarParams(3, 2)}) == 2


def test_the_five_named_tuple_records_behave_as_tuples():
    one = StarParams(1, 1)
    violation = Violation("r", (), "d")
    assert violation == ("r", (), "d") and violation[0] == "r"
    assert VerifierReport((violation,)) == ((violation,),)
    result = EnumerationResult(one, {((1,),): 1})
    params, per_outcome = result
    assert len(result) == 2 and params is one and per_outcome == {((1,),): 1}
    assert FrequencyReport(one, 7, {}) == (one, 7, {}) and len(FrequencyReport(one, 7, {})) == 3
    assert SequenceLog(one, ()) == (one, ()) and Tableau(((1,),)) != (((1,),),)


def test_star_params_validation_message():
    with pytest.raises(ValueError, match=r"^need k >= 1 and m >= 1, got k=0, m=2$"):
        StarParams(0, 2)
    with pytest.raises(ValueError, match=r"^need k >= 1 and m >= 1, got k=2, m=0$"):
        StarParams(k=2, m=0)
    assert StarParams(k=2, m=3).n_chips == 6


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1.0, 2),), "tableau entries must be int labels"),
        ((), "tableau must have at least one row and one column"),
        (((),), "tableau must have at least one row and one column"),
        (((1, 2), (3,)), "tableau rows must all have the same length"),
        (((1, 2), (3, 5)), r"entries must be a permutation of 1\.\.4"),
    ],
)
def test_tableau_validation_messages(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Tableau(rows)


def test_tableau_normalises_its_rows():
    t = Tableau([[True, 2], [3, 4]])
    assert t.rows == ((1, 2), (3, 4)) and type(t.rows[0][0]) is int
    assert t == Tableau(((1, 2), (3, 4)))
