"""The behaviour of ``CheckResult`` and ``Report`` that suites and callers rely on."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactcheck.report import FAIL, PASS, CheckResult, Report, _json_text, failed, passed


def test_check_result_keyword_construction_and_fields():
    result = CheckResult(check_id="a:b", status=FAIL, witness="lhs 1 != rhs 2")
    assert (result.check_id, result.status, result.witness) == ("a:b", FAIL, "lhs 1 != rhs 2")
    assert CheckResult("a:b", PASS).witness is None


def test_check_result_equality_and_hash_follow_the_fields():
    one = CheckResult("a", PASS)
    assert one == CheckResult(check_id="a", status=PASS, witness=None)
    assert one != CheckResult("a", FAIL)
    assert one != CheckResult("a", PASS, "")
    assert hash(one) == hash(CheckResult("a", PASS))
    assert len({one, CheckResult("a", PASS), CheckResult("b", PASS)}) == 2


def test_check_result_repr():
    assert repr(CheckResult("a", PASS)) == "CheckResult(check_id='a', status='pass', witness=None)"
    assert repr(failed("x", 3)) == "CheckResult(check_id='x', status='fail', witness='3')"


@pytest.mark.parametrize("field", ["check_id", "status", "witness"])
def test_check_result_rejects_assignment(field):
    result = CheckResult("a", PASS)
    with pytest.raises(AttributeError):
        setattr(result, field, "other")
    assert result == CheckResult("a", PASS)


def test_reports_do_not_share_a_results_list():
    first, second = Report({"command": "x"}), Report({"command": "x"})
    first.extend([passed("a")])
    assert first.results == [passed("a")]
    assert second.results == []
    assert Report({"command": "x"}, None).results == []


def test_report_keeps_the_given_config_and_results():
    config = {"command": "x"}
    results = [failed("b", "w"), passed("a")]
    report = Report(config, results)
    assert report.config is config
    assert report.results is results



# -- the JSON writer -------------------------------------------------------------------

#: Strings with every character class the writer must escape as ``json`` does:
#: quotes, backslashes, control characters, non-ASCII, astral and lone
#: surrogate code points.
TEXT = st.text(
    st.characters(exclude_categories=(), include_characters='"\\\x00\x08\x0c\n\r\t\x1f\x7f'),
    max_size=12,
)
LEAVES = st.none() | st.booleans() | st.integers() | TEXT
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=30,
)


def stdlib_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=400)
@given(TREES)
def test_writer_equals_json_dumps_on_report_trees(tree):
    assert _json_text(tree) == stdlib_text(tree)


@pytest.mark.parametrize("tree", [
    {}, [], "", [[]], [{}], {"": {}}, {"a": [[], {}, [[{}]]]},
    [True, 1, False, 0, None], {"1": True, "b": 1, "a": [1, True]},
    {"é": "☃", "\"": "\\", "\n": "\x00\x1f\ud800\U0001f600"},
    {"z": 1, "a": 2, "A": 3, "_": 4, "aa": 5, "aé": 6},
    [-(10**40), 10**40, -1, 0],
])
def test_writer_equals_json_dumps_on_edge_cases(tree):
    assert _json_text(tree) == stdlib_text(tree)


@pytest.mark.parametrize("tree", [
    1.5, [0.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 1}}, {("a",): 1}, (1, 2), {"a": {1, 2}},
])
def test_writer_rejects_floats_non_str_keys_and_other_types(tree):
    with pytest.raises(TypeError):
        _json_text(tree)
