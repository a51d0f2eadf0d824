"""The behaviour of ``CheckResult`` and ``Report`` that suites and callers rely on."""

import pytest

from contactcheck.report import FAIL, PASS, CheckResult, Report, failed, passed


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

