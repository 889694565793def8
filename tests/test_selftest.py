from superskel import selftest
from superskel.report import CheckReport


def test_tally_names_the_first_failing_case():
    report = CheckReport("tally")
    selftest._tally(report, None, 5, lambda rng, index: (index != 3, True),
                    "fails on {n} cases", "passes on {n} cases")
    failing, passing = report.items
    assert (failing.label, failing.passed, failing.detail) == \
        ("fails on 5 cases", False, "first failure at case 3")
    assert (passing.label, passing.passed, passing.detail) == ("passes on 5 cases", True, "")
    assert "FAIL fails on 5 cases: first failure at case 3" in report.summary()
