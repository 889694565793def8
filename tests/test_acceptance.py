"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance): all arithmetic is rational, so every
identity is asserted with equality.  Each test prints one pass/fail line with
its elapsed time; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they appear.
"""

import time

from superskel import selftest


def _run(number, label, budget_seconds, report, counted):
    """``counted`` lists the item labels that state the criterion's counts,
    so a changed count fails its criterion."""
    elapsed = getattr(report, "_elapsed", None)
    status = "PASS" if report.ok else "FAIL"
    line = f"criterion {number:02d} {label}: {status} ({elapsed:.2f}s, budget {budget_seconds}s)"
    print(line)
    assert report.ok, f"{line}\n{report.summary()}"
    labels = [item.label for item in report.items]
    missing = [text for text in counted if text not in labels]
    assert not missing, f"{line}: counts changed, no item {missing}"
    assert elapsed < budget_seconds, f"{line}: over budget"


def _timed(name):
    started = time.perf_counter()
    report = selftest.run_suite(name)
    report._elapsed = time.perf_counter() - started
    return report


def test_criterion_01_grassmann_laws():
    _run(1, "grassmann laws", 10, _timed("grassmann"),
         ["associativity on 500 random triples in rank 6",
          "distributivity on 500 random triples in rank 6",
          "supercommutativity on 500 homogeneous pairs",
          "inversion round trip on 100 body-invertible elements"])


def test_criterion_02_continuation_equivalence():
    _run(2, "continuation equivalence", 60, _timed("continuation"),
         ["taylor = subst on 200 cases (20 rational)", "truncation consistency on 20 cases"])


def test_criterion_03_exact_taylor():
    _run(3, "exact taylor", 30, _timed("taylor"),
         ["increment expansion on 100 cases (up to 4 increments)",
          "no taylor shell beyond the rank on 100 cases"])


def test_criterion_04_smoothness_certificate():
    _run(4, "smoothness certificate", 60, _timed("certificate"),
         ["naturality battery on 100 skeletons", "even-scalar linearity on 100 skeletons"])


def test_criterion_05_algebra_isomorphism():
    _run(5, "algebra isomorphism", 30, _timed("algebra"),
         ["evaluation of products on 100 pairs",
          "shuffle product = monomial product on 200 pairs",
          "supercommutativity on 50 homogeneous pairs",
          "inversion round trip on 50 even superfunctions"])


def test_criterion_06_composition_formula():
    _run(6, "composition formula", 120, _timed("composition"),
         ["formula = substitution symbolically on 100 pairs",
          "formula = substitution at 20 body points per pair, all ascending tuples",
          "associativity and identity laws on 30 triples",
          "continuation is functorial on 20 cases"])


def test_criterion_07_point_functor():
    _run(7, "point functor", 20, _timed("points"),
         ["encode/decode round trip on 100 points", "evaluation is multiplicative on 50 pairs"])


def test_criterion_08_higher_order_family():
    _run(8, "higher-order family", 60, _timed("higher"),
         ["supersymmetry signs on all adjacent swaps (orders 2, 3) on 30 cases",
          "body derivatives extended (orders 1..3 on 30 cases, 1 on the rest)",
          "increment update law (orders 0..3 on 30 cases, 0..1 on the rest)",
          "nilpotent taylor sum = substitution on 100 cases"])


def test_criterion_09_gluing():
    _run(9, "gluing", 20, _timed("gluing"),
         ["transport round trips on 50 points"])


def test_criterion_10_factorization_taylor():
    _run(10, "factorization and taylor polynomials", 20,
         _timed("factor"),
         ["telescoped factorization on 50 polynomial skeletons",
          "taylor remainder order on 50 cases"])


def test_criterion_11_cli():
    report = _timed("formats")
    # fold the CLI end-to-end checks into the same criterion
    started = time.perf_counter()
    import io
    from contextlib import redirect_stdout

    from superskel.cli import main

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "f.sk").write_text("source 1|2\ntarget 1|0\ny1 = x1 + t1*t2\n")
        (tmp / "g.sk").write_text("source 1|0\ntarget 1|0\ny1 = x1^2\n")
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["compose", str(tmp / "g.sk"), str(tmp / "f.sk"),
                         "--method", "both"])
        report.add("`compose --method both` agrees and exits 0",
                   code == 0 and "y1 = x1^2 + 2*x1*t1*t2" in out.getvalue())
        with redirect_stdout(io.StringIO()):
            report.add("usage error exits 2", main([]) == 2)
            report.add("parse error exits 2",
                       main(["eval", str(tmp / "missing.sk"), "x"]) == 2)
        (tmp / "bad.man").write_text(
            "chart U 1|0\nchart V 1|0\noverlap U V\noverlap V U\n"
            "transition U V\ny1 = x1\ntransition V U\ny1 = x1 + 1\n")
        with redirect_stdout(io.StringIO()):
            report.add("failed check exits 1",
                       main(["glue", "check", str(tmp / "bad.man"),
                             "--samples", "4"]) == 1)
    report._elapsed += time.perf_counter() - started
    _run(11, "cli", 20, report, ["parse/format round trip on 500 values"])
