import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from superskel.cli import main


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    paths = {}
    paths["f"] = write("f.sk", "source 1|2\ntarget 1|0\ny1 = x1 + t1*t2\n")
    paths["g"] = write("g.sk", "source 1|0\ntarget 1|0\ny1 = x1^2\n")
    paths["identity"] = write("id.sk", "source 1|2\ntarget 1|2\ny1 = x1\nh1 = t1\nh2 = t2\n")
    paths["point"] = write("p.pt", "rank 2\nx1 = 2*1 + 1*g1g2\nt1 = 1*g1\nt2 = 1*g2\n")
    paths["line"] = write("line.man", _superline_text())
    paths["bad"] = write("bad.man",
                         "chart U 1|0\nchart V 1|0\noverlap U V\noverlap V U\n"
                         "transition U V\ny1 = x1\ntransition V U\ny1 = x1 + 1\n")
    paths["apoint"] = write("a.pt", "rank 2\nx1 = 2*1\nt1 = 1*g1\n")
    paths["oneway"] = write("oneway.man", "chart A 1|1\nchart B 1|1\n"
                            "transition A B\ny1 = x1 + 1\nh1 = t1\n")
    return paths


def _superline_text():
    from superskel.atlas import projective_superline
    from superskel.parsing import format_manifold

    return format_manifold(projective_superline())


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_compose_both(files):
    code, out = run(["compose", files["g"], files["f"], "--method", "both"])
    assert code == 0
    assert "y1 = x1^2 + 2*x1*t1*t2" in out


def test_compose_methods_agree(files):
    _, by_subst = run(["compose", files["g"], files["f"], "--method", "subst"])
    _, by_formula = run(["compose", files["g"], files["f"], "--method", "formula"])
    assert by_subst == by_formula


def test_eval_identity_echoes(files):
    code, out = run(["eval", files["identity"], files["point"]])
    assert code == 0
    assert "x1 = 2*1 + 1*g1g2" in out
    assert "t1 = 1*g1" in out


def test_eval_routes_agree(files):
    code, out = run(["eval", files["f"], files["point"], "--route", "both"])
    assert code == 0
    assert "x1 = 2*1 + 2*g1g2" in out


def test_diff_lists_partials(files):
    code, out = run(["diff", files["f"], "--order", "1"])
    assert code == 0
    assert "d(x1) y1 = 1" in out
    assert "d(t1) y1 = -1*t2" in out
    assert "d(t2) y1 = t1" in out


def test_diff_walks_only_nonzero_branches(files):
    from itertools import product

    from superskel.calculus import derivative
    from superskel.parsing import parse_skeleton_file

    with open(files["f"]) as handle:
        skeleton = parse_skeleton_file(handle.read())
    for order in (1, 2, 3):
        data = derivative(skeleton, order)
        expected = [f"# derivative order {order} of {files['f']}"]
        for dirs in product(data.directions, repeat=order):
            comp = data.components(dirs)[0]
            if not comp.is_zero():
                text = " ".join(f"{kind}{index}" for kind, index in dirs)
                expected.append(f"d({text}) y1 = {comp.format()}")
        assert run(["diff", files["f"], "--order", str(order)]) == (
            0, "\n".join(expected) + "\n")
    started = time.perf_counter()
    code, out = run(["diff", files["f"], "--order", "40"])
    assert code == 0 and out == f"# derivative order 40 of {files['f']}\n"
    assert time.perf_counter() - started < 1


def test_checks_pass(files):
    for kind in ("naturality", "bgn", "linearity", "def43", "taylor"):
        for rank, samples in (("3", "3"), ("0", "1")):
            code, _ = run(["check", kind, files["f"], "--rank", rank, "--samples", samples])
            assert code == 0, (kind, rank)
    # no generator carries an increment at rank 0: each increment case is a
    # skip, and the shell item still checks
    code, out = run(["check", "taylor", files["f"], "--rank", "0", "--samples", "2"])
    assert code == 0 and out.endswith(": 1 passed, 0 failed, 2 skipped\n")


def test_glue_check(files):
    code, _ = run(["glue", "check", files["line"], "--samples", "8"])
    assert code == 0
    code, _ = run(["glue", "check", files["bad"], "--samples", "4"])
    assert code == 1
    # a transition whose inverse is missing fails the check
    code, out = run(["glue", "check", files["oneway"], "--verbose"])
    assert code == 1
    assert "FAIL transition(B,A) exists: missing inverse transition" in out


def test_glue_transport(files):
    code, out = run(["glue", "transport", files["line"], "A", files["apoint"], "B"])
    assert code == 0
    assert "x1 = 1/2*1" in out
    assert "t1 = 1/2*g1" in out


def test_exit_codes(files, tmp_path):
    assert run([])[0] == 2
    assert run(["eval", str(tmp_path / "missing.sk"), files["point"]])[0] == 2
    broken = tmp_path / "broken.sk"
    broken.write_text("source 1|0\ntarget 1|0\ny1 = x1 +\n")
    assert run(["eval", str(broken), files["point"]])[0] == 2
    assert run(["selftest", "--suite", "nope"])[0] == 2
    # zero samples would be a vacuous PASS; ranks outside 0..cap are usage errors
    for kind in ("naturality", "bgn", "linearity", "def43", "taylor"):
        assert run(["check", kind, files["f"], "--samples", "0"])[0] == 2, kind
    for rank in ("9", "-1"):
        assert run(["check", "naturality", files["f"], "--rank", rank])[0] == 2, rank
    assert run(["glue", "check", files["line"], "--samples", "0"])[0] == 2
    assert run(["diff", files["f"], "--order", "0"])[0] == 2
    # library errors that mean bad input are usage errors too
    rank9 = tmp_path / "rank9.pt"
    rank9.write_text("rank 9\nx1 = 1*1\n")
    assert run(["eval", files["f"], str(rank9)])[0] == 2  # over the rank cap
    assert run(["compose", files["f"], files["g"]])[0] == 2  # spaces do not compose
    for chart_args in (["Q", files["apoint"], "B"], ["A", files["apoint"], "Z"]):
        assert run(["glue", "transport", files["line"], *chart_args])[0] == 2, chart_args
    # a transition without an overlap line is glued on all of its chart
    for name, back, code in (("noov.man", "x1/2 - 1", 0), ("noov-bad.man", "x1/2", 1)):
        path = tmp_path / name
        path.write_text("chart A 1|1\nchart B 1|1\nchart C 1|1\n"
                        "transition A B\ny1 = x1 + 1\nh1 = t1\n"
                        "transition B A\ny1 = x1 - 1\nh1 = t1\n"
                        "transition B C\ny1 = 2*x1\nh1 = t1\n"
                        "transition C B\ny1 = x1/2\nh1 = t1\n"
                        "transition A C\ny1 = 2*x1 + 2\nh1 = t1\n"
                        f"transition C A\ny1 = {back}\nh1 = t1\n")
        result = run(["glue", "check", str(path), "--samples", "5"])
        assert result[0] == code and "cocycle conditions" in result[1], name
    # repeated headers and bad directives are parse errors
    for name, text in (
            ("twice.sk", "source 1|2\nbox 0 1\nsource 1|2\ntarget 1|0\ny1 = x1\n"),
            ("box.sk", "source 1|2\ntarget 1|0\nbox 1 0\ny1 = x1\n"),
            ("exponent.sk", "source 1|2\ntarget 1|0\nbox 0 1e1000000\ny1 = x1\n"),
            ("decimal.sk", "source 1|2\ntarget 1|0\nbox 0 1e5\ny1 = x1\n"),
            ("exclude.sk", "source 1|2\ntarget 1|0\nexclude 0\ny1 = x1\n"),
            ("rank.pt", "rank 2\nrank 3\nx1 = 1*1\n"),
            ("negative.pt", "rank -1\nx1 = 1*1\n"),
            ("twice.man", "chart A 1|0\nchart B 1|0\noverlap A B\noverlap B A\n"
                          "transition A B\ny1 = x1\ntransition B A\ny1 = x1\n"
                          "transition A B\ny1 = x1 + 1\n")):
        path = tmp_path / name
        path.write_text(text)
        argv = {".sk": ["compose", str(path), files["identity"]],
                ".pt": ["eval", files["f"], str(path)],
                ".man": ["glue", "check", str(path)]}[path.suffix]
        assert run(argv)[0] == 2, name
    # deep nesting and overlong literals stop at the parser, not the interpreter;
    # so does a literal written as a power, before the power is computed
    for name, expr in (("deep.sk", "(" * 3000 + "x1" + ")" * 3000),
                       ("long.sk", "7" * 5000 + "*x1"),
                       ("long-power.sk", "3^10000000*x1")):
        path = tmp_path / name
        path.write_text(f"source 1|2\ntarget 1|0\ny1 = {expr}\n")
        start = time.perf_counter()
        assert run(["eval", str(path), files["point"]])[0] == 2, name
        assert time.perf_counter() - start < 1, name
    # a result number longer than the parser's literal cap is not printed
    # (2^20000 has 6021 digits), and one at the cap prints and parses back;
    # x1^100000 is refused by every route within a second, as substitution
    # raises the point to that power by square-and-multiply
    power, big_power = tmp_path / "power.sk", tmp_path / "big-power.sk"
    power.write_text("source 1|2\ntarget 1|0\ny1 = x1^20000\n")
    big_power.write_text("source 1|2\ntarget 1|0\ny1 = x1^100000\n")
    big = tmp_path / "big.sk"
    big.write_text("source 1|2\ntarget 1|0\ny1 = 2^20000*x1\n")
    big_line = tmp_path / "big.man"
    big_line.write_text("chart A 1|1\nchart B 1|1\ntransition A B\ny1 = 2^20000*x1\nh1 = t1\n"
                        "transition B A\ny1 = x1/2^20000\nh1 = t1\n")
    for argv in (["eval", str(power), files["point"]],
                 ["eval", str(power), files["point"], "--route", "both"],
                 ["eval", str(big_power), files["point"]],
                 ["eval", str(big_power), files["point"], "--route", "taylor"],
                 ["eval", str(big_power), files["point"], "--route", "both"],
                 ["compose", str(big), files["identity"]],
                 ["diff", str(big)],
                 ["glue", "transport", str(big_line), "A", files["apoint"], "B"]):
        assert run(argv) == (2, ""), argv
    from superskel.parsing import parse_skeleton_file

    edge = tmp_path / "edge.sk"
    edge.write_text("source 1|2\ntarget 1|0\ny1 = 10^3999*x1 + x1^2/(7*10^3998)\n")
    code, out = run(["compose", str(edge), files["identity"], "--method", "both"])
    assert code == 0 and len(out) > 8000
    assert parse_skeleton_file(out) == parse_skeleton_file(edge.read_text())


def test_eval_refuses_a_power_before_computing_it(tmp_path):
    # 3^1000000000 would have about 477 million digits: refused before the
    # power is taken; at body 1 the power is 1 + 10^9 g1g2 and prints
    skeleton = tmp_path / "huge-power.sk"
    skeleton.write_text("source 1|0\ntarget 1|0\ny1 = x1^1000000000\n")
    for body, expected in (("3", 2), ("1", 0)):
        point = tmp_path / f"at-{body}.pt"
        point.write_text(f"rank 2\nx1 = {body}*1 + 1*g1g2\n")
        start = time.perf_counter()
        code, out = run(["eval", str(skeleton), str(point)])
        assert time.perf_counter() - start < 1, body
        assert code == expected, body
    assert "x1 = 1*1 + 1000000000*g1g2" in out


def test_one_parser_serves_every_call(files, monkeypatch):
    """``main`` builds its parser once per process; usage errors still go to
    the stderr of the call, and ``--rank`` reads the cap when it is parsed."""
    from superskel import cli

    code, out = run(["eval", files["f"], files["point"]])
    assert code == 0 and "x1 = 2*1 + 2*g1g2" in out
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["eval", files["f"]]) == 2
    assert err.getvalue().startswith("usage: superskel eval")
    monkeypatch.setenv("SUPERSKEL_MAX_RANK", "2")
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["check", "naturality", files["f"], "--rank", "3"]) == 2
    assert "argument --rank: must be between 0 and 2, got 3" in err.getvalue()
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli._parser()


def test_eval_high_power(files, tmp_path):
    power = tmp_path / "power.sk"
    power.write_text("source 1|2\ntarget 1|0\ny1 = x1^2000\n")
    code, out = run(["eval", str(power), files["point"], "--route", "both"])
    assert code == 0
    assert f"x1 = {2 ** 2000}*1 + {2000 * 2 ** 1999}*g1g2" in out


def test_selftest_single_suite():
    code, out = run(["selftest", "--suite", "gluing"])
    assert code == 0
    assert "PASS gluing" in out


def test_eval_dishonest_denominator_exits_1(tmp_path):
    """A denominator whose value has zero body at the point is a DomainError:
    exit 1 with one ``error:`` line, no traceback, on every route."""
    skeleton, point = tmp_path / "inv.sk", tmp_path / "zero.pt"
    skeleton.write_text("source 1|0\ntarget 1|0\ny1 = 1/x1\n")
    point.write_text("rank 2\nx1 = 1*g1g2\n")
    for route, message in (("subst", "a denominator has zero body at this point"),
                           ("both", "a denominator has zero body at this point"),
                           ("taylor", "denominator vanishes at body point")):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(["eval", str(skeleton), str(point), "--route", route])
        assert (code, out) == (1, ""), route
        assert err.getvalue().startswith(f"error: {message}"), route
        assert err.getvalue().count("\n") == 1, route
