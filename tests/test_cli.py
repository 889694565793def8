import io
import time
from contextlib import redirect_stdout

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


def test_glue_check(files):
    code, _ = run(["glue", "check", files["line"], "--samples", "8"])
    assert code == 0
    code, _ = run(["glue", "check", files["bad"], "--samples", "4"])
    assert code == 1


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
