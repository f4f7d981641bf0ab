import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import troprat
from troprat import (
    curve_to_divisor,
    divisor_sub,
    dual_subdivision,
    plane_curve,
    render_svg,
    stack_pair,
)
from troprat import cli
from troprat.cli import main
from conftest import UNIQUE_MIN_DEN, UNIQUE_MIN_NUM, p1, p2

HUGE = "99999999999999999999"

# a child process capped at 2 GB of address space, so that an input which
# allocates without bound fails its test instead of the test run
CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    "from troprat.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestVerbs:
    def test_vol(self, capsys):
        doc = run_json(capsys, "vol", "--num", "x + 0", "--den", "x + 1", "--vars", "x")
        assert doc["schema_version"] == "1"
        assert doc["result"]["volume"] == {"num": 1, "den": 1}

    def test_minrep(self, capsys):
        doc = run_json(
            capsys, "minrep", "--num", "(-2)x^2 + x + 0", "--den", "(-2)x^2 + x + 1"
        )
        assert doc["result"]["num"] == "x + 0"
        assert doc["result"]["den"] == "x + 1"

    def test_eval_bottom(self, capsys):
        doc = run_json(capsys, "eval", "--poly", "-inf", "--at", "3")
        assert doc["result"]["value"] == "-inf"

    def test_eval_rational_point(self, capsys):
        doc = run_json(capsys, "eval", "--poly", "x + y + 0", "--at", "1/2,3")
        assert doc["result"]["value"] == {"num": 3, "den": 1}

    def test_newt(self, capsys):
        doc = run_json(capsys, "newt", "--poly", UNIQUE_MIN_NUM)
        assert sorted(map(tuple, doc["result"]["vertices"])) == [
            (0, 1),
            (0, 2),
            (1, 0),
            (2, 0),
        ]

    def test_subdiv_and_mcomp(self, capsys):
        doc = run_json(capsys, "subdiv", "--poly", UNIQUE_MIN_NUM)
        assert doc["result"]["mcomp"] == 4
        assert len(doc["result"]["cells"]) == 1

    def test_comp_factors(self, capsys):
        doc = run_json(capsys, "comp", "--poly", "x + 0", "--poly", "y + 0", "--vars", "x,y")
        assert doc["result"]["mcomp"] == [2, 2]
        assert doc["result"]["fcomp"] == 3

    def test_divide(self, capsys):
        doc = run_json(capsys, "divide", "--num", "x^2 + x + 0", "--den", "x + 0")
        assert doc["result"]["quotient"] == "x + 0"
        doc = run_json(capsys, "divide", "--num", "x + 0", "--den", "x + 1")
        assert doc["result"]["quotient"] is None

    def test_factor(self, capsys):
        doc = run_json(capsys, "factor", "--poly", UNIQUE_MIN_NUM)
        lists = sorted(doc["result"]["factorizations"], key=len)
        assert len(lists) == 2 and len(lists[1]) == 2

    def test_factor_of_a_monomial(self, capsys):
        # a unit has itself (normalized) as its one factorization, and no
        # empty one
        doc = run_json(capsys, "factor", "--poly", "x*y")
        assert doc["result"]["factorizations"] == [["0"]]

    def test_divisor(self, capsys):
        doc = run_json(
            capsys, "divisor", "--num", UNIQUE_MIN_NUM, "--den", UNIQUE_MIN_DEN
        )
        kinds = {p["kind"] for p in doc["result"]["pieces"]}
        assert "ray" in kinds

    def test_divisor_segment_is_the_numerators_edge(self, capsys):
        num = "x*y + (-1)*y^2 + x + y + 0"
        doc = run_json(capsys, "divisor", "--num", num, "--den", "x + y + 0")
        (segment,) = [p for p in doc["result"]["pieces"] if p["kind"] == "segment"]
        (edge,) = plane_curve(p2(num)).edges
        assert (segment["a"], segment["b"], segment["weight"]) == (
            cli._point(edge.a), cli._point(edge.b), edge.weight
        )

    def test_check_duality(self, capsys):
        doc = run_json(
            capsys,
            "check-duality",
            "--num", "x + 0",
            "--den", "x + 1",
            "--count", "200",
            "--seed", "7",
        )
        assert doc["result"]["ok"] is True
        assert doc["result"]["total"] == 200
        assert doc["result"]["violations"] == []

    def test_check_duality_bottom_numerator(self, capsys):
        doc = run_json(
            capsys,
            "check-duality",
            "--num", "-inf",
            "--den", "x + 0",
            "--count", "100",
            "--seed", "7",
            "--vars", "x",
        )
        assert doc["result"]["ok"] is True and doc["result"]["total"] == 100

    def test_check_duality_two_variable_pair(self, capsys):
        from conftest import ALT_MIN_DEN_1, ALT_MIN_NUM_1

        doc = run_json(
            capsys,
            "check-duality",
            "--num", ALT_MIN_NUM_1,
            "--den", ALT_MIN_DEN_1,
            "--count", "300",
            "--seed", "7",
        )
        assert doc["result"]["ok"] is True

    def test_curve_verb(self, capsys):
        doc = run_json(capsys, "curve", "--poly", "x + y + 0")
        assert len(doc["result"]["rays"]) == 3
        assert doc["result"]["vertices"] == [[{"num": 0, "den": 1}, {"num": 0, "den": 1}]]


class TestDeterminismAndErrors:
    def test_byte_identical_output(self, capsys):
        args = ("subdiv", "--poly", UNIQUE_MIN_NUM)
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "eval", "--poly", "x + ", "--at", "3")
        assert code == 2 and "offset" in err and not out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eval", "--poly", "x^1.5", "--at", "1"), "exponent must be an integer (at offset 2)"),
            (
                ("eval", "--poly", "(1.5/2)*x", "--at", "1"),
                "rational literal parts must be integers (at offset 1)",
            ),
            (
                ("eval", "--poly", "x + /2", "--at", "1"),
                "'/' is only valid inside a parenthesized rational literal (at offset 4)",
            ),
            (
                ("eval", "--poly", "x + 0", "--vars", "x,x", "--at", "1"),
                "--vars must be distinct nonempty names (at offset 0)",
            ),
        ],
        ids=["fractional-exponent", "decimal-in-rational", "bare-slash", "repeated-vars"],
    )
    def test_positioned_diagnostics(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_zero_denominator_message(self, capsys):
        # The `cli` benchmark golden digests this exit code and stderr.  Aim 3
        # wants a positioned ParseError here instead; that change has to
        # recapture the golden in a change to the benchmark.
        with pytest.raises(ZeroDivisionError) as err:
            troprat.parse_poly("x*y + (1/0) + y", ("x", "y"))
        assert str(err.value) == "Fraction(1, 0)"
        assert run(capsys, "curve", "--poly", "x*y + (1/0) + y") == (
            2, "", "error: Fraction(1, 0)\n"
        )

    def test_validation_error_exit_code(self, capsys):
        code, _out, err = run(capsys, "curve", "--poly", "3*x^2*y")
        assert code == 2 and err

    def test_unknown_variable_exit(self, capsys):
        code, _out, err = run(capsys, "eval", "--poly", "q + w", "--at", "3")
        assert code == 2

    def test_point_outside_number_grammar_exit(self, capsys):
        for at in ("1e400", "1E2", "inf", "1_000", "0x10"):
            code, out, err = run(capsys, "eval", "--poly", "x + 0", "--at", at)
            assert code == 2 and not out and err.startswith("error: bad point"), at

    def test_newt_refuses_three_variables(self, capsys):
        # the Newton polygon of x*z + y + 0 is not its projection onto (x, y)
        assert run(capsys, "newt", "--poly", "x*z + y + 0") == (
            2, "", "error: newton_polygon needs arity 2\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--poly", "--", "--vars", "x,y"),
            ("eval", "--poly", "--", "--at", "1"),
            ("curve", "--poly", "--"),
            ("factor", "--poly=--", "--vars", "x,y"),
            ("check-duality", "--num", "x + 0", "--den", "x + 1", "--count=--"),
        ],
        ids=["factor", "eval", "curve", "factor-joined", "count-joined"],
    )
    def test_bare_double_dash_value_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "Traceback" not in err and "error:" in err.splitlines()[-1], err

    def test_render_missing_inputs_exit(self, capsys):
        for argv in (
            ("render", "--kind", "divisor", "--poly", "x + 0"),
            ("render", "--kind", "curve"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and err.startswith("error: "), argv

    def test_negative_count_exit(self, capsys):
        code, out, err = run(
            capsys, "check-duality", "--num", "x + 0", "--den", "x + 1", "--count", "-5"
        )
        assert code == 2 and not out and err.startswith("error: ")

    def test_count_above_the_limit_exits_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("samples drawn for a refused --count")

        monkeypatch.setattr(cli, "duality_samples", no_sampling)
        code, out, err = run(
            capsys, "check-duality", "--num", "x + 0", "--den", "x + 1", "--count", "1000000"
        )
        assert code == 2 and not out
        assert err == f"error: --count must be at most {cli.MAX_DUALITY_COUNT}, got 1000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("newt", "--poly", f"x^{HUGE}+y^{HUGE}+0"),
            ("curve", "--poly", f"x^{HUGE}+y+0"),
            ("subdiv", "--poly", f"x^{HUGE}+0"),
            ("divide", "--num", f"x^{HUGE}+y+0", "--den", "y+0"),
            ("divisor", "--num", f"x^{HUGE}+y+0", "--den", "y+0"),
        ],
        ids=["newt", "curve", "subdiv", "divide", "divisor"],
    )
    def test_huge_polygons_exit_within_a_budget(self, argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(troprat.__file__)))
        try:
            done = subprocess.run(
                [sys.executable, "-c", CAPPED_MAIN, *argv],
                capture_output=True, text=True, env=env, timeout=10,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"{argv[0]} still running after 10 s")
        assert done.returncode == 2 and not done.stdout
        assert done.stderr.startswith("error: "), done.stderr[-500:]


def _svg_root(text: str):
    return ET.fromstring(text)


NS = "{http://www.w3.org/2000/svg}"


class TestSvg:
    def test_pair_subdivision_two_cells(self, capsys):
        S = dual_subdivision(stack_pair(p1("x + 0"), p1("x + 1")))
        root = _svg_root(render_svg(S))
        polys = [el for el in root.iter(NS + "polygon")]
        assert len(polys) == 2

    def test_tropical_line_three_rays_no_labels(self):
        root = _svg_root(render_svg(plane_curve(p2("x + y + 0"))))
        rays = [el for el in root.iter(NS + "path") if el.get("class") == "ray"]
        labels = [el for el in root.iter(NS + "text")]
        assert len(rays) == 3 and not labels

    def test_divisor_weight_two_label(self):
        D = divisor_sub(
            curve_to_divisor(plane_curve(p2(UNIQUE_MIN_NUM))),
            curve_to_divisor(plane_curve(p2(UNIQUE_MIN_DEN))),
        )
        text = render_svg(D)
        root = _svg_root(text)
        labels = [el.text for el in root.iter(NS + "text")]
        assert "2" in labels

    def test_negative_weight_dashed(self):
        D = divisor_sub(
            curve_to_divisor(plane_curve(p2(UNIQUE_MIN_DEN))),
            curve_to_divisor(plane_curve(p2(UNIQUE_MIN_NUM))),
        )
        assert "stroke-dasharray" in render_svg(D)

    def test_cli_svg_flag(self, capsys):
        code, out, _ = run(capsys, "subdiv", "--poly", "x + y + 0", "--svg")
        assert code == 0 and out.startswith("<svg")
        code, out, _ = run(
            capsys, "render", "--kind", "divisor",
            "--num", UNIQUE_MIN_NUM, "--den", UNIQUE_MIN_DEN,
        )
        assert code == 0 and out.startswith("<svg")
