"""JSON formats and the command-line driver: golden outputs, exit codes,
determinism, and every malformed number in a spec or matrix file exiting 2."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import monometric.verify
from monometric import (
    BridgeMC,
    DegenerateSample,
    DomainError,
    MetricSpec,
    NotAState,
    QuadratureFailure,
)
from monometric.cli import fmt15, main
from monometric.io import (
    channel_from_json,
    channel_to_json,
    matrix_from_json,
    matrix_to_json,
    mc_from_json,
    monotone_from_json,
    weight_from_json,
    weight_to_json,
)
from monometric.sampling import random_step_weight


def _weight_with_breakpoint(value):
    return {"breakpoints": [0.0, value, 1.0], "values": [0.2, 0.7]}


_WEIGHT = _weight_with_breakpoint(0.5)

# one reader call per numeric field, the field filled with the given value
_NUMERIC_FIELDS = {
    "breakpoint": lambda v: weight_from_json(_weight_with_breakpoint(v)),
    "weight value": lambda v: weight_from_json({"breakpoints": [0.0, 1.0], "values": [v]}),
    "gamma": lambda v: monotone_from_json({"family": "gamma", "gamma": v}),
    "beta": lambda v: monotone_from_json({"h": _WEIGHT, "beta": v}),
    "bridge gamma": lambda v: mc_from_json({"kind": "bridge", "gamma": v}),
    "c0": lambda v: mc_from_json({"kind": "canonical", "h": _WEIGHT, "c0": v}),
    "matrix real part": lambda v: matrix_from_json([[[v, 0.0]]]),
    "matrix imaginary part": lambda v: matrix_from_json([[[0.0, v]]]),
}

_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "const0": write_json(tmp_path / "const0.json", {"breakpoints": [0.0, 1.0], "values": [0.0]}),
        "const1": write_json(tmp_path / "const1.json", {"breakpoints": [0.0, 1.0], "values": [1.0]}),
        "rho_half": write_json(
            tmp_path / "rho_half.json",
            [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        ),
        "rho_quarter": write_json(
            tmp_path / "rho_quarter.json",
            [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]],
        ),
        "sigma_x": write_json(
            tmp_path / "sigma_x.json",
            [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        ),
        "diag_pm": write_json(
            tmp_path / "diag_pm.json",
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        ),
        "zero2": write_json(
            tmp_path / "zero2.json",
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        ),
        "bad_rho": write_json(
            tmp_path / "bad_rho.json",
            [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ),
        "bridge0": write_json(tmp_path / "bridge0.json", {"kind": "bridge", "gamma": 0.0}),
        "tmp": tmp_path,
    }


class TestJsonFormats:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            [[[1.0, 0.0, 0.0]]],
            [[["x", 0.0]]],
            [[1.0, 2.0]],
            "nope",
        ],
    )
    def test_matrix_rejects_malformed(self, payload):
        with pytest.raises(DomainError):
            matrix_from_json(payload)

    def test_weight_round_trip(self):
        h = random_step_weight(np.random.default_rng(3))
        assert weight_from_json(weight_to_json(h)) == h

    @pytest.mark.parametrize(
        "payload",
        [
            {"breakpoints": [0.0, 1.0]},
            {"values": [0.5]},
            {"breakpoints": [0.0, 1.0], "values": [2.0]},
            {"breakpoints": [0.0], "values": []},
            {"breakpoints": "bad", "values": [0.5]},
            {"breakpoints": [0, math.nan, 1], "values": [0.5, 0.2]},
        ],
    )
    def test_weight_rejects_malformed(self, payload):
        with pytest.raises(DomainError):
            weight_from_json(payload)

    def test_monotone_specs(self):
        assert monotone_from_json({"family": "gamma", "gamma": 0.5})(4.0) == pytest.approx(2.0)
        assert monotone_from_json({"family": "min"})(3.0) == pytest.approx(1.5)
        assert monotone_from_json({"family": "max"})(3.0) == pytest.approx(2.0)
        auto = monotone_from_json(
            {"h": {"breakpoints": [0.0, 1.0], "values": [0.5]}, "beta": "auto"}
        )
        assert auto(4.0) == pytest.approx(2.0, rel=1e-9, abs=0.0)

    def test_monotone_rejects_unknown(self):
        with pytest.raises(DomainError):
            monotone_from_json({"family": "cubic"})
        with pytest.raises(DomainError):
            monotone_from_json({"gamma": 0.5})
        with pytest.raises(DomainError):
            monotone_from_json({"family": ["min"]})

    def test_mc_specs(self):
        assert mc_from_json({"kind": "bridge", "gamma": 0.5})(4.0, 9.0) == pytest.approx(1 / 6)
        canonical = mc_from_json(
            {"kind": "canonical", "c0": "auto", "h": {"breakpoints": [0.0, 1.0], "values": [0.0]}}
        )
        assert canonical(2.0, 4.0) == pytest.approx(1 / 3, rel=1e-10, abs=0.0)
        via_f = mc_from_json({"kind": "from_f", "f": {"family": "gamma", "gamma": 1.0}})
        assert via_f(2.0, 4.0) == pytest.approx(0.375)

    def test_mc_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            mc_from_json({"kind": "mystery"})

    @pytest.mark.parametrize("field", sorted(_NUMERIC_FIELDS))
    @given(value=_ANY_JSON)
    @example(value=10**400)
    @example(value=math.nan)
    def test_any_json_value_in_a_numeric_field(self, field, value):
        try:
            assert _NUMERIC_FIELDS[field](value) is not None
        except DomainError:
            pass

    def test_channel_round_trip(self):
        from monometric import random_channel

        ch = random_channel(3, 2, 2, seed=9)
        back = channel_from_json(channel_to_json(ch))
        assert all(np.array_equal(a, b) for a, b in zip(ch.operators, back.operators))


class TestFormatting:
    def test_integral_values_keep_decimal_point(self):
        assert fmt15(2.0) == "2.0"
        assert fmt15(0.0) == "0.0"
        assert fmt15(-3.0) == "-3.0"

    def test_fifteen_significant_digits(self):
        assert fmt15(1.0 / 6.0) == "0.166666666666667"
        assert fmt15(16.0 / 3.0) == "5.33333333333333"

    def test_exponential_and_special(self):
        assert fmt15(1e-20) == "1e-20"
        assert fmt15(float("inf")) == "inf"


class TestEvalF:
    def test_gamma_family(self, capsys):
        assert main(["eval-f", "--family", "gamma", "--gamma", "0.5", "--t", "4"]) == 0
        assert capsys.readouterr().out == "2.0\n"

    def test_normalization_at_one(self, capsys):
        assert main(["eval-f", "--family", "gamma", "--gamma", "0", "--t", "1"]) == 0
        assert capsys.readouterr().out == "1.0\n"

    def test_canonical_auto_beta(self, files, capsys):
        assert main(["eval-f", "--h-file", files["const0"], "--beta", "auto", "--t", "3"]) == 0
        assert capsys.readouterr().out == "2.0\n"

    def test_explicit_beta(self, files, capsys):
        import math

        beta = str(-0.5 * math.log(2.0))
        assert main(["eval-f", "--h-file", files["const0"], "--beta", beta, "--t", "3"]) == 0
        assert capsys.readouterr().out == "2.0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval-f", "--family", "gamma", "--gamma", "1.5", "--t", "2"],
            ["eval-f", "--family", "gamma", "--t", "2"],
            ["eval-f", "--t", "2"],
            ["eval-f", "--family", "gamma", "--gamma", "0.5", "--t", "-1"],
            ["eval-f", "--h-file", "/definitely/missing.json", "--t", "2"],
        ],
    )
    def test_malformed_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_shift_exits_2_without_traceback(self, files):
        # e^800 overflows a float; that is a domain error, not a crash
        cmd = [
            sys.executable, "-m", "monometric.cli",
            "eval-f", "--h-file", files["const1"], "--beta", "800", "--t", "2",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr

    def test_overflowing_value_exits_2_and_prints_nothing(self, files, capsys):
        # log f(1e10) = 709 + log((1 + 1e10)/sqrt(2)) is past log of the largest float
        assert main(["eval-f", "--h-file", files["const0"], "--beta", "709", "--t", "1e10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    def test_quadrature_failure_exits_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise QuadratureFailure("forced for the exit-code test")

        monkeypatch.setattr(monometric.verify, "integrate", broken)
        code = main(["verify", "--suite", "monotone", "--trials", "1"])
        assert code == 3
        assert "quadrature" in capsys.readouterr().err


class TestEvalC:
    def test_bridge_geometric(self, capsys):
        assert main(["eval-c", "--bridge", "0.5", "--x", "4", "--y", "9"]) == 0
        assert capsys.readouterr().out == "0.166666666666667\n"

    def test_bridge_smallest(self, capsys):
        assert main(["eval-c", "--bridge", "0", "--x", "2", "--y", "4"]) == 0
        assert capsys.readouterr().out == "0.333333333333333\n"

    def test_canonical_full_weight(self, files, capsys):
        code = main(["eval-c", "--h-file", files["const1"], "--c0", "auto", "--x", "2", "--y", "4"])
        assert code == 0
        assert capsys.readouterr().out == "0.375\n"

    def test_from_f(self, files, capsys):
        spec = write_json(files["tmp"] / "fmin.json", {"family": "min"})
        assert main(["eval-c", "--from-f", spec, "--x", "2", "--y", "4"]) == 0
        assert capsys.readouterr().out == "0.375\n"

    def test_requires_exactly_one_source(self, capsys):
        code = main(["eval-c", "--bridge", "0.5", "--from-f", "x.json", "--x", "1", "--y", "1"])
        assert code == 2

    def test_bridge_value_whose_factors_underflow(self, capsys):
        # x^-1 y^-1 underflows to 0, while c(x, x) = 1/x is a normal float
        assert main(["eval-c", "--bridge", "1", "--x", "1e300", "--y", "1e300"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1e-300, rel=1e-12, abs=0.0)

    def test_canonical_value_whose_argument_ratio_overflows(self, files, capsys):
        # 1e300 / 1e-10 is beyond the float range, while c = 1/sqrt(xy) is not
        half = write_json(files["tmp"] / "half.json", {"breakpoints": [0.0, 1.0], "values": [0.5]})
        assert main(["eval-c", "--h-file", half, "--c0", "auto", "--x", "1e-10", "--y", "1e300"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1e-145, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g, x", [("0", "5e-324"), ("1", "5e-324")])
    def test_overflowing_bridge_power_exits_2_and_prints_nothing(self, g, x, capsys):
        # c(x, x) = 1/x is past the float range; at g = 0 ((x + y)/2)^-1
        # overflows, at g = 1 the product x^-1 y^-1 does
        assert main(["eval-c", "--bridge", g, "--x", x, "--y", x]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")


class TestMetricCommand:
    def test_qubit_off_diagonal(self, files, capsys):
        code = main(
            ["metric", "--rho", files["rho_half"], "--a", files["sigma_x"], "--c-spec", files["bridge0"]]
        )
        assert code == 0
        assert capsys.readouterr().out == "4.0\n"

    def test_diagonal_tangent(self, files, capsys):
        code = main(
            ["metric", "--rho", files["rho_quarter"], "--a", files["diag_pm"], "--c-spec", files["bridge0"]]
        )
        assert code == 0
        assert capsys.readouterr().out == "5.33333333333333\n"

    def test_zero_tangent(self, files, capsys):
        code = main(
            ["metric", "--rho", files["rho_half"], "--a", files["zero2"], "--c-spec", files["bridge0"]]
        )
        assert code == 0
        assert capsys.readouterr().out == "0.0\n"

    def test_two_argument_form_prints_pair(self, files, capsys):
        code = main(
            [
                "metric",
                "--rho", files["rho_half"],
                "--a", files["sigma_x"],
                "--b", files["sigma_x"],
                "--c-spec", files["bridge0"],
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "4.0 0.0\n"

    def test_invalid_state_exits_4(self, files, capsys):
        code = main(
            ["metric", "--rho", files["bad_rho"], "--a", files["sigma_x"], "--c-spec", files["bridge0"]]
        )
        assert code == 4
        assert "not a valid state" in capsys.readouterr().err

    def test_non_hermitian_state_exits_4(self, files, capsys):
        skew_rho = write_json(
            files["tmp"] / "skew_rho.json",
            [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        )
        code = main(["metric", "--rho", skew_rho, "--a", files["sigma_x"], "--c-spec", files["bridge0"]])
        assert code == 4
        assert "not Hermitian" in capsys.readouterr().err

    def test_non_finite_state_exits_4(self, files, capsys):
        nan_rho = write_json(
            files["tmp"] / "nan_rho.json",
            [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        )
        code = main(["metric", "--rho", nan_rho, "--a", files["sigma_x"], "--c-spec", files["bridge0"]])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

    def test_huge_indefinite_state_exits_4(self, files, capsys):
        # eigenvalues 0.5 +- 1e160: its squared norm overflows a float
        huge_rho = write_json(
            files["tmp"] / "huge_rho.json",
            [[[0.5, 0.0], [1e160, 0.0]], [[1e160, 0.0], [0.5, 0.0]]],
        )
        code = main(["metric", "--rho", huge_rho, "--a", files["sigma_x"], "--c-spec", files["bridge0"]])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "smallest eigenvalue" in err


def _metric_argv(files, rho=None, c_spec=None):
    rho, c_spec = rho or files["rho_half"], c_spec or files["bridge0"]
    return ["metric", "--rho", rho, "--a", files["sigma_x"], "--c-spec", c_spec]


# where a bad number goes: (argv given the spec file, spec payload given the value)
_BAD_NUMBER_SITES = {
    "eval-f h breakpoint": (
        lambda path, files: ["eval-f", "--h-file", path, "--t", "2"],
        _weight_with_breakpoint,
    ),
    "eval-c h breakpoint": (
        lambda path, files: ["eval-c", "--h-file", path, "--x", "1", "--y", "2"],
        _weight_with_breakpoint,
    ),
    "eval-c from-f gamma": (
        lambda path, files: ["eval-c", "--from-f", path, "--x", "1", "--y", "2"],
        lambda v: {"family": "gamma", "gamma": v},
    ),
    "eval-c from-f beta": (
        lambda path, files: ["eval-c", "--from-f", path, "--x", "1", "--y", "2"],
        lambda v: {"h": _WEIGHT, "beta": v},
    ),
    "metric c-spec gamma": (
        lambda path, files: _metric_argv(files, c_spec=path),
        lambda v: {"kind": "bridge", "gamma": v},
    ),
    "metric c-spec c0": (
        lambda path, files: _metric_argv(files, c_spec=path),
        lambda v: {"kind": "canonical", "h": _WEIGHT, "c0": v},
    ),
    "metric c-spec breakpoint": (
        lambda path, files: _metric_argv(files, c_spec=path),
        lambda v: {"kind": "canonical", "h": _weight_with_breakpoint(v)},
    ),
    "metric rho entry": (
        lambda path, files: _metric_argv(files, rho=path),
        lambda v: [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [v, 0.0]]],
    ),
}


def _nan_tangent(files):
    return write_json(files["tmp"] / "nan_a.json", [[[0.0, 0.0], [math.nan, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])


def _big_tangent(files):
    return write_json(files["tmp"] / "big_a.json", [[[0.0, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.0, 0.0]]])


def _big_metric_argv(files):
    return ["metric", "--rho", files["rho_half"], "--a", _big_tangent(files), "--c-spec", files["bridge0"]]


# flags and tangents that parse as numbers but are not finite
_NON_FINITE_ARGV = {
    "metric tangent a": lambda files: [
        "metric", "--rho", files["rho_half"], "--a", _nan_tangent(files), "--c-spec", files["bridge0"]
    ],
    "metric tangent b": lambda files: _metric_argv(files) + ["--b", _nan_tangent(files)],
    "big-c nan": lambda files: _metric_argv(files) + ["--big-c", "nan"],
    "big-c inf": lambda files: _metric_argv(files) + ["--big-c", "inf"],
    "eval-c c0 inf": lambda files: ["eval-c", "--h-file", files["const1"], "--c0", "inf", "--x", "1", "--y", "2"],
    "eval-f t inf": lambda files: ["eval-f", "--family", "gamma", "--gamma", "1", "--t", "inf"],
    "eval-f beta nan": lambda files: ["eval-f", "--h-file", files["const1"], "--beta", "nan", "--t", "2"],
    "eval-c x inf": lambda files: ["eval-c", "--bridge", "1", "--x", "inf", "--y", "1"],
    "bridge-table x inf": lambda files: ["bridge-table", "--gammas", "0.5", "--x-grid", "inf", "--y-grid", "1"],
    # finite flags whose result is too large for a float
    "eval-c bridge overflow": lambda files: ["eval-c", "--bridge", "1", "--x", "5e-324", "--y", "5e-324"],
    "eval-c canonical overflow": lambda files: [
        "eval-c", "--h-file", files["const0"], "--c0", "1e300", "--x", "1e-300", "--y", "1e-300"
    ],
    "eval-c from-f overflow": lambda files: [
        "eval-c", "--from-f", write_json(files["tmp"] / "min.json", {"family": "gamma", "gamma": 1.0}),
        "--x", "1e-200", "--y", "1e-310",
    ],
    "bridge-table overflow": lambda files: [
        "bridge-table", "--gammas", "1", "--x-grid", "5e-324", "--y-grid", "5e-324"
    ],
    "metric overflow": lambda files: _big_metric_argv(files),
    "metric form overflow": lambda files: _big_metric_argv(files) + ["--b", _big_tangent(files)],
}


@pytest.mark.parametrize("case", list(_NON_FINITE_ARGV))
def test_non_finite_input_exits_2(case, files, capsys):
    assert main(_NON_FINITE_ARGV[case](files)) == 2
    assert "error:" in capsys.readouterr().err


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "bad", ["abc", [1], None, 10**400, True, False], ids=["str", "list", "null", "400-digit", "true", "false"]
    )
    @pytest.mark.parametrize("site", list(_BAD_NUMBER_SITES))
    def test_exits_2(self, site, bad, files, capsys):
        argv, payload = _BAD_NUMBER_SITES[site]
        path = write_json(files["tmp"] / "bad.json", payload(bad))
        assert main(argv(path, files)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "site, payload",
        [
            ("metric c-spec gamma", {"kind": "bridge", "gamma": True}),
            ("metric rho entry", [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
            ("eval-f h breakpoint", {"breakpoints": [False, True], "values": [True]}),
        ],
        ids=["bridge-gamma", "matrix-entry", "weight"],
    )
    def test_json_booleans_are_not_numbers(self, site, payload, files, capsys):
        argv, _ = _BAD_NUMBER_SITES[site]
        path = write_json(files["tmp"] / "bool.json", payload)
        assert main(argv(path, files)) == 2
        out, err = capsys.readouterr()
        assert out == "" and "is not a number" in err

    def test_integer_past_the_parser_digit_limit_exits_2(self, files, capsys):
        path = files["tmp"] / "huge.json"
        path.write_text('{"kind": "bridge", "gamma": ' + "1" * 5000 + "}")
        assert main(_metric_argv(files, c_spec=str(path))) == 2
        assert "error:" in capsys.readouterr().err


class TestBridgeTable:
    def test_golden_rows(self, capsys):
        assert main(["bridge-table", "--gammas", "0,1", "--x-grid", "1", "--y-grid", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "gamma,x,y,c\n0.0,1.0,1.0,1.0\n1.0,1.0,1.0,1.0\n"

    def test_row_order_and_monotonicity(self, capsys):
        assert (
            main(["bridge-table", "--gammas", "0,0.5,1", "--x-grid", "4", "--y-grid", "9"]) == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "gamma,x,y,c"
        assert lines[2].startswith("0.5,4.0,9.0,")
        assert lines[2].endswith("0.166666666666667")
        cs = [float(line.split(",")[3]) for line in lines[1:]]
        assert cs == sorted(cs)

    def test_grid_specs(self, capsys):
        assert (
            main(["bridge-table", "--gammas", "0", "--x-grid", "log:0.1:10:3", "--y-grid", "lin:1:2:2"])
            == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 3 * 2

    def test_no_carriage_returns(self, capsys):
        main(["bridge-table", "--gammas", "0", "--x-grid", "1,2", "--y-grid", "1"])
        assert "\r" not in capsys.readouterr().out

    def test_malformed_grid_exits_2(self, capsys):
        assert main(["bridge-table", "--gammas", "0", "--x-grid", "log:1:2", "--y-grid", "1"]) == 2
        assert main(["bridge-table", "--gammas", "zero", "--x-grid", "1", "--y-grid", "1"]) == 2
        assert "--gammas" in capsys.readouterr().err
        assert main(["bridge-table", "--gammas", "0", "--x-grid", "1,abc", "--y-grid", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--x-grid" in captured.err

    def test_bad_value_after_the_first_row_prints_no_rows(self, capsys):
        argv = ["bridge-table", "--gammas", "0.5", "--x-grid", "1,inf", "--y-grid", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestVerifyCommand:
    def test_single_suite_report_shape(self, capsys):
        assert main(["verify", "--suite", "channels", "--trials", "1", "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [s["suite"] for s in report["suites"]] == ["channels"]
        names = [p["name"] for p in report["suites"][0]["properties"]]
        assert names == sorted(set(names), key=names.index)  # unique, fixed order
        assert "falsification-power" in names

    def test_deterministic_stdout(self, capsys):
        main(["verify", "--suite", "metric", "--trials", "8", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "metric", "--trials", "8", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_injected_counterexample_fails(self, capsys):
        code = main(
            ["verify", "--suite", "monotone", "--trials", "5", "--seed", "7", "--inject-counterexample"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        failing = [
            p["name"]
            for s in report["suites"]
            for p in s["properties"]
            if not p["passed"]
        ]
        assert failing == ["operator-monotonicity"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "bogus"],
            ["verify", "--trials", "0"],
            ["verify", "--dims", "1,9"],
            ["verify", "--dims", "two"],
            ["verify", "--dims", ","],
        ],
    )
    def test_malformed_flags_exit_2(self, argv):
        assert main(argv) == 2

    def test_sampler_that_gives_up_exits_5(self, capsys, monkeypatch):
        def exhausted(draws):
            return [DegenerateSample("forced for the exit-code test") for _ in draws]

        monkeypatch.setattr(monometric.verify, "random_channel_each", exhausted)
        assert main(["verify", "--suite", "channels", "--trials", "1"]) == 5
        assert "sampler gave up" in capsys.readouterr().err

    def test_contraction_sampling_is_bounded(self, monkeypatch):
        def rejected(spec, channels, states, tangents):
            return [NotAState("forced rejection") for _ in channels]

        monkeypatch.setattr(monometric.verify, "monotonicity_trial_each", rejected)
        spec = MetricSpec(c=BridgeMC(0.5))
        run = monometric.verify._Run("channels", seed=0, trials=2, dims=(2, 3), prop=3)
        with pytest.raises(DegenerateSample, match="0 of 2 contraction trials accepted after 20 draws"):
            monometric.verify._contraction_worst(run, spec, 0, 2)
