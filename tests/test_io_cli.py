"""JSON formats and the command-line driver: golden outputs, exit codes,
determinism, and the quadrature-tolerance environment override."""

import json

import numpy as np
import pytest

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
        assert auto(4.0) == pytest.approx(2.0, rel=1e-9)

    def test_monotone_rejects_unknown(self):
        with pytest.raises(DomainError):
            monotone_from_json({"family": "cubic"})
        with pytest.raises(DomainError):
            monotone_from_json({"gamma": 0.5})

    def test_mc_specs(self):
        assert mc_from_json({"kind": "bridge", "gamma": 0.5})(4.0, 9.0) == pytest.approx(1 / 6)
        canonical = mc_from_json(
            {"kind": "canonical", "c0": "auto", "h": {"breakpoints": [0.0, 1.0], "values": [0.0]}}
        )
        assert canonical(2.0, 4.0) == pytest.approx(1 / 3, rel=1e-10)
        via_f = mc_from_json({"kind": "from_f", "f": {"family": "gamma", "gamma": 1.0}})
        assert via_f(2.0, 4.0) == pytest.approx(0.375)

    def test_mc_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            mc_from_json({"kind": "mystery"})

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
        ],
    )
    def test_malformed_flags_exit_2(self, argv):
        assert main(argv) == 2

    def test_contraction_sampling_is_bounded(self, monkeypatch):
        def rejected(*args, **kwargs):
            raise NotAState("forced rejection")

        monkeypatch.setattr(monometric.verify, "monotonicity_trial", rejected)
        spec = MetricSpec(c=BridgeMC(0.5))
        with pytest.raises(DegenerateSample):
            monometric.verify._contraction_worst(spec, 0, 3, 0, 2, (2, 3))


class TestEnvironmentOverride:
    def test_loose_tolerance_still_close(self, files, capsys, monkeypatch):
        monkeypatch.setenv("MONOMETRIC_QUAD_TOL", "1e-6")
        assert main(["eval-f", "--h-file", files["const0"], "--beta", "auto", "--t", "3"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("value", ["banana", "-1e-9", "0"])
    def test_bad_value_exits_2(self, value, capsys, monkeypatch):
        monkeypatch.setenv("MONOMETRIC_QUAD_TOL", value)
        assert main(["eval-f", "--family", "gamma", "--gamma", "0.5", "--t", "4"]) == 2
