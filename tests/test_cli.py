import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from dpsampler.cli import _COMMANDS, _FIELDS, _PARSER, ExperimentConfig, main, run, table_sweep
from dpsampler.core import RandomSource, read_vector_csv, write_kary_csv, write_vector_csv
import dpsampler.gaussian
from dpsampler.errors import ConfigInvalid, ValidationError
from dpsampler.gaussian import (
    GAUSSIAN_CALIBRATIONS,
    PureGaussianSamplerParams,
    pure_gaussian_sample,
    zcdp_bounded_cov_sample,
    zcdp_known_cov_sample,
)
from dpsampler.kary import KARY_CALIBRATIONS, shurr_weak_complexity


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv) -> int:
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def kary_file(tmp_path):
    path = tmp_path / "kary.csv"
    gen = np.random.default_rng(80)
    write_kary_csv(path, gen.integers(1, 4, size=200))
    return path


@pytest.fixture
def vector_file(tmp_path):
    path = tmp_path / "vec.csv"
    gen = np.random.default_rng(81)
    write_vector_csv(path, gen.normal(0.0, 1.0, size=(300, 1)))
    return path


class TestComplexityCommand:
    def test_kary_single_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["complexity", "--family", "kary", "--task", "single",
             "--k", "10", "--alpha", "0.1", "--eps", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["derived"]["n_required"] == 81
        assert report["outputs"]["report"]["formula_name"] == "kary_single"

    def test_gaussian_tasks(self, capsys):
        for task, expected in [("pure", 214), ("zcdp-known", 8)]:
            code, out, _ = run_cli(
                capsys,
                ["complexity", "--family", "gaussian", "--task", task,
                 "--dim", "1", "--R", "1", "--alpha", "0.1", "--eps", "1"],
            )
            assert code == 0
            assert json.loads(out)["derived"]["n_required"] == expected

    def test_missing_parameter_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, ["complexity", "--family", "kary", "--task", "single", "--k", "10"]
        )
        assert code == 1
        assert "missing required parameter" in err

    @pytest.mark.parametrize("task", ["pure", "zcdp-known", "zcdp-bounded"])
    def test_complexity_at_infinite_eps_exits_one(self, capsys, task):
        code, stdout, err = run_cli(
            capsys,
            ["complexity", "--family", "gaussian", "--task", task,
             "--dim", "2", "--R", "1", "--alpha", "0.1", "--eps", "inf"],
        )
        assert code == 1
        assert stdout == ""
        assert "eps must be finite and positive" in err


class TestSampleKary:
    def test_too_many_outputs_exit_one(self, capsys, kary_file):
        code, _, err = run_cli(
            capsys,
            ["sample-kary", "--mode", "shuffle", "--in", str(kary_file),
             "--eps", "300", "--delta", "0.5", "--m", "500", "--seed", "1"],
        )
        assert code == 1
        assert "m=500" in err

    def test_deterministic_artifacts(self, capsys, kary_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys,
                ["sample-kary", "--mode", "shuffle", "--in", str(kary_file),
                 "--eps", "300", "--delta", "0.5", "--m", "50",
                 "--seed", "7", "--out", str(out)],
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sub_mode_reports_eps0(self, capsys, kary_file):
        code, out, _ = run_cli(
            capsys,
            ["sample-kary", "--mode", "sub", "--in", str(kary_file),
             "--eps", "1", "--seed", "3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["derived"]["eps0"] == pytest.approx(math.log(200.0))
        assert len(report["outputs"]["values"]) == 1

    def test_shuffle_mode_reports_the_calibration(self, capsys, kary_file):
        code, out, _ = run_cli(
            capsys,
            ["sample-kary", "--mode", "shuffle", "--in", str(kary_file),
             "--eps", "300", "--delta", "0.5", "--m", "5", "--seed", "3"],
        )
        assert code == 0
        derived = json.loads(out)["derived"]
        assert derived == {"k": 3, "n": 200,
                           **KARY_CALIBRATIONS["shuffle"].derived(300.0, 0.5, 200, 3)}
        assert set(derived) == {"k", "n", "eps0", "f_value", "eps1"}

    def test_shuffle_below_its_smallest_n_exits_one(self, capsys, kary_file):
        # n = 200 at eps = 4, delta = 0.3 leaves ln(f^2 n / ln(4/delta) - 1) undefined
        code, _, err = run_cli(
            capsys,
            ["sample-kary", "--mode", "shuffle", "--in", str(kary_file),
             "--eps", "4", "--delta", "0.3", "--m", "5", "--seed", "3"],
        )
        assert code == 1
        assert "need n >= 498 at" in err

    def test_seed_required(self, capsys, kary_file):
        with pytest.raises(SystemExit) as exc:
            main(["sample-kary", "--mode", "sub", "--in", str(kary_file), "--eps", "1"])
        assert exc.value.code == 1

    def test_combinator_modes(self, capsys, kary_file):
        for mode, extra in [
            ("repeat", []),
            ("both", []),
            ("precision", ["--delta", "0.5"]),
        ]:
            code, out, _ = run_cli(
                capsys,
                ["sample-kary", "--mode", mode, "--in", str(kary_file),
                 "--eps", "300", "--m", "3", "--alpha", "0.5", "--seed", "5"] + extra,
            )
            assert code == 0
            assert len(json.loads(out)["outputs"]["values"]) == 3


class TestSampleGaussian:
    def test_pure_variant_writes_rows(self, capsys, vector_file, tmp_path):
        out = tmp_path / "samples.csv"
        code, stdout, _ = run_cli(
            capsys,
            ["sample-gaussian", "--variant", "pure", "--in", str(vector_file),
             "--R", "1", "--alpha", "0.1", "--eps", "1", "--count", "5",
             "--seed", "11", "--out", str(out)],
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 5
        report = json.loads(stdout)
        assert report["derived"]["B"] == pytest.approx(1 + 2 * math.sqrt(math.log(10)))

    def test_zcdp_variants(self, capsys, vector_file):
        # d = 1, n = 300, R = 1, alpha = 0.1; at eps = 2 the bounded sampler needs 120 rows
        expected = {
            "zcdp-known": (1 + math.sqrt(2 * (1 + math.log(10))), 299 / 300),
            "zcdp-bounded": (1 + math.sqrt(2 * math.log(20)), 0.1 / 4),
        }
        for variant, (B, sigma2) in expected.items():
            code, stdout, _ = run_cli(
                capsys,
                ["sample-gaussian", "--variant", variant, "--in", str(vector_file),
                 "--R", "1", "--alpha", "0.1", "--eps", "2", "--seed", "12"],
            )
            assert code == 0
            derived = json.loads(stdout)["derived"]
            assert derived["B"] == pytest.approx(B, rel=1e-12)
            assert derived["sigma2"] == pytest.approx(sigma2, rel=1e-12)

    def test_once_mode_replays_library_calls(self, capsys, vector_file, tmp_path):
        data = read_vector_csv(vector_file)
        R, alpha, eps, seed = 1.0, 0.1, 2.0, 15
        direct = {
            "pure": lambda rng: pure_gaussian_sample(
                data, PureGaussianSamplerParams(R=R, d=1, alpha=alpha, eps=eps), rng
            ),
            "zcdp-known": lambda rng: zcdp_known_cov_sample(
                data, R=R, alpha=alpha, eps=eps, rng=rng
            ),
            "zcdp-bounded": lambda rng: zcdp_bounded_cov_sample(
                data, R=R, alpha=alpha, eps=eps, rng=rng
            ),
        }
        for variant, draw in direct.items():
            out = tmp_path / f"{variant}.csv"
            code, _, _ = run_cli(
                capsys,
                ["sample-gaussian", "--variant", variant, "--mode", "once", "--count", "3",
                 "--in", str(vector_file), "--R", str(R), "--alpha", str(alpha),
                 "--eps", str(eps), "--seed", str(seed), "--out", str(out)],
            )
            assert code == 0
            expected = np.vstack([draw(RandomSource(seed).child(i)) for i in range(3)])
            assert np.array_equal(read_vector_csv(out).rows, expected), variant

    def test_repeated_releases_clip_once(self, capsys, monkeypatch, vector_file):
        clip_rows = dpsampler.gaussian._clip_rows
        calls = []

        def counting_clip_rows(rows, B):
            calls.append(B)
            return clip_rows(rows, B)

        monkeypatch.setattr(dpsampler.gaussian, "_clip_rows", counting_clip_rows)
        for variant in ("pure", "zcdp-known", "zcdp-bounded"):
            calls.clear()
            code, _, _ = run_cli(
                capsys,
                ["sample-gaussian", "--variant", variant, "--count", "10",
                 "--in", str(vector_file), "--R", "1", "--alpha", "0.1", "--eps", "2",
                 "--seed", "17"],
            )
            assert code == 0
            assert len(calls) == 1, variant

    @pytest.mark.parametrize("variant", ["zcdp-known", "zcdp-bounded"])
    @pytest.mark.parametrize("flag, value", [
        ("--eps", "-1"), ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--R", "-10"), ("--R", "inf"),
    ])
    def test_invalid_zcdp_parameters_exit_one(self, capsys, vector_file, tmp_path,
                                              variant, flag, value):
        params = {"variant": variant, "mode": "once", "count": 1, "alpha": 0.1,
                  "eps": 1.0, "R": 1.0, flag.lstrip("-"): float(value)}
        with pytest.raises(ValidationError):
            run(ExperimentConfig(task="sample-gaussian", params=params,
                                 input_path=str(vector_file), seed=18))
        out = tmp_path / "never.csv"
        # argparse keeps the last value given for a flag
        code, stdout, err = run_cli(
            capsys,
            ["sample-gaussian", "--variant", variant, "--in", str(vector_file),
             "--alpha", "0.1", "--eps", "1", "--R", "1", "--seed", "18", "--out", str(out),
             flag, value],
        )
        assert code == 1
        assert stdout == ""
        assert "must be finite and positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--eps", "--R"])
    def test_infinite_pure_parameters_exit_one(self, capsys, vector_file, tmp_path, flag):
        out = tmp_path / "never.csv"
        code, stdout, err = run_cli(
            capsys,
            ["sample-gaussian", "--variant", "pure", "--in", str(vector_file),
             "--alpha", "0.1", "--eps", "1", "--R", "1", "--seed", "19", "--out", str(out),
             flag, "inf"],
        )
        assert code == 1
        assert stdout == ""
        assert f"{flag.lstrip('-')} must be finite and positive" in err
        assert not out.exists()

    def test_non_finite_input_exits_one(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.5\n" * 50 + "nan\n" + "0.5\n" * 49)
        code, _, err = run_cli(
            capsys,
            ["sample-gaussian", "--variant", "pure", "--in", str(path),
             "--R", "1", "--alpha", "0.1", "--eps", "1", "--seed", "16"],
        )
        assert code == 1
        assert "row index 50" in err

    def test_bounded_refuses_fewer_rows_than_its_calibration(self, capsys, vector_file, tmp_path):
        # at eps = 1 the bounded sampler's noise is calibrated for 477 rows, not 300
        out = tmp_path / "never.csv"
        code, stdout, err = run_cli(
            capsys,
            ["sample-gaussian", "--variant", "zcdp-bounded", "--in", str(vector_file),
             "--R", "1", "--alpha", "0.1", "--eps", "1", "--seed", "12", "--out", str(out)],
        )
        assert code == 1
        assert stdout == ""
        assert "n >= 477" in err and "n=300" in err
        assert not out.exists()

    def test_kary_tasks_come_from_the_calibration_table(self):
        rows = _COMMANDS["complexity"].rows
        assert {task: row.requires[2:] for (family, task), row in rows.items()
                if family == "kary"} == {
            task: cal.inputs for cal in KARY_CALIBRATIONS.values() for task in cal.bounds
        }
        assert [task for family, task in rows if family == "kary"] == ["single", "weak", "strong"]

    @pytest.mark.parametrize("task", ["single", "weak", "strong"])
    def test_kary_counts_given_as_floats_are_cast(self, task):
        # JSON configs may carry k = 4.0 and m = 8.0; each task is given its inputs only
        values = {"k": 4, "alpha": 0.1, "eps": 2.0, "delta": 1e-6, "m": 8}
        inputs = next(cal.inputs for cal in KARY_CALIBRATIONS.values() if task in cal.bounds)
        params = {"family": "kary", "task": task, **{name: values[name] for name in inputs}}
        as_ints = run(ExperimentConfig(task="complexity", params=params))
        as_floats = run(ExperimentConfig(task="complexity", params={
            name: float(value) if name in ("k", "m") else value for name, value in params.items()}))
        inputs = as_floats.outputs["report"]["inputs"]
        assert inputs == as_ints.outputs["report"]["inputs"]
        assert all(type(inputs[name]) is int for name in ("k", "m") if name in inputs)
        assert as_floats.derived == as_ints.derived

    def test_variant_names_are_one_set(self):
        def variants(command):
            return list(_COMMANDS[command].flag("variant").choices)

        names = list(GAUSSIAN_CALIBRATIONS)
        gaussian_tasks = [task for family, task in _COMMANDS["complexity"].rows
                          if family == "gaussian"]
        assert variants("sample-gaussian") == gaussian_tasks == names
        assert variants("audit") == [v for v in names if GAUSSIAN_CALIBRATIONS[v].zcdp]

    def test_multisampling_modes(self, capsys, vector_file):
        for variant in ("pure", "zcdp-known", "zcdp-bounded"):
            for mode in ("repeat", "both"):
                code, stdout, _ = run_cli(
                    capsys,
                    ["sample-gaussian", "--variant", variant, "--mode", mode,
                     "--in", str(vector_file), "--R", "1", "--alpha", "0.4",
                     "--eps", "5", "--m", "3", "--seed", "14"],
                )
                assert code == 0, (variant, mode)
                assert json.loads(stdout)["outputs"]["count"] == 3


class TestElapCommand:
    def test_sampling_to_csv(self, capsys, tmp_path):
        out = tmp_path / "elap.csv"
        code, _, _ = run_cli(
            capsys,
            ["elap", "--dim", "3", "--scale", "2.0", "--count", "10",
             "--seed", "2", "--out", str(out)],
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 10 and len(rows[0].split(",")) == 3

    def test_tail_query(self, capsys):
        code, out, _ = run_cli(
            capsys, ["elap", "--tail", "--dim", "3", "--scale", "1.0", "--alpha", "0.1"]
        )
        assert code == 0
        derived = json.loads(out)["derived"]
        assert derived["tail_radius"] == pytest.approx(3 * math.log(30.0))
        assert derived["exact_tail"] <= 0.1

    @pytest.mark.parametrize("scale, message", [
        ("1e308", "tail radius d*b*ln(d/alpha) is beyond the largest float"),
        ("1e-320", "scale must be >= 5.56268464626801e-309, the smallest whose rate 1/scale"
                   " is a finite float, got 1e-320"),
    ], ids=["radius-overflows", "rate-overflows"])
    def test_tail_beyond_the_float_range_exits_one(self, capsys, scale, message):
        code, out, err = run_cli(
            capsys, ["elap", "--tail", "--dim", "3", "--scale", scale, "--alpha", "0.1"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestTvdistCommand:
    def test_report_shape(self, capsys, tmp_path):
        gen = np.random.default_rng(83)
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        write_vector_csv(p, gen.normal(size=(2000, 1)))
        write_vector_csv(q, gen.normal(size=(2000, 1)))
        code, out, _ = run_cli(
            capsys, ["tvdist", "--p", str(p), "--q", str(q), "--bins", "30", "--seed", "4"]
        )
        assert code == 0
        report = json.loads(out)["outputs"]["report"]
        assert set(report) == {"estimate", "halfwidth", "bins"}
        assert report["estimate"] < 0.2


class TestAuditCommand:
    def test_rr_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["audit", "--mechanism", "rr", "--k", "3", "--eps0", "1.0"])
        assert code == 0
        assert json.loads(out)["outputs"]["report"]["verdict"] == "pass"

    def test_subrr_fail_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--mechanism", "subrr", "--k", "2", "--n", "2",
             "--eps", "1.0", "--claimed-eps", "0.1"],
        )
        assert code == 2
        assert json.loads(out)["outputs"]["report"]["verdict"] == "fail"

    @pytest.mark.parametrize("argv", [
        ["--mechanism", "rr", "--k", "3", "--eps0", "40"],
        ["--mechanism", "subrr", "--k", "3", "--n", "2", "--eps", "1e17"],
    ])
    def test_underflowed_rr_mass_fails_with_inf(self, capsys, argv):
        # keep_prob rounds to 1.0: the release is the identity, an unbounded ratio
        code, out, _ = run_cli(capsys, ["audit"] + argv)
        assert code == 2
        report = json.loads(out)["outputs"]["report"]
        assert report["verdict"] == "fail"
        assert report["measured"] == math.inf

    def test_shurr_fail_exit_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--mechanism", "shurr", "--k", "2", "--n", "10",
             "--eps", "0.05", "--delta", "0.001", "--eps0", "12.0"],
        )
        assert code == 2
        report = json.loads(out)["outputs"]["report"]
        assert report["verdict"] == "fail"
        assert "advisory" not in report

    @pytest.mark.parametrize("mechanism, argv", [
        ("rr", ["--k", "3", "--eps0", "1", "--claimed-eps", "0.5"]),
        ("subrr", ["--k", "2", "--n", "2", "--eps", "1", "--claimed-eps", "0.1"]),
        ("shurr", ["--k", "2", "--n", "10", "--eps", "0.05", "--delta", "0.001",
                   "--eps0", "12"]),
        ("elap", ["--dim", "2", "--B", "1", "--eps", "1", "--seed", "13"]),
        ("zcdp", ["--variant", "zcdp-bounded", "--dim", "2", "--R", "1", "--alpha", "0.1",
                  "--eps", "1"]),
    ])
    def test_every_failing_verdict_exits_two(self, capsys, monkeypatch, mechanism, argv):
        if mechanism == "elap":
            # the ELap audit's realized-shift bound equals its measured value,
            # so no input fails it; plant a failing verdict on a real report
            audit = dpsampler.cli.audit_elap_mechanism
            monkeypatch.setattr(dpsampler.cli, "audit_elap_mechanism",
                                lambda *args: dataclasses.replace(audit(*args), verdict="fail"))
        code, out, _ = run_cli(capsys, ["audit", "--mechanism", mechanism] + argv)
        report = json.loads(out)["outputs"]["report"]
        assert report["verdict"] == "fail"
        assert code == 2
        assert "advisory" not in report

    def test_elap_audit_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--mechanism", "elap", "--dim", "2", "--B", "1.0",
             "--eps", "1.0", "--seed", "13"],
        )
        assert code == 0

    def test_zcdp_audit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--mechanism", "zcdp", "--variant", "zcdp-known", "--dim", "2",
             "--R", "1", "--alpha", "0.1", "--eps", "1"],
        )
        assert code == 0
        assert json.loads(out)["outputs"]["report"]["witness"]["n"] == 9

    def test_zcdp_bounded_audit_fails_at_its_own_n(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--mechanism", "zcdp", "--variant", "zcdp-bounded", "--dim", "2",
             "--R", "1", "--alpha", "0.1", "--eps", "1"],
        )
        assert code == 2
        details = json.loads(out)["derived"]
        assert 5.8 < details["measured"] / details["bound"] < 6.0


class TestSweep:
    def test_single_cell_matches_direct_call(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys,
            ["sweep", "--family", "kary", "--k", "10", "--alpha", "0.1",
             "--eps", "1", "--delta", "1e-6", "--m", "5", "--out", str(out)],
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        single = KARY_CALIBRATIONS["sub"].complexity("single", 10, 0.1, 1.0)
        assert int(cols["kary_single"]) == single.n_required
        assert int(cols["kary_weak"]) == shurr_weak_complexity(10, 0.1, 1.0, 1e-6, 5).n_required

    def test_single_vs_weak_crossover(self):
        # repetition costs m * n_single; the shuffled bound is flat in m until
        # m itself dominates, so it wins exactly once m exceeds fixed/n_single
        k, alpha, eps, delta = 10, 0.1, 0.5, 1e-6
        n_single = KARY_CALIBRATIONS["sub"].complexity("single", k, alpha, eps).n_required
        fixed = shurr_weak_complexity(k, alpha, eps, delta, 1).n_required
        m_star = math.ceil(fixed / n_single)
        header, rows = table_sweep(
            "kary",
            {"k": [k], "alpha": [alpha], "eps": [eps], "delta": [delta],
             "m": [max(1, m_star // 2), 2 * m_star]},
        )
        idx = {name: i for i, name in enumerate(header)}
        low_m, high_m = rows[0], rows[1]
        assert low_m[idx["m"]] * n_single < low_m[idx["kary_weak"]]
        assert high_m[idx["m"]] * n_single > high_m[idx["kary_weak"]]

    def test_strong_weak_ratio_tracks_m(self):
        k, alpha, eps, delta = 10, 0.1, 0.5, 1e-6
        for m in (10, 100):
            header, rows = table_sweep(
                "kary", {"k": [k], "alpha": [alpha], "eps": [eps], "delta": [delta], "m": [m]}
            )
            idx = {name: i for i, name in enumerate(header)}
            ratio = rows[0][idx["kary_strong"]] / rows[0][idx["kary_weak"]]
            assert ratio == pytest.approx(m, rel=1e-6)

    def test_gaussian_family(self):
        header, rows = table_sweep(
            "gaussian", {"dim": [1, 2], "R": [1.0], "alpha": [0.1], "eps": [1.0]}
        )
        assert len(rows) == 2
        assert header[-3:] == ["gaussian_pure", "gaussian_zcdp_known", "gaussian_zcdp_bounded"]

    def test_columns_match_complexity_command(self):
        grids = {
            "kary": ({"k": [10], "alpha": [0.1], "eps": [0.5], "delta": [1e-6], "m": [7]},
                     ["single", "weak", "strong"]),
            "gaussian": ({"dim": [3], "R": [2.0], "alpha": [0.05], "eps": [0.7]},
                         ["pure", "zcdp-known", "zcdp-bounded"]),
        }
        for family, (grid, tasks) in grids.items():
            header, rows = table_sweep(family, grid)
            cell = {key: values[0] for key, values in grid.items()}
            for task in tasks:
                # each task is given only the inputs its row reads
                inputs = _COMMANDS["complexity"].rows[family, task].requires[2:]
                report = run(ExperimentConfig(task="complexity", params={
                    "family": family, "task": task, **{name: cell[name] for name in inputs}}))
                column = f"{family}_{task.replace('-', '_')}"
                assert report.derived["n_required"] == rows[0][header.index(column)], column

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigInvalid):
            table_sweep("kary", {})

    @pytest.mark.parametrize("k, m, name", [(4.5, 8.5, "k"), (4, 8.5, "m")])
    def test_non_integral_kary_counts_refused(self, k, m, name):
        grid = {"k": [k], "alpha": [0.1], "eps": [1.0], "delta": [1e-6], "m": [m]}
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got"):
            table_sweep("kary", grid)


class TestRejectedParameters:
    @pytest.mark.parametrize("argv, m", [
        (["sample-kary", "--mode", "repeat", "--eps", "1", "--alpha", "0.4", "--m", "0"], 0),
        (["sample-kary", "--mode", "both", "--eps", "1", "--alpha", "0.4", "--m", "0"], 0),
        (["sample-kary", "--mode", "precision", "--eps", "4", "--delta", "0.3", "--alpha", "0.8",
          "--m", "0"], 0),
        (["sample-gaussian", "--variant", "pure", "--mode", "repeat", "--R", "1", "--alpha",
          "0.4", "--eps", "5", "--m", "0"], 0),
        (["sample-gaussian", "--variant", "pure", "--mode", "both", "--R", "1", "--alpha",
          "0.4", "--eps", "5", "--m", "-3"], -3),
    ], ids=["kary-repeat-0", "kary-both-0", "kary-precision-0", "gaussian-repeat-0",
            "gaussian-both--3"])
    def test_combinators_refuse_m_below_one(self, capsys, kary_file, vector_file, tmp_path,
                                            argv, m):
        # the combinator refuses m before it draws, or divides alpha by it
        source = kary_file if argv[0] == "sample-kary" else vector_file
        out = tmp_path / "never.csv"
        code, stdout, err = run_cli(
            capsys, argv + ["--in", str(source), "--seed", "1", "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err == f"error: m must be >= 1, got {m}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--variant", "pure", "--count", "0"],
        ["--variant", "pure", "--c", "0"],
        ["--variant", "zcdp-known", "--c", "3"],
        ["--variant", "pure", "--mode", "precision", "--m", "3"],
        ["--variant", "pure", "--mode", "repeat", "--m", "3", "--count", "0"],
        ["--variant", "zcdp-known", "--mode", "both", "--m", "3", "--count", "2"],
        ["--variant", "pure", "--m", "3"],
    ], ids=["count-0", "c-0", "zcdp-known-c-3", "mode-precision", "repeat-count-0",
            "both-count-2", "once-m-3"])
    def test_sample_gaussian_exits_one(self, capsys, vector_file, tmp_path, argv):
        out = tmp_path / "never.csv"
        code = exit_code(
            ["sample-gaussian", "--in", str(vector_file), "--R", "1", "--alpha", "0.4",
             "--eps", "5", "--seed", "1", "--out", str(out)] + argv
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--mechanism", "shurr", "--k", "2", "--n", "2301", "--eps", "4.0", "--delta", "0.01",
         "--runs", "0"],
        ["--mechanism", "elap", "--dim", "2", "--B", "1.0", "--eps", "1.0", "--seed", "13",
         "--probes", "0"],
        ["--mechanism", "elap", "--dim", "0", "--B", "1.0", "--eps", "1.0", "--seed", "13"],
        ["--mechanism", "zcdp", "--variant", "pure", "--dim", "2", "--R", "1", "--alpha", "0.1",
         "--eps", "1"],
        ["--mechanism", "zcdp", "--variant", "zcdp-known", "--dim", "2", "--R", "1",
         "--alpha", "0.1", "--eps", "inf"],
        ["--mechanism", "rr", "--k", "3", "--eps0", "inf"],
    ], ids=["runs-0", "probes-0", "elap-dim-0", "zcdp-pure-variant", "zcdp-eps-inf",
            "rr-eps0-inf"])
    def test_audit_exits_one(self, capsys, argv):
        # --probes and --runs are retired, so "probes-0" and "runs-0" are now
        # unrecognized arguments
        assert exit_code(["audit"] + argv) == 1

    def test_probes_flag_is_a_usage_error(self, capsys):
        code = exit_code(["audit", "--mechanism", "elap", "--dim", "2", "--B", "1.0",
                          "--eps", "1.0", "--seed", "13", "--probes", "10000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "unrecognized arguments: --probes 10000" in captured.err

    def test_runs_flag_is_a_usage_error(self, capsys):
        code = exit_code(["audit", "--mechanism", "rr", "--k", "3", "--eps0", "1",
                          "--runs", "20000"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "unrecognized arguments: --runs 20000" in captured.err

    @pytest.mark.parametrize("argv, unread", [
        (["--mechanism", "zcdp", "--variant", "zcdp-known", "--dim", "2", "--R", "1",
          "--alpha", "0.1", "--eps", "1", "--n", "10", "--B", "5"], "--n, --B"),
        (["--mechanism", "rr", "--k", "3", "--eps0", "1", "--dim", "7"], "--dim"),
        (["--mechanism", "subrr", "--k", "2", "--n", "2", "--eps", "1", "--eps0", "1"],
         "--eps0"),
        (["--mechanism", "shurr", "--k", "2", "--n", "10", "--eps", "0.05",
          "--delta", "0.001", "--claimed-eps", "1"], "--claimed-eps"),
        (["--mechanism", "elap", "--dim", "2", "--B", "1", "--eps", "1", "--seed", "13",
          "--R", "1", "--alpha", "0.1"], "--R, --alpha"),
        # only the ELap audit draws random numbers
        (["--mechanism", "rr", "--k", "3", "--eps0", "1", "--seed", "5"], "--seed"),
        (["--mechanism", "subrr", "--k", "2", "--n", "2", "--eps", "1", "--seed", "5"],
         "--seed"),
        (["--mechanism", "shurr", "--k", "2", "--n", "10", "--eps", "0.05",
          "--delta", "0.001", "--seed", "5"], "--seed"),
        (["--mechanism", "zcdp", "--variant", "zcdp-known", "--dim", "2", "--R", "1",
          "--alpha", "0.1", "--eps", "1", "--seed", "5"], "--seed"),
    ], ids=["zcdp-n-B", "rr-dim", "subrr-eps0", "shurr-claimed-eps", "elap-R-alpha",
            "rr-seed", "subrr-seed", "shurr-seed", "zcdp-seed"])
    def test_audit_flags_the_mechanism_does_not_read_exit_one(self, capsys, argv, unread):
        code, out, err = run_cli(capsys, ["audit"] + argv)
        assert code == 1
        assert out == ""
        mechanism = argv[1]
        assert err == f"error: audit --mechanism {mechanism} does not read {unread}\n"

    @pytest.mark.parametrize("argv", [
        ["--mechanism", "rr", "--k", "3", "--eps0", "1"],
        ["--mechanism", "shurr", "--k", "2", "--n", "2301", "--eps", "4.0", "--delta", "0.01"],
    ], ids=["rr", "shurr"])
    def test_audit_echoes_no_runs(self, capsys, argv):
        code, out, _ = run_cli(capsys, ["audit"] + argv)
        assert code == 0
        params = json.loads(out)["config"]["params"]
        assert "runs" not in params
        assert "probes" not in params

    @pytest.mark.parametrize("argv", [
        ["--family", "gaussian", "--task", "zcdp-known", "--dim", "2", "--R", "1",
         "--alpha", "0.1", "--eps", "1", "--c", "3", "--C", "5"],
        ["--family", "gaussian", "--task", "zcdp-bounded", "--dim", "2", "--R", "1",
         "--alpha", "0.1", "--eps", "1", "--C", "5"],
        ["--family", "kary", "--task", "single", "--k", "10", "--alpha", "0.1", "--eps", "1",
         "--c", "3"],
    ], ids=["zcdp-known-c-C", "zcdp-bounded-C", "kary-single-c"])
    def test_complexity_constants_outside_pure_exit_one(self, capsys, argv):
        # no task has --c or --C; see test_retired_constants_are_usage_errors
        assert exit_code(["complexity"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["sample-gaussian", "--variant", "pure", "--c", "1.5"], "--c 1.5"),
        # not taken as an abbreviation of --count
        (["sample-gaussian", "--variant", "pure", "--c", "3"], "--c 3"),
        (["complexity", "--family", "gaussian", "--task", "pure", "--C", "0.5"], "--C 0.5"),
        (["complexity", "--family", "gaussian", "--task", "pure", "--c", "1.5"], "--c 1.5"),
    ], ids=["sample-c-1.5", "sample-c-3", "complexity-C-0.5", "complexity-c-1.5"])
    def test_retired_constants_are_usage_errors(self, capsys, vector_file, argv, flag):
        given = {"sample-gaussian": ["--in", str(vector_file), "--R", "1", "--alpha", "0.4",
                                     "--eps", "5", "--seed", "1"],
                 "complexity": ["--dim", "2", "--R", "1", "--alpha", "0.1", "--eps", "1"]}
        assert exit_code(argv + given[argv[0]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["sample-kary", "--mode", "sub", "--eps", "1", "--alpha", "0.3", "--m", "4",
          "--delta", "0.5", "--seed", "1"],
         "sample-kary --mode sub does not read --delta, --m, --alpha"),
        (["sample-kary", "--mode", "shuffle", "--eps", "300", "--delta", "0.5", "--m", "5",
          "--alpha", "0.1", "--seed", "1"], "sample-kary --mode shuffle does not read --alpha"),
        (["sample-kary", "--mode", "repeat", "--eps", "300", "--alpha", "0.5", "--m", "3",
          "--delta", "0.5", "--seed", "1"], "sample-kary --mode repeat does not read --delta"),
        (["sample-kary", "--mode", "both", "--eps", "300", "--alpha", "0.5", "--m", "3",
          "--delta", "0.5", "--seed", "1"], "sample-kary --mode both does not read --delta"),
        (["elap", "--tail", "--dim", "3", "--scale", "1", "--alpha", "0.1", "--count", "3",
          "--seed", "2"], "elap --tail does not read --count, --seed"),
        (["elap", "--dim", "3", "--scale", "1", "--count", "3", "--seed", "2", "--alpha", "0.1"],
         "elap --count does not read --alpha"),
    ], ids=["sub", "shuffle", "repeat", "both", "elap-tail", "elap-count"])
    def test_flags_the_mode_does_not_read_exit_one(self, capsys, kary_file, argv, message):
        if argv[0] == "sample-kary":
            argv = argv + ["--in", str(kary_file)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, what", [
        (["audit", "--mechanism", "rr", "--k", "3", "--eps0", "1"], "audit --mechanism rr"),
        (["audit", "--mechanism", "elap", "--dim", "2", "--B", "1", "--eps", "1", "--seed", "13"],
         "audit --mechanism elap"),
        (["elap", "--tail", "--dim", "3", "--scale", "1", "--alpha", "0.1"], "elap --tail"),
        (["complexity", "--family", "kary", "--task", "single", "--k", "4", "--alpha", "0.1",
          "--eps", "2"], "complexity --family kary --task single"),
        (["tvdist", "--bins", "10", "--seed", "1"], "tvdist"),
    ], ids=["audit-rr", "audit-elap", "elap-tail", "complexity", "tvdist"])
    def test_out_where_no_artifact_is_written_exits_one(self, capsys, tmp_path, argv, what):
        if argv[0] == "tvdist":
            write_vector_csv(tmp_path / "p.csv", np.zeros((3, 1)))
            argv = argv + ["--p", str(tmp_path / "p.csv"), "--q", str(tmp_path / "p.csv")]
        artifact = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, argv + ["--out", str(artifact)])
        assert code == 1
        assert out == ""
        assert err == f"error: {what} does not read --out\n"
        assert not artifact.exists()

    @pytest.mark.parametrize("content", [
        None,
        b"1\n\xff\n",
        b"1\n99999999999999999999\n",
        b"1\n" + b"2" * 200_000 + b"\n",
    ], ids=["missing-file", "not-utf8", "beyond-int64", "cell-over-csv-field-limit"])
    def test_unreadable_input_exits_one(self, capsys, tmp_path, content):
        path = tmp_path / "input.csv"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run_cli(
            capsys,
            ["sample-kary", "--mode", "sub", "--in", str(path), "--eps", "1", "--seed", "1"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_bounded_cov_audit_splits_n_by_three(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["audit", "--mechanism", "zcdp", "--variant", "zcdp-bounded", "--dim", "1",
             "--R", "1", "--alpha", "0.1", "--eps", "1"],
        )
        assert code == 2
        witness = json.loads(out)["outputs"]["report"]["witness"]
        assert witness["n"] == 477
        assert witness["sensitivity"] == pytest.approx(
            2.0 * witness["B"] * math.sqrt((1 - 1 / 159) / (2 * 159)), rel=1e-12
        )

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_elap_count_below_one_exits_one(self, capsys, tmp_path, count):
        out = tmp_path / "never.csv"
        code, stdout, err = run_cli(
            capsys,
            ["elap", "--dim", "2", "--scale", "1", "--count", count, "--seed", "1",
             "--out", str(out)],
        )
        assert code == 1
        assert stdout == ""
        assert f"--count must be >= 1, got {count}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sample-kary", "--mode", "sub", "--eps", "inf", "--seed", "1"],
        ["sample-kary", "--mode", "shuffle", "--eps", "inf", "--delta", "0.5", "--m", "5",
         "--seed", "1"],
        ["complexity", "--family", "kary", "--task", "single", "--k", "3", "--alpha", "0.1",
         "--eps", "inf"],
        ["complexity", "--family", "kary", "--task", "weak", "--k", "3", "--alpha", "0.1",
         "--eps", "inf", "--delta", "1e-6", "--m", "5"],
    ], ids=["sub", "shuffle", "complexity-single", "complexity-weak"])
    def test_kary_infinite_eps_exits_one(self, capsys, kary_file, argv):
        if argv[0] == "sample-kary":
            argv = argv + ["--in", str(kary_file)]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert "eps must be finite and positive, got inf" in err


    @pytest.mark.parametrize("argv", [
        ["sample-kary", "--mode", "sub", "--eps", "1e-320", "--seed", "1"],
        ["sample-kary", "--mode", "shuffle", "--eps", "1e-160", "--delta", "0.5", "--m", "1",
         "--seed", "1"],
        ["complexity", "--family", "kary", "--task", "single", "--k", "2", "--alpha", "0.1",
         "--eps", "1e-320"],
        ["complexity", "--family", "kary", "--task", "weak", "--k", "2", "--alpha", "0.1",
         "--eps", "1e-160", "--delta", "0.5", "--m", "2"],
        ["complexity", "--family", "gaussian", "--task", "pure", "--dim", "1", "--R", "1",
         "--alpha", "0.1", "--eps", "1e-320"],
        ["complexity", "--family", "gaussian", "--task", "zcdp-known", "--dim", "1", "--R", "1",
         "--alpha", "0.1", "--eps", "1e-320"],
        ["complexity", "--family", "gaussian", "--task", "zcdp-bounded", "--dim", "1", "--R", "1",
         "--alpha", "0.1", "--eps", "1e-160"],
        ["audit", "--mechanism", "subrr", "--k", "2", "--n", "3", "--eps", "1e-320"],
        ["audit", "--mechanism", "shurr", "--k", "2", "--n", "10", "--eps", "1e-160",
         "--delta", "0.5"],
    ], ids=["sub", "shuffle", "complexity-single", "complexity-weak", "complexity-pure",
            "complexity-zcdp-known", "complexity-zcdp-bounded", "audit-subrr", "audit-shurr"])
    def test_tiny_eps_exits_one_naming_the_float_limit(self, capsys, kary_file, argv):
        # the n such an eps needs overflows a float; the refusal is one error line
        if argv[0] == "sample-kary":
            argv = argv + ["--in", str(kary_file)]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "largest float 1.798e+308" in err


class TestRunReportRoundTrip:
    def test_rerun_from_echoed_config(self, capsys, kary_file, vector_file, tmp_path):
        gen = np.random.default_rng(84)
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        write_vector_csv(p, gen.normal(size=(500, 1)))
        write_vector_csv(q, gen.normal(0.3, 1.0, size=(500, 1)))
        gaussian = ["--in", str(vector_file), "--R", "1", "--alpha", "0.4", "--eps", "5"]
        cases = [
            ["sample-kary", "--mode", "shuffle", "--in", str(kary_file),
             "--eps", "300", "--delta", "0.5", "--m", "20", "--seed", "21"],
            ["elap", "--dim", "2", "--scale", "1.5", "--count", "5", "--seed", "22"],
            ["tvdist", "--p", str(p), "--q", str(q), "--bins", "10", "--seed", "23"],
            ["audit", "--mechanism", "shurr", "--k", "2", "--n", "10", "--eps", "0.05",
             "--delta", "0.001", "--eps0", "12.0"],
            ["audit", "--mechanism", "elap", "--dim", "2", "--B", "1.0", "--eps", "1.0",
             "--seed", "25"],
            ["complexity", "--family", "gaussian", "--task", "pure", "--dim", "2",
             "--R", "1", "--alpha", "0.1", "--eps", "1"],
        ]
        for variant in ("pure", "zcdp-known", "zcdp-bounded"):
            cases += [
                ["sample-gaussian", "--variant", variant, "--count", "2", "--seed", "26"],
                ["sample-gaussian", "--variant", variant, "--mode", "repeat", "--m", "3",
                 "--seed", "27"],
                ["sample-gaussian", "--variant", variant, "--mode", "both", "--m", "3",
                 "--seed", "28"],
            ]
        for i, argv in enumerate(cases):
            if argv[0] == "sample-gaussian":
                argv = argv + gaussian
            out = tmp_path / f"artifact{i}.csv"
            # only the tasks that write an artifact read --out
            if argv[0] in ("sample-kary", "sample-gaussian", "elap"):
                argv = argv + ["--out", str(out)]
            code, stdout, _ = run_cli(capsys, argv)
            first = json.loads(stdout)
            first_bytes = out.read_bytes() if out.exists() else None
            if first_bytes is not None:
                out.unlink()
            report = run(ExperimentConfig.from_dict(first["config"]))
            assert report.exit_code == code, argv
            second_bytes = out.read_bytes() if out.exists() else None
            assert second_bytes == first_bytes, argv
            assert report.outputs == first["outputs"], argv
            assert report.derived == first["derived"], argv
            # every derived parameter needed for reproduction is in the report
            if argv[0] == "sample-kary":
                assert "eps0" in report.derived and "eps1" in report.derived

    def test_060_reports_with_null_constants_replay(self, vector_file, tmp_path):
        # 0.6.0 echoed the retired pure-sampler constants as nulls; these are its
        # reports for the same input, less the wall clock and version
        out = tmp_path / "release.csv"
        sample = {
            "config": {"input_path": str(vector_file), "output_path": str(out),
                       "params": {"R": 1.0, "alpha": 0.4, "c": None, "count": 2, "dim": None,
                                  "eps": 5.0, "m": None, "mode": "once", "variant": "pure"},
                       "seed": 26, "task": "sample-gaussian"},
            "derived": {"B": 2.9144615241619825, "d": 1, "n": 300, "sigma2": 0.9966666666666667},
            "outputs": {"count": 2, "path": str(out)},
        }
        report = run(ExperimentConfig.from_dict(sample["config"]))
        assert (report.outputs, report.derived) == (sample["outputs"], sample["derived"])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "390688c6e57a8407cd3450a2a37b948c6c6cb57d224188523d5722f6a9360e8a")
        complexity = {"task": "complexity", "params": {
            "C": None, "R": 1.0, "alpha": 0.1, "c": None, "delta": None, "dim": 2, "eps": 1.0,
            "family": "gaussian", "k": None, "m": None, "task": "pure"}}
        report = run(ExperimentConfig.from_dict(complexity))
        assert report.derived == {"n_required": 731}
        assert report.outputs["report"]["inputs"] == {
            "B": 5.291932052578694, "R": 1.0, "alpha": 0.1, "d": 2, "eps": 1.0}

    @pytest.mark.parametrize("task, params, flag", [
        ("sample-gaussian", {"variant": "pure", "mode": "once", "count": 1, "R": 1.0,
                             "alpha": 0.4, "eps": 5.0, "c": 1.5}, "--c"),
        ("complexity", {"family": "gaussian", "task": "pure", "dim": 2, "R": 1.0,
                        "alpha": 0.1, "eps": 1.0, "C": 0.5}, "--C"),
        ("audit", {"mechanism": "rr", "k": 3, "eps0": 1.0, "runs": 100}, "--runs"),
    ], ids=["sample-c", "complexity-C", "audit-runs"])
    def test_config_keys_the_task_does_not_define_are_refused(self, vector_file, tmp_path,
                                                              task, params, flag):
        # a persisted config must not run with a parameter this version ignores
        out = tmp_path / "never.csv"
        config = ExperimentConfig(task=task, params=params, input_path=str(vector_file),
                                  output_path=str(out), seed=1)
        with pytest.raises(ConfigInvalid, match=f"^{task} does not read {flag}$"):
            run(config)
        assert not out.exists()

    def test_every_task_reports_the_package_version(self, capsys, kary_file, vector_file,
                                                     tmp_path):
        argvs = {
            "sample-kary": ["--mode", "sub", "--in", str(kary_file), "--eps", "1", "--seed", "1"],
            "sample-gaussian": ["--variant", "pure", "--in", str(vector_file), "--R", "1",
                                "--alpha", "0.4", "--eps", "5", "--seed", "2"],
            "elap": ["--dim", "2", "--scale", "1.5", "--count", "2", "--seed", "3"],
            "complexity": ["--family", "kary", "--task", "single", "--k", "4", "--alpha", "0.2",
                           "--eps", "1"],
            "tvdist": ["--p", str(vector_file), "--q", str(vector_file), "--bins", "10",
                       "--seed", "4"],
            "audit": ["--mechanism", "rr", "--k", "3", "--eps0", "1"],
            "sweep": ["--family", "kary", "--k", "2", "--alpha", "0.1", "--eps", "1",
                      "--delta", "1e-6", "--m", "1", "--out", str(tmp_path / "sweep.csv")],
        }
        assert set(argvs) == set(_COMMANDS)
        for task, argv in argvs.items():
            code, out, _ = run_cli(capsys, [task, *argv])
            assert code == 0, task
            assert json.loads(out)["version"] == dpsampler.__version__, task

    def test_report_written_to_json_path(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys,
            ["complexity", "--family", "kary", "--task", "single",
             "--k", "4", "--alpha", "0.2", "--eps", "1", "--json", str(json_path)],
        )
        assert code == 0
        assert json.loads(json_path.read_text()) == json.loads(stdout)

    def test_call_order_does_not_change_reports(self, capsys, kary_file):
        # main shares one parser across calls, defaults included
        calls = [
            ["sample-kary", "--mode", "shuffle", "--in", str(kary_file),
             "--eps", "300", "--delta", "0.5", "--m", "20", "--seed", "21"],
            ["audit", "--mechanism", "zcdp", "--variant", "zcdp-known", "--dim", "2",
             "--R", "1", "--alpha", "0.1", "--eps", "1"],
        ]

        def reports(order):
            results = {}
            for i in order:
                code, out, _ = run_cli(capsys, calls[i])
                report = json.loads(out)
                del report["wall_clock_seconds"]
                results[i] = (code, report)
            return results

        assert reports([0, 1]) == reports([1, 0])


# --- the flag table: every (task, selector) row ----------------------------------

ROWS = [(task, key) for task, command in _COMMANDS.items() for key in command.rows]
ROW_IDS = [" ".join([task, *map(str, key)]) for task, key in ROWS]
# a value of each non-string flag type, as typed on the command line
SAMPLES = {int: "3", float: "0.5", list[int]: "2,3", list[float]: "0.5,0.7"}


def _row_name(task, key):
    # the row as messages name it: its selector flags and values, or elap's mode flag
    if task == "elap":
        return "elap --tail" if key[0] else "elap --count"
    return " ".join([task, *(f"--{s} {v}" for s, v in zip(_COMMANDS[task].selectors, key))])


def _row_argv(task, key, flags, tmp_path):
    """argv giving ``flags``: the row's selector values, else a sample of the flag's type.

    Every path names a file that does not exist, so a run that gets as far as
    reading its input exits 1 with an error naming that file."""
    command = _COMMANDS[task]
    selected = dict(zip(command.selectors, key))
    argv = [task]
    for name in flags:
        flag = command.flag(name)
        option = "--" + name.replace("_", "-")
        if flag.type is bool:
            argv += [option] if selected.get(name, True) else []
        elif name in selected:
            argv += [option, selected[name]]
        elif flag.choices:
            argv += [option, flag.choices[0]]
        elif flag.type is str:
            argv += [option, str(tmp_path / f"{name}.csv")]
        else:
            argv += [option, SAMPLES[flag.type]]
    return argv


def _valid_values(task, key, kary_file, vector_file, tmp_path):
    """A value for every flag of the task that runs each of its rows, the row's selectors
    included."""
    out = str(tmp_path / "artifact.csv")
    valid = {
        "sample-kary": {"in": str(kary_file), "k": 3, "eps": 300.0, "delta": 0.5, "m": 3,
                        "alpha": 0.5, "seed": 5, "out": out},
        "sample-gaussian": {"variant": "zcdp-known", "in": str(vector_file), "dim": 1,
                            "R": 1.0, "alpha": 0.4, "eps": 5.0, "count": 2, "m": 3,
                            "seed": 6, "out": out},
        "elap": {"dim": 2, "scale": 1.5, "alpha": 0.1, "count": 2, "seed": 7, "out": out},
        "complexity": {"k": 4, "dim": 2, "R": 1.0, "alpha": 0.1, "eps": 2.0, "delta": 1e-6,
                       "m": 8},
        "tvdist": {"p": str(vector_file), "q": str(vector_file), "bins": 10, "seed": 8},
        "audit": {"k": 2, "n": 10, "eps": 1.0, "eps0": 1.0, "delta": 1e-3,
                  "claimed_eps": 1.0, "dim": 2, "B": 1.0, "R": 1.0, "alpha": 0.1,
                  "variant": "zcdp-known", "seed": 13},
        "sweep": {"k": [2], "dim": [1], "R": [1.0], "alpha": [0.1], "eps": [1.0],
                  "delta": [1e-6], "m": [2], "out": out},
    }[task]
    return {**valid, **dict(zip(_COMMANDS[task].selectors, key))}


SEEDED_ROWS = [(task, key) for task, key in ROWS if "seed" in _COMMANDS[task].rows[key].requires]


class TestFlagTable:
    @pytest.mark.parametrize("task, key", ROWS, ids=ROW_IDS)
    def test_every_flag_the_row_does_not_read_exits_one(self, capsys, tmp_path, task, key):
        command = _COMMANDS[task]
        row = command.rows[key]
        # the subcommand's options are the table's flags, --seed and --out among them
        subparsers = next(a for a in _PARSER._actions if a.dest == "command").choices
        assert [a.dest for a in subparsers[task]._actions] == [
            "help", *command.flags, "json"]
        unread = [name for name in command.flags if name not in row.flags]
        for name in unread:
            argv = _row_argv(task, key, row.requires + (name,), tmp_path)
            code, out, err = run_cli(capsys, argv)
            option = "--" + name.replace("_", "-")
            assert (code, out) == (1, ""), argv
            assert err == f"error: {_row_name(task, key)} does not read {option}\n", argv
            assert list(tmp_path.iterdir()) == [], argv

    @pytest.mark.parametrize("task, key", ROWS, ids=ROW_IDS)
    def test_every_required_flag_left_out_exits_one(self, capsys, tmp_path, task, key):
        command = _COMMANDS[task]
        requires = command.rows[key].requires
        # a flag with a default is never left out: the parser supplies it
        for name in [name for name in requires if command.flag(name).default is None]:
            argv = _row_argv(task, key, tuple(n for n in requires if n != name), tmp_path)
            code = exit_code(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (1, ""), argv
            assert "required" in err and "--" + name.replace("_", "-") in err, argv

    @pytest.mark.parametrize("task, key", ROWS, ids=ROW_IDS)
    def test_the_runner_reads_exactly_the_flags_of_its_row(self, monkeypatch, kary_file,
                                                           vector_file, tmp_path, task, key):
        command = _COMMANDS[task]
        values = _valid_values(task, key, kary_file, vector_file, tmp_path)
        flags = command.rows[key].flags
        config = ExperimentConfig(
            task=task, params={name: values[name] for name in flags if name not in _FIELDS},
            **{attr: values[name] for name, attr in _FIELDS.items() if name in flags})

        reads, handed = set(), {}

        class Reads(dict):
            """A params mapping that records the keys read from it."""

            def __getitem__(self, name):
                reads.add(name)
                return super().__getitem__(name)

        def recording(params):
            handed.update(params)
            return command.run(Reads(params))

        monkeypatch.setitem(_COMMANDS, task, command._replace(run=recording))
        assert run(config).exit_code in (0, 2)
        assert set(handed) == set(flags)
        assert reads == set(flags)

    @pytest.mark.parametrize("task, key", SEEDED_ROWS,
                             ids=[" ".join([task, *map(str, key)]) for task, key in SEEDED_ROWS])
    def test_a_negative_seed_exits_one_naming_it(self, capsys, kary_file, vector_file,
                                                 tmp_path, task, key):
        # every row that requires --seed runs otherwise, so RandomSource is what refuses
        values = {**_valid_values(task, key, kary_file, vector_file, tmp_path), "seed": -1}
        argv = [task]
        for name in _COMMANDS[task].rows[key].requires:
            option = "--" + name.replace("_", "-")
            if isinstance(values[name], bool):
                argv += [option] if values[name] else []
            else:
                argv += [option, str(values[name])]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err == "error: seed must be >= 0, got -1\n", argv

    @pytest.mark.parametrize("argv, message", [
        (["sample-gaussian", "--variant", "pure", "--m", "3"],
         "sample-gaussian --mode once does not read --m"),
        (["sample-gaussian", "--variant", "zcdp-known", "--mode", "both", "--m", "3",
          "--count", "2"], "sample-gaussian --mode both does not read --count"),
        (["sample-gaussian", "--variant", "pure", "--mode", "repeat", "--m", "3",
          "--count", "3"], "sample-gaussian --mode repeat does not read --count"),
        (["sample-kary", "--mode", "sub", "--delta", "0.5"],
         "sample-kary --mode sub does not read --delta"),
    ], ids=["once-m", "both-count-2", "repeat-count-3", "sub-delta"])
    def test_flags_are_refused_before_the_input_is_read(self, capsys, tmp_path, argv, message):
        gaussian = ["--R", "1", "--alpha", "0.4"] if argv[0] == "sample-gaussian" else []
        code, out, err = run_cli(capsys, argv + gaussian + [
            "--eps", "5", "--in", str(tmp_path / "missing.csv"), "--seed", "1"])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("task, params, message", [
        ("complexity", {"family": "kary", "task": "single", "k": 4.5, "alpha": 0.1, "eps": 2.0},
         "--k must be of type int, got 4.5"),
        ("complexity", {"family": "kary", "task": "single", "k": True, "alpha": 0.1, "eps": 2.0},
         "--k must be of type int, got True"),
        ("complexity", {"family": "kary", "task": "single", "k": "3", "alpha": 0.1, "eps": 2.0},
         "--k must be of type int, got '3'"),
        ("elap", {"tail": False, "dim": 2.7, "scale": 1.0, "count": 2.9},
         "--dim must be of type int, got 2.7"),
        ("audit", {"mechanism": "rr", "k": 3, "eps0": "1"},
         "--eps0 must be of type float, got '1'"),
        ("audit", {"mechanism": "rr", "k": 3, "eps0": False},
         "--eps0 must be of type float, got False"),
        ("sweep", {"family": "gaussian", "dim": [1, 2.5], "R": [1.0], "alpha": [0.1],
                   "eps": [1.0]}, "--dim must be of type int, got 2.5"),
        ("sweep", {"family": "gaussian", "dim": 1, "R": [1.0], "alpha": [0.1], "eps": [1.0]},
         "--dim must be a list, got 1"),
    ], ids=["int-4.5", "int-true", "int-string", "elap-dim-2.7", "float-string", "float-false",
            "grid-element", "grid-scalar"])
    def test_params_of_another_type_are_refused(self, task, params, message):
        # configs passed to run skip the parser, so run checks each value's type
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            run(ExperimentConfig(task=task, params=params))
