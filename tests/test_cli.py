import csv

import pytest

from varinterp import cli, solvers
from varinterp.models import MODEL_NAMES


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def run(argv):
    return cli.main(argv)


class TestInterpolate:
    def test_aho_ratio_column(self, tmp_path):
        out = tmp_path / "aho.csv"
        rc = run(["interpolate", "--model", "aho", "--alpha-min", "0.1",
                  "--alpha-max", "1000", "--points", "12", "--log",
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 12
        for row in rows:
            assert float(row["ratio"]) >= 0.995

    def test_mass_zero_coupling_row(self, tmp_path):
        out = tmp_path / "mass.csv"
        rc = run(["interpolate", "--model", "polaron_mass", "--alpha-min", "0",
                  "--alpha-max", "4", "--points", "5", "--out", str(out)])
        assert rc == 0
        first = read_csv(out)[0]
        assert float(first["alpha"]) == 0.0
        assert float(first["W_N"]) == 1.0
        assert float(first["M_as"]) == 1.0

    def test_energy_columns_small_coupling(self, tmp_path):
        out = tmp_path / "en.csv"
        rc = run(["interpolate", "--model", "polaron_energy", "--alpha-min",
                  "0.5", "--alpha-max", "2", "--points", "3", "--out", str(out)])
        assert rc == 0
        for row in read_csv(out):
            w = float(row["W_N"])
            lo = min(float(row["weak"]), float(row["strong"]))
            hi = max(float(row["weak"]), float(row["strong"]))
            assert lo < w < hi
            assert float(row["feynman"]) < 0

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["interpolate", "--model", "aho", "--alpha-min", "0.2",
                "--alpha-max", "5", "--points", "7", "--log"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_user_model_file(self, tmp_path):
        mf = tmp_path / "osc.model"
        mf.write_text(
            "# quartic oscillator, first order\n"
            "name = osc\n"
            "weak_coeffs = 1/2, 3/4\n"
            "p = 1\n"
            "q = 3\n"
            "omega = 1.0\n"
        )
        out = tmp_path / "osc.csv"
        rc = run(["interpolate", "--model-file", str(mf), "--alpha-min", "0.1",
                  "--alpha-max", "10", "--points", "5", "--log", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert set(rows[0]) == {"alpha", "omega_N", "W_N"}

    def test_config_errors_exit_2(self, tmp_path):
        assert run(["interpolate", "--model", "aho", "--alpha-min", "5",
                    "--alpha-max", "1", "--points", "5"]) == 2
        assert run(["interpolate", "--model", "aho", "--points", "1"]) == 2
        assert run(["interpolate", "--model", "aho", "--alpha-min", "0",
                    "--alpha-max", "1", "--points", "4", "--log"]) == 2
        for bound in ("--alpha-max=inf", "--alpha-max=nan", "--alpha-min=-inf"):
            assert run(["interpolate", "--model", "aho", bound]) == 2
        bad = tmp_path / "bad.model"
        bad.write_text("name = x\nweak_coeffs = 1, oops\np = 1\nq = 1\n")
        assert run(["interpolate", "--model-file", str(bad)]) == 2

    def test_inference_failure_exits_3(self, tmp_path, capsys):
        # Newton finds no tail coefficient for this target from any start
        mf = tmp_path / "hopeless.model"
        mf.write_text("name = hopeless\nweak_coeffs = 1\np = 2\nq = 1\n"
                      "strong_targets = 1.0\n")
        assert run(["interpolate", "--model-file", str(mf),
                    "--out", str(tmp_path / "out.csv")]) == 3
        assert "inference failed" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_overflowing_coupling_exits_3(self, tmp_path, capsys):
        # W_N ~ alpha^4 leaves the float range; no NaN row may be written
        out = tmp_path / "mass.csv"
        assert run(["interpolate", "--model", "polaron_mass", "--alpha-min", "1e70",
                    "--alpha-max", "1e80", "--points", "2", "--out", str(out)]) == 3
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("infer", "strong_targets = nan"),
    ("infer", "strong_targets = 1.0, inf"),
    ("interpolate", "omega = nan"),
    ("interpolate", "omega = inf"),
])
def test_non_finite_model_values_exit_2(tmp_path, capsys, command, line):
    mf = tmp_path / "nonfinite.model"
    mf.write_text(f"name = x\nweak_coeffs = 1/2, 3/4\np = 1\nq = 3\n{line}\n")
    assert run([command, "--model-file", str(mf),
                "--out", str(tmp_path / "out.csv")]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["interpolate", "infer"])
@pytest.mark.parametrize("law", ["p = 1/3\nq = 3", "p = 1\nq = 1/3"])
def test_non_half_integer_powers_exit_2(tmp_path, capsys, command, law):
    mf = tmp_path / "third.model"
    mf.write_text(f"name = x\nweak_coeffs = 1/2, 3/4\n{law}\nstrong_targets = 1.0\n")
    assert run([command, "--model-file", str(mf),
                "--out", str(tmp_path / "out.csv")]) == 2
    assert "half-integer" in capsys.readouterr().err


class TestInfer:
    def test_mass_report_and_ledger(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("VARINTERP_LEDGER", raising=False)
        led = tmp_path / "led.csv"
        rc = run(["infer", "--model", "polaron_mass", "--out", str(led)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "a3 = 0.041692920" in text
        rows = read_csv(led)
        assert set(rows[0]) == {"quantity", "paper_value", "computed_value",
                                "source_eq"}
        byq = {r["quantity"]: r for r in rows}
        assert float(byq["mass_a3"]["computed_value"]) == pytest.approx(
            0.0416929, abs=1e-6)

    def test_ledger_env_override(self, tmp_path, monkeypatch):
        led = tmp_path / "env_led.csv"
        monkeypatch.setenv("VARINTERP_LEDGER", str(led))
        assert run(["infer", "--model", "aho"]) == 0
        assert led.exists()

    def test_energy_reports_all_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("VARINTERP_LEDGER", str(tmp_path / "l.csv"))
        assert run(["infer", "--model", "polaron_energy"]) == 0
        text = capsys.readouterr().out
        assert "c = 0.0981986" in text
        assert "a3 = " in text and "a4 = " in text

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_stall_stop_leaves_output_unchanged(self, tmp_path, capsys, monkeypatch, model):
        outputs = []
        for stall_steps in (solvers._STALL_STEPS, 10**9):
            monkeypatch.setattr(solvers, "_STALL_STEPS", stall_steps)
            led = tmp_path / f"{stall_steps}.csv"
            assert run(["infer", "--model", model, "--out", str(led)]) == 0
            out = capsys.readouterr().out.replace(str(led), "LEDGER")
            outputs.append((out, led.read_text()))
        assert outputs[0] == outputs[1]

    def test_model_without_targets_exits_2(self, tmp_path):
        mf = tmp_path / "plain.model"
        mf.write_text("name = plain\nweak_coeffs = 1, 0.1\np = 1\nq = 1\n")
        assert run(["infer", "--model-file", str(mf)]) == 2


class TestVerify:
    def test_single_criterion_filter(self, capsys):
        rc = run(["verify", "--criterion", "printed_form"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "printed_form" in out and "PASS" in out

    def test_legacy_criterion_alias(self, capsys):
        rc = run(["verify", "--criterion", "eq38"])
        assert rc == 0
        assert "strong_fit" in capsys.readouterr().out

    def test_unknown_criterion_exits_2(self):
        assert run(["verify", "--criterion", "bogus"]) == 2

    def test_mutated_coefficient_detected(self, monkeypatch):
        """A misprinted builtin coefficient must fail the data pins."""
        from dataclasses import replace

        from varinterp import models

        real = models.builtin

        def corrupted(name):
            spec = real(name)
            if name == "polaron_mass":
                coeffs = list(spec.weak.coeffs)
                coeffs[2] = coeffs[2] * 101 / 100
                from varinterp.series import WeakSeries
                spec = replace(spec, weak=WeakSeries(coeffs))
            return spec

        monkeypatch.setattr(models, "builtin", corrupted)
        assert run(["verify", "--criterion", "pins"]) == 1
