"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the root)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from varinterp import cli, series  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.delenv("VARINTERP_LEDGER", raising=False)
    return str(tmp_path)


def _job(kind, model, argv, grid=None, user_model=None, files=None):
    return jobs.Job(index=0, kind=kind, model=model, argv=tuple(argv), grid=grid,
                    user_model=user_model, files=files or {})


def _curve_job(model, amin, amax, points):
    return jobs._interpolate_job(0, model, amin, amax, points)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic(workload):
    def first(seed, n=40):
        stream = jobs.generate(workload, seed)
        return [next(stream).manifest_entry() for _ in range(n)]

    assert first(5) == first(5)
    assert first(5) != first(6)
    assert jobs.manifest(workload, 5) == jobs.manifest(workload, 5)
    assert jobs.manifest(workload, 5)["jobs_sha256"] != jobs.manifest(workload, 6)["jobs_sha256"]


def test_generator_ranges():
    stream = jobs.generate("polaron_curves", 3)
    for job in (next(stream) for _ in range(24)):
        amin, amax, points = job.grid
        lo, hi = jobs.POLARON_AMIN[job.model]
        assert lo <= amin < hi and 10.0 <= amax < jobs.POLARON_AMAX and 6 <= points <= 14
    stream = jobs.generate("infer_models", 3)
    block = [next(stream) for _ in range(jobs.INFER_BLOCK)]
    assert sum(j.user_model is None for j in block) == 3
    assert len({j.user_model.name for j in block if j.user_model}) == jobs.INFER_BLOCK - 3


def test_tracer_counts_rows_and_restores(work):
    orig_main, orig_eval = cli.main, series.LaurentPoly.eval
    curves = [_curve_job("aho", 1e-3, 1e3, 5),
              _curve_job("polaron_energy", 0.01, 3.0, 3),
              _curve_job("polaron_mass", 0.01, 3.0, 2)]
    with layertrace.Tracer() as tracer:
        outs = [run.run_job(cli, job, work, tracer) for job in curves]
        assert cli.main is not orig_main
    assert cli.main is orig_main and series.LaurentPoly.eval is orig_eval
    assert all(o.failure is None for o in outs)

    names = [sp.name for sp in tracer.spans]
    ok_find = [sp for sp in tracer.spans if sp.name == "solvers.find_omega" and not sp.error]
    assert len(ok_find) == 5 + 3 + 2
    by_id = {sp.id: sp for sp in tracer.spans}
    top_energy = [sp for sp in tracer.spans if sp.name == "models.feynman_energy"
                  and by_id[sp.parent].name != "models.feynman_mass"]
    assert len(top_energy) == 3
    assert names.count("models.feynman_mass") == 2
    assert names.count("cli.main") == 3
    assert {sp.job for sp in tracer.spans} == {0}

    metrics = layertrace.layer_metrics(tracer.spans, rows=10, feynman_rows=5, jobs=3)
    assert metrics["solvers.find_omega.calls"][0] == 10
    assert metrics["solvers.interpolant.rows_per_call"][0] == 1.0
    assert metrics["series.LaurentPoly.eval.calls"][0] > 0
    assert metrics["models.integrate.quad.calls"][0] > 0
    shares = sum(metrics[f"layers.{m}.self_share"][0] for m in layertrace.MODULES)
    assert shares == pytest.approx(1.0, abs=1e-6)


def test_corrupted_csv_value_fails_its_check(work):
    job = _curve_job("aho", 1e-3, 1e3, 6)
    out = run.run_job(cli, job, work)
    checker = checks.Checker()
    assert out.failure is None
    assert checker.curve("aho", job.grid, out.csv) == []

    header, rows = checks.parse_csv(out.csv)

    def corrupted(col, factor):
        bad = [r[:] for r in rows]
        bad[3][header.index(col)] *= factor
        return "\n".join([",".join(header)] + [",".join(repr(x) for x in r) for r in bad])

    assert checker.curve("aho", job.grid, corrupted("omega_N", 1 + 1e-6))
    assert checker.curve("aho", job.grid, corrupted("W_N", 1 + 1e-9))
    assert checker.curve("aho", job.grid, corrupted("ratio", 1.01))


def test_perturbed_inferred_coefficient_fails_its_check(work):
    import random

    md = jobs.user_model(random.Random(1), "polaron_mass", "user_mass")
    job = _job("infer", "polaron_mass",
               ["infer", "--model-file", "{work}/m.txt", "--out", "{work}/ledger.csv"],
               user_model=md, files={"m.txt": md.file_text()})
    out = run.run_job(cli, job, work)
    checker = checks.Checker()
    assert out.failure is None
    assert checker.inference(job, out.stdout) == []
    line = next(x for x in out.stdout.splitlines() if x.startswith("a3 = "))
    a3 = float(line.split(" = ")[1])
    assert checker.inference(job, out.stdout.replace(line, f"a3 = {a3 * (1 + 1e-6)!r}"))

    builtin = _job("infer", "aho", ["infer", "--model", "aho", "--out", "{work}/ledger.csv"])
    out = run.run_job(cli, builtin, work)
    assert checker.inference(builtin, out.stdout) == []


class _Raises:
    @staticmethod
    def main(argv):
        raise ValueError("trial frequency must be positive, got -1.5e-09")


def test_bare_value_error_counts_as_failed(work):
    job = _curve_job("aho", 1e-3, 1e3, 4)
    bad = run.run_job(_Raises, job, work)
    assert bad.failure == "ValueError: trial frequency must be positive, got #"
    assert run.items(bad) == 0
    good = run.run_job(cli, job, work)
    good.problems = []
    good.seconds = 100.0  # slower than the failed job, which still ranks last
    p50, tail, pct, n = run.latency_stats([good, bad])
    assert n == 2 and p50 == (good.seconds + good.seconds + bad.seconds) / 2
    assert run.summarize([good, bad]) == {bad.failure: 1}


def test_tail_percentile_keeps_ten_jobs_beyond():
    def outcome(seconds):
        return run.Outcome(job=None, seconds=seconds, code=0, error=None, stdout="",
                           csv=None, problems=[])

    for n in (5, 19, 20, 21, 40, 300):
        p50, tail, pct, _ = run.latency_stats([outcome(float(s)) for s in range(1, n + 1)])
        beyond = n - int(tail)
        assert tail >= p50 and (beyond >= 10 or n <= 20)
        assert pct == 100.0 * int(tail) / n
    assert run.latency_stats([outcome(float(s)) for s in range(1, 41)])[1] == 30.0


def test_program_failures_are_tallied_not_raised(work):
    # When these tests were written, the first coupling let "ValueError:
    # trial frequency must be positive" escape cli.main and the second made
    # it exit with code 3 (NoCandidate).  Either way the harness must record
    # the job, not crash; a fixed program passes the job instead.
    for amin in (2.350917875457284e-09, 5e-8):
        out = run.run_job(cli, _curve_job("polaron_energy", amin, 1e-7, 2), work)
        assert out.failure in (None, "exit 3", "ValueError: trial frequency must be positive, got #")
        assert (run.items(out) == 0) == (out.failure is not None)


def test_exits_nonzero_without_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "aho_curves", "--seed", "1", "--seconds", "1"]) == 2


def test_metrics_match_benchmark_json(monkeypatch, capsys):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "measure_setup", lambda: [1.0])
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "infer_models", "--seed", "1", "--seconds", "0.05",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in bench[section]}
