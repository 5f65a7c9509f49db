"""Seeded job generator for the three benchmark workloads.

A job is the argv handed to `varinterp.cli.main` plus the contents of any
model file it reads.  Paths inside argv carry the placeholder ``{work}``,
filled in with the run's scratch directory only when the job runs, so the
job list (and its hash) depends on the seed alone.

Jobs come in blocks.  Inside a block every random input is stratified
(Latin hypercube): each stratum of every range is drawn once, in a random
pairing.  A run of ~30 s covers a few blocks, so two seeds load the program
with the same mix of job sizes and their figures stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("aho_curves", "polaron_curves", "infer_models")

# jobs hashed into the manifest; enough to cover several runs of any workload
MANIFEST_JOBS = 64


@dataclass(frozen=True)
class ModelData:
    """What a model file says, kept for the output checks."""

    name: str
    weak: tuple[str, ...]
    p: int
    q: int
    strong: tuple[float, ...]
    prefactor: str = "none"

    def file_text(self) -> str:
        return (
            f"name = {self.name}\n"
            f"weak_coeffs = {', '.join(self.weak)}\n"
            f"p = {self.p}\n"
            f"q = {self.q}\n"
            f"strong_targets = {', '.join(repr(b) for b in self.strong)}\n"
            f"omega = 1.0\n"
            f"prefactor = {self.prefactor}\n"
        )

    def weak_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s) for s in self.weak)


@dataclass(frozen=True)
class Job:
    index: int
    kind: str  # "interpolate" | "infer" | "warmup"
    model: str  # builtin model name, or the template a user model came from
    argv: tuple[str, ...]
    files: dict = field(default_factory=dict)  # file name in {work} -> text
    grid: tuple[float, float, int] | None = None  # alpha_min, alpha_max, points
    user_model: ModelData | None = None

    def manifest_entry(self) -> dict:
        return {"argv": list(self.argv), "files": self.files}

    def concrete_argv(self, work: str) -> list[str]:
        return [a.replace("{work}", work) for a in self.argv]


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool) -> list[float]:
    """One draw from each of n equal strata of [lo, hi), shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / n
    vals = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _int_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """One integer from each of n equal strata of [lo, hi] (inclusive)."""
    return [min(hi, int(v)) for v in _strata(rng, n, lo, hi + 1, log=False)]


def _interpolate_job(index: int, model: str, amin: float, amax: float, points: int) -> Job:
    argv = ("interpolate", "--model", model, "--log",
            "--alpha-min", repr(amin), "--alpha-max", repr(amax),
            "--points", str(points), "--out", "{work}/curve.csv")
    return Job(index=index, kind="interpolate", model=model, argv=argv,
               grid=(amin, amax, points))


# aho: 40-120 points from the weak tail (g >= 1e-6) to the strong end (g <= 1e4)
AHO_BLOCK = 8


def _aho_block(rng: random.Random, start: int) -> list[Job]:
    n = AHO_BLOCK
    amins = _strata(rng, n, 1e-6, 1e-1, log=True)
    amaxs = _strata(rng, n, 1e2, 1e4, log=True)
    points = _int_strata(rng, n, 40, 120)
    return [_interpolate_job(start + k, "aho", amins[k], amaxs[k], points[k])
            for k in range(n)]


# polaron: 6-14 points up to alpha in [10, 13].  Jobs come in energy/mass
# pairs whose point counts add to 20, so every pair carries the same number
# of rows and runs differ little in their mix.
# alpha_max stays below 13 because the Feynman baseline's Nelder-Mead cost is
# erratic from alpha ~ 13.7 up to ~ 80 (1.5-4.4 s at scattered couplings,
# against 0.15-0.3 s per point below 13).  With alpha_max up to 100 (or 20)
# the rows/s of a 30 s run spread by 53% (24%) across five seeds, measured
# as quartile distance over median.
# polaron_energy's weak end starts at 2e-3, not 1e-6: when this was written its
# interpolant raises NoCandidate at scattered couplings up to ~1.1e-3, and the
# benchmark's workloads must not fail.  polaron_mass has no such failures
# and keeps the full weak tail.
POLARON_PAIRS = 3
POLARON_POINTS = (6, 14)
POLARON_AMAX = 13.0
POLARON_AMIN = {"polaron_energy": (2e-3, 1e-1), "polaron_mass": (1e-6, 1e-1)}


def _polaron_block(rng: random.Random, start: int) -> list[Job]:
    lo, hi = POLARON_POINTS
    points = _int_strata(rng, POLARON_PAIRS, lo, hi)
    draws = {model: list(zip(_strata(rng, POLARON_PAIRS, *POLARON_AMIN[model], log=True),
                             _strata(rng, POLARON_PAIRS, 10.0, POLARON_AMAX, log=True)))
             for model in ("polaron_energy", "polaron_mass")}
    jobs: list[Job] = []
    for k, n in enumerate(points):
        for model, pts in (("polaron_energy", n), ("polaron_mass", lo + hi - n)):
            amin, amax = draws[model][k]
            jobs.append(_interpolate_job(start + len(jobs), model, amin, amax, pts))
    return jobs


# infer: per block, USER_PER_TEMPLATE perturbed user models of each builtin
# template plus one builtin job of each model (a fifth of the jobs)
USER_PER_TEMPLATE = 4
INFER_BLOCK = 3 * (USER_PER_TEMPLATE + 1)


# The builtin models' data (weak coefficients, p, q, strong targets,
# prefactor), frozen here so that the job list depends on the seed alone.
TEMPLATES = {
    "aho": ((Fraction(1, 2),), 1, 3, (0.667986259155777108270962016919860,), "none"),
    "polaron_energy": ((Fraction(1), 0.0159196220, 0.000806070048), 1, 1,
                       (0.108513, 2.836), "neg_alpha"),
    "polaron_mass": ((Fraction(1), Fraction(1, 6), 0.02362763), 4, 1, (0.0227019,), "none"),
}


def _scaled(rng: random.Random, x: float) -> float:
    return float(x) * (1.0 + 0.1 * rng.gauss(0.0, 1.0))


def user_model(rng: random.Random, template: str, name: str) -> ModelData:
    """A builtin template with every coefficient after a_0, and every strong
    target, scaled by (1 + 0.1 N(0, 1))."""
    (a0, *rest), p, q, strong, prefactor = TEMPLATES[template]
    weak = (str(a0),) + tuple(repr(_scaled(rng, a)) for a in rest)
    return ModelData(name=name, weak=weak, p=p, q=q,
                     strong=tuple(_scaled(rng, b) for b in strong), prefactor=prefactor)


def _infer_block(rng: random.Random, start: int) -> list[Job]:
    slots = [(m, False) for m in TEMPLATES for _ in range(USER_PER_TEMPLATE)]
    slots += [(m, True) for m in TEMPLATES]
    rng.shuffle(slots)
    jobs = []
    for k, (template, builtin) in enumerate(slots):
        i = start + k
        if builtin:
            argv = ("infer", "--model", template, "--out", "{work}/ledger.csv")
            jobs.append(Job(index=i, kind="infer", model=template, argv=argv))
            continue
        md = user_model(rng, template, f"user_{template}_{i}")
        fname = f"model-{i}.txt"
        argv = ("infer", "--model-file", "{work}/" + fname, "--out", "{work}/ledger.csv")
        jobs.append(Job(index=i, kind="infer", model=template, argv=argv,
                        files={fname: md.file_text()}, user_model=md))
    return jobs


_BLOCKS = {
    "aho_curves": _aho_block,
    "polaron_curves": _polaron_block,
    "infer_models": _infer_block,
}


def generate(workload: str, seed: int):
    """Endless deterministic job stream for one workload and seed."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    block = _BLOCKS[workload]
    start = 0
    while True:
        jobs = block(rng, start)
        yield from jobs
        start += len(jobs)


def manifest(workload: str, seed: int, count: int = MANIFEST_JOBS) -> dict:
    """Seed plus a hash of the first `count` jobs (argv and file contents)."""
    stream = generate(workload, seed)
    entries = [next(stream).manifest_entry() for _ in range(count)]
    blob = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode()
    return {"workload": workload, "seed": seed, "jobs_hashed": count,
            "jobs_sha256": hashlib.sha256(blob).hexdigest()}


# Tiny untimed first job per workload: pays lazy imports and first-call costs
# before timing starts, since the benchmark measures a long-lived process.
WARMUP_ARGV = {
    "aho_curves": ("interpolate", "--model", "aho", "--points", "2",
                   "--out", "{work}/warmup.csv"),
    "polaron_curves": ("interpolate", "--model", "polaron_mass", "--points", "2",
                       "--alpha-min", "0.1", "--alpha-max", "1",
                       "--out", "{work}/warmup.csv"),
    "infer_models": ("infer", "--model", "polaron_energy", "--out", "{work}/ledger.csv"),
}
