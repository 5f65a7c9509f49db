"""Command-line front end: figure-data CSV export, inference reports, and
the acceptance suite.

All numbers come from library calls; this module only assembles rows,
formats 17-significant-digit CSV (comma separated, LF endings), and maps
failures to exit codes (2 for configuration problems, 3 for solver
failures).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import acceptance, models, oracle, solvers, strong_limit
from .errors import VarInterpError
from .models import ModelSpec
from .series import ScalingLaw, StrongSeries, WeakSeries

__all__ = ["main", "load_model_file", "RunConfig"]

DEFAULT_LEDGER = "discrepancies.csv"

# spec'd historical alias for the corrected-strong-coefficient fit check
CRITERION_ALIASES = {"eq38": "strong_fit"}


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: ModelSpec | None
    alpha_min: float
    alpha_max: float
    points: int
    log: bool
    out: str | None
    criteria: tuple[str, ...] | None


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# user model files
# ---------------------------------------------------------------------------


def load_model_file(path: str) -> ModelSpec:
    """Parse a line-oriented `key = value` model description.

    Keys: name, weak_coeffs (comma list), p, q, strong_targets (comma list),
    omega, prefactor ("none" or "neg_alpha").  '#' starts a comment.
    """
    kv: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                if key in kv:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                kv[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read model file: {exc}") from exc

    missing = {"name", "weak_coeffs", "p", "q"} - kv.keys()
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    known = {"name", "weak_coeffs", "p", "q", "strong_targets", "omega", "prefactor"}
    extra = kv.keys() - known
    if extra:
        raise ConfigError(f"{path}: unknown keys {sorted(extra)}")

    def frac(key):
        try:
            return Fraction(kv[key])
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}: bad rational for {key!r}: {kv[key]!r}") from exc

    def floats(key):
        try:
            return tuple(float(s) for s in kv[key].split(","))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad number list for {key!r}: {kv[key]!r}") from exc

    prefactor = kv.get("prefactor", "none")
    if prefactor not in ("none", "neg_alpha"):
        raise ConfigError(f"{path}: prefactor must be 'none' or 'neg_alpha', got {prefactor!r}")
    try:
        weak_fracs = tuple(Fraction(s.strip()) for s in kv["weak_coeffs"].split(","))
        law = ScalingLaw(frac("p"), frac("q"))
        spec = ModelSpec(
            name=kv["name"],
            weak=WeakSeries(weak_fracs, label=kv["name"]),
            law=law,
            known_strong=floats("strong_targets") if "strong_targets" in kv else (),
            omega=float(kv.get("omega", "1.0")),
            prefactor=prefactor,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not (math.isfinite(spec.omega) and spec.omega > 0):
        raise ConfigError(f"{path}: omega must be positive and finite, got {spec.omega}")
    if not all(math.isfinite(b) for b in spec.known_strong):
        raise ConfigError(
            f"{path}: strong_targets must be finite, got {kv['strong_targets']!r}")
    # trial and strong-coupling polys need p - q n in halves up to the inferred order
    for n in range(len(weak_fracs) + len(spec.known_strong)):
        if (2 * (law.p - law.q * n)).denominator != 1:
            raise ConfigError(
                f"{path}: p - q n must be a half-integer, got {law.p - law.q * n} at n = {n}")
    return spec


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _grid(cfg: RunConfig) -> np.ndarray:
    if cfg.log:
        return np.geomspace(cfg.alpha_min, cfg.alpha_max, cfg.points)
    return np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.points)


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------


def cmd_interpolate(cfg: RunConfig) -> int:
    ext = cfg.model
    if ext.known_strong:
        try:
            ext, _ = solvers.extend_model(ext)
        except VarInterpError as exc:
            print(f"inference failed for {ext.name!r}: {exc}", file=sys.stderr)
            return 3
    couplings = _grid(cfg)
    header = [ext.coupling_name, "omega_N", "W_N"]
    rows = []
    pts = []
    for g in couplings:
        try:
            pts.append(solvers.interpolant(ext, [g])[0])
        except VarInterpError as exc:
            print(f"solver failure at {ext.coupling_name} = {g:.6g}: {exc}",
                  file=sys.stderr)
            return 3
    for g, pt in zip(couplings, pts):
        rows.append([g, pt.Omega, pt.value])

    if ext.name == "aho":
        header += ["E_exact", "ratio"]
        for row in rows:
            e = oracle.aho_exact_energy(row[0], omega=ext.omega)
            row += [e, row[2] / e]
    elif ext.name == "polaron_energy":
        header += ["weak", "strong", "feynman"]
        base = models.builtin("polaron_energy")
        strong = StrongSeries(base.law, base.known_strong)
        for row in rows:
            a = row[0]
            weak = base.apply_prefactor(a, base.weak.eval(a))
            st = base.apply_prefactor(a, strong.eval(a)) if a > 0 else math.nan
            row += [weak, st, models.feynman_energy(a)[0]]
    elif ext.name == "polaron_mass":
        header += ["M_as", "W_N_norm", "weak_norm", "strong_norm", "feynman_norm"]
        base = models.builtin("polaron_mass")
        strong = StrongSeries(base.law, base.known_strong)
        for row in rows:
            a = row[0]
            st = strong.eval(a) if a > 0 else 0.0
            m_as = 1.0 + st
            row += [m_as, row[2] / m_as, base.weak.eval(a) / m_as,
                    st / m_as, models.feynman_mass(a) / m_as]

    out = cfg.out or f"{ext.name}.csv"
    _write_csv(out, header, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def _discrepancies(spec: ModelSpec, ext, sol) -> list[tuple[str, float, float, str]]:
    """(quantity, paper_value, computed_value, source) rows for the ledger."""
    rows: list[tuple[str, float, float, str]] = []
    if spec.name == "aho":
        a1 = sol.extension[0]
        rows.append(("aho_a1", 0.773970, a1, "published first-order inference value"))
        rows.append(("aho_a1", (4.0 * models.AHO_B0 / 3.0) ** 3, a1,
                     "closed form (4 b0 / 3)^3"))
    elif spec.name == "polaron_energy":
        printed = dict(zip(("c", "a3", "a4"), acceptance.ENERGY_PRINTED_SOLUTION))
        got = dict(zip(("c", "a3", "a4"), (sol.c,) + sol.extension))
        for k in ("c", "a3", "a4"):
            rows.append((f"energy_{k}", printed[k], got[k],
                         "published simultaneous-solution values"))
        a0, _, a2 = (float(c) for c in spec.weak.coeffs)
        rows.append(("energy_c2_growth", 0.120154, math.sqrt(8.0 * a2 / (3.0 * a0)),
                     "published second-order frequency growth rate"))
    elif spec.name == "polaron_mass":
        rows.append(("mass_a3", 0.0416929, sol.extension[0],
                     "published third-order inference value"))
        sc = strong_limit.correct_bn(strong_limit.optimize_c(ext.weak, ext.law))
        rows.append(("mass_b1", 0.125722, sc.b_final[1],
                     "published corrected strong coefficients"))
        rows.append(("mass_b2", 1.15304, sc.b_final[2],
                     "published corrected strong coefficients"))
        rows.append(("feynman_mass_strong", 0.020141, models.FEYNMAN_MASS_STRONG,
                     "published strong-coupling mass coefficient"))
    return rows


def cmd_infer(cfg: RunConfig) -> int:
    spec = cfg.model
    if not spec.known_strong:
        print(f"model {spec.name!r} has no strong-coupling targets to invert",
              file=sys.stderr)
        return 2
    try:
        ext, sol = solvers.extend_model(spec)
    except VarInterpError as exc:
        print(f"inference failed for {spec.name!r}: {exc}", file=sys.stderr)
        return 3

    n0 = spec.weak.order + 1
    print(f"model: {spec.name}")
    print(f"c = {_fmt(sol.c)}")
    for k, a in enumerate(sol.extension):
        print(f"a{n0 + k} = {_fmt(a)}")
    print("residuals: " + ", ".join(_fmt(r) for r in sol.residuals)
          + f"  ({sol.iterations} iterations)")

    rows = _discrepancies(spec, ext, sol)
    for q, pv, cv, src in rows:
        print(f"discrepancy {q}: published {_fmt(pv)} vs computed {_fmt(cv)} [{src}]")
    path = os.environ.get("VARINTERP_LEDGER") or cfg.out or DEFAULT_LEDGER
    with open(path, "w", newline="\n") as fh:
        fh.write("quantity,paper_value,computed_value,source_eq\n")
        for q, pv, cv, src in rows:
            fh.write(f"{q},{_fmt(pv)},{_fmt(cv)},{src}\n")
    print(f"ledger: {path} ({len(rows)} entries)")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    names = None
    if cfg.criteria:
        names = [CRITERION_ALIASES.get(n, n) for n in cfg.criteria]
        unknown = [n for n in names if n not in acceptance.CRITERIA]
        if unknown:
            print(f"unknown criteria {unknown}; available: "
                  f"{sorted(acceptance.CRITERIA)}", file=sys.stderr)
            return 2
    results = acceptance.run_criteria(names)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.seconds:6.2f}s  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="varinterp",
        description="Variational interpolation between weak- and "
                    "strong-coupling series.")
    sub = ap.add_subparsers(dest="command", required=True)

    def model_args(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--model", choices=models.MODEL_NAMES,
                       help="builtin model name")
        g.add_argument("--model-file", help="path to a key = value model file")

    p_i = sub.add_parser("interpolate", help="optimized approximant over a "
                         "coupling grid, written as CSV")
    model_args(p_i)
    p_i.add_argument("--alpha-min", type=float, default=0.1)
    p_i.add_argument("--alpha-max", type=float, default=100.0)
    p_i.add_argument("--points", type=int, default=50)
    p_i.add_argument("--log", action="store_true", help="logarithmic grid")
    p_i.add_argument("--out", help="CSV output path (default <model>.csv)")

    p_f = sub.add_parser("infer", help="solve for unknown weak coefficients "
                         "from strong-coupling targets")
    model_args(p_f)
    p_f.add_argument("--out", help="discrepancy ledger CSV path "
                     f"(default {DEFAULT_LEDGER}; VARINTERP_LEDGER overrides)")

    p_v = sub.add_parser("verify", help="run the acceptance criteria")
    p_v.add_argument("--criterion", action="append", dest="criteria",
                     metavar="NAME", help="run only the named criterion "
                     "(repeatable)")
    return ap


def _config_from_args(args) -> RunConfig:
    model = None
    if getattr(args, "model", None):
        model = models.builtin(args.model)
    elif getattr(args, "model_file", None):
        model = load_model_file(args.model_file)
    cfg = RunConfig(
        command=args.command,
        model=model,
        alpha_min=getattr(args, "alpha_min", 0.0),
        alpha_max=getattr(args, "alpha_max", 1.0),
        points=getattr(args, "points", 2),
        log=getattr(args, "log", False),
        out=getattr(args, "out", None),
        criteria=tuple(args.criteria) if getattr(args, "criteria", None) else None,
    )
    if args.command == "interpolate":
        if not (math.isfinite(cfg.alpha_min) and math.isfinite(cfg.alpha_max)):
            raise ConfigError(
                f"grid bounds must be finite, got {cfg.alpha_min}, {cfg.alpha_max}")
        if cfg.points < 2:
            raise ConfigError(f"need at least 2 grid points, got {cfg.points}")
        if not cfg.alpha_min < cfg.alpha_max:
            raise ConfigError(
                f"need alpha-min < alpha-max, got {cfg.alpha_min} >= {cfg.alpha_max}")
        if cfg.log and cfg.alpha_min <= 0:
            raise ConfigError(f"log grid needs alpha-min > 0, got {cfg.alpha_min}")
        if cfg.alpha_min < 0:
            raise ConfigError(f"couplings must be nonnegative, got {cfg.alpha_min}")
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if cfg.command == "interpolate":
        return cmd_interpolate(cfg)
    if cfg.command == "infer":
        return cmd_infer(cfg)
    return cmd_verify(cfg)


if __name__ == "__main__":
    sys.exit(main())
