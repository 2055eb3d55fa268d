"""Batch front door.

    matprng <command> --config cfg.json [--out PATH] [--threads N]
                      [--seed S] [--format csv|json]

Commands: validate | period | gen | expsum | discrepancy | vmvt | bounds | report.
One JSON config in, CSV/JSON artifacts out; all integers in the config may be
decimal strings (arbitrary precision).  Exit codes: 0 success, 1 input or output error,
2 hypothesis rejection, 3 resource guard.  `--threads` is accepted and changes
nothing: every command runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .arith import IntMatrix, PrimePowerModulus, char_poly
from .errors import MatprngError, ResourceGuardError

# Each command imports the layers it runs when it runs: a command pays the
# start-up cost of those layers only (gen, period and validate load neither
# matprng.analysis nor mpmath).
if TYPE_CHECKING:
    from .generator import GeneratorConfig


class ConfigError(ValueError):
    pass


_KNOWN_KEYS = {
    "p", "t", "matrix", "u0", "v", "level", "N", "N_schedule", "V", "s_max",
    "s", "t_range", "count", "scalar", "binary_out", "vmvt", "boxes",
    "constants", "comment",
}
_KNOWN_CONSTANTS = {"eta", "c", "eta0", "c0_envelope", "c0", "d_power", "ks_constant"}


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f"{name} must be an integer or decimal string")
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _as_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list")
    return value


def _as_ints(value, name: str) -> tuple[int, ...]:
    return tuple(_as_int(x, f"{name} entry") for x in _as_list(value, name))


@dataclass
class Experiment:
    """Parsed experiment configuration."""

    raw: dict
    p: int | None = None
    t: int | None = None
    matrix: IntMatrix | None = None
    u0: tuple[int, ...] | None = None
    v: tuple[int, ...] | None = None
    level: str = "thm1"
    n_schedule: list[int] | None = None
    v_range: int | None = None
    s_max: int | None = None
    s: int | None = None
    t_range: list[int] | None = None
    count: int | None = None
    scalar: bool = False
    binary_out: str | None = None
    vmvt: list[tuple[int, int, int]] | None = None
    boxes: list | None = None
    constants: dict | None = None

    @property
    def modulus(self) -> PrimePowerModulus:
        if self.p is None or self.t is None:
            raise ConfigError("config needs p and t")
        return PrimePowerModulus(self.p, self.t)

    def generator(self, validated: bool = False) -> GeneratorConfig:
        from .generator import GeneratorConfig

        if self.matrix is None or self.u0 is None:
            raise ConfigError("config needs matrix and u0")
        level = self.level if validated else None
        return GeneratorConfig.create(self.matrix, self.modulus, self.u0, self.v, level)

    def constant(self, name: str, default):
        if self.constants and name in self.constants:
            value = self.constants[name]
            return value if name == "d_power" else float(value)
        return default


def load_experiment(doc: dict) -> Experiment:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    exp = Experiment(raw=doc)
    if "p" in doc:
        exp.p = _as_int(doc["p"], "p")
    if "t" in doc:
        exp.t = _as_int(doc["t"], "t")
    if "matrix" in doc:
        rows = doc["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("matrix must be a nonempty list of rows")
        exp.matrix = IntMatrix.from_rows(
            [[_as_int(x, "matrix entry") for x in _as_list(row, "matrix row")] for row in rows]
        )
    if "u0" in doc:
        exp.u0 = _as_ints(doc["u0"], "u0")
    if "v" in doc:
        exp.v = _as_ints(doc["v"], "v")
    if "level" in doc:
        if doc["level"] not in ("thm1", "thm2"):
            raise ConfigError("level must be thm1 or thm2")
        exp.level = doc["level"]
    if "N" in doc and "N_schedule" in doc:
        raise ConfigError("give either N or N_schedule, not both")
    if "N" in doc:
        exp.n_schedule = [_as_int(doc["N"], "N")]
    if "N_schedule" in doc:
        exp.n_schedule = list(_as_ints(doc["N_schedule"], "N_schedule"))
    if "V" in doc:
        exp.v_range = _as_int(doc["V"], "V")
    if "s_max" in doc:
        exp.s_max = _as_int(doc["s_max"], "s_max")
    if "s" in doc:
        exp.s = _as_int(doc["s"], "s")
    if "t_range" in doc:
        rng = doc["t_range"]
        if not (isinstance(rng, list) and len(rng) == 2):
            raise ConfigError("t_range must be [t_lo, t_hi]")
        lo, hi = (_as_int(x, "t_range entry") for x in rng)
        exp.t_range = list(range(lo, hi + 1))
    if "count" in doc:
        exp.count = _as_int(doc["count"], "count")
    if "scalar" in doc:
        if not isinstance(doc["scalar"], bool):
            raise ConfigError("scalar must be a boolean")
        exp.scalar = doc["scalar"]
    if "binary_out" in doc:
        exp.binary_out = str(doc["binary_out"])
    if "vmvt" in doc:
        items = doc["vmvt"]
        if not isinstance(items, list):
            raise ConfigError("vmvt must be a list of [k, r, M] triples")
        exp.vmvt = [
            tuple(_as_int(x, "vmvt entry") for x in _as_list(triple, "vmvt triple"))
            for triple in items
        ]
        if any(len(tr) != 3 for tr in exp.vmvt):
            raise ConfigError("vmvt entries must be [k, r, M] triples")
    if "boxes" in doc:
        exp.boxes = []
        for box in _as_list(doc["boxes"], "boxes"):
            sides = [_as_list(side, "box side") for side in _as_list(box, "box")]
            if any(len(side) != 2 for side in sides):
                raise ConfigError("box sides must be [lo, hi] pairs")
            exp.boxes.append([[Fraction(str(lo)), Fraction(str(hi))] for lo, hi in sides])
    if "constants" in doc:
        consts = doc["constants"]
        if not isinstance(consts, dict):
            raise ConfigError("constants must be an object")
        unknown = set(consts) - _KNOWN_CONSTANTS
        if unknown:
            raise ConfigError(f"unknown constants: {sorted(unknown)}")
        exp.constants = consts
    return exp


class Rejection(Exception):
    """Hypothesis rejection, exit 2.  `doc`, when given, is still written as
    the command's output (validate, report); otherwise the verdict goes to
    stderr."""

    def __init__(self, verdict, doc: dict | None = None):
        super().__init__(verdict.reason)
        self.verdict = verdict
        self.doc = doc


def _validated_generator(exp: Experiment) -> GeneratorConfig:
    cfg = exp.generator(validated=True)
    if not cfg.validated.accepted:
        raise Rejection(cfg.validated)
    return cfg


@dataclass
class Table:
    """A command's rows.  `extras` join the rows in the JSON document and
    form the JSON sidecar in CSV mode, unless `sidecar` gives another one."""

    header: tuple[str, ...]
    rows: list[tuple] | np.ndarray  # an array holds integers only
    extras: dict = field(default_factory=dict)
    sidecar: dict | None = None

    def records(self, columns: Sequence[str] | None = None) -> list[dict]:
        keep = self.header if columns is None else columns
        rows = self.rows.tolist() if isinstance(self.rows, np.ndarray) else self.rows
        return [{k: x for k, x in zip(self.header, row) if k in keep} for row in rows]

    def doc(self) -> dict:
        return {"rows": self.records(), **self.extras}


def _write(out: str | None, text: str, suffix: str = "") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out + suffix).write_text(text, encoding="utf-8", newline="")


def _emit(result: Table | dict, args) -> None:
    """The one writer.  A dict is a JSON document; a Table is written as JSON
    {"rows": [...], **extras}, or as CSV followed by its sidecar, if any, at
    <out>.json (after the CSV on stdout)."""
    from .reports import render_csv, render_json

    if isinstance(result, dict):
        _write(args.out, render_json(result))
    elif args.format == "json":
        _write(args.out, render_json(result.doc()))
    else:
        _write(args.out, render_csv(result.header, result.rows))
        sidecar = result.extras if result.sidecar is None else result.sidecar
        if sidecar:
            _write(args.out, render_json(sidecar), suffix=".json" if args.out else "")


# ---------------------------------------------------------------------------
# Commands: each returns a Table, or a dict for the JSON-only ones
# ---------------------------------------------------------------------------


def _validation(exp: Experiment, command: str):
    from .fieldalg import validate_theorem_hypotheses

    if exp.matrix is None or exp.u0 is None:
        raise ConfigError(f"{command} needs matrix and u0")
    verdict = validate_theorem_hypotheses(
        exp.matrix, exp.u0, exp.v, exp.modulus, exp.level
    )
    return verdict, {"level": exp.level, **verdict.to_dict()}


def cmd_validate(exp: Experiment, args) -> dict:
    verdict, doc = _validation(exp, "validate")
    if not verdict.accepted:
        raise Rejection(verdict, doc)
    return doc


def _profile_summary(exp: Experiment, profile) -> dict:
    from .fieldalg import irreducible_mod_p
    from .padic import compute_w

    f = char_poly(exp.matrix)
    w = None
    if irreducible_mod_p(f, exp.p):
        w = compute_w(f, exp.p, profile=profile)
    return {
        "tau_star": profile.tau_star,
        "beta_star": profile.beta_star,
        "s_star": profile.s_star,
        "w": w,
    }


def _period_table(exp: Experiment) -> Table:
    from .padic import period_profile

    profile = period_profile(exp.matrix, exp.p, exp.s_max or exp.t)
    summary = _profile_summary(exp, profile)
    rows = list(enumerate(profile.taus, start=1))
    return Table(("s", "tau_s"), rows, {"summary": summary}, sidecar=summary)


def cmd_period(exp: Experiment, args) -> Table:
    _validated_generator(exp)
    return _period_table(exp)


def cmd_gen(exp: Experiment, args) -> Table:
    from .generator import dump_records, scalar_sequence, vector_sequence

    cfg = exp.generator()
    count = exp.count or (exp.n_schedule[0] if exp.n_schedule else None)
    if count is None:
        raise ConfigError("gen needs count (or N)")
    if exp.scalar:
        stream = np.array(scalar_sequence(cfg, 0, count), dtype=object).reshape(count, 1)
        header = ("n", "x")
    else:
        stream = vector_sequence(cfg, 0, count)
        header = ("n",) + tuple(f"u{i}" for i in range(cfg.a.d))
    if exp.binary_out:
        with open(exp.binary_out, "wb") as fh:
            dump_records(stream, fh)
    return Table(header, np.column_stack((np.arange(count), stream)))


def cmd_expsum(exp: Experiment, args) -> Table:
    from .analysis.sums import exp_sum

    cfg = _validated_generator(exp)
    if not exp.n_schedule:
        raise ConfigError("expsum needs N or N_schedule")
    rows = []
    for n in exp.n_schedule:
        rep = exp_sum(cfg, n)
        rows.append(
            (n, rep.rho, rep.abs_value, rep.normalized, rep.value.real,
             rep.value.imag, rep.method, rep.error_bound)
        )
    header = ("N", "rho", "abs_S", "S_over_N", "re_S", "im_S", "method", "error_bound")
    return Table(header, rows)


def _discrepancy_table(exp: Experiment, cfg: GeneratorConfig, boxes=None) -> Table:
    from .analysis.discrepancy import full_discrepancy_report

    d = cfg.a.d
    rows = []
    diagnostics = []
    for n in exp.n_schedule:
        rep = full_discrepancy_report(
            cfg, n, exp.v_range, boxes=boxes,
            constant_base=exp.constant("ks_constant", 1.5),
        )
        rows.append(
            (n, d, rep.kind, rep.value, float(rep.value), rep.ks_bound,
             float(rep.value) <= rep.ks_bound,
             rep.extreme_upper_bound if rep.kind == "star" else "")
        )
        if rep.boxes:
            diagnostics.append(
                {
                    "N": n,
                    "boxes": [
                        {
                            "bounds": [[str(lo), str(hi)] for lo, hi in bc.bounds],
                            "count": bc.count,
                            "volume": bc.volume,
                        }
                        for bc in rep.boxes
                    ],
                }
            )
    header = ("N", "d", "kind", "exact", "exact_decimal", "ks_bound",
              "exact_le_bound", "extreme_upper_from_star")
    return Table(header, rows, {"box_diagnostics": diagnostics} if diagnostics else {})


def cmd_discrepancy(exp: Experiment, args) -> Table:
    cfg = _validated_generator(exp)
    if not exp.n_schedule or exp.v_range is None:
        raise ConfigError("discrepancy needs N (or N_schedule) and V")
    return _discrepancy_table(exp, cfg, exp.boxes)


def cmd_vmvt(exp: Experiment, args) -> Table:
    from .analysis.bounds import ford_bound
    from .analysis.vinogradov import vinogradov_count

    if not exp.vmvt:
        raise ConfigError("vmvt needs a list of [k, r, M] triples")
    c0 = int(exp.constant("c0", 1000))
    d_for_bound = exp.matrix.d if exp.matrix is not None else 2
    rows = []
    for k, r, m in exp.vmvt:
        count = vinogradov_count(k, r, m)
        fb = ford_bound(r, d_for_bound, m, c0)
        rows.append(
            (k, r, m, count, m**k, fb.value, fb.k, fb.exponent,
             fb.delta_r, fb.valid)
        )
    header = ("k", "r", "M", "count", "M_pow_k", "ford_bound", "ford_k",
              "ford_exponent", "delta_r", "valid_r_ge_c0d")
    return Table(header, rows)


def _bounds_table(exp: Experiment, cfg: GeneratorConfig) -> Table:
    from .analysis.bounds import discrepancy_envelope, theorem_envelope
    from .analysis.sums import exp_sum

    d = cfg.a.d
    eta = exp.constant("eta", 1.0)
    c = exp.constant("c", 1.0)
    eta0 = exp.constant("eta0", 1.0)
    c0_env = exp.constant("c0_envelope", 1.0)
    d_power = int(exp.constant("d_power", 4))
    rows = []
    for n in exp.n_schedule:
        rep = exp_sum(cfg, n)
        env = theorem_envelope(n, exp.p, exp.t, d, eta, c, d_power)
        denv = discrepancy_envelope(n, exp.p, exp.t, d, eta0, c0_env, d_power)
        rows.append((n, rep.rho, rep.abs_value, rep.normalized, env, denv))
    header = ("N", "rho", "abs_S", "S_over_N", "sum_envelope", "discrepancy_envelope")
    return Table(header, rows)


def cmd_bounds(exp: Experiment, args) -> Table:
    from .analysis.params import proof_parameters
    from .analysis.sums import full_period_exponent
    from .padic import period_profile

    cfg = _validated_generator(exp)
    if not exp.n_schedule:
        raise ConfigError("bounds needs N or N_schedule")
    table = _bounds_table(exp, cfg)
    extras = table.extras
    if exp.t_range:
        fp_rows = full_period_exponent(cfg, exp.t_range)
        extras["full_period"] = [
            {"t": r.t, "tau_t": r.tau, "abs_S": r.abs_value, "theta_t": r.theta}
            for r in fp_rows
        ]
    profile = period_profile(exp.matrix, exp.p, max(2, exp.s_max or 2))
    summary = _profile_summary(exp, profile)
    if summary["w"] is not None:
        try:
            pp = proof_parameters(
                max(exp.n_schedule), exp.p, exp.t, cfg.a.d, summary["w"],
                summary["s_star"], int(exp.constant("c0", 1000)),
            )
            extras["proof_parameters"] = {
                "s": pp.s, "r": pp.r, "k": pp.k, "lambda": pp.lam,
                "rho": pp.rho, "r_lt_s": pp.r_lt_s, "ws_le_s": pp.ws_le_s,
                "p4s_le_n": pp.p4s_le_n, "n_ge_p8sqrt_t": pp.n_ge_p8sqrt_t,
                "large_r_branch": pp.large_r_branch, "N0": pp.n0, "rho0": pp.rho0,
            }
        except ValueError as exc:
            extras["proof_parameters"] = {"error": str(exc)}
    return table


def cmd_report(exp: Experiment, args) -> dict:
    from .analysis.sums import korobov_reduction_check
    from .generator import GeneratorConfig

    verdict, validation = _validation(exp, "report")
    doc: dict = {"validate": validation}
    if not verdict.accepted:
        raise Rejection(verdict, doc)
    cfg = GeneratorConfig(exp.matrix, exp.modulus, exp.u0, exp.v, verdict)
    doc["period"] = _period_table(exp).doc()
    if exp.n_schedule:
        doc["expsum"] = _bounds_table(exp, cfg).records(
            ("N", "rho", "abs_S", "S_over_N", "sum_envelope")
        )
        if exp.v_range is not None and cfg.a.d <= 3:
            doc["discrepancy"] = _discrepancy_table(exp, cfg).records(
                ("N", "kind", "exact", "ks_bound", "exact_le_bound")
            )
    if exp.vmvt:
        doc["vmvt"] = cmd_vmvt(exp, args).records(("k", "r", "M", "count"))
    rng = random.Random(args.seed)
    residual_sample = []
    for _ in range(5):
        n = rng.randrange(20, 60)
        m = rng.randrange(1, 4)
        a = rng.randrange(0, 3)
        residual = korobov_reduction_check(cfg, n, m, a)
        residual_sample.append(
            {"N": n, "M": m, "a": a, "residual": residual, "nonnegative": residual >= 0}
        )
    doc["reduction_residuals"] = {"seed": args.seed, "samples": residual_sample}
    return doc


_COMMANDS = {
    "validate": cmd_validate,
    "period": cmd_period,
    "gen": cmd_gen,
    "expsum": cmd_expsum,
    "discrepancy": cmd_discrepancy,
    "vmvt": cmd_vmvt,
    "bounds": cmd_bounds,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matprng", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
        sp.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; every command runs in one thread",
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    from .reports import render_json

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        exp = load_experiment(doc)
        try:
            result, code = _COMMANDS[args.command](exp, args), 0
        except Rejection as rej:
            if rej.doc is None:
                sys.stderr.write(render_json(rej.verdict.to_dict()))
                return 2
            result, code = rej.doc, 2
        _emit(result, args)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        sys.stderr.write(render_json({"error": type(exc).__name__, "message": str(exc)}))
        return 3
    except (MatprngError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
