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
import os
import random
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator, Sequence

# No command calls BLAS (every matrix product is on int64 or object arrays),
# and OpenBLAS starts a worker pool at import, which costs start-up time.  A
# value the user set is kept.  This is the first numpy import of the CLI.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .arith import IntMatrix, PrimePowerModulus, char_poly
from .errors import DimensionMismatchError, MatprngError, ResourceGuardError

# Each command imports the layers it runs when it runs: a command pays the
# start-up cost of those layers only (gen, period and validate load neither
# matprng.analysis nor mpmath).
if TYPE_CHECKING:
    from .generator import GeneratorConfig


class ConfigError(ValueError):
    pass


# Config schema.  A parser takes (value, key) and returns the parsed value
# or raises ConfigError.


def _typed(kinds: tuple[type, ...], what: str, convert=None):
    """A parser for JSON values of exactly the types `kinds` (so an integer
    kind refuses bools), converted by `convert` when given."""

    def parse(value, name: str):
        if type(value) not in kinds:
            raise ConfigError(f"{name} must be {what}")
        try:
            return value if convert is None else convert(value)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"{name}: {exc}") from None

    return parse


_as_int = _typed((int, str), "an integer or decimal string", int)
_as_fraction = _typed((int, float, str), "a rational number", lambda x: Fraction(str(x)))
# a real is finite: the float nearest its exact rational value
_as_real = _typed((int, float, str), "a real number", lambda x: float(Fraction(str(x))))
_as_bool = _typed((bool,), "a boolean")
_as_str = _typed((str,), "a string")
_as_object = _typed((dict,), "an object")


def _as_list(value, name: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ConfigError(f"{name} must be a list" + (f" of {length}" if length else ""))
    return value


def _as_ints(value, name: str) -> tuple[int, ...]:
    return tuple(_as_int(x, f"{name} entry") for x in _as_list(value, name))


def _as_matrix(value, name: str) -> IntMatrix:
    rows = [_as_ints(row, f"{name} row") for row in _as_list(value, name)]
    try:
        return IntMatrix.from_rows(rows)
    except DimensionMismatchError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _as_schedule(value, name: str) -> list[int]:
    schedule = list(_as_ints(value, name))
    if not schedule:
        raise ConfigError(f"{name} must not be empty")
    return schedule


def _as_positive(value, name: str) -> int:
    number = _as_int(value, name)
    if number < 1:
        raise ConfigError(f"{name} must be >= 1")
    return number


def _as_t_range(value, name: str) -> range:
    lo, hi = (_as_int(x, f"{name} entry") for x in _as_list(value, name, 2))
    if not 1 <= lo <= hi:
        raise ConfigError(f"{name} must be [lo, hi] with 1 <= lo <= hi")
    return range(lo, hi + 1)


def _as_triples(value, name: str) -> list[tuple[int, int, int]]:
    return [_as_ints(_as_list(x, f"{name} entry", 3), f"{name} entry") for x in _as_list(value, name)]


def _as_boxes(value, name: str) -> list[list[list[Fraction]]]:
    return [
        [[_as_fraction(x, f"{name} bound") for x in _as_list(side, f"{name} side", 2)]
         for side in _as_list(box, f"{name} box")]
        for box in _as_list(value, name)
    ]


def _as_level(value, name: str) -> str:
    if value not in ("thm1", "thm2"):
        raise ConfigError(f"{name} must be thm1 or thm2")
    return value


def _known(doc: dict, table: dict, what: str) -> None:
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


def _as_constants(value, name: str) -> dict:
    """Every constant: its parsed value where the config gives it, its
    default otherwise."""
    _known(_as_object(value, name), CONSTANTS, name)
    return {c: parse(value[c], c) if c in value else default
            for c, (parse, default) in CONSTANTS.items()}


# config key -> (Experiment field, parser); `comment` is read by nobody
SCHEMA = {
    "p": ("p", _as_int),
    "t": ("t", _as_int),
    "matrix": ("matrix", _as_matrix),
    "u0": ("u0", _as_ints),
    "v": ("v", _as_ints),
    "level": ("level", _as_level),
    "N": ("n_schedule", lambda value, name: [_as_int(value, name)]),
    "N_schedule": ("n_schedule", _as_schedule),
    "V": ("v_range", _as_int),
    "s_max": ("s_max", _as_positive),
    "t_range": ("t_range", _as_t_range),
    "count": ("count", _as_int),
    "scalar": ("scalar", _as_bool),
    "binary_out": ("binary_out", _as_str),
    "vmvt": ("vmvt", _as_triples),
    "boxes": ("boxes", _as_boxes),
    "constants": ("constants", _as_constants),
    "comment": (None, None),
}
# constant name -> (parser, default)
CONSTANTS = {
    "eta": (_as_real, 1.0),
    "c": (_as_real, 1.0),
    "eta0": (_as_real, 1.0),
    "c0_envelope": (_as_real, 1.0),
    "c0": (_as_int, 1000),
    "d_power": (_as_int, 4),
    "ks_constant": (_as_real, 1.5),
}


@dataclass
class Experiment:
    """Parsed experiment configuration, in the fields SCHEMA names; a key the
    config leaves out keeps its field's default."""

    p: int | None = None
    t: int | None = None
    matrix: IntMatrix | None = None
    u0: tuple[int, ...] | None = None
    v: tuple[int, ...] | None = None
    level: str = "thm1"
    n_schedule: list[int] | None = None
    v_range: int | None = None
    s_max: int | None = None
    t_range: range | None = None
    count: int | None = None
    scalar: bool = False
    binary_out: str | None = None
    vmvt: list[tuple[int, int, int]] | None = None
    boxes: list | None = None
    constants: dict = field(default_factory=lambda: _as_constants({}, "constants"))


def load_experiment(doc: dict) -> Experiment:
    """Parse every value of `doc` by SCHEMA; a malformed value, an unknown key
    or two keys for one field raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _known(doc, SCHEMA, "config keys")
    values, given = {}, {}
    for key, (name, parse) in SCHEMA.items():
        if key in doc and name is not None:
            if name in given:
                raise ConfigError(f"give either {given[name]} or {key}, not both")
            values[name], given[name] = parse(doc[key], key), key
    return Experiment(**values)


def _require(exp: Experiment, command: str, *names: str) -> None:
    """ConfigError naming the config keys of every field in `names` that the
    config leaves out."""
    missing = [
        " or ".join(key for key, (name, _) in SCHEMA.items() if name == wanted)
        for wanted in names
        if getattr(exp, wanted) is None
    ]
    if missing:
        raise ConfigError(f"{command} needs {' and '.join(missing)} in the config")


class Rejection(Exception):
    """Hypothesis rejection, exit 2.  `doc`, when given, is still written as
    the command's output (validate, report); otherwise the verdict goes to
    stderr."""

    def __init__(self, verdict, doc: dict | None = None):
        super().__init__(verdict.reason)
        self.verdict = verdict
        self.doc = doc


def _validation(exp: Experiment, verdict) -> dict:
    return {"level": exp.level, **verdict.to_dict()}


def _generator(exp: Experiment, command: str, validated: bool = True, keep=None) -> GeneratorConfig:
    """The one route from a config to a generator.  A validated generator
    carries the verdict on the config's level; a rejected verdict raises
    Rejection, which writes `keep(validation document)` when `keep` is
    given."""
    from .fieldalg import validate_theorem_hypotheses
    from .generator import GeneratorConfig

    _require(exp, command, "p", "t", "matrix", "u0")
    modulus = PrimePowerModulus(exp.p, exp.t)
    verdict = None
    if validated:
        verdict = validate_theorem_hypotheses(exp.matrix, exp.u0, exp.v, modulus, exp.level)
        if not verdict.accepted:
            raise Rejection(verdict, keep and keep(_validation(exp, verdict)))
    return GeneratorConfig(exp.matrix, modulus, exp.u0, exp.v, verdict)


@dataclass
class Table:
    """A command's rows.  `extras` join the rows in the JSON document and
    form the JSON sidecar in CSV mode, unless `sidecar` gives another one."""

    header: tuple[str, ...]
    rows: list[tuple] | Iterator[np.ndarray]  # a list of rows, or blocks of integer rows
    extras: dict = field(default_factory=dict)
    sidecar: dict | None = None
    dump: str | None = None  # a path: the record dump of every cell but a row's first

    def each_block(self, use, dump_fh: BinaryIO | None = None) -> None:
        """One pass over the rows: use(block) for each block in turn (a list
        of rows is one block).  Given the open `dump` file, one dump_records
        call writes the cells after the first of each block to it as the
        block passes."""
        blocks = iter([self.rows]) if isinstance(self.rows, list) else self.rows
        if dump_fh is None:
            for block in blocks:
                use(block)
            return
        from .generator import dump_records

        def values():
            for block in blocks:
                use(block)
                yield block[:, 1:]

        dump_records(values(), dump_fh)

    def records(self, columns: Sequence[str] | None = None) -> list[dict]:
        keep = self.header if columns is None else columns
        rows = []
        with nullcontext() if self.dump is None else open(self.dump, "wb") as dump_fh:
            self.each_block(
                lambda block: rows.extend(block.tolist() if isinstance(block, np.ndarray) else block),
                dump_fh,
            )
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
    {"rows": [...], **extras}, or as CSV, a block of rows at a time,
    followed by its sidecar, if any, at <out>.json (after the CSV on
    stdout)."""
    from .reports import render_csv, render_json

    if isinstance(result, dict):
        _write(args.out, render_json(result))
    elif args.format == "json":
        _write(args.out, render_json(result.doc()))
    else:
        # the dump is opened first, so that an unwritable path writes nothing
        with ExitStack() as files:
            dump_fh = None if result.dump is None else files.enter_context(open(result.dump, "wb"))
            fh = sys.stdout if args.out is None else files.enter_context(
                open(args.out, "w", encoding="utf-8", newline="")
            )
            fh.write(render_csv(result.header, []))
            result.each_block(lambda block: fh.write(render_csv((), block)), dump_fh)
        sidecar = result.extras if result.sidecar is None else result.sidecar
        if sidecar:
            _write(args.out, render_json(sidecar), suffix=".json" if args.out else "")


# ---------------------------------------------------------------------------
# Commands: each returns a Table, or a dict for the JSON-only ones
# ---------------------------------------------------------------------------


def cmd_validate(exp: Experiment, args) -> dict:
    cfg = _generator(exp, "validate", keep=lambda doc: doc)
    return _validation(exp, cfg.validated)


def _profile_summary(exp: Experiment, profile) -> dict:
    from .fieldalg import irreducible_mod_p
    from .padic import compute_w

    f = char_poly(exp.matrix)
    w = compute_w(f, exp.p, profile=profile) if irreducible_mod_p(f, exp.p) else None
    return {"tau_star": profile.tau_star, "beta_star": profile.beta_star,
            "s_star": profile.s_star, "w": w}


def _period_table(exp: Experiment) -> Table:
    from .padic import period_profile

    profile = period_profile(exp.matrix, exp.p, exp.t if exp.s_max is None else exp.s_max)
    summary = _profile_summary(exp, profile)
    rows = list(enumerate(profile.taus, start=1))
    return Table(("s", "tau_s"), rows, {"summary": summary}, sidecar=summary)


def cmd_period(exp: Experiment, args) -> Table:
    _generator(exp, "period")
    return _period_table(exp)


def cmd_gen(exp: Experiment, args) -> Table:
    from .generator import sequence_blocks

    cfg = _generator(exp, "gen", validated=False)
    count = exp.count
    if count is None:
        _require(exp, "gen without count", "n_schedule")
        count = exp.n_schedule[0]
    if exp.scalar:
        header = ("n", "x")
    else:
        header = ("n",) + tuple(f"u{i}" for i in range(cfg.a.d))
    blocks = sequence_blocks(cfg, count, exp.scalar)
    return Table(header, _numbered(blocks), dump=exp.binary_out)


def _numbered(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Each block of stream terms as rows (n, terms...), n counting from 0."""
    n = 0
    for block in blocks:
        yield np.column_stack((np.arange(n, n + len(block)), block))
        n += len(block)


def cmd_expsum(exp: Experiment, args) -> Table:
    from .analysis.sums import exp_sum

    _require(exp, "expsum", "n_schedule")
    cfg = _generator(exp, "expsum")
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
            constant_base=exp.constants["ks_constant"],
        )
        rows.append(
            (n, d, rep.kind, rep.value, float(rep.value), rep.ks_bound,
             float(rep.value) <= rep.ks_bound,
             rep.extreme_upper_bound if rep.kind == "star" else "")
        )
        if rep.boxes:
            counts = [
                {"bounds": [[str(lo), str(hi)] for lo, hi in bc.bounds],
                 "count": bc.count, "volume": bc.volume}
                for bc in rep.boxes
            ]
            diagnostics.append({"N": n, "boxes": counts})
    header = ("N", "d", "kind", "exact", "exact_decimal", "ks_bound",
              "exact_le_bound", "extreme_upper_from_star")
    return Table(header, rows, {"box_diagnostics": diagnostics} if diagnostics else {})


def cmd_discrepancy(exp: Experiment, args) -> Table:
    _require(exp, "discrepancy", "n_schedule", "v_range")
    cfg = _generator(exp, "discrepancy")
    return _discrepancy_table(exp, cfg, exp.boxes)


def cmd_vmvt(exp: Experiment, args) -> Table:
    from .analysis.bounds import ford_bound
    from .analysis.vinogradov import vinogradov_count

    _require(exp, "vmvt", "vmvt")
    c0 = exp.constants["c0"]
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
    k = exp.constants
    rows = []
    for n in exp.n_schedule:
        rep = exp_sum(cfg, n)
        env = theorem_envelope(n, exp.p, exp.t, d, k["eta"], k["c"], k["d_power"])
        denv = discrepancy_envelope(n, exp.p, exp.t, d, k["eta0"], k["c0_envelope"], k["d_power"])
        rows.append((n, rep.rho, rep.abs_value, rep.normalized, env, denv))
    header = ("N", "rho", "abs_S", "S_over_N", "sum_envelope", "discrepancy_envelope")
    return Table(header, rows)


def cmd_bounds(exp: Experiment, args) -> Table:
    from .analysis.params import proof_parameters
    from .analysis.sums import full_period_exponent
    from .padic import period_profile

    _require(exp, "bounds", "n_schedule")
    cfg = _generator(exp, "bounds")
    table = _bounds_table(exp, cfg)
    extras = table.extras
    if exp.t_range is not None:
        fp_rows = full_period_exponent(cfg, exp.t_range)
        extras["full_period"] = [
            {"t": r.t, "tau_t": r.tau, "abs_S": r.abs_value, "theta_t": r.theta}
            for r in fp_rows
        ]
    profile = period_profile(exp.matrix, exp.p, 2 if exp.s_max is None else max(2, exp.s_max))
    summary = _profile_summary(exp, profile)
    if summary["w"] is not None:
        try:
            pp = proof_parameters(
                max(exp.n_schedule), exp.p, exp.t, cfg.a.d, summary["w"],
                summary["s_star"], exp.constants["c0"],
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

    cfg = _generator(exp, "report", keep=lambda doc: {"validate": doc})
    doc = {"validate": _validation(exp, cfg.validated), "period": _period_table(exp).doc()}
    if exp.n_schedule is not None:
        doc["expsum"] = _bounds_table(exp, cfg).records(
            ("N", "rho", "abs_S", "S_over_N", "sum_envelope")
        )
        if exp.v_range is not None and cfg.a.d <= 3:
            doc["discrepancy"] = _discrepancy_table(exp, cfg).records(
                ("N", "kind", "exact", "ks_bound", "exact_le_bound")
            )
    if exp.vmvt is not None:
        doc["vmvt"] = cmd_vmvt(exp, args).records(("k", "r", "M", "count"))
    rng = random.Random(args.seed)
    residual_sample = []
    for _ in range(5):
        n, m, a = rng.randrange(20, 60), rng.randrange(1, 4), rng.randrange(0, 3)
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
