"""Batch front door.

    matprng <command> --config cfg.json [--out PATH] [--threads N]
                      [--seed S] [--format csv|json]

Commands: validate | period | gen | expsum | discrepancy | vmvt | bounds | report.
Every command takes the same options, before or after the command name.
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
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator, NamedTuple, Sequence

# OpenBLAS starts a worker pool when numpy is imported, which costs start-up
# time, and the one float matrix product, the phase-sum kernel's digits times
# their weights, is too small to gain from one (and exact in any order).
# The CLI imports numpy only in the commands that stream, but the variable is
# set here, before any of them can run.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import IntMatrix, PrimePowerModulus, char_poly, str_digits
from .errors import DimensionMismatchError, MatprngError, ResourceGuardError
from .errors import NonSquarefreeError, NotIrreducibleError

# main checks a command's config against its row of _COMMANDS before the
# command runs, and each command imports the layers it runs when it runs: a
# command pays the start-up cost of those layers only, and a config that is
# incomplete (exit 1) or rejected (exit 2) loads none of them.  validate and
# period load no numpy; gen loads numpy but not matprng.analysis.
if TYPE_CHECKING:
    import numpy as np

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


def _as_positive(value, name: str) -> int:
    number = _as_int(value, name)
    if number < 1:
        raise ConfigError(f"{name} must be >= 1")
    return number


def _as_schedule(value, name: str) -> list[int]:
    schedule = [_as_positive(x, f"{name} entry") for x in _as_list(value, name)]
    if not schedule:
        raise ConfigError(f"{name} must not be empty")
    return schedule


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
    "N": ("n_schedule", lambda value, name: [_as_positive(value, name)]),
    "N_schedule": ("n_schedule", _as_schedule),
    "V": ("v_range", _as_positive),
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


class _ExperimentFields(NamedTuple):
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
    constants: dict | None = None


class Experiment(_ExperimentFields):
    """Parsed experiment configuration, in the fields SCHEMA names; a key the
    config leaves out keeps its field's default.  Without `constants`, an
    experiment gets a dict of its own holding every default constant."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Experiment":
        exp = super().__new__(cls, *args, **kwargs)
        if exp.constants is None:
            exp = exp._replace(constants=_as_constants({}, "constants"))
        return exp


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
    """Hypothesis rejection, exit 2; main writes what the command's row of
    _COMMANDS names."""

    def __init__(self, verdict):
        super().__init__(verdict.reason)
        self.verdict = verdict


def _validation(exp: Experiment, verdict) -> dict:
    return {"level": exp.level, **verdict.to_dict()}


def _generator(exp: Experiment, command: str, validated: bool) -> GeneratorConfig:
    """The one route from a config to a generator.  A validated generator
    carries the verdict on the config's level; a rejected verdict raises
    Rejection before the generator is built."""
    from .fieldalg import validate_theorem_hypotheses
    from .generator import GeneratorConfig

    _require(exp, command, "p", "t", "matrix", "u0")
    modulus = PrimePowerModulus(exp.p, exp.t)
    verdict = None
    if validated:
        verdict = validate_theorem_hypotheses(exp.matrix, exp.u0, exp.v, modulus, exp.level)
        if not verdict.accepted:
            raise Rejection(verdict)
    return GeneratorConfig(exp.matrix, modulus, exp.u0, exp.v, verdict)


class _TableFields(NamedTuple):
    header: tuple[str, ...]
    rows: list[tuple] | Iterator[np.ndarray | list]  # a list of rows, or blocks of rows
    extras: dict
    sidecar: dict | None
    dump: str | None  # a path: the record dump of every cell but a row's first


class Table(_TableFields):
    """A command's rows.  `extras` (a new dict when not given) join the rows
    in the JSON document and form the JSON sidecar in CSV mode, unless
    `sidecar` gives another one."""

    __slots__ = ()

    def __new__(cls, header, rows, extras: dict | None = None, sidecar: dict | None = None,
                dump: str | None = None) -> "Table":
        return super().__new__(cls, header, rows, {} if extras is None else extras, sidecar, dump)

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
        self.each_block(lambda block: rows.extend(block if isinstance(block, list) else block.tolist()))
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
    stdout).  A Table's record dump is written here, in either format, as
    its rows pass."""
    from .reports import render_csv, render_json

    if isinstance(result, dict):
        _write(args.out, render_json(result))
        return
    # the dump is opened first, so that an unwritable path writes nothing
    with ExitStack() as files:
        dump_fh = None if result.dump is None else files.enter_context(open(result.dump, "wb"))
        if args.format == "json":
            blocks = []
            result.each_block(blocks.append, dump_fh)
            _write(args.out, render_json(result._replace(rows=iter(blocks)).doc()))
            return
        fh = sys.stdout if args.out is None else files.enter_context(
            open(args.out, "w", encoding="utf-8", newline="")
        )
        fh.write(render_csv(result.header, []))
        result.each_block(lambda block: fh.write(render_csv((), block)), dump_fh)
    sidecar = result.extras if result.sidecar is None else result.sidecar
    if sidecar:
        _write(args.out, render_json(sidecar), suffix=".json" if args.out else "")


# ---------------------------------------------------------------------------
# Commands: each runs on a config that passed the checks of its row of
# _COMMANDS, and returns a Table, or a dict for the JSON-only ones
# ---------------------------------------------------------------------------


def cmd_validate(exp: Experiment, cfg: GeneratorConfig, args) -> dict:
    return _validation(exp, cfg.validated)


def _profile_summary(exp: Experiment, profile) -> dict:
    from .padic import compute_w

    try:  # w has a root-based value only where f is irreducible mod p
        w = compute_w(char_poly(exp.matrix), exp.p, profile=profile)
    except (NotIrreducibleError, NonSquarefreeError):
        w = None
    return {"tau_star": profile.tau_star, "beta_star": profile.beta_star,
            "s_star": profile.s_star, "w": w}


def _period_table(exp: Experiment) -> Table:
    from .padic import period_profile

    profile = period_profile(exp.matrix, exp.p, exp.t if exp.s_max is None else exp.s_max)
    summary = _profile_summary(exp, profile)
    rows = list(enumerate(profile.taus, start=1))
    return Table(("s", "tau_s"), rows, {"summary": summary}, sidecar=summary)


def cmd_period(exp: Experiment, cfg: GeneratorConfig, args) -> Table:
    return _period_table(exp)


def cmd_gen(exp: Experiment, cfg: GeneratorConfig, args) -> Table:
    count = exp.count
    if count is None:
        _require(exp, "gen without count", "n_schedule")
        count = exp.n_schedule[0]
    if exp.scalar:
        if cfg.v is None:
            raise ValueError("scalar sequences need v in the config")
        header = ("n", "x")
    else:
        header = ("n",) + tuple(f"u{i}" for i in range(cfg.a.d))
    from .stream import stream_blocks  # numpy, once the config is known to be whole

    blocks = stream_blocks(cfg.a, cfg.u0, cfg.m, count, 0, cfg.v if exp.scalar else None)
    return Table(header, _numbered(blocks), dump=exp.binary_out)


def _numbered(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Each block of stream terms as rows (n, terms...), n counting from 0,
    in the block's dtype (numpy would widen uint64 and int64 to float64)."""
    import numpy as np

    n = 0
    for block in blocks:
        yield np.column_stack((np.arange(n, n + len(block)).astype(block.dtype, copy=False), block))
        n += len(block)


def cmd_expsum(exp: Experiment, cfg: GeneratorConfig, args) -> Table:
    from .analysis.sums import exp_sums

    rows = [
        (rep.n, rep.rho, rep.abs_value, rep.normalized, rep.value.real,
         rep.value.imag, rep.method, rep.error_bound)
        for rep in exp_sums(cfg, exp.n_schedule)
    ]
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


def cmd_discrepancy(exp: Experiment, cfg: GeneratorConfig, args) -> Table:
    return _discrepancy_table(exp, cfg, exp.boxes)


def cmd_vmvt(exp: Experiment, cfg: GeneratorConfig | None, args) -> Table:
    from .analysis.bounds import ford_bound
    from .analysis.vinogradov import vinogradov_count

    c0 = exp.constants["c0"]
    d_for_bound = exp.matrix.d if exp.matrix is not None else 2
    rows = []
    for k, r, m in exp.vmvt:
        # the count <= M^(2k) is written in decimal
        digits, limit = str_digits(1, m, 2 * k)
        if digits > limit:
            raise ResourceGuardError("count_digits", digits, limit)
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
    from .analysis.sums import exp_sums

    d = cfg.a.d
    k = exp.constants
    rows = []
    for rep in exp_sums(cfg, exp.n_schedule):
        n = rep.n
        env = theorem_envelope(n, exp.p, exp.t, d, k["eta"], k["c"], k["d_power"])
        denv = discrepancy_envelope(n, exp.p, exp.t, d, k["eta0"], k["c0_envelope"], k["d_power"])
        rows.append((n, rep.rho, rep.abs_value, rep.normalized, env, denv))
    header = ("N", "rho", "abs_S", "S_over_N", "sum_envelope", "discrepancy_envelope")
    return Table(header, rows)


def cmd_bounds(exp: Experiment, cfg: GeneratorConfig, args) -> Table:
    from .analysis.params import proof_parameters
    from .analysis.sums import full_period_exponent
    from .padic import period_profile

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


def cmd_report(exp: Experiment, cfg: GeneratorConfig, args) -> dict:
    from .analysis.sums import korobov_reduction_check

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
        doc["vmvt"] = cmd_vmvt(exp, cfg, args).records(("k", "r", "M", "count"))
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


# The pre-flight table, one row per command, which main reads before the
# command runs:
#   the command, called as command(exp, cfg, args);
#   the Experiment fields it needs, checked before the generator's
#   (p, t, matrix and u0);
#   its generator: "validated", "unvalidated", or None (cfg is None);
#   what a rejected verdict writes: "verdict" (the validation document),
#   "report" ({"validate": that document}), or None (the verdict, on stderr);
#   whether it sums phases e(x / p^t) in float64, so that p^t must convert to
#   a float (checked after the verdict, exit 1).
_COMMANDS = {
    "validate": (cmd_validate, (), "validated", "verdict", False),
    "period": (cmd_period, (), "validated", None, False),
    "gen": (cmd_gen, (), "unvalidated", None, False),
    "expsum": (cmd_expsum, ("n_schedule", "v"), "validated", None, True),
    "discrepancy": (cmd_discrepancy, ("n_schedule", "v_range"), "validated", None, True),
    "vmvt": (cmd_vmvt, ("vmvt",), None, None, False),
    "bounds": (cmd_bounds, ("n_schedule", "v"), "validated", None, True),
    "report": (cmd_report, ("v",), "validated", "report", True),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser: every command takes the same options."""
    parser = argparse.ArgumentParser(prog="matprng", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output path (stdout if omitted)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; every command runs in one thread",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
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
        command, needs, generator, rejection, phases = _COMMANDS[args.command]
        _require(exp, args.command, *needs)
        try:
            cfg = None if generator is None else _generator(exp, args.command, generator == "validated")
        except Rejection as rej:
            if rejection is None:
                sys.stderr.write(render_json(rej.verdict.to_dict()))
                return 2
            validation = _validation(exp, rej.verdict)
            _emit(validation if rejection == "verdict" else {"validate": validation}, args)
            return 2
        if phases:
            cfg.m.check_float_range()
        _emit(command(exp, cfg, args), args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        sys.stderr.write(render_json(exc.payload()))
        return 3
    except (MatprngError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The process entry point: main() with the cyclic GC off.  A command
    leaves a few dozen cyclic objects whatever its size, so the process
    never collects, and gc.freeze() spares the collections at exit a walk
    over numpy's heap."""
    import gc

    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
