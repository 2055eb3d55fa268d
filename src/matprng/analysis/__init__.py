"""Measurement and bound machinery: exponential sums, power-sum counts,
explicit bound formulas, exact discrepancy, and proof-parameter bookkeeping.

Like the top-level package, this one imports a public name's submodule on
first access only."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "bounds": (
        "FordBound",
        "KorobovBound",
        "KSBound",
        "discrepancy_envelope",
        "ford_bound",
        "ford_k",
        "koksma_szusz_bound",
        "korobov_bound",
        "theorem_envelope",
    ),
    "discrepancy": (
        "BoxCount",
        "DiscrepancyReport",
        "box_counts",
        "exact_discrepancy",
        "full_discrepancy_report",
    ),
    "params": ("ProofParameters", "RationalizationRow", "integer_root", "proof_parameters"),
    "sums": (
        "FullPeriodRow",
        "SumReport",
        "double_sum_sigma",
        "exp_sum",
        "exp_sums",
        "full_period_exponent",
        "korobov_reduction_check",
        "korobov_reduction_residual",
        "scalar_residues",
    ),
    "vinogradov": ("vinogradov_count", "vinogradov_count_naive"),
})
