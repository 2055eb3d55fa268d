"""Matrix congruential generators modulo prime powers.

Exact integer streams u_{n+1} = A u_n (mod p^t), their order growth and
p-adic expansion coefficients, plus measurement tools: exponential sums,
power-sum system counts, explicit bound formulas, and exact discrepancy.

The public names and the submodules are loaded on first access (PEP 562),
so that importing one submodule, such as the CLI, does not import every
layer.
"""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]], others: tuple[str, ...] = ()):
    """The `__getattr__`, `__dir__` and `__all__` of a package whose public
    names are imported from their submodules on first access.

    `exports` maps each submodule to the names it provides, and `others`
    names the package's remaining submodules.  A submodule's name imports
    it, so `package.submodule.name` works after a bare `import package`;
    any other name raises AttributeError."""
    source = {name: module for module, names in exports.items() for name in names}
    submodules = set(exports) | set(others)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{source[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__, list(source)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "arith": (
        "IntMatrix",
        "IntPolynomial",
        "PrimePowerModulus",
        "char_poly",
        "companion_matrix",
        "det_exact",
        "mat_mul_mod",
        "mat_pow_mod",
        "valuation",
    ),
    "fieldalg": (
        "Verdict",
        "irreducible_mod_p",
        "is_p_primitive",
        "is_proper_pair",
        "nondegeneracy_check",
        "squarefree_mod_p",
        "validate_theorem_hypotheses",
    ),
    "generator": ("GeneratorConfig", "fractional_points", "vector_sequence"),
    "padic": (
        "PeriodProfile",
        "binomial_to_monomial",
        "compute_w",
        "h_coeffs",
        "H_coeffs",
        "lift_roots",
        "order_mod",
        "period_profile",
        "theta_matrix",
    ),
    "stream": ("mat_stream",),
}, others=("analysis", "cli", "errors", "reports"))
