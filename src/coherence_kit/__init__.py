"""Coherence measures of quantum states, exact for pure states.

The package computes the trace distance of coherence of a pure state in
closed form together with the unique nearest incoherent state, certifies
candidates through exact dual witnesses, reduces the trace distance of
entanglement of bipartite pure states to a Schmidt-vector coherence
computation, and checks everything against independent brute-force oracles.

The names below are loaded on first use (PEP 562), so ``import coherence_kit``
imports no submodule and no numpy, and a CLI call imports only the layers its
command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "config": ("Tolerances", "DEFAULT_TOLERANCES"),
    "core": (
        "PureState",
        "DensityMatrix",
        "IncoherentState",
        "BipartitePureState",
        "SpectralDecomposition",
        "ValidationError",
        "DimensionMismatchError",
        "NumericalDriftWarning",
        "InconclusiveCertificateError",
        "as_pure_state",
        "as_density_matrix",
        "as_incoherent_state",
        "hermitian_eig",
        "trace_norm",
        "operator_norm",
        "partial_transpose",
        "is_ppt",
    ),
    "trace_distance": (
        "CanonicalForm",
        "PrefixStats",
        "TraceDistanceResult",
        "ShortcutFlags",
        "canonicalize",
        "prefix_stats",
        "find_k",
        "nearest_incoherent",
        "breakpoint_shortcuts",
        "max_coherence_bound",
    ),
    "certificates": (
        "PureCertificate",
        "MixedCertificate",
        "IncoherentInputError",
        "NonInvertibleDifferenceError",
        "verify_pure_optimality",
        "verify_mixed_invertible",
    ),
    "oracle": (
        "OracleResult",
        "simplex_project",
        "c_tr_subgradient",
        "c_tr_subgradient_many",
        "c_tr_grid",
    ),
    "measures": (
        "L1RelEntCheck",
        "c_l1",
        "von_neumann_entropy",
        "c_rel_entropy",
        "c_robustness_pure",
        "f_gap",
        "check_l1_vs_relent",
    ),
    "entanglement": (
        "SchmidtData",
        "NegativityBoundCheck",
        "ChannelPipelineCheck",
        "ChannelConstructionError",
        "as_bipartite_pure",
        "schmidt",
        "schmidt_vector",
        "achieving_separable_state",
        "negativity_pure",
        "e_r_pure",
        "check_negativity_bound",
        "diagonal_twirl",
        "omega_kraus_operators",
        "apply_kraus",
        "verify_channel_pipeline",
    ),
}

# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    # A name outside the table raises AttributeError, so ``from coherence_kit
    # import io`` falls through to importing the submodule.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
