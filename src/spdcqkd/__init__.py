"""Truncated Fock-state toolkit for multi-pair emission in entanglement-based
key distribution: exact sparse state algebra, polarization optics with
threshold detection, the rare four-photon double-pair component, the
photon-number-splitting attack it enables, the resulting error-rate and
information-leak bounds, and a reproducible Monte Carlo protocol runner."""

# set before the submodules are imported: `protocol` writes it into transcripts
__version__ = "0.1.0"

from .attack import (AttackConfig, SplitResult, attack_four_photon, intercept_branches,
                     split_attack_branches, split_channel)
from .fock import (DEFAULT_PRUNE_TOL, MODE_CAP, FockError, ModeCapError,
                   ModeLabel, ModeRegistry, RegistryMismatchError, StateVector,
                   UnknownModeError, attack_registry, source_registry)
from .optics import (DA, HV, BasisAngle, OutcomeKind, beamsplitter_50_50,
                     joint_threshold_branches, qnd_count, rotate_polarization)
from .protocol import (AttackMixture, ConfigError, InterceptResend,
                       SessionConfig, SessionReport, SingletSource,
                       SpdcSource, SplitAttack, TranscriptError,
                       config_from_dict, config_to_dict,
                       eve_mutual_information, replay, run_session)
from .security import (CorrelationReport, EveBranch, LeakBound, QberReport,
                       binary_entropy, eve_conditional_states,
                       eve_wrong_basis_correlation, holevo_binary,
                       leak_vs_bound, qber_from_state)
from .source import (SpdcParams, four_photon_component, pair_statistics,
                     singlet_state, spdc_state, spdc_state_recursive,
                     squared_norm_truncated, truncation_tail)

__all__ = [
    "AttackConfig", "AttackMixture", "BasisAngle", "ConfigError",
    "CorrelationReport", "DA", "DEFAULT_PRUNE_TOL",
    "EveBranch", "FockError", "HV", "InterceptResend", "LeakBound", "MODE_CAP",
    "ModeCapError", "ModeLabel", "ModeRegistry", "OutcomeKind", "QberReport",
    "RegistryMismatchError", "SessionConfig", "SessionReport",
    "SingletSource", "SpdcParams", "SpdcSource", "SplitAttack", "SplitResult",
    "StateVector", "TranscriptError", "UnknownModeError",
    "attack_four_photon", "attack_registry", "beamsplitter_50_50",
    "binary_entropy", "config_from_dict", "config_to_dict",
    "eve_conditional_states", "eve_mutual_information",
    "eve_wrong_basis_correlation", "four_photon_component", "holevo_binary",
    "intercept_branches", "joint_threshold_branches", "leak_vs_bound",
    "pair_statistics", "qber_from_state", "qnd_count", "replay",
    "rotate_polarization", "run_session", "singlet_state", "source_registry",
    "spdc_state", "spdc_state_recursive", "split_attack_branches",
    "split_channel", "squared_norm_truncated", "truncation_tail",
]
