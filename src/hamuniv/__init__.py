"""Clock-Hamiltonian compilation, Schrieffer-Wolff analysis, and simulation certificates."""

from .config import Config, DEFAULT, from_env
from .operators import (
    ClusterSplitError,
    DenseOperator,
    DimensionCapError,
    EigenSystem,
    Register,
    SpectrumCertificateError,
    Subspace,
    SystemLayout,
    direct_rotation,
    eigh,
    expm_i,
    op_norm,
    subspace_distance,
    tensor_embed,
)
from .circuits import (
    AcceptanceOperator,
    Gate,
    VerifierCircuit,
    acceptance_gap,
    acceptance_operator,
    compile_unitary,
    idle_prefix,
)
from .kitaev import (
    ClockRep,
    HistoryState,
    KitaevHamiltonian,
    build_kitaev,
    check_hmk_lemma,
    check_idling_faithfulness,
    default_kappa,
    geometrical_bound,
    ground_space,
    history_state,
    spectral_gap_above,
)
from .schrieffer_wolff import SWExpansion, SWProblem, sw_bounds, sw_exact, sw_series
from .simulation import (
    Encoding,
    SimulationReport,
    apply_encoding,
    check_dynamics,
    check_local_encoding,
    check_partition_function,
    compose_simulations,
    verify_simulation,
)
from .universality import (
    TargetHamiltonian,
    WitnessFamily,
    build_hprime,
    build_hsim,
    end_to_end,
    first_order_sim_check,
    qpe_verifier,
    witness_family,
    wtilde_encodings,
)

__version__ = "0.1.0"
