"""Deterministic simulator for device-edge federated learning studies.

Builds small fleets of devices around one aerial base station, forms
D2D clusters with elected heads, trains from-scratch neural models, and
compares conventional against cluster-routed federated learning on
accuracy and energy.
"""

from .aggregation import (
    ModelArtifact,
    adaptive_average,
    aggregate_weighted,
    artifact_probabilities,
    optimize_adaptive_weights,
    retrain_pooled,
    train_meta,
)
from .clustering import (
    Cluster,
    ClusterAssignment,
    ClusterPolicy,
    form_clusters,
)
from .config import AggregationMethod, ScenarioConfig, ScenarioKind, default_devices
from .data import (
    DataPlan,
    DatasetSchema,
    DevicePartition,
    PartitionPlan,
    gen_ring_sectors,
    gen_synthetic,
    load_csv,
    partition,
    write_csv,
)
from .energy import EnergyParams, EnergyState, apply_round, round_energy
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    NoConnectableDevice,
    NoEligibleHead,
    ParseError,
    SchemaMismatch,
    SimulationError,
)
from .head_selection import HeadCandidateView, HeadPolicy, select_head
from .ml_core import (
    AutoencoderConfig,
    ClassifierConfig,
    DenseNetwork,
    Layer,
    predict_proba,
    train_autoencoder,
    train_classifier,
)
from .network import RoundTrace, plan_rounds, total_energy
from .scenarios import compare_scenarios, delay_sweep, run_scenario
from .topology import (
    DeviceNode,
    LinkModel,
    Position,
    can_connect,
    distance_m,
    random_step,
    transmission_delay,
)

__version__ = "0.1.0"
