"""Joint autoencoder + intra-class distance constrained clustering."""

from .activations import ActivationKind, parse_kind
from .autoencoder import (
    ForwardTrace,
    Gradients,
    NetworkParams,
    apply_update,
    backward,
    forward,
    init,
    mirror_dims,
)
from .clusters import (
    ClusterState,
    DegenerateCentersError,
    init_indicator,
    intra_class_error,
    update_centers,
    update_indicator,
)
from .data import Dataset, load, mask_unlabeled, normalize, synth_blobs
from .linalg import ShapeMismatchError, SingularMatrixError
from .metrics import accuracy, nmi
from .training import (
    DivergenceError,
    EpochReport,
    TrainConfig,
    lambda1_sweep,
    loss_terms,
    train,
)

__version__ = "0.3.0"
