"""Desk-scale prototype-based federated learning with sparse exchange.

Library layout:

* :mod:`tinyproto.numerics` -- small ReLU models, exact gradients, SGD
* :mod:`tinyproto.prototypes` -- the sparsify / compress / reconstruct
  operators and dead-unit diagnostics; prototypes are plain float blocks,
  passed with the mask set and one class id per row
* :mod:`tinyproto.masking` -- per-class mask generation (disjoint blocks or
  Hamming-distance hill climbing), stored as one ``(K, d)`` bit matrix
* :mod:`tinyproto.aggregation` -- one fold of a round's ``(ids, rows)``
  uploads into each class's combined row: the server's one mean, for every
  aggregator
* :mod:`tinyproto.client` -- local training, prototype generation, and
  nearest-prototype inference
* :mod:`tinyproto.datagen` -- synthetic blobs, Dirichlet label-skew
  partitioning, train/test splits
* :mod:`tinyproto.wire`, :mod:`tinyproto.config`, :mod:`tinyproto.protocol`
  -- frame codec (each frame one class-id vector plus one value row per
  class), config files and the aggregator names, round orchestration with
  per-frame checks, and the harness
* :mod:`tinyproto.costmodel` -- closed-form per-round communication costs
"""

from .aggregation import AggregationError, aggregate_mean
from .client import (
    ClientState,
    InferenceError,
    compute_local_prototypes,
    evaluate_accuracy,
    local_update,
)
from .config import (
    AGGREGATOR_CHOICES,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)
from .costmodel import ALGORITHMS, CostQuery, cost, cost_millions, figure1_table
from .datagen import Dataset, dirichlet_partition, make_blobs, split_train_test
from .masking import Mask, MaskSet, format_mask_rows, generate_masks, min_pairwise_hamming
from .numerics import (
    Gradients,
    ModelParams,
    ShapeError,
    class_penalties,
    forward_features,
    init_params,
    loss_and_grad,
    sgd_step,
)
from .prototypes import compress, dead_unit_fraction, reconstruct, sparsify
from .protocol import (
    ExperimentResult,
    FrameLog,
    RoundError,
    RoundReport,
    ServerState,
    initial_server,
    rounds_csv_text,
    run_experiment,
    run_round,
    write_outputs,
)
from .wire import Frame, FrameError, FrameType, decode_frame, encode_frame, frame_param_count

__version__ = "0.1.0"
