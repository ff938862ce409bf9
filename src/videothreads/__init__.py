"""Hierarchical activity-thread discovery over timestamped embedding sequences.

Videos arrive as timestamped feature rows, become temporal graphs, pass
through a hierarchical graph encoder/decoder whose decoder spectrally
partitions each scale into functional threads, and come out as enriched
per-segment embeddings that solve procedure-learning, step-grounding,
step-localization, and clip-retrieval tasks zero-shot.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .dataio import (
    FeatureSequence,
    NarrationSet,
    StepAnnotation,
    StepPrediction,
    Taxonomy,
    read_annotations,
    read_feature_file,
    read_narrations,
    read_predictions,
    read_taxonomy,
    write_annotations,
    write_feature_file,
    write_narrations,
    write_predictions,
    write_taxonomy,
)
from .graph import VideoGraph, build_graph, temporal_subsample
from .kernels import (
    EigenDecomposition,
    KMeansResult,
    cosine_similarity_matrix,
    kmeans,
    sym_eigen,
)
from .metrics import (
    MetricReport,
    adjusted_rand_index,
    hungarian,
    map_at_iou,
    mcq_accuracy,
    procedure_f1_iou,
    recall_at_iou,
    temporal_iou,
)
from .model import (
    ForwardTrace,
    ModelDims,
    ModelParams,
    Stage,
    TdgcLayerParams,
    forward,
    identity_params,
    init_params,
    load_params,
    save_params,
    tdgc_forward,
)
from .partition import (
    PartitionResult,
    approx_partition,
    normalized_laplacian,
    similarity_matrix,
    spectral_partition,
)
from .synth import PlantedLabels, SynthDataset, SynthSpec, generate
from .tasks import (
    CandidateStep,
    extract_candidates,
    mcq_retrieval,
    procedure_learning,
    step_grounding,
    step_localization,
)
from .training import (
    AlignmentBatch,
    LossValue,
    TotalLossOp,
    grad_check,
    train_toy,
)
