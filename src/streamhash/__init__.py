"""Streaming supervised hashing with distribution alignment.

Learns k-bit binary codes from labeled data arriving in batches: each
stage aligns the code-side pairwise-distance distribution with a
label-side similarity distribution by KL-divergence SGD on a linear
projection. Includes a popcount Hamming retrieval index, the standard
retrieval metrics, and a reproducible experiment CLI.
"""

from .data import (
    SplitSpec,
    StreamingBatch,
    load_dense,
    load_idx,
    normalize_pixels,
    save_dense,
    split,
    stream,
    synth_blobs,
    unseen_split,
)
from .distribution import (
    GaussianParams,
    ScalingParams,
    build_similarity,
    hamming_sq,
    p_gaussian,
    p_raw,
    pairwise_hamming_sq,
    q_plain,
    q_scaled,
)
from .index import (
    PackedCodes,
    RetrievalResult,
    hamming,
    lsh_baseline,
    pack,
    search,
    unpack,
)
from .metrics import (
    CurvePoint,
    MetricReport,
    average_precision,
    curve_auc,
    mean_ap,
    precision_at_r,
    precision_h2,
    retrieval_scores,
)
from .model import (
    HashModel,
    encode_binary,
    encode_relaxed,
    init,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import (
    StageReport,
    TrainConfig,
    fd_oracle,
    grad_loss,
    kl_loss,
    sgd_step,
    train_stage,
    train_stream,
)

__version__ = "0.1.0"
