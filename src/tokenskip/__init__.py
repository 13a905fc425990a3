"""tokenskip: a desk-scale decoder that skips attention for redundant tokens.

Subpackages
-----------
numerics   cosines, softmax, layer norm, mean/variance, seeded RNG streams
policy     layer selection, per-layer targets, proportional threshold feedback
filtering  anchors, head-wise similarity, variance-aware fusion, skip decisions
model      toy multi-head decoder with KV cache hosting the filter
trace      KV traces: record, read, synthesize
replay     offline policy evaluation over traces
metrics    FLOPs accounting, the attention-mass-lost proxy
cli        command-line front end (generate / synth / replay / sweep / report)
"""

from .filtering import (
    FilterEngine,
    SimilarityScore,
    fuse,
    head_similarity,
    update_anchor,
)
from .metrics import FlopsLedger, FlopsModel
from .model import (
    DecodeSession,
    KVCache,
    ModelConfig,
    Weights,
    attention_forward,
    init_weights,
    load_weights,
    project_kv,
    save_weights,
)
from .numerics import cosine_similarity, layer_norm, softmax, substream
from .policy import PruneConfig, per_layer_target, select_layers, update_threshold
from .replay import ReplayResult, replay
from .reporting import StepReport
from .trace import TraceHeader, TraceRecorder, read_trace, synthesize, write_trace

__version__ = "0.1.0"

__all__ = [
    "DecodeSession", "FilterEngine", "FlopsLedger", "FlopsModel", "KVCache",
    "ModelConfig", "PruneConfig", "ReplayResult", "SimilarityScore",
    "StepReport", "TraceHeader", "TraceRecorder", "Weights", "attention_forward",
    "cosine_similarity", "fuse", "head_similarity", "init_weights",
    "layer_norm", "load_weights", "per_layer_target", "project_kv", "read_trace",
    "replay", "save_weights", "select_layers", "softmax", "substream", "synthesize",
    "update_anchor", "update_threshold", "write_trace",
]
