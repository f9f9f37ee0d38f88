"""tagkit: desk-scale training recipe for multi-label audio tagging.

Balanced sampling, mixup and time/frequency masking, ontology-based label
repair, a small attention-pooling trainer, weight averaging, prediction
ensembling, and an AP/mAP/AUC/d-prime evaluation engine, all runnable on
synthetic corpora without large-scale compute.
"""

from .aggregate import Committee, average_weights, ensemble_mean, sweep_start_epoch
from .corpus import (
    MultiLabelCorpus,
    SynthSpec,
    generate_synthetic,
    read_corpus,
    read_labels,
    read_manifest,
    write_corpus,
    write_labels,
)
from .labelfix import enhance, enhance_eval_set, make_thresholds
from .metrics import EvalReport, average_precision, correlate, d_prime, evaluate, roc_auc
from .model import (
    LRSchedule,
    Model,
    ModelConfig,
    ParameterVector,
    TrainConfig,
    grad_check,
    load_external_init,
    train,
)
from .ontology import Ontology, read_ontology, write_ontology
from .sampler import (
    AugmentConfig,
    CoverageTrace,
    EpochPlan,
    make_weights,
    plan_epoch,
    simulate_coverage,
)

__version__ = "0.1.0"
