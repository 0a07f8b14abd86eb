"""Multi-view learning robust to missing views.

Trains predictors over several data views (temporal or static), augments
training with every combination of available views, merges view encodings
with dynamic functions that simply skip missing views, and quantifies
robustness by simulating missingness at evaluation time.
"""

from .augmentation import AugPolicy, enumerate_combinations, sensd_mask, tempd_mask
from .data import (MultiViewDataset, SyntheticConfig, SyntheticViewConfig,
                   generate_synthetic, load_dataset, save_dataset, zscore_apply,
                   zscore_fit)
from .encoders import EncoderConfig, ViewSpec
from .evaluation import (EvalReport, MissingScenario, auc_pr, class_change_ratio,
                         deformation, evaluate_scenarios, f1_macro, mape, prs, r2,
                         scenario_availability)
from .fusion import (AverageFusion, ConcatFusion, CrossAttentionFusion, FusionConfig,
                     GatedFusion, MemoryFusion, make_fusion)
from .model import FeatureFusionModel, InputConcatModel, build_model, load_model, save_model
from .tensor import Adam, EmptySupportError, Tensor, no_grad
from .training import EarlyStopper, TrainConfig, class_weights, cross_entropy, train_model

__version__ = "0.1.0"

__all__ = [
    "Adam", "AugPolicy", "AverageFusion", "ConcatFusion", "CrossAttentionFusion",
    "EarlyStopper", "EmptySupportError", "EncoderConfig", "EvalReport",
    "FeatureFusionModel", "FusionConfig", "GatedFusion", "InputConcatModel",
    "MemoryFusion", "MissingScenario", "MultiViewDataset", "SyntheticConfig",
    "SyntheticViewConfig", "Tensor", "TrainConfig", "ViewSpec", "auc_pr",
    "build_model", "class_change_ratio", "class_weights", "cross_entropy",
    "deformation", "enumerate_combinations", "evaluate_scenarios", "f1_macro",
    "generate_synthetic", "load_dataset", "load_model", "make_fusion", "mape",
    "no_grad", "prs", "r2", "save_dataset", "save_model", "scenario_availability",
    "sensd_mask", "tempd_mask", "train_model", "zscore_apply", "zscore_fit",
]
