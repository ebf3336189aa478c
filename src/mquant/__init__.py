"""Post-training quantization toolkit for a toy multimodal transformer.

Three mechanisms, each with an exactness or improvement story the test
suite checks directly: modality-split static activation grids, a
visual-first reordering with an equivalent attention mask, and a
rotation stack with an outlier-row split for down-projections.
"""

from .numerics import MASK_BLOCKED, MASK_FREE, NormParams, matmul, masked_softmax_rows
from .quantizer import (
    Granularity,
    QuantParams,
    QuantizedTensor,
    compute_params_absmax,
    dequantize,
    fake_quant,
    quantize,
)
from .hadamard import fht, incoherence, incoherence_ratio, walsh_hadamard
from .rms import RmsSplitPlan, build_split_plan, compliance_ratio, detect_outliers, rms_forward
from .msq_aifs import (
    TEXT,
    VISUAL,
    ModalityLayout,
    MsqParams,
    ScaleOpCounter,
    attention_forward,
    build_aifs_plan,
    calibrate_msq,
    layout_from_string,
    permuted_mask_oracle,
    quantize_dynamic_per_token,
    quantize_msq,
    rope_rotate,
    unified_causal_mask,
)
from .model import ToyMllm, ToyMllmConfig, build_toy_mllm, model_forward
from .norm_rewrite import preln_to_rmsnorm
from .rotation import rotate_model_offline
from .pipeline import (
    CalibrationResult,
    PipelineConfig,
    QuantizedModel,
    apply_lossless_stack,
    bench,
    calibrate_pipeline,
    evaluate,
    generate_synthetic_samples,
    mquant_quantize,
    qmodel_from_dict,
    qmodel_to_dict,
)

__version__ = "0.1.0"
