"""Model-execution substrate: model zoo, latency profiles and prediction model.

The paper serves real PyTorch/ONNX models on GPUs.  This subpackage replaces
that substrate with (i) a registry of model specifications calibrated to the
paper's Table 5 (batch-size-1 latencies, parameter counts, SLOs), (ii) an
analytic per-layer latency model with batch-size scaling, and (iii) a
synthetic prediction model that maps each input's latent difficulty to
per-ramp confidence/correctness while preserving the monotonicity properties
Apparate's adaptation algorithms rely on.
"""

from repro.models.zoo import ModelSpec, Task, get_model, list_models, register_model
from repro.models.latency import LatencyProfile, build_latency_profile
from repro.models.prediction import PredictionModel
from repro.models.execution import BatchExecution, ModelExecutor
from repro.models.quantization import quantized_spec

__all__ = [
    "ModelSpec",
    "Task",
    "get_model",
    "list_models",
    "register_model",
    "LatencyProfile",
    "build_latency_profile",
    "PredictionModel",
    "ModelExecutor",
    "BatchExecution",
    "quantized_spec",
]
