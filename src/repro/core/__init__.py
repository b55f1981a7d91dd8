"""GOBO: the paper's contribution — outlier-aware dictionary quantization."""

from repro.core.binning import (
    assign_to_centroids,
    equal_population_centroids,
    linear_centroids,
)
from repro.core.clustering import (
    ClusteringResult,
    ConvergenceTrace,
    gobo_cluster,
    kmeans_cluster,
)
from repro.core.formats import (
    StorageReport,
    compression_curve,
    potential_compression_ratio,
    storage_report,
)
from repro.core.model_quantizer import (
    ParameterSelection,
    QuantizedModel,
    quantize_model,
    quantize_state_dict,
    select_parameters,
)
from repro.core.outliers import (
    DEFAULT_LOG_PROB_THRESHOLD,
    OutlierDetector,
    OutlierSplit,
)
from repro.core.parallel import (
    LayerFailure,
    LayerJob,
    LayerRecord,
    ON_ERROR_POLICIES,
    QuantizationReport,
    quantize_layers,
    resolve,
)
from repro.core.policy import LayerPolicy, PolicyRule, mixed_precision_policy
from repro.core.quantizer import (
    GoboQuantizedTensor,
    quantize_tensor,
)
from repro.core.npzmap import MmapNpzReader
from repro.core.serialization import (
    ArchiveCheck,
    LazyQuantizedTensors,
    load_quantized_model,
    save_quantized_model,
    verify_archive,
)
from repro.core.validate import (
    TensorDiagnosis,
    VALIDATION_POLICIES,
    ValidationOutcome,
    diagnose_tensor,
    validate_tensor,
)

__all__ = [
    "DEFAULT_LOG_PROB_THRESHOLD",
    "ON_ERROR_POLICIES",
    "VALIDATION_POLICIES",
    "ArchiveCheck",
    "ClusteringResult",
    "LazyQuantizedTensors",
    "MmapNpzReader",
    "ConvergenceTrace",
    "diagnose_tensor",
    "GoboQuantizedTensor",
    "LayerFailure",
    "LayerJob",
    "LayerPolicy",
    "LayerRecord",
    "TensorDiagnosis",
    "ValidationOutcome",
    "OutlierDetector",
    "OutlierSplit",
    "ParameterSelection",
    "PolicyRule",
    "QuantizationReport",
    "QuantizedModel",
    "StorageReport",
    "assign_to_centroids",
    "compression_curve",
    "equal_population_centroids",
    "gobo_cluster",
    "kmeans_cluster",
    "linear_centroids",
    "load_quantized_model",
    "quantize_layers",
    "resolve",
    "validate_tensor",
    "verify_archive",
    "mixed_precision_policy",
    "potential_compression_ratio",
    "quantize_model",
    "quantize_state_dict",
    "quantize_tensor",
    "save_quantized_model",
    "select_parameters",
    "storage_report",
]
