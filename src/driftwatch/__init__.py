"""driftwatch: intent drift detection over network throughput telemetry.

The package splits into five layers: ``telemetry`` (samples, series, batch
windows), ``scenario`` (seeded synthetic intent lifecycles with ground
truth), ``cluster`` (native 1-D clustering and novelty engines),
``detectors`` (the fit/evaluate drift estimators), and ``bench`` (the
accuracy/latency/memory comparison harness behind the CLI).
"""

from .bench import (
    BenchProtocol,
    BenchReport,
    ModelStats,
    RunRecord,
    accuracy,
    compare_models,
    detection_delay,
    emit_report,
    false_positive_rate,
    memory_estimate,
    run_scenario,
)
from .cluster import (
    NOISE,
    ClusterResult,
    GmmModel,
    OcsvmModel,
    ReachabilityProfile,
    affinity_propagation,
    agglomerative,
    best_k_silhouette,
    dbscan,
    gmm_assign,
    gmm_fit,
    kmeans,
    ocsvm_predict,
    ocsvm_train,
    optics,
    silhouette,
)
from .detectors import (
    MODEL_NAMES,
    DetectorState,
    DriftDetector,
    DriftVerdict,
    ModelType,
    detect,
    verdict_record,
)
from .scenario import (
    PRESETS,
    GroundTruth,
    PhaseKind,
    PhaseSpec,
    ScenarioSpec,
    generate,
    label_batch,
    preset_qos,
    preset_security,
)
from .telemetry import (
    Batch,
    Series,
    TelemetryError,
    ThroughputSample,
    batchify,
    ingest_csv,
    render_csv,
)

__version__ = "0.1.0"
