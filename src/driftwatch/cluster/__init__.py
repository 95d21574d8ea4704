"""Native 1-D clustering and novelty-detection engines.

Every engine takes an unordered set of throughput values, treats distance as
plain Euclidean distance on the scalar values, and draws no random numbers:
its result is a function of (data, parameters).
"""

from .affinity import affinity_propagation
from .dbscan import dbscan, dbscan_count
from .gmm import GmmModel, gmm_assign, gmm_fit, gmm_responsibilities
from .hierarchy import LINKAGES, agglomerative
from .kmeans import kmeans
from .ocsvm import OcsvmModel, ocsvm_predict, ocsvm_train
from .optics import ReachabilityProfile, optics
from .result import NOISE, ClusterResult
from .silhouette import best_k_silhouette, silhouette

__all__ = [
    "NOISE",
    "ClusterResult",
    "GmmModel",
    "OcsvmModel",
    "ReachabilityProfile",
    "LINKAGES",
    "affinity_propagation",
    "agglomerative",
    "best_k_silhouette",
    "dbscan",
    "dbscan_count",
    "gmm_assign",
    "gmm_fit",
    "gmm_responsibilities",
    "kmeans",
    "ocsvm_predict",
    "ocsvm_train",
    "optics",
    "silhouette",
]
