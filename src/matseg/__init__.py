"""Material labeling for 3D shapes: local descriptors plus symmetry-aware smoothing."""

__version__ = "0.1.0"

from .materials import MATERIALS, MaterialLabelSet
from .mesh import (
    FacePairs,
    LabeledMesh,
    attach_labels,
    build_mesh,
    compute_adjacency,
    load_labels,
    load_obj,
    save_labels,
    save_obj,
)
from .sampling import (
    Samples,
    sample_surface_points,
    subsample_even,
    visibility_filter,
)
from .geodesics import estimate_diameter, geodesic_pairs
from .symmetry import (
    DetectedSymmetry,
    RigidTransform,
    SymmetryPair,
    detect_symmetries,
    symmetry_pairs,
)
from .descriptor import (
    DescriptorNet,
    extract_features,
    multitask_loss,
    predict_probs,
    sample_pairs,
    train_descriptor,
)
from .crf import (
    CrfGraph,
    CrfWeights,
    Marginals,
    brute_force_marginals,
    build_crf,
    mean_field_infer,
    predict_labels,
    train_crf,
)
from .evaluation import EvalReport, build_report, confusion_matrix, precision_at_k, top1_accuracy
from .synth import SynthSpec, benchmark_suite, corrupt_unaries, generate, mirrored_chair_fixture

__all__ = [
    "MATERIALS",
    "MaterialLabelSet",
    "FacePairs",
    "LabeledMesh",
    "attach_labels",
    "build_mesh",
    "compute_adjacency",
    "load_labels",
    "load_obj",
    "save_labels",
    "save_obj",
    "Samples",
    "sample_surface_points",
    "subsample_even",
    "visibility_filter",
    "estimate_diameter",
    "geodesic_pairs",
    "DetectedSymmetry",
    "RigidTransform",
    "SymmetryPair",
    "detect_symmetries",
    "symmetry_pairs",
    "DescriptorNet",
    "extract_features",
    "multitask_loss",
    "predict_probs",
    "sample_pairs",
    "train_descriptor",
    "CrfGraph",
    "CrfWeights",
    "Marginals",
    "brute_force_marginals",
    "build_crf",
    "mean_field_infer",
    "predict_labels",
    "train_crf",
    "EvalReport",
    "build_report",
    "confusion_matrix",
    "precision_at_k",
    "top1_accuracy",
    "SynthSpec",
    "benchmark_suite",
    "corrupt_unaries",
    "generate",
    "mirrored_chair_fixture",
    "__version__",
]
