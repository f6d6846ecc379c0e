"""Signed-radiance phase-space simulation of paraxial wave optics in flatland.

Coherent fields, their Wigner phase-space representation, light-field
transformers for thin optical elements, shear-based free-space transport,
and an independent Fresnel wave pipeline for cross-checking.
"""

from .core import (
    AugmentedLightField,
    BandwidthWarning,
    ClippedOrderWarning,
    ComplexField,
    DegenerateInputError,
    IntensityProfile,
    InvalidConfigurationError,
    NegativeIntensityWarning,
    ParaxialGuardWarning,
    PhaseSpaceGrid,
    RealnessError,
    SamplingWarning,
    ScenarioAbortError,
    TruncationWarning,
    make_grid,
    project_intensity,
)
from .wdf import (
    WdfOptions,
    wdf_from_field,
)
from .elements import (
    AmplitudeGrating,
    CodedAperture,
    CubicPhase,
    Hologram,
    Lens,
    PhaseGrating,
    Pinhole,
    Prism,
    RectAperture,
    TwoPinholes,
    element_label,
)
from .transformers import (
    LightFieldTransformer,
    apply_transformer,
    canonical_transformer,
    transformer_from_transmittance,
)
from .propagation import shear_propagate
from .fresnel import apply_mask, fresnel_propagate
from .scenarios import (
    ComparisonReport,
    Element,
    FieldSource,
    OpticalTrain,
    PlaneWave,
    PointSource,
    Propagate,
    PsfSweepResult,
    StageRecord,
    TraceOptions,
    TrainTrace,
    cubic_phase_psf_sweep,
    normalized_cross_correlation,
    trace_train,
)

__version__ = "0.1.0"
