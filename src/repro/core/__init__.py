"""Core library: lens models, remap construction, and the correction API.

This subpackage is the paper's primary contribution — the fisheye
distortion-correction kernel — implemented from scratch:

- :mod:`~repro.core.lens` — the classical fisheye projection families,
- :mod:`~repro.core.brown_conrady` — the polynomial comparator,
- :mod:`~repro.core.mapping` — backward-warp coordinate fields and the
  map analyses the platform models consume,
- :mod:`~repro.core.interpolation` / :mod:`~repro.core.remap` /
  :mod:`~repro.core.fixedpoint` — the sampling kernels (on-the-fly,
  float LUT, Q-format weight quantization for the fixed tier),
- :mod:`~repro.core.calibration` / :mod:`~repro.core.quality` — lens
  parameter recovery and quantitative quality metrics,
- :mod:`~repro.core.pipeline` — the high-level streaming API.
"""

from .brown_conrady import BrownConrady, BrownConradyLens, fit_brown_conrady
from .calibration import CalibrationResult, calibrate, detect_blobs, fit_focal, select_model
from .image import GRAY8, GRAY16, RGB8, RGBF32, Frame, PixelFormat
from .intrinsics import CameraIntrinsics, FisheyeIntrinsics
from .kannala import KannalaBrandtLens, fit_kannala_brandt
from .kernel_tiers import (
    KERNEL_CHOICES,
    KERNEL_TIERS,
    available_tiers,
    kernel_tier,
    resolve_tier,
)
from .lens import (
    LENS_MODELS,
    EquidistantLens,
    EquisolidLens,
    LensModel,
    OrthographicLens,
    PerspectiveLens,
    StereographicLens,
    make_lens,
)
from .mapping import (
    RemapField,
    cylindrical_map,
    equirectangular_map,
    fisheye_forward_map,
    identity_map,
    perspective_map,
)
from .antialias import SupersampledLUT, minification_map, supersample_field
from .lutcache import LUTCache, field_fingerprint
from .compose import affine_field, compose_fields, crop_field
from .multiview import ViewSpec, compose_views, quad_view
from .pipeline import FisheyeCorrector, StreamStats
from .points import distort_points, undistort_points
from .quality import center_scale, fov_retention, line_straightness, psnr, ssim
from .remap import RemapLUT, StageProfile, remap, remap_profiled
from .vignette import VignetteModel, correct_vignette

__all__ = [
    "BrownConrady",
    "BrownConradyLens",
    "fit_brown_conrady",
    "CalibrationResult",
    "calibrate",
    "detect_blobs",
    "fit_focal",
    "select_model",
    "KERNEL_CHOICES",
    "KERNEL_TIERS",
    "available_tiers",
    "kernel_tier",
    "resolve_tier",
    "Frame",
    "PixelFormat",
    "GRAY8",
    "GRAY16",
    "RGB8",
    "RGBF32",
    "CameraIntrinsics",
    "FisheyeIntrinsics",
    "KannalaBrandtLens",
    "fit_kannala_brandt",
    "LensModel",
    "EquidistantLens",
    "EquisolidLens",
    "OrthographicLens",
    "StereographicLens",
    "PerspectiveLens",
    "make_lens",
    "LENS_MODELS",
    "RemapField",
    "perspective_map",
    "cylindrical_map",
    "equirectangular_map",
    "fisheye_forward_map",
    "identity_map",
    "FisheyeCorrector",
    "StreamStats",
    "RemapLUT",
    "LUTCache",
    "field_fingerprint",
    "StageProfile",
    "remap",
    "remap_profiled",
    "SupersampledLUT",
    "supersample_field",
    "minification_map",
    "distort_points",
    "undistort_points",
    "compose_fields",
    "crop_field",
    "affine_field",
    "ViewSpec",
    "compose_views",
    "quad_view",
    "VignetteModel",
    "correct_vignette",
    "psnr",
    "ssim",
    "line_straightness",
    "fov_retention",
    "center_scale",
]
