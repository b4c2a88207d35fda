"""Dynamic tomography with learned sequential priors.

A parallel-beam scan of a moving object yields only a few projection
angles per time step. This package reconstructs such sequences by
pairing classical convergent solvers with a causal transformer that
predicts each frame from the frames already reconstructed; the
prediction enters the per-step variational problem as a proximity term.

Submodules: geometry (scan model, discrete projector, FBP), phantoms
(moving synthetic objects), datasets (on-disk formats), solvers
(Landweber, FISTA, PDHG with a prior-coupling term), autodiff (reverse
mode on numpy), stt (the causal spatial-temporal transformer), training
(both model stages), pipeline (sequential reconstruction, evaluation),
uar (adversarial unrolled baseline), metrics (PSNR/SSIM), spec + config +
cli (experiment plumbing).

Attribute access is lazy so `import tcrtomo` stays cheap and thread-cap
environment variables set by the CLI take effect before numpy binds its
BLAS backend.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # scan model
    "ScanGeometry": "geometry",
    "RadonOperator": "geometry",
    "MatrixOperator": "geometry",
    "operator_for_angles": "geometry",
    "angle_schedule": "geometry",
    "fbp": "geometry",
    # data
    "sample_phantom": "phantoms",
    "generate_dataset": "phantoms",
    "Sinogram": "datasets",
    "Dataset": "datasets",
    "write_dataset": "datasets",
    "read_dataset": "datasets",
    "write_sinogram_set": "datasets",
    "load_external_sinogram": "datasets",
    # variational solvers
    "SolveReport": "solvers",
    "soft_threshold": "solvers",
    "prox_shifted_l1": "solvers",
    "l2_tcr": "solvers",
    "l1_tcr_fista": "solvers",
    "l1_tv_tcr_pdhg": "solvers",
    # autodiff + model
    "Tensor": "autodiff",
    "no_grad": "autodiff",
    "gradcheck": "autodiff",
    "SttConfig": "stt",
    "init_stt_params": "stt",
    "stt_forward": "stt",
    "refine": "stt",
    "predict_next": "stt",
    # training
    "TrainConfig": "training",
    "prediction_train_config": "training",
    "train_refinement": "training",
    "train_prediction": "training",
    "gt_ratio": "training",
    "teacher_forcing_ratio": "training",
    "max_rollout": "training",
    "rollout_prob": "training",
    # reconstruction pipeline
    "ReconConfig": "pipeline",
    "ReconResult": "pipeline",
    "tcr_reconstruct": "pipeline",
    "select_alphas": "pipeline",
    "evaluate": "pipeline",
    "aggregate_metrics": "pipeline",
    "save_result": "pipeline",
    "load_result": "pipeline",
    # adversarial baseline
    "UarConfig": "uar",
    "UarTrainConfig": "uar",
    "init_uar_params": "uar",
    "uar_generator": "uar",
    "uar_reconstruct": "uar",
    "critic_value": "uar",
    "reg_loss": "uar",
    "gen_loss": "uar",
    "train_uar": "uar",
    "sequence_operator": "uar",
    # metrics, persistence, config
    "psnr": "metrics",
    "ssim": "metrics",
    "sequence_metrics": "metrics",
    "save_checkpoint": "checkpoint",
    "load_checkpoint": "checkpoint",
    "load_config": "config",
    "default_config": "config",
    # errors
    "ConfigError": "errors",
    "DatasetFormatError": "errors",
    "MissingArtifactError": "errors",
    "NumericalError": "errors",
    "GenerationError": "errors",
    "TapeError": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module("." + _EXPORTS[name], __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
