"""Audio scene classification from pooled gradient histograms of
constant-Q spectrogram images.

The package is a small, dependency light library plus a batch command
line tool.  A clip travels through a constant-Q transform, conversion
to a fixed size log power image, mean filtering, oriented gradient
histograms over a cell grid and average pooling; the resulting vectors
feed one against one kernel support vector machines evaluated by a
repeated stratified split protocol.
"""

__version__ = "0.1.0"

from .audio import AudioClip, ToyConfig, make_toy_dataset, read_wav, segment, write_wav
from .errors import (
    ConfigError,
    DataError,
    DatasetError,
    FormatError,
    ProtocolError,
    ScenehogError,
    TrainingError,
    UnsupportedCodecError,
)
from .evaluation import (
    EvalReport,
    read_report,
    run_protocol,
    stratified_split,
    write_report,
)
from .hog import HogConfig, HogGrid, cell_histograms, gradient, hog, normalize_cells
from .metrics import (
    WilcoxonResult,
    column_normalize,
    confusion_counts,
    map_score,
    wilcoxon_signed_rank,
)
from .pipeline import (
    RunConfig,
    extract_clip,
    extract_clips,
    generate_toy,
    parse_config_file,
    run_experiment,
)
from .pooling import (
    FeatureVector,
    PoolConfig,
    feature_dim,
    full_features,
    pool,
    pool_grid,
    pool_marginalized,
)
from .store import (
    DatasetScan,
    SplitManifest,
    read_features,
    scan_dataset,
    write_features,
    write_pgm,
)
from .svm import (
    BinarySvm,
    KernelSpec,
    Standardizer,
    SvmModel,
    default_c_grid,
    default_sigma_grid,
    fit_standardizer,
    kernel_matrix,
    load_model,
    model_select,
    predict,
    save_model,
    train_binary,
    train_one_vs_one,
)
from .tfr import CqtConfig, TfrImage, cqt, mean_filter, resize_bicubic, to_image
