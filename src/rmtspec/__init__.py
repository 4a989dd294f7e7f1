"""Random-matrix spectra of signal-capture data.

Build sample covariance and time-lagged correlation matrices from capture
data, estimate their eigenvalue densities, and compare them against the
Marcenko-Pastur law and the lagged-spectrum density solved from a quartic
resolvent equation. Includes deterministic synthetic sources (white noise,
narrowband BPSK, NC-OFDM), a binary capture container, and a CLI.
"""

from .curves import DensityCurve
from .estimation import (
    EsdFunction,
    eigenvalue_density,
    histogram_density,
    ks_distance,
    l1_distance,
    projection_density,
    silverman_bandwidth,
    snap_zeros,
    split_atom,
    with_atom,
)
from .fileio import read_capture, read_density_csv, write_capture, write_density_csv
from .linalg import (
    DataMatrix,
    LaggedMatrix,
    RealSpectrum,
    eigvals_general,
    eigvals_symmetric,
    lagged_correlation,
    sample_covariance,
    standardize_rows,
)
from .signals import (
    DEFAULT_OCCUPIED_RANGES,
    add_awgn,
    gen_narrowband,
    gen_ncofdm_frames,
    gen_wgn,
    occupied_from_ranges,
    spectrogram_matrix,
)
from .theory import (
    MpParams,
    green_function,
    green_quartic_coeffs,
    green_scan,
    lagged_density_symmetric,
    mp_cdf,
    mp_density,
    mp_params,
)

__version__ = "0.1.0"

# the hot kernels (theory.quartic_roots_batch, estimation.kde_eval) are plain
# NumPy; callers record this name next to the numbers they report
kernel_backend = "pure"
