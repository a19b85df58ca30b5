"""Equilibration of disordered XXX chains against block-Haar ensemble
predictions: exact diagonalization, analytic ensemble moments, Monte-Carlo
oracles, and long-time dynamics."""

from .dynamics import TimeSeries, TimeStats, evolve_expectation, time_stats
from .ergodic_ensemble import (DensityMatrix, MomentPrediction,
                               cat_q_variance_closed_form, ensemble_mean,
                               second_moment_expectation)
from .errors import (ConstructionError, NumericalIntegrityError, PipelineError,
                     SectorError, StateValidationError)
from .experiment import (ExperimentConfig, ExperimentReport, ExperimentResult,
                         ProductEigenstate, QuenchPrefix, SpectralPrefix,
                         find_product_eigenstates, prepare_protocol_state,
                         prepare_quench, prepare_spectrum, run_experiment,
                         write_artifacts)
from .haar_oracle import (MomentEstimate, estimate_moments,
                          estimate_state_mean, sample_traces, summarize)
from .spectral import (EigenSystem, SectorPartition, cluster_sectors,
                       diagonalize, level_spacing_ratio)
from .spin_chain import (HermitianOperator, PairOperator, SpinBasis,
                         build_basis, build_hamiltonian,
                         build_projector_observable, draw_disorder,
                         symmetrized)

__version__ = "0.1.0"
