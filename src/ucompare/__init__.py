"""Compare the error rates of two deterministic learning algorithms.

The point estimate is an average of error differences over learning/testing
splits of the sample; in complete mode it is the minimum-variance unbiased
estimate of the expected difference. An unbiased estimate of its variance is
available whenever n >= 2g + 2, and feeds a studentized two-sided test and
confidence interval.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .dataset import Dataset, DatasetFormatError, Observation, load_csv, save_csv
from .designs import (
    BudgetExceededError,
    HypergeometricWeights,
    hypergeometric_weights,
    iterations_for_digits,
    make_stream,
    sample_ordered_subsets,
)
from .estimators import (
    EstimatorConfig,
    SampleTooSmallError,
    VarianceEstimate,
    complete_u_statistic,
    estimate_delta,
    estimate_kappa_c,
    estimate_theta2,
    estimate_variance,
)
from .inference import TestResult, normal_cdf, normal_quantile, test_error_difference
from .kernels import ComparisonKernel, KernelEvaluator
from .learners import (
    centroid_learner,
    constant_learner,
    knn_learner,
    misclassification_loss,
    parse_learner,
    stump_learner,
)
