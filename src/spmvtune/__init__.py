"""Bottleneck-aware optimization selection for sparse matrix-vector multiplication.

Given a sparse matrix, this package detects its dominant SpMV performance
bottleneck (cache-miss latency, memory bandwidth, imbalance, or compute)
either by running micro-benchmarks on it or by feeding structural features
to a pre-trained classifier, and recommends a matching optimized kernel
variant.
"""

from .config import AdvisorConfig
from .csr import (CsrMatrix, RowPartition, TripletList, csr_from_triplets,
                  kernel_call_count, partition_rows_by_nnz, spmv_baseline)
from .features import (FEATURE_NAMES, FEATURE_SUBSETS, CacheConfig,
                       FeatureVector, extract_features, resolve_subset,
                       select_features, working_set_bytes)
from .kernels import (VARIANTS, SchedulePolicy, ScheduleKind, Variant,
                      bench_balance, decode_delta, encode_delta, optimization_for,
                      spmv_delta, spmv_prefetch, spmv_scheduled, spmv_unrolled)
from .ml import (Dataset, GaussianNB, ModelFormatError, TrainedModel,
                 load_model, loo_cv, save_model, train_cart, train_gnb)
from .mmio import (MatrixMarketError, load_matrix, parse_matrix_market,
                   read_matrix_market, write_matrix_market)
from .profiling import (BenchmarkReport, ThresholdConfig, classify_from_report,
                        classify_profiling, measure)
from .reporting import SpeedupStats
from .taxonomy import MatrixClass

__version__ = "0.1.0"
