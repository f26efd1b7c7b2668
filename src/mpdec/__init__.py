"""Mathematical-programming decoders for binary linear block codes."""

from .channels import (Biawgn, Bsc, ebn0_db_to_sigma, hard_decision, llr,
                       transmit, trial_rng)
from .decoders import (DecodeResult, DecodeStats, DecodeStatus, DecoderConfig,
                       adaptive_lp_decode, bit_guessing_decode,
                       branch_and_bound_decode, constant_depth_decode,
                       cutting_plane_decode, facet_guessing_decode,
                       fractional_distance, lp_decode, make_decoder,
                       min_sum_decode, neighborhood_search, sum_product_decode,
                       variable_depth_decode)
from .formulations import (FORMULATIONS, FsInequality, Formulation,
                           build_formulation, decompose_checks,
                           fs_inequalities, has_lonely_fractional_neighbor,
                           matrix_adaptation_cut_search, most_violated_fs_cut,
                           row_fs_cuts, rpc_cycle_cut_search, rpc_from_rows,
                           separate_fs_cuts)
from .gf2 import (BinaryMatrix, LinearCode, TannerGraph, enumerate_codewords,
                  girth, load_alist, min_distance_bruteforce, ml_bruteforce,
                  random_regular_ldpc, rank, rref, save_alist,
                  spc_product_code, syndrome)
from .sim import (SimConfig, SimRecord, fer_confidence, simulate,
                  simulate_to_csv)
from .simplex import (FEAS_TOL, INTEGRALITY_TOL, LpProblem, LpRow, LpSolution,
                      LpSolverError, LpStatus, add_rows_resolve, dump_lp,
                      fix_variable_resolve, is_integral, make_problem, solve)
from .trellis import (FsmSpec, Trellis, TurboSpec, accumulator_fsm,
                      build_trellis, build_turbo_lp, encode_turbo,
                      four_state_fsm, fsm_to_text, parse_fsm_text,
                      trellis_flow_lp, turbo_lagrangian_decode,
                      turbo_lp_decode, turbo_ml_bruteforce, viterbi)

__version__ = "0.1.0"
