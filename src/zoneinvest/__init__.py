"""Real-options design and timing of mobility service regions under
stochastic origin-destination demand."""

from .labeling import (LabeledDataset, estimate_eta_ub, fit_weibull,
                       label_dataset, label_with_cutoff)
from .lsmc import (DEFER, INVEST, NEVER, SequenceValuation, continuation_fit,
                   valuate_sequence, valuate_sequences)
from .neural import (CLASSIFIER, REGRESSOR, LstmModel, auc, forward, gap_at_k,
                     init_model, load_model, save_model, score_and_rank, train)
from .policy import (CR, CR_RNN, PolicyResult, cr_policy, cr_rnn_policy,
                     evaluate_retrieval, load_report, report)
from .ridership import (ConvergenceError, RidershipCache, RidershipResult,
                        cumulative_ridership, equilibrium_ridership,
                        zone_payoff)
from .rollout import (INVEST_ALL, RolloutResult, compare_rollouts,
                      paired_t_test, rollout_report, run_rollout)
from .scenario import (Scenario, ScenarioError, derive_cost_thresholds,
                       generate_synthetic_scenario, load_scenario,
                       save_scenario)
from .sequences import Sequence, enumerate_sequences, sample_sequences
from .stochastic import DemandPaths, dump_paths, load_paths, simulate_paths

__version__ = "0.1.0"
