"""Differentially private nonparametric regression over finite classes.

Modules: classes (domains, discretization, restrictions), dimensions
(sequential fat-shattering), irreducibility (levels, soa, reducing trees),
tree_learner (candidate generation), filtering (representative stability
filter), dp (Laplace, sparse selection, audits), pipeline (the end-to-end
learner), oracles (brute-force references), cli (experiments).
"""

__version__ = "0.1.0"

from .classes import (DiscreteClass, Domain, DomainError, EmpiricalDistribution,
                      RealClass, abs_error, discretize_class, discretize_dataset,
                      discretize_value, label_count, min_error, sup_distance,
                      undisc_hypothesis)
from .dimensions import fat_alpha, sfat2, sfat_alpha
from .dp import (BOTTOM, AuditReport, PrivacyParams, SelectionInstance,
                 candidate_id, dp_audit, laplace_sample, noisy_opt_error,
                 rng_stream, sparse_select)
from .filtering import FilteredSets, LadderSchedule, RepSet, filter_step, soa_filter
from .irreducibility import (INFINITE, build_reducing_tree, irreducibility_level,
                             is_l_irreducible, reduction_witness_tree, soa,
                             soa_partial, validate_reducing_tree,
                             validate_witness_tree)
from .oracles import (OracleRefusal, StrongStabilityTarget, WeakStabilityTarget,
                      irreducible_bruteforce, oracle_agreement_grid,
                      sfat2_bruteforce, strong_stability_target,
                      weak_stability_target)
from .pipeline import (RegLearnConfig, RegLearnOutput, ResolvedParams, RunFailure,
                       TheoreticalScaleError, compute_parameters, excess_risk,
                       reg_learn)
from .tree_learner import (ReduceTreeError, ReduceTreeOutput, ReduceTreeParams,
                           level_class, reduce_tree_reg)
from .trees import KTree, TreeError

