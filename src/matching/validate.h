#pragma once

// Invariant validators for the matching subsystem (DESIGN.md §11).
// Validators append findings to a ValidationReport instead of aborting;
// callers decide whether a violation is fatal (the matcher's debug-build
// step hook turns any finding into a SOMR_CHECK failure, `somr_process
// --validate` prints them all and exits non-zero).

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "matching/identity_graph.h"
#include "matching/matcher.h"

namespace somr::matching {

/// Algorithm 1 linearity: every instance (revision, position) belongs to
/// exactly one object and appears exactly once in its version chain;
/// revision ids within a chain are strictly increasing (one successor per
/// object per revision); chains are non-empty; object ids are unique and
/// index-aligned (ids are assigned sequentially); positions are
/// non-negative. Pass `positions_unique = false` when the input history
/// contained duplicate position ranks (a tolerated caller bug): then
/// (revision, position) no longer identifies an instance and the
/// claim-uniqueness check is skipped.
void ValidateIdentityGraph(const IdentityGraph& graph,
                           ValidationReport* report,
                           bool positions_unique = true);

/// One step's assignment (instance index -> object id or -1): every
/// non-negative id names an existing object at most once (the Hungarian
/// output is a valid one-to-one matching).
void ValidateAssignment(const std::vector<int64_t>& assignment,
                        size_t object_count, ValidationReport* report);

/// Cross-checks a finished graph against the extracted instance history
/// it was built from: every version ref points at an instance that
/// exists in its revision (`position` within that revision's instances
/// of the graph's type), and every extracted instance is covered by
/// exactly one chain (Alg. 1 leaves no orphans — unmatched instances
/// start new objects). Combined with ValidateIdentityGraph this is the
/// full "matching output is a valid matching" property.
void ValidateGraphAgainstHistory(
    const IdentityGraph& graph,
    const std::vector<extract::PageObjects>& revisions,
    ValidationReport* report);

/// Stage-threshold ordering and window sanity: theta1 >= theta2 >= theta3
/// (a later stage must not be stricter than an earlier one — Sec. IV-B3),
/// thresholds within [0, 1], rear_view_window >= 1, decay in (0, 1].
void ValidateMatcherConfig(const MatcherConfig& config,
                           ValidationReport* report);

SOMR_REGISTER_VALIDATOR(identity_graph, "identity_graph",
                        "identity graphs are sets of linear, strictly "
                        "revision-monotone version chains (Alg. 1)");
SOMR_REGISTER_VALIDATOR(bag_cache, "bag_cache",
                        "every bag-cache entry names a tracked object whose "
                        "newest window bag is the bag of the entry's bytes, "
                        "re-derived without interning");
SOMR_REGISTER_VALIDATOR(matching, "matching",
                        "step assignments are one-to-one onto existing "
                        "objects; rear-view depth <= k; accepted "
                        "similarities reach their stage threshold");

}  // namespace somr::matching
