#pragma once

#include <deque>
#include <vector>

#include "common/check.h"
#include "retrieval/candidate_index.h"
#include "text/flat_bag.h"

namespace somr::retrieval {

/// Cross-checks the inverted index against the matcher's rear-view
/// windows (`windows[object]` = that object's recent FlatBags, oldest
/// first): each object has exactly one live posting per token of its
/// envelope, holding the max count over its window bags; the objects
/// with a live empty posting are exactly those whose window holds an
/// empty bag; and the live posting total equals the summed envelope
/// sizes, so neither side holds anything the other lacks. Run at step
/// boundaries in debug builds and by `somr_process --validate`.
void ValidateCandidateIndex(
    const CandidateIndex& index,
    const std::vector<const std::deque<FlatBag>*>& windows,
    ValidationReport* report);

SOMR_REGISTER_VALIDATOR(retrieval_index, "retrieval_index",
                        "inverted-index postings are the envelopes of the "
                        "rear-view FlatBag windows (live set, max counts, "
                        "totals)");

}  // namespace somr::retrieval
