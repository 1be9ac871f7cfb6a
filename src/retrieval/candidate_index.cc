#include "retrieval/candidate_index.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace somr::retrieval {
namespace {

/// Slop on the early-termination threshold so borderline floating-point
/// comparisons always err on the side of keeping a term. Matches the
/// bound slack the matcher applies when filtering candidates.
constexpr double kThetaSlack = 1e-9;

}  // namespace

CandidateIndex::CandidateIndex(size_t window)
    : window_(window == 0 ? 1 : window) {}

void CandidateIndex::UpdateWindow(uint32_t object,
                                  const std::deque<FlatBag>& window) {
  SOMR_DCHECK_LE(window.size(), window_);
  if (object >= generation_.size()) {
    generation_.resize(object + 1, 0);
    live_postings_.resize(object + 1, 0);
  }
  // Bumping the generation retires every posting of the old envelope.
  dead_postings_ += live_postings_[object];
  const uint32_t generation = ++generation_[object];

  // k-way max-merge of the window bags (each ascending by id) into the
  // envelope: per token id, the max count over the versions holding it.
  bool has_empty = false;
  cursors_.clear();
  for (const FlatBag& bag : window) {
    const std::vector<FlatEntry>& entries = bag.entries();
    if (entries.empty()) {
      has_empty = true;
    } else {
      cursors_.push_back({entries.data(), entries.data() + entries.size()});
    }
  }
  envelope_.clear();
  while (!cursors_.empty()) {
    uint32_t id = cursors_.front().at->id;
    for (const Cursor& c : cursors_) id = std::min(id, c.at->id);
    double count = 0.0;
    for (size_t i = 0; i < cursors_.size();) {
      Cursor& c = cursors_[i];
      if (c.at->id == id) {
        count = std::max(count, c.at->count);
        if (++c.at == c.end) {
          c = cursors_.back();
          cursors_.pop_back();
          continue;
        }
      }
      ++i;
    }
    envelope_.push_back({id, count});
  }

  if (!envelope_.empty()) {
    const uint32_t max_id = envelope_.back().id;
    if (lists_.size() <= max_id) lists_.resize(max_id + 1);
    for (const FlatEntry& e : envelope_) {
      lists_[e.id].push_back({object, generation, e.count});
    }
  }
  if (has_empty) empty_postings_.push_back({object, generation, 0.0});
  live_postings_[object] =
      static_cast<uint32_t>(envelope_.size()) + (has_empty ? 1 : 0);
  total_postings_ += live_postings_[object];
  MaybeCompact();
}

void CandidateIndex::MaybeCompact() {
  if (dead_postings_ < kCompactionFloor ||
      dead_postings_ * 2 <= total_postings_) {
    return;
  }
  uint64_t live = 0;
  auto stale = [this](const Posting& p) { return !Live(p); };
  for (std::vector<Posting>& list : lists_) {
    list.erase(std::remove_if(list.begin(), list.end(), stale), list.end());
    live += list.size();
  }
  empty_postings_.erase(std::remove_if(empty_postings_.begin(),
                                       empty_postings_.end(), stale),
                        empty_postings_.end());
  live += empty_postings_.size();
  total_postings_ = live;
  dead_postings_ = 0;
  ++stats_.compactions;
}

void CandidateIndex::EnsureScratch(size_t object_count) {
  if (acc_.size() < object_count) {
    acc_.resize(object_count, 0.0);
    acc_mark_.resize(object_count, 0);
  }
}

void CandidateIndex::RetrieveOverlaps(const FlatBag& query,
                                      const sim::DenseTokenWeights& weights,
                                      double query_weighted_total,
                                      double theta, bool allow_early_exit,
                                      RetrievalResult* out) {
  out->candidates.clear();
  out->slack = 0.0;
  ++stats_.queries;
  if (generation_.empty() || query.empty()) return;
  EnsureScratch(generation_.size());
  ++query_serial_;
  touched_.clear();

  // Collect the query terms that have a posting list, with their score
  // caps w_t * count_query(t): no live window version can contribute
  // more than its term cap to any overlap.
  terms_.clear();
  for (const FlatEntry& e : query.entries()) {
    if (e.id >= lists_.size() || lists_[e.id].empty()) continue;
    const double w = weights.Weight(e.id);
    terms_.push_back({e.id, w * e.count, e.count, w});
  }
  if (terms_.empty()) return;

  // Remaining mass starts as the total cap of the indexed terms, summed
  // in ascending id order (entry order) for determinism.
  double remaining = 0.0;
  for (const TermRef& t : terms_) remaining += t.cap;

  // WAND pivot order: highest-cap terms first so the remaining mass
  // decays as fast as possible. Ties broken by id for determinism.
  std::sort(terms_.begin(), terms_.end(),
            [](const TermRef& a, const TermRef& b) {
              if (a.cap != b.cap) return a.cap > b.cap;
              return a.id < b.id;
            });

  // sim_strict(q, v) <= overlap / total_q: once the unvisited terms'
  // mass cannot reach theta * total_q, no object touched only by tail
  // terms can clear theta, and every touched object's bound is completed
  // by adding the remaining mass as slack.
  const double exit_below =
      allow_early_exit ? (theta - kThetaSlack) * query_weighted_total : -1.0;

  size_t walked = 0;
  for (const TermRef& t : terms_) {
    if (allow_early_exit && walked > 0 && remaining < exit_below) break;
    ++walked;
    const std::vector<Posting>& list = lists_[t.id];
    stats_.postings_scanned += list.size();
    // An object has one live posting per envelope token, so each object's
    // sum is accumulated in term order whatever the list interleaving,
    // and a rebuilt index accumulates bit-identically.
    for (const Posting& p : list) {
      if (!Live(p)) continue;
      const double contribution =
          t.weight * (t.count < p.count ? t.count : p.count);
      if (acc_mark_[p.object] != query_serial_) {
        acc_mark_[p.object] = query_serial_;
        acc_[p.object] = contribution;
        touched_.push_back(p.object);
      } else {
        acc_[p.object] += contribution;
      }
    }
    remaining -= t.cap;
  }
  if (walked < terms_.size()) {
    for (size_t i = walked; i < terms_.size(); ++i) {
      stats_.wand_skips += lists_[terms_[i].id].size();
    }
    out->slack = remaining;
  }

  out->candidates.reserve(touched_.size());
  for (const uint32_t object : touched_) {
    out->candidates.push_back({object, acc_[object]});
  }
  std::sort(out->candidates.begin(), out->candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.object < b.object;
            });
}

void CandidateIndex::ValidEmptyObjects(std::vector<uint32_t>* out) const {
  out->clear();
  for (const Posting& p : empty_postings_) {
    if (Live(p)) out->push_back(p.object);
  }
  std::sort(out->begin(), out->end());
}

void CandidateIndex::Validate(
    const std::vector<const std::deque<FlatBag>*>& windows,
    ValidationReport* report) const {
  const size_t objects = generation_.size();
  if (windows.size() != objects) {
    report->AddIssue("retrieval_index")
        << "tracks " << objects << " objects, matcher has "
        << windows.size();
    return;
  }

  // The envelopes, recomputed from the windows independently of the
  // merge UpdateWindow runs.
  std::vector<std::map<uint32_t, double>> envelopes(objects);
  std::vector<bool> has_empty(objects, false);
  uint64_t envelope_entries = 0;
  for (size_t object = 0; object < objects; ++object) {
    const std::deque<FlatBag>& window = *windows[object];
    if (window.size() > window_) {
      report->AddIssue("retrieval_index")
          << "object " << object << " window holds " << window.size()
          << " bags, index window is " << window_;
    }
    std::map<uint32_t, double>& envelope = envelopes[object];
    for (const FlatBag& bag : window) {
      if (bag.empty()) has_empty[object] = true;
      for (const FlatEntry& e : bag.entries()) {
        double& count = envelope[e.id];
        count = std::max(count, e.count);
      }
    }
    const uint64_t expected = envelope.size() + (has_empty[object] ? 1 : 0);
    if (live_postings_[object] != expected) {
      report->AddIssue("retrieval_index")
          << "object " << object << " books " << live_postings_[object]
          << " live postings, its envelope has " << expected;
    }
    envelope_entries += expected;
  }

  // Every live posting must hold a token of its object's envelope with
  // the envelope count, at most once per list; no posting may claim a
  // generation its object has not reached (it would come alive later).
  uint64_t live_postings = 0;
  std::vector<uint64_t> seen_in(objects, 0);  // stamp: list index + 1
  auto check = [&](uint64_t list, const Posting& p) -> bool {
    if (p.object >= objects) {
      report->AddIssue("retrieval_index")
          << "posting for unknown object " << p.object;
      return false;
    }
    if (p.generation > generation_[p.object]) {
      report->AddIssue("retrieval_index")
          << "posting for object " << p.object << " has generation "
          << p.generation << " beyond the current " << generation_[p.object];
    }
    if (!Live(p)) return false;
    ++live_postings;
    if (seen_in[p.object] == list + 1) {
      report->AddIssue("retrieval_index")
          << "duplicate live posting for object " << p.object << " in list "
          << list;
    }
    seen_in[p.object] = list + 1;
    return true;
  };
  for (uint32_t token = 0; token < lists_.size(); ++token) {
    for (const Posting& p : lists_[token]) {
      if (!check(token, p)) continue;
      const std::map<uint32_t, double>& envelope = envelopes[p.object];
      const auto it = envelope.find(token);
      if (it == envelope.end()) {
        report->AddIssue("retrieval_index")
            << "live posting for object " << p.object << " token " << token
            << " is in no window bag";
      } else if (it->second != p.count) {
        report->AddIssue("retrieval_index")
            << "posting count " << p.count << " for object " << p.object
            << " token " << token << ", envelope max is " << it->second;
      }
    }
  }
  for (const Posting& p : empty_postings_) {
    if (!check(lists_.size(), p)) continue;
    if (!has_empty[p.object]) {
      report->AddIssue("retrieval_index")
          << "empty posting for object " << p.object
          << " whose window holds no empty bag";
    }
  }

  for (size_t object = 0; object < objects; ++object) {
    if (has_empty[object] && seen_in[object] != lists_.size() + 1) {
      report->AddIssue("retrieval_index")
          << "object " << object
          << " holds an empty bag but has no live empty posting";
    }
  }

  // Counting both directions: the per-posting checks above prove every
  // live posting maps to a distinct envelope entry; equal totals then
  // prove every envelope entry (and every empty bag) has its posting.
  if (live_postings != envelope_entries) {
    report->AddIssue("retrieval_index")
        << live_postings << " live postings vs " << envelope_entries
        << " envelope entries";
  }
}

}  // namespace somr::retrieval
