#include "matching/reference_matcher.h"

#include <algorithm>
#include <cstdlib>

#include "extract/features.h"
#include "matching/hungarian.h"

namespace somr::matching {

double DecayedSimilarity(sim::SimilarityKind kind,
                         const std::vector<const BagOfWords*>& history,
                         const BagOfWords& candidate, int k, double phi,
                         const sim::TokenWeighting& weighting) {
  double best = 0.0;
  double decay = 1.0;
  int considered = 0;
  for (auto it = history.rbegin(); it != history.rend() && considered < k;
       ++it, ++considered) {
    best = std::max(best, decay * sim::Similarity(kind, **it, candidate,
                                                  weighting));
    decay *= phi;
  }
  return best;
}

void ReferenceMatcher::ProcessRevision(
    int revision_index, const std::vector<extract::ObjectInstance>& instances) {
  const size_t nt = objects_.size();
  const size_t nn = instances.size();
  std::vector<BagOfWords> bags;
  for (const extract::ObjectInstance& obj : instances) {
    bags.push_back(extract::BuildBagOfWords(obj, config_.features));
  }

  // IOF weights over the newest version of every object and the incoming
  // bags (Sec. IV-B2).
  sim::TokenWeighting weighting;
  if (config_.use_idf_weighting) {
    std::vector<const BagOfWords*> previous, incoming;
    for (const Object& o : objects_) previous.push_back(&o.window.back());
    for (const BagOfWords& bag : bags) incoming.push_back(&bag);
    weighting = sim::TokenWeighting::InverseObjectFrequency(previous, incoming);
  }

  auto similarity = [&](sim::SimilarityKind kind, size_t ti, size_t ni) {
    std::vector<const BagOfWords*> history;
    for (const BagOfWords& bag : objects_[ti].window) history.push_back(&bag);
    return DecayedSimilarity(kind, history, bags[ni],
                             config_.rear_view_window, config_.decay,
                             weighting);
  };
  // Tie-breakers (Alg. 1: matching(G, ↓LT, ↓POS)): lifetime dominates,
  // position decides among equals; both far below similarity resolution.
  auto tie_break = [&](size_t ti, size_t ni) {
    double position_part = 0.0, lifetime_part = 0.0;
    if (config_.use_spatial_features) {
      double d = std::abs(objects_[ti].last_position - instances[ni].position);
      position_part = -1e-8 * (d / (d + 8.0));
    }
    if (config_.enable_lifetime_tiebreak) {
      double l = static_cast<double>(revision_index -
                                     objects_[ti].first_revision);
      lifetime_part = 1e-6 * (l / (l + 64.0));
    }
    return position_part + lifetime_part;
  };

  struct Stage {
    int number;
    bool local_only;
    sim::SimilarityKind kind;
    double threshold;
  };
  std::vector<Stage> stages;
  if (config_.enable_stage1 && config_.use_spatial_features) {
    stages.push_back({1, true, sim::SimilarityKind::kStrict, config_.theta1});
  }
  if (config_.enable_stage2) {
    stages.push_back({2, false, sim::SimilarityKind::kStrict, config_.theta2});
  }
  if (config_.enable_stage3) {
    stages.push_back(
        {3, false, sim::SimilarityKind::kRelaxed, config_.theta3});
  }

  std::vector<int64_t> assignment(nn, -1);
  std::vector<bool> tracked_matched(nt, false);
  for (const Stage& stage : stages) {
    std::vector<WeightedEdge> edges;
    std::vector<double> sims;
    for (size_t ti = 0; ti < nt; ++ti) {
      if (tracked_matched[ti]) continue;
      for (size_t ni = 0; ni < nn; ++ni) {
        if (assignment[ni] >= 0) continue;
        if (stage.local_only &&
            std::abs(objects_[ti].last_position - instances[ni].position) >
                config_.theta_pos) {
          continue;
        }
        double s = similarity(stage.kind, ti, ni);
        if (s < stage.threshold) continue;
        edges.push_back({static_cast<int>(ti), static_cast<int>(ni),
                         s + tie_break(ti, ni)});
        sims.push_back(s);
      }
    }
    if (edges.empty()) continue;
    for (auto [ti, ni] : MaxWeightMatching(nt, nn, edges)) {
      tracked_matched[static_cast<size_t>(ti)] = true;
      assignment[static_cast<size_t>(ni)] = ti;
    }
    if (provenance_ == nullptr) continue;
    for (size_t e = 0; e < edges.size(); ++e) {
      const bool accepted =
          assignment[static_cast<size_t>(edges[e].right)] == edges[e].left;
      obs::MatchDecision d;
      d.kind = accepted ? obs::MatchDecision::Kind::kMatch
                        : obs::MatchDecision::Kind::kReject;
      d.object_type = extract::ObjectTypeName(graph_.type());
      d.revision = revision_index;
      d.stage = stage.number;
      d.object_id = edges[e].left;
      d.position = instances[static_cast<size_t>(edges[e].right)].position;
      d.similarity = sims[e];
      d.threshold = stage.threshold;
      d.reason = accepted ? "matched" : "lost_assignment";
      provenance_->Record(d);
    }
  }

  // Commit: matched instances extend their objects, the rest start new
  // ones (Alg. 1 line 7); every touched window rolls forward.
  const size_t window =
      static_cast<size_t>(std::max(config_.rear_view_window, 1));
  for (size_t ni = 0; ni < nn; ++ni) {
    VersionRef ref{revision_index, instances[ni].position};
    int64_t id = assignment[ni];
    if (id < 0) {
      id = graph_.AddObject(ref);
      objects_.push_back(Object{{}, 0, revision_index});
      if (provenance_ != nullptr) {
        obs::MatchDecision d;
        d.kind = obs::MatchDecision::Kind::kNewObject;
        d.object_type = extract::ObjectTypeName(graph_.type());
        d.revision = revision_index;
        d.object_id = id;
        d.position = instances[ni].position;
        d.reason = "new_object";
        provenance_->Record(d);
      }
    } else {
      graph_.AppendVersion(id, ref);
    }
    Object& o = objects_[static_cast<size_t>(id)];
    o.window.push_back(std::move(bags[ni]));
    while (o.window.size() > window) o.window.pop_front();
    o.last_position = instances[ni].position;
  }
}

}  // namespace somr::matching
