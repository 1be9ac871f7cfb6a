#pragma once

// Test input: one synthetic page whose table matcher's tracked-object
// count grows across TemporalMatcher::kIndexMinTracked mid-stream, so the
// size rule switches from the sweep to the retrieval index partway
// through the history; plus the fingerprint that continuation tests
// compare.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "extract/object.h"
#include "matching/graph_io.h"
#include "matching/matcher.h"
#include "state/snapshot.h"

namespace somr::matching {

/// `revisions` versions of the page (tables only, positions 0..n-1). The
/// first holds kIndexMinTracked - 6 tables of 12 tokens; every later one
/// rewrites 0-3 tokens of each table (so stages 1, 2 and 3 all match),
/// moves one table, retires one every third revision and inserts two new
/// ones, which pushes the tracked count past the constant by revision 4.
inline std::vector<extract::PageObjects> GrowingContext(uint64_t seed,
                                                        int revisions = 10) {
  Rng rng(seed);
  size_t next_table = 0;
  auto new_table = [&] {
    extract::ObjectInstance table;
    table.type = extract::ObjectType::kTable;
    table.schema = {"name", "value", "note"};
    const std::string id = std::to_string(next_table++);
    for (int r = 0; r < 4; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < 3; ++c) {
        row.push_back(rng.Bernoulli(0.25)
                          ? "s" + std::to_string(rng.UniformInt(0, 29))
                          : "t" + id + "c" + std::to_string(r * 3 + c));
      }
      table.rows.push_back(std::move(row));
    }
    return table;
  };

  std::vector<extract::ObjectInstance> live;
  for (size_t i = 0; i + 6 < TemporalMatcher::kIndexMinTracked; ++i) {
    live.push_back(new_table());
  }
  std::vector<extract::PageObjects> history;
  for (int rev = 0; rev < revisions; ++rev) {
    if (rev > 0) {
      for (extract::ObjectInstance& table : live) {
        const int edits = static_cast<int>(rng.UniformInt(0, 3));
        for (int e = 0; e < edits; ++e) {
          std::vector<std::string>& row = table.rows[rng.Index(4)];
          row[rng.Index(3)] =
              "e" + std::to_string(rev) + "n" + std::to_string(rng.Index(1000));
        }
      }
      const size_t from = rng.Index(live.size());
      extract::ObjectInstance moved = live[from];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(from));
      live.insert(live.begin() + static_cast<std::ptrdiff_t>(
                                     rng.Index(live.size() + 1)),
                  std::move(moved));
      if (rev % 3 == 0) {
        live.erase(live.begin() +
                   static_cast<std::ptrdiff_t>(rng.Index(live.size())));
      }
      for (int added = 0; added < 2; ++added) {
        live.insert(live.begin() + static_cast<std::ptrdiff_t>(
                                       rng.Index(live.size() + 1)),
                    new_table());
      }
    }
    for (size_t i = 0; i < live.size(); ++i) {
      live[i].position = static_cast<int>(i);
    }
    extract::PageObjects objects;
    objects.tables = live;
    history.push_back(std::move(objects));
  }
  return history;
}

/// Everything about `state` a continuation must reproduce: the identity
/// graphs and every MatchStats counter, whose work-rate part
/// (similarities, prunes) also pins the step the index took over. Step
/// wall times are left out; they differ run to run.
inline std::string StateFingerprint(const state::PageState& state) {
  std::ostringstream out;
  out << state.title << " " << state.revisions_ingested << "\n";
  for (extract::ObjectType type :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    const MatchStats& stats = state.matcher.StatsFor(type);
    out << SerializeIdentityGraph(state.matcher.GraphFor(type)) << "stats "
        << stats.similarities_computed << " " << stats.pairs_pruned << " "
        << stats.stage1_matches << " " << stats.stage2_matches << " "
        << stats.stage3_matches << " " << stats.new_objects << " "
        << stats.step_millis.size() << "\n";
  }
  return out.str();
}

}  // namespace somr::matching
