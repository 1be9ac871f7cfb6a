#pragma once

#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "extract/object.h"
#include "matching/matcher.h"
#include "obs/provenance.h"
#include "xmldump/dump.h"

namespace somr::core {

/// Everything the pipeline produces for one page: the per-type identity
/// graphs, the extracted instances they refer to, and runtime stats.
struct PageResult {
  std::string title;
  std::vector<extract::PageObjects> revisions;  // extracted instances
  std::vector<UnixSeconds> timestamps;          // one per revision
  matching::IdentityGraph tables{extract::ObjectType::kTable};
  matching::IdentityGraph infoboxes{extract::ObjectType::kInfobox};
  matching::IdentityGraph lists{extract::ObjectType::kList};
  matching::MatchStats table_stats;
  matching::MatchStats infobox_stats;
  matching::MatchStats list_stats;

  const matching::IdentityGraph& GraphFor(extract::ObjectType type) const;
};

/// The end-to-end public API: MediaWiki dump XML (or per-page histories)
/// in, identity graphs out. Parsing, extraction and matching use the
/// paper's published configuration by default.
class Pipeline {
 public:
  Pipeline() = default;
  explicit Pipeline(matching::MatcherConfig config) : config_(config) {}

  /// Processes a full dump, every page independently: reads `<page>`
  /// blocks from `input` one at a time (via xmldump::PageStreamReader) so
  /// the full dump XML is never materialized. With `num_threads <= 1` and
  /// no attached executor the pages run sequentially on the caller's
  /// thread. Otherwise the reader hands pages to pool workers through a
  /// bounded Channel, so peak memory is one page history per worker plus
  /// the channel capacity; the pool is the executor attached via
  /// set_executor, or a local one of `num_threads` workers. Results keep
  /// dump order and are bit-identical at any thread count. In-memory
  /// callers wrap their bytes in a std::istringstream.
  StatusOr<std::vector<PageResult>> ProcessDumpStream(
      std::istream& input, unsigned num_threads = 1) const;

  /// Processes one page history. Revisions whose model is "html" are
  /// parsed as HTML; all others as wikitext.
  PageResult ProcessPage(const xmldump::PageHistory& page) const;

  const matching::MatcherConfig& config() const { return config_; }

  /// Attaches a match-decision provenance sink (nullptr detaches). The
  /// sink receives one record per matcher decision, stamped with the page
  /// title; it must be thread-safe when pages run on a pool, and must
  /// outlive every subsequent Process* call.
  void set_provenance_sink(obs::ProvenanceSink* sink) {
    provenance_ = sink;
  }

  /// Attaches a work-stealing pool (nullptr detaches). ProcessDumpStream
  /// then runs its pages on it instead of a local pool, and every page's
  /// matchers use it for intra-step parallelism. The executor must
  /// outlive every subsequent Process* call. Attaching one never changes
  /// results, only wall time.
  void set_executor(parallel::Executor* executor) { executor_ = executor; }

 private:
  /// ProcessPage with an explicit executor for the page's matchers
  /// (ProcessDumpStream passes the pool its page tasks run on).
  PageResult ProcessPageWith(const xmldump::PageHistory& page,
                             parallel::Executor* executor) const;

  matching::MatcherConfig config_;
  obs::ProvenanceSink* provenance_ = nullptr;  // optional, not owned
  parallel::Executor* executor_ = nullptr;     // optional, not owned
};

}  // namespace somr::core
