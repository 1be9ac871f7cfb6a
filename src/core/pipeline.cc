#include "core/pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "xmldump/stream_reader.h"

#include "common/timer.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/mpmc_channel.h"

namespace somr::core {

namespace {

struct PipelineMetrics {
  obs::Counter* pages;
  obs::Counter* revisions;
  obs::Histogram* page_seconds;
};

const PipelineMetrics& GetPipelineMetrics() {
  static const PipelineMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    PipelineMetrics m;
    m.pages = reg.GetCounter("somr_pipeline_pages_total",
                             "Page histories processed end to end");
    m.revisions = reg.GetCounter("somr_pipeline_revisions_total",
                                 "Page revisions extracted and matched");
    m.page_seconds = reg.GetHistogram(
        "somr_pipeline_page_seconds",
        "End-to-end wall time per page history", 1e-4, 2.0, 20);
    return m;
  }();
  return metrics;
}

}  // namespace

const matching::IdentityGraph& PageResult::GraphFor(
    extract::ObjectType type) const {
  switch (type) {
    case extract::ObjectType::kTable:
      return tables;
    case extract::ObjectType::kInfobox:
      return infoboxes;
    case extract::ObjectType::kList:
      return lists;
  }
  std::abort();  // unreachable: all ObjectType values handled above
}

PageResult Pipeline::ProcessPage(const xmldump::PageHistory& page) const {
  return ProcessPageWith(page, executor_);
}

PageResult Pipeline::ProcessPageWith(const xmldump::PageHistory& page,
                                     parallel::Executor* executor) const {
  SOMR_TRACE_SCOPE_CAT("pipeline", "pipeline/page");
  Timer page_timer;
  PageResult result;
  result.title = page.title;
  result.revisions = eval::ExtractRevisionObjects(page);
  result.timestamps.reserve(page.revisions.size());
  for (const xmldump::Revision& rev : page.revisions) {
    result.timestamps.push_back(rev.timestamp);
  }

  matching::PageMatcher matcher(config_);
  if (executor != nullptr) matcher.SetExecutor(executor);
  // Stamp every decision record with this page's title. The scoped sink
  // lives on the stack, so the matcher must drop it before we return.
  obs::PageScopedSink scoped(provenance_, result.title);
  if (scoped.active()) matcher.SetProvenanceSink(&scoped);
  for (size_t r = 0; r < result.revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), result.revisions[r]);
  }
  if (scoped.active()) matcher.SetProvenanceSink(nullptr);
  const PipelineMetrics& metrics = GetPipelineMetrics();
  metrics.pages->Increment();
  metrics.revisions->Increment(result.revisions.size());
  metrics.page_seconds->Observe(page_timer.ElapsedSeconds());
  result.tables = matcher.TakeGraph(extract::ObjectType::kTable);
  result.infoboxes = matcher.TakeGraph(extract::ObjectType::kInfobox);
  result.lists = matcher.TakeGraph(extract::ObjectType::kList);
  result.table_stats = matcher.TakeStats(extract::ObjectType::kTable);
  result.infobox_stats = matcher.TakeStats(extract::ObjectType::kInfobox);
  result.list_stats = matcher.TakeStats(extract::ObjectType::kList);
  return result;
}

StatusOr<std::vector<PageResult>> Pipeline::ProcessDumpStream(
    std::istream& input, unsigned num_threads) const {
  xmldump::PageStreamReader reader(input);

  if (num_threads <= 1 && executor_ == nullptr) {
    std::vector<PageResult> results;
    while (std::optional<xmldump::PageHistory> page = reader.NextPage()) {
      results.push_back(ProcessPage(*page));
    }
    if (!reader.status().ok()) return reader.status();
    return results;
  }

  // Producer (this thread) parses pages and hands them to pool workers
  // through a bounded channel, so a fast reader can never buffer the
  // whole dump in memory. One consumer job per worker; each consumer
  // collects (index, result) pairs privately and the indexes restore
  // dump order afterwards, so no lock is held around page processing.
  std::optional<parallel::Executor> local_pool;
  parallel::Executor* exec = executor_;
  if (exec == nullptr) {
    local_pool.emplace(num_threads);
    exec = &*local_pool;
  }
  const unsigned consumers = exec->num_workers();

  struct Item {
    size_t index = 0;
    xmldump::PageHistory page;
  };
  parallel::Channel<Item> channel(static_cast<size_t>(consumers) * 2);

  std::vector<std::vector<std::pair<size_t, PageResult>>> consumer_results(
      consumers);
  parallel::TaskGroup group(*exec);
  for (unsigned c = 0; c < consumers; ++c) {
    group.Run([this, exec, &channel, &consumer_results, c] {
      Item item;
      while (channel.Pop(item)) {
        consumer_results[c].emplace_back(item.index,
                                         ProcessPageWith(item.page, exec));
      }
    });
  }

  size_t total_pages = 0;
  while (std::optional<xmldump::PageHistory> page = reader.NextPage()) {
    channel.Push({total_pages, *std::move(page)});
    ++total_pages;
  }
  channel.Close();
  group.Wait();

  if (!reader.status().ok()) return reader.status();

  std::vector<PageResult> results(total_pages);
  for (auto& per_consumer : consumer_results) {
    for (auto& [index, result] : per_consumer) {
      results[index] = std::move(result);
    }
  }
  return results;
}

}  // namespace somr::core
