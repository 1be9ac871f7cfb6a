// gold_batch: the paper-shaped stratified gold corpora for all three
// object types plus a DWTC-style HTML crawl of the table pages, written
// as a MediaWiki dump (in part files) and run through core::Pipeline's
// streaming entry point on one thread.

#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "archive/crawl_sampler.h"
#include "bench.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "extract/features.h"
#include "extract/html_extractor.h"
#include "extract/wikitext_extractor.h"
#include "html/parser.h"
#include "matching/graph_io.h"
#include "wikigen/evolver.h"
#include "wikitext/parser.h"
#include "xmldump/stream_reader.h"

namespace perfbench {

namespace {

using somr::extract::ObjectType;
using somr::extract::ObjectTypeName;
using somr::matching::IdentityGraph;

constexpr std::array<int, 6> kCaps = {1, 3, 7, 15, 31, 64};
constexpr double kCrawlIntervalDays = 20.0;
/// Pages per stratum: small pages are cheap, and more of them keep the
/// low half's latency figures from swinging with one page's text.
constexpr int kSmallStratumPages = 10;
constexpr int kLargeStratumPages = 2;
/// Part files of the low half's pages; every high-half page has its own.
constexpr size_t kLowParts = 8;

struct GoldInput {
  /// The dump, split into part files that are timed one by one: a
  /// per-part median over passes shrugs off a burst of host noise that
  /// a whole-pass time would carry. A high-half page's part holds only
  /// that page, so its time is the page's own time in the pipeline.
  std::vector<std::string> parts;
  std::vector<bool> part_high;
  std::vector<size_t> part_pages, part_revisions;
  uint64_t xml_bytes = 0;
  size_t revisions = 0;
  size_t crawl_pages = 0;
  // Per page, in processing order (part by part).
  std::vector<int> cap;
  std::vector<ObjectType> focal;
  std::vector<std::array<IdentityGraph, 3>> truth;
};

GoldInput MakeInput(const Options& options) {
  struct Entry {
    somr::xmldump::PageHistory page;
    int cap;
    ObjectType focal;
    std::array<IdentityGraph, 3> truth;
  };
  std::vector<Entry> entries;
  somr::Rng crawl_rng(options.seed * 7919 + 17);
  for (GoldPage& page :
       MakeGoldPages(options.seed, options.tiny ? 12 : 100, kSmallStratumPages,
                     kLargeStratumPages, options.tiny)) {
    const somr::wikigen::GeneratedPage& gen = page.generated;
    if (page.focal == ObjectType::kTable) {
      somr::archive::SampledHistory crawl =
          somr::archive::SampleCrawls(gen, kCrawlIntervalDays, crawl_rng);
      crawl.page.title = "crawl/" + page.history.title;
      entries.push_back({std::move(crawl.page), page.cap, page.focal,
                         {crawl.truth_tables, crawl.truth_infoboxes,
                          crawl.truth_lists}});
    }
    entries.push_back({std::move(page.history), page.cap, page.focal,
                       {gen.truth_tables, gen.truth_infoboxes,
                        gen.truth_lists}});
  }

  // Low-half pages are dealt round robin over the low parts; each
  // high-half page gets a part of its own.
  const size_t low_parts = options.tiny ? 2 : kLowParts;
  std::vector<std::vector<size_t>> part_entries(low_parts);
  std::vector<bool> part_high(low_parts, false);
  size_t low = 0;
  for (size_t e = 0; e < entries.size(); ++e) {
    if (entries[e].cap >= kHighCap) {
      part_entries.push_back({e});
      part_high.push_back(true);
    } else {
      part_entries[low++ % low_parts].push_back(e);
    }
  }

  GoldInput input;
  for (size_t k = 0; k < part_entries.size(); ++k) {
    const std::string path =
        options.work_dir + "/gold." + std::to_string(k) + ".xml";
    std::ofstream out(path, std::ios::binary);
    somr::xmldump::Dump header;
    header.site_name = "perfbench-gold";
    somr::xmldump::WriteDumpHeader(header, out);
    size_t revisions = 0;
    for (size_t e : part_entries[k]) {
      Entry& entry = entries[e];
      revisions += entry.page.revisions.size();
      if (entry.page.revisions.front().model == "html") ++input.crawl_pages;
      input.cap.push_back(entry.cap);
      input.focal.push_back(entry.focal);
      input.truth.push_back(std::move(entry.truth));
      somr::xmldump::WritePage(entry.page, out);
    }
    somr::xmldump::WriteDumpFooter(out);
    out.close();
    input.parts.push_back(path);
    input.part_high.push_back(part_high[k]);
    input.part_pages.push_back(part_entries[k].size());
    input.part_revisions.push_back(revisions);
    input.revisions += revisions;
    input.xml_bytes += std::filesystem::file_size(path);
  }
  return input;
}

/// One pass of the call-by-call replay (traced runs only): the calls
/// ProcessDumpStream makes, each wrapped in a span when the tracer is on.
/// Traced passes also replay bag build on mirror TokenPools, so its cost
/// can be split out of the matching step that builds the same bags
/// internally.
struct ReplayPass {
  double wall = 0;
  double replica = 0;  // bag-build replay, not part of the pipeline's work
  uint64_t digest = 0;
  size_t instances = 0;
  double tokens = 0;
  size_t pool_tokens = 0;
  somr::matching::MatchStats stats;  // counters summed over all matchers
  std::map<int, std::vector<double>> focal_step_us;  // cap -> samples
  /// Per revision, in input order: parse + extract + match time, and
  /// whether the page is in the high half.
  std::vector<double> rev_ms;
  std::vector<bool> rev_high;
};

/// Replays page `p` of the input (already read) into `pass`.
void ReplayPage(const somr::xmldump::PageHistory& page, size_t p,
                const GoldInput& input, Tracer& tracer, ReplayPass& pass) {
  const somr::matching::MatcherConfig config;
  const bool high = input.cap[p] >= kHighCap;
  Tracer::Scope page_span(&tracer, kPage);
  std::array<std::unique_ptr<somr::matching::TemporalMatcher>, 3> matchers;
  std::array<somr::TokenPool, 3> mirror;
  for (size_t t = 0; t < 3; ++t) {
    matchers[t] =
        std::make_unique<somr::matching::TemporalMatcher>(kTypes[t], config);
  }
  for (size_t r = 0; r < page.revisions.size(); ++r) {
    const double rev_start = Now();
    double rev_replica = 0;
    const somr::xmldump::Revision& rev = page.revisions[r];
    somr::extract::PageObjects objects;
    if (rev.model == "html") {
      std::unique_ptr<somr::html::Node> dom;
      {
        Tracer::Scope span(&tracer, kHtml);
        dom = somr::html::ParseHtml(rev.text);
      }
      {
        Tracer::Scope span(&tracer, kExtract);
        objects = somr::extract::ExtractFromHtml(*dom);
      }
      Tracer::Scope span(&tracer, kHtml);
      dom.reset();
    } else {
      somr::wikitext::Document doc;
      {
        Tracer::Scope span(&tracer, kWikitext);
        doc = somr::wikitext::ParseWikitext(rev.text);
      }
      {
        Tracer::Scope span(&tracer, kExtract);
        objects = somr::extract::ExtractFromWikitext(doc);
      }
      Tracer::Scope span(&tracer, kWikitext);
      doc = somr::wikitext::Document();
    }
    pass.instances += objects.TotalCount();
    for (size_t t = 0; t < 3; ++t) {
      const auto& instances = objects.OfType(kTypes[t]);
      if (tracer.enabled()) {
        Tracer::Scope span(&tracer, kBagBuild);
        for (const auto& instance : instances) {
          pass.tokens += somr::extract::BuildFlatBag(instance, mirror[t],
                                                     config.features)
                             .TotalCount();
        }
        rev_replica += span.Elapsed();
      }
      Tracer::Scope span(&tracer, kMatch);
      matchers[t]->ProcessRevision(static_cast<int>(r), instances);
      if (kTypes[t] == input.focal[p]) {
        pass.focal_step_us[input.cap[p]].push_back(span.Elapsed() * 1e6);
      }
    }
    {
      Tracer::Scope span(&tracer, kExtract);
      objects = somr::extract::PageObjects();
    }
    pass.replica += rev_replica;
    pass.rev_ms.push_back((Now() - rev_start - rev_replica) * 1e3);
    pass.rev_high.push_back(high);
  }
  std::array<IdentityGraph, 3> graphs;
  for (size_t t = 0; t < 3; ++t) {
    graphs[t] = matchers[t]->TakeGraph();
    const somr::matching::MatchStats& s = matchers[t]->stats();
    pass.stats.similarities_computed += s.similarities_computed;
    pass.stats.stage1_matches += s.stage1_matches;
    pass.stats.stage2_matches += s.stage2_matches;
    pass.stats.stage3_matches += s.stage3_matches;
    pass.stats.new_objects += s.new_objects;
    pass.stats.pairs_pruned += s.pairs_pruned;
    pass.pool_tokens += mirror[t].size();
  }
  {
    Tracer::Scope span(&tracer, kGraph);
    std::string text;
    for (const IdentityGraph& graph : graphs) {
      text += somr::matching::SerializeIdentityGraph(graph);
    }
    pass.digest = Fnv(text, pass.digest);
  }
  Tracer::Scope span(&tracer, kMatch);
  for (auto& matcher : matchers) matcher.reset();
}

ReplayPass ReplayGold(const GoldInput& input, Tracer& tracer) {
  ReplayPass pass;
  pass.digest = Fnv("");
  const double start = Now();
  size_t p = 0;
  for (const std::string& part : input.parts) {
    std::ifstream in(part, std::ios::binary);
    somr::xmldump::PageStreamReader reader(in);
    while (true) {
      std::optional<somr::xmldump::PageHistory> page;
      {
        Tracer::Scope span(&tracer, kXmlRead);
        page = reader.NextPage();
      }
      if (!page) break;
      ReplayPage(*page, p++, input, tracer, pass);
      Tracer::Scope span(&tracer, kXmlRead);
      page.reset();
    }
  }
  pass.wall = Now() - start;
  return pass;
}

}  // namespace

std::vector<GoldPage> MakeGoldPages(uint64_t seed, int revisions,
                                    int small_pages, int large_pages,
                                    bool tiny) {
  // The themes each focal type's corpus draws from (wikigen's gold
  // corpus mix), assigned in turn instead of drawn, and a fixed starting
  // object count per stratum: the seed then varies every edit but not
  // the corpus's shape, so its cost does not swing from seed to seed.
  using somr::wikigen::PageTheme;
  const std::vector<std::vector<PageTheme>> themes = {
      {PageTheme::kAwards, PageTheme::kSports, PageTheme::kDiscography,
       PageTheme::kSettlement, PageTheme::kGeneric},
      {PageTheme::kSettlement, PageTheme::kDiscography, PageTheme::kGeneric},
      {PageTheme::kAwards, PageTheme::kDiscography, PageTheme::kGeneric}};
  std::vector<int> caps(kCaps.begin(), kCaps.end());
  if (tiny) caps = {1, 3, 15};
  std::vector<GoldPage> pages;
  int64_t page_id = 1, rev_id = 1;
  for (size_t t = 0; t < std::size(kTypes); ++t) {
    size_t i = 0;  // page index within the type's corpus
    for (int cap : caps) {
      const int copies = cap < kHighCap ? small_pages : large_pages;
      for (int copy = 0; copy < copies; ++copy, ++i) {
        somr::wikigen::EvolverConfig config;
        config.focal_type = kTypes[t];
        config.max_focal_objects = cap;
        config.initial_focal_objects = std::max(1, cap / 2);
        config.num_revisions = revisions;
        config.theme = themes[t][i % themes[t].size()];
        config.seed = seed * 1000003 + t * 1009 + i;
        GoldPage page;
        page.focal = kTypes[t];
        page.cap = cap;
        page.copy = copy;
        page.generated = somr::wikigen::PageEvolver(config).Generate();
        page.history.title = std::string(ObjectTypeName(kTypes[t])) + "/" +
                             std::to_string(i) + " " + page.generated.title;
        page.history.page_id = page_id++;
        for (const auto& rev : page.generated.revisions) {
          somr::xmldump::Revision out;
          out.id = rev_id++;
          out.timestamp = rev.timestamp;
          out.contributor = rev.contributor;
          out.comment = rev.comment;
          out.text = rev.wikitext;
          page.history.revisions.push_back(std::move(out));
        }
        pages.push_back(std::move(page));
      }
    }
  }
  return pages;
}

Result RunGoldBatch(const Options& options) {
  Result result;
  const GoldInput input = MakeInput(options);
  const size_t pages = input.cap.size();
  result.Info("seed", static_cast<double>(options.seed));
  result.Info("pages", static_cast<double>(pages));
  result.Info("crawl_pages", static_cast<double>(input.crawl_pages));
  result.Info("revisions", static_cast<double>(input.revisions));
  result.Info("xml_bytes", static_cast<double>(input.xml_bytes));

  const somr::matching::MatcherConfig config;
  // Set-up: what a run builds before its first page is read — the
  // pipeline and a reader over every part file.
  const double setup_seconds = MeasureSetup([&] {
               somr::core::Pipeline pipeline(config);
               std::vector<std::unique_ptr<std::ifstream>> streams;
               std::vector<somr::xmldump::PageStreamReader> readers;
               for (const std::string& part : input.parts) {
                 streams.push_back(
                     std::make_unique<std::ifstream>(part, std::ios::binary));
                 readers.emplace_back(*streams.back());
               }
               DoNotOptimize(&pipeline);
               DoNotOptimize(readers.data());
             });

  // Timed section: ProcessDumpStream over every part file, one at a time.
  // A traced run gives a third of its budget to these passes, a third to
  // untraced call-by-call replays and a third to traced ones.
  const double budget = options.trace ? options.seconds / 3 : options.seconds;
  somr::core::Pipeline pipeline(config);
  const size_t parts = input.parts.size();
  std::vector<std::vector<double>> part_seconds(parts);
  std::vector<std::vector<double>> graph_ms_passes;  // per high-half page
  std::optional<uint64_t> reference_digest;
  somr::eval::ObjectAccuracyCounts accuracy;
  somr::eval::EdgeMetrics edges;
  std::array<size_t, 3> instances_per_type = {0, 0, 0};

  HostClock clock;
  TrimHeap();
  ResetPeakRss();
  // Two passes at least: the second checks the first's graphs.
  TimedLoop loop(budget, 2);
  while (loop.Next()) {
    std::vector<somr::core::PageResult> out;
    for (size_t k = 0; k < parts; ++k) {
      std::ifstream in(input.parts[k], std::ios::binary);
      const double t0 = Now();
      somr::StatusOr<std::vector<somr::core::PageResult>> results =
          pipeline.ProcessDumpStream(in, 1);
      part_seconds[k].push_back(Now() - t0);
      clock.Probe();  // the host's speed, between parts (see HostClock)
      if (!results.ok()) {
        result.Fail("pipeline failed: " + results.status().ToString());
        break;
      }
      for (auto& page : *results) out.push_back(std::move(page));
    }
    result.attempted += pages;
    if (out.size() != pages) {
      result.Fail("pipeline returned " + std::to_string(out.size()) +
                      " of " + std::to_string(pages) + " pages",
                  pages);
      break;
    }
    if (options.perturb == "graph" && !reference_digest) {
      PerturbGraph(out[0].tables);
    }
    // The digest serializes every page's graphs; a high-half page's
    // serialization is timed as its graph read.
    uint64_t digest = Fnv("");
    std::vector<double> graph_ms;
    for (size_t k = 0, p = 0; k < parts; ++k) {
      for (size_t i = 0; i < input.part_pages[k]; ++i, ++p) {
        const double t0 = Now();
        std::string text;
        for (ObjectType type : kTypes) {
          text += somr::matching::SerializeIdentityGraph(out[p].GraphFor(type));
        }
        if (input.part_high[k]) graph_ms.push_back((Now() - t0) * 1e3);
        digest = Fnv(text, digest);
      }
    }
    graph_ms_passes.push_back(std::move(graph_ms));
    if (!reference_digest) {
      reference_digest = digest;
      for (size_t p = 0; p < pages; ++p) {
        for (size_t t = 0; t < 3; ++t) {
          const IdentityGraph& truth = input.truth[p][t];
          const IdentityGraph& graph = out[p].GraphFor(kTypes[t]);
          accuracy.Add(somr::eval::CountCorrectObjects(truth, graph));
          edges.Add(somr::eval::CompareEdges(truth, graph));
        }
        for (const auto& objects : out[p].revisions) {
          for (size_t t = 0; t < 3; ++t) {
            instances_per_type[t] += objects.OfType(kTypes[t]).size();
          }
        }
      }
    } else if (digest != *reference_digest) {
      result.Fail("graph digest changed between passes", pages);
    }
  }
  const double peak_rss = PeakRssMib();

  // A pass's time is the sum over parts of each part's median (or, for
  // the sustained rate, its slower quartile) across passes. The high
  // half's time per revision pools its pages, so it does not hang on
  // which page's cost falls in the middle for a seed.
  double pass_median = 0, pass_q3 = 0, high_seconds = 0, high_revisions = 0;
  size_t high_pages = 0;
  for (size_t k = 0; k < parts; ++k) {
    const double median = Median(part_seconds[k]);
    pass_median += median;
    pass_q3 += Quantile(part_seconds[k], 0.75);
    if (input.part_high[k]) {
      high_seconds += median;
      high_revisions += static_cast<double>(input.part_revisions[k]);
      ++high_pages;
    }
  }
  // Every time is scaled to the reference host (see HostClock).
  const double host = clock.Factor();
  const double revisions = static_cast<double>(input.revisions);
  result.Info("host_factor", host);
  result.Info("raw_revisions_per_s", revisions / pass_median);
  result.Set("setup_s", setup_seconds * host, "s");
  result.Set("revisions_per_s", revisions / (pass_median * host), "1/s");
  result.Set("input_mib_per_s",
             Mib(static_cast<double>(input.xml_bytes)) / (pass_median * host),
             "MiB/s");
  result.Set("sustained_rps", revisions / (pass_q3 * host), "1/s");
  result.Set("peak_rss_mib", peak_rss, "MiB");
  result.Set("rev_p50_ms_high", high_seconds * 1e3 * host / high_revisions,
             "ms");
  // Per high-half page, the median over passes of its graph read; the
  // gated figure is their mean, for the same reason.
  const std::vector<double> graph_ms_high = ElementwiseMedian(graph_ms_passes);
  result.Set("graph_p50_ms_high",
             Sum(graph_ms_high) * host /
                 static_cast<double>(graph_ms_high.size()),
             "ms");
  result.Set("graph_p99_ms_high", Quantile(graph_ms_high, 0.99) * host, "ms");
  result.Info("passes", static_cast<double>(graph_ms_passes.size()));
  result.Info("parts", static_cast<double>(parts));
  result.Info("high_pages", static_cast<double>(high_pages));
  result.Info("instances_table", static_cast<double>(instances_per_type[0]));
  result.Info("instances_infobox",
              static_cast<double>(instances_per_type[1]));
  result.Info("instances_list", static_cast<double>(instances_per_type[2]));
  CheckQuality(options, reference_digest.value_or(0), accuracy, edges,
               result);

  if (!options.trace) return result;

  // Traced run: the call-by-call replay of the same pages, untraced (per
  // revision latency and the tracing overhead's baseline), then traced,
  // one span per call.
  Tracer untraced(false);
  std::vector<double> replay_seconds;
  std::vector<std::vector<double>> rev_ms_passes;
  std::vector<bool> rev_high;
  TimedLoop replay_loop(budget);
  while (replay_loop.Next()) {
    ReplayPass replay = ReplayGold(input, untraced);
    result.attempted += pages;
    replay_seconds.push_back(replay.wall);
    rev_ms_passes.push_back(std::move(replay.rev_ms));
    rev_high = std::move(replay.rev_high);
    if (replay.digest != *reference_digest) {
      result.Fail("call-by-call replay produced different graphs", pages);
      break;
    }
  }
  // Percentiles over per-revision medians across passes, so a burst of
  // host noise in one pass does not land in the tail.
  const std::vector<double> rev_ms = ElementwiseMedian(rev_ms_passes);
  std::vector<double> replay_ms_low, replay_ms_high;
  for (size_t i = 0; i < rev_ms.size(); ++i) {
    (rev_high[i] ? replay_ms_high : replay_ms_low).push_back(rev_ms[i]);
  }
  result.Set("rev_p50_ms_low", Quantile(replay_ms_low, 0.5), "ms");
  result.Set("rev_p99_ms_low", Quantile(replay_ms_low, 0.99), "ms");
  result.Set("rev_p99_ms_high", Quantile(replay_ms_high, 0.99), "ms");
  result.Info("replay_seconds", JoinNumbers(replay_seconds));

  Tracer tracer(true);
  std::vector<double> traced_seconds;
  std::vector<ReplayPass> traced;
  const auto registry_before = CounterValues();
  TimedLoop traced_loop(budget);
  while (traced_loop.Next()) {
    traced.push_back(ReplayGold(input, tracer));
    traced_seconds.push_back(traced.back().wall - traced.back().replica);
    result.attempted += pages;
    if (traced.back().digest != *reference_digest) {
      result.Fail("traced replay produced different graphs", pages);
      break;
    }
  }
  const auto registry_after = CounterValues();
  tracer.WriteChromeJson(options.work_dir + "/trace_gold_batch.json");

  double wall = 0, replica = 0;
  for (const ReplayPass& pass : traced) {
    wall += pass.wall;
    replica += pass.replica;
  }
  LayerShares shares(tracer, wall, replica, kMatch);
  SetZeroPerLayer(result);
  const ReplayPass& one = traced.front();
  const double n = static_cast<double>(traced.size());
  result.Set("xmldump.read_share", shares.Share(kXmlRead), "share");
  result.Set("xmldump.mib_per_s",
             Mib(static_cast<double>(input.xml_bytes)) * n / tracer.TotalSeconds(kXmlRead),
             "MiB/s");
  result.Set("wikitext.parse_share", shares.Share(kWikitext), "share");
  result.Set("html.parse_share", shares.Share(kHtml), "share");
  result.Set("extract.extract_share", shares.Share(kExtract), "share");
  result.Set("extract.instances", static_cast<double>(one.instances),
             "count");
  result.Set("text.bag_build_share", shares.Share(kBagBuild), "share");
  result.Set("text.tokens", one.tokens, "count");
  result.Set("text.pool_tokens", static_cast<double>(one.pool_tokens),
             "count");
  result.Set("matching.step_share", shares.Share(kMatch), "share");
  SetMatchCounters(one.stats, one.instances, registry_before, registry_after,
                   n, result);
  for (int cap : kCaps) {
    std::vector<double> samples;
    for (const ReplayPass& pass : traced) {
      auto it = pass.focal_step_us.find(cap);
      if (it != pass.focal_step_us.end()) {
        samples.insert(samples.end(), it->second.begin(), it->second.end());
      }
    }
    result.Set("matching.step_p50_us.cap" + std::to_string(cap),
               Quantile(samples, 0.5), "us");
    result.Set("matching.step_p99_us.cap" + std::to_string(cap),
               Quantile(samples, 0.99), "us");
  }
  result.Set("obs.trace_overhead_share",
             Median(traced_seconds) / Median(replay_seconds) - 1.0, "share");
  result.Set("obs.covered_share", shares.Covered(), "share");
  return result;
}

}  // namespace perfbench
