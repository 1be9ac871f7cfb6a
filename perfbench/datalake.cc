// datalake_batch: Socrata-shaped data-lake contexts — large unordered
// tables, up to hundreds of tracked objects per context — fed straight to
// TemporalMatcher with spatial features off. No XML, parsing or
// extraction runs, so bag build and the matching stages do all the work.

#include <optional>

#include "archive/socrata.h"
#include "bench.h"
#include "extract/features.h"
#include "matching/graph_io.h"

namespace perfbench {

namespace {

using somr::extract::ObjectInstance;
using somr::extract::ObjectType;

/// Two lake sizes: contexts of the small lake form the "low" half, the
/// large lake's the "high" half. The retrieval index is slower than the
/// full sweep on the small lake's contexts (about 20 tracked tables) and
/// faster on the large lake's (about 300), so both sides of its crossover
/// are in the workload.
struct Lake {
  std::vector<somr::archive::SocrataContext> contexts;
  std::vector<bool> high;  // per context
  size_t revisions = 0;
  size_t datasets = 0;
  uint64_t cell_bytes = 0;
};

constexpr int kSmallDatasets = 12;
constexpr int kSmallSnapshots = 24;
constexpr int kLargeDatasets = 300;
constexpr int kLargeSnapshots = 12;
/// One lake context per subdomain.
const std::vector<std::string> kSmallSubdomains = {
    "austin",  "seattle", "boston",    "denver",  "dallas",  "oakland",
    "nola",    "kcmo",    "baltimore", "detroit", "memphis", "raleigh",
    "tucson",  "omaha",   "fresno",    "tulsa"};
const std::vector<std::string> kLargeSubdomains = {"chicago", "utah"};

Lake MakeLake(const Options& options) {
  Lake lake;
  auto add = [&](const std::vector<std::string>& subdomains, int datasets,
                 int snapshots, uint64_t seed_offset, bool high) {
    somr::archive::SocrataConfig config;
    config.subdomains = subdomains;
    config.datasets_per_subdomain =
        options.tiny ? std::max(3, datasets / 20) : datasets;
    config.num_snapshots = options.tiny ? 4 : snapshots;
    config.seed = options.seed * 1000 + seed_offset;
    for (somr::archive::SocrataContext& context :
         somr::archive::GenerateSocrata(config)) {
      lake.datasets += static_cast<size_t>(config.datasets_per_subdomain);
      for (const auto& snapshot : context.snapshots) {
        ++lake.revisions;
        for (const ObjectInstance& table : snapshot) {
          for (const auto& row : table.rows) {
            for (const std::string& cell : row) lake.cell_bytes += cell.size();
          }
        }
      }
      lake.contexts.push_back(std::move(context));
      lake.high.push_back(high);
    }
  };
  add(kSmallSubdomains, kSmallDatasets, kSmallSnapshots, 1, false);
  add(kLargeSubdomains, kLargeDatasets, kLargeSnapshots, 2, true);
  return lake;
}

somr::matching::MatcherConfig LakeConfig() {
  somr::matching::MatcherConfig config;
  config.use_spatial_features = false;
  return config;
}

struct LakePass {
  double wall = 0;
  double replica = 0;
  uint64_t digest = 0;
  size_t instances = 0;
  double tokens = 0;
  size_t pool_tokens = 0;
  somr::matching::MatchStats stats;
  std::vector<somr::matching::IdentityGraph> graphs;
  std::vector<double> context_seconds;  // per context
  std::vector<double> step_ms;          // per context and snapshot
  std::vector<double> graph_ms;         // large-lake steps: graph reads
  std::vector<size_t> tracked;          // per context: objects at the end
};

/// One pass over every context; untraced passes probe the host's speed
/// into `clock` after each context (see HostClock). Traced passes replay
/// bag build on a mirror TokenPool before each step, so the tracer can
/// split it out.
/// `perturb` corrupts the first context's graph before it is digested.
LakePass RunPass(const Lake& lake, Tracer& tracer, HostClock& clock,
                 bool keep_graphs, bool perturb = false) {
  const somr::matching::MatcherConfig config = LakeConfig();
  LakePass pass;
  pass.digest = Fnv("");
  const double start = Now();
  for (size_t c = 0; c < lake.contexts.size(); ++c) {
    const somr::archive::SocrataContext& context = lake.contexts[c];
    const bool high = lake.high[c];
    const double context_start = Now();
    Tracer::Scope page_span(&tracer, kPage);
    std::optional<somr::matching::TemporalMatcher> matcher;
    matcher.emplace(ObjectType::kTable, config);
    somr::TokenPool mirror;
    for (size_t s = 0; s < context.snapshots.size(); ++s) {
      const std::vector<ObjectInstance>& snapshot = context.snapshots[s];
      pass.instances += snapshot.size();
      if (tracer.enabled()) {
        Tracer::Scope span(&tracer, kBagBuild);
        for (const ObjectInstance& table : snapshot) {
          pass.tokens +=
              somr::extract::BuildFlatBag(table, mirror, config.features)
                  .TotalCount();
        }
        pass.replica += span.Elapsed();
      }
      {
        Tracer::Scope span(&tracer, kMatch);
        matcher->ProcessRevision(static_cast<int>(s), snapshot);
        pass.step_ms.push_back(span.Elapsed() * 1e3);
      }
      if (high) {
        Tracer::Scope span(&tracer, kGraph);
        const std::string text =
            somr::matching::SerializeIdentityGraph(matcher->graph());
        pass.graph_ms.push_back(span.Elapsed() * 1e3);
        DoNotOptimize(text.data());
      }
    }
    pass.pool_tokens += mirror.size();
    const somr::matching::MatchStats& s = matcher->stats();
    pass.stats.similarities_computed += s.similarities_computed;
    pass.stats.stage1_matches += s.stage1_matches;
    pass.stats.stage2_matches += s.stage2_matches;
    pass.stats.stage3_matches += s.stage3_matches;
    pass.stats.new_objects += s.new_objects;
    pass.stats.pairs_pruned += s.pairs_pruned;
    pass.tracked.push_back(matcher->graph().ObjectCount());
    somr::matching::IdentityGraph graph = matcher->TakeGraph();
    if (perturb && c == 0) PerturbGraph(graph);
    {
      Tracer::Scope span(&tracer, kGraph);
      pass.digest =
          Fnv(somr::matching::SerializeIdentityGraph(graph), pass.digest);
    }
    Tracer::Scope span(&tracer, kMatch);
    if (keep_graphs) pass.graphs.push_back(std::move(graph));
    matcher.reset();
    pass.context_seconds.push_back(Now() - context_start);
    if (!tracer.enabled()) clock.Probe();
  }
  pass.wall = Now() - start;
  return pass;
}

}  // namespace

Result RunDatalakeBatch(const Options& options) {
  Result result;
  const somr::matching::MatcherConfig config = LakeConfig();
  // Set-up: one matcher per lake context, timed before the lake is
  // generated, so it allocates from the same small heap on every run
  // (timed after it, the figure split between about 1.4 and 2.4 us from
  // run to run).
  const size_t contexts = kSmallSubdomains.size() + kLargeSubdomains.size();
  const double setup_seconds = MeasureSetup([&] {
    std::vector<somr::matching::TemporalMatcher> matchers;
    matchers.reserve(contexts);
    for (size_t c = 0; c < contexts; ++c) {
      matchers.emplace_back(ObjectType::kTable, config);
    }
    DoNotOptimize(matchers.data());
  });

  const Lake lake = MakeLake(options);
  if (lake.contexts.size() != contexts) {
    result.Fail("the lake has " + std::to_string(lake.contexts.size()) +
                " contexts, not one per subdomain");
    return result;
  }
  result.Info("seed", static_cast<double>(options.seed));
  result.Info("lake_contexts", static_cast<double>(lake.contexts.size()));
  result.Info("lake_datasets", static_cast<double>(lake.datasets));
  result.Info("revisions", static_cast<double>(lake.revisions));
  result.Info("cell_bytes", static_cast<double>(lake.cell_bytes));

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  Tracer untraced(false);
  std::vector<double> pass_seconds;
  std::vector<std::vector<double>> context_seconds, step_ms, graph_ms;
  std::optional<uint64_t> reference_digest;
  somr::eval::ObjectAccuracyCounts accuracy;
  somr::eval::EdgeMetrics edges;

  HostClock clock;
  TrimHeap();
  ResetPeakRss();
  // Two passes at least: the second checks the first's graphs.
  TimedLoop loop(budget, 2);
  while (loop.Next()) {
    const bool first = !reference_digest;
    LakePass pass = RunPass(lake, untraced, clock, first,
                            first && options.perturb == "graph");
    result.attempted += contexts;
    pass_seconds.push_back(Sum(pass.context_seconds));
    context_seconds.push_back(pass.context_seconds);
    step_ms.push_back(pass.step_ms);
    graph_ms.push_back(pass.graph_ms);
    if (first) {
      reference_digest = pass.digest;
      double tracked_low = 0, tracked_high = 0, low = 0, high = 0;
      for (size_t c = 0; c < contexts; ++c) {
        (lake.high[c] ? tracked_high : tracked_low) +=
            static_cast<double>(pass.tracked[c]);
        (lake.high[c] ? high : low) += 1;
      }
      result.Info("tracked_per_context_low", tracked_low / std::max(1.0, low));
      result.Info("tracked_per_context_high",
                  tracked_high / std::max(1.0, high));
      for (size_t c = 0; c < contexts; ++c) {
        accuracy.Add(somr::eval::CountCorrectObjects(lake.contexts[c].truth,
                                                     pass.graphs[c]));
        edges.Add(
            somr::eval::CompareEdges(lake.contexts[c].truth, pass.graphs[c]));
      }
    } else if (pass.digest != *reference_digest) {
      result.Fail("graph digest changed between passes", contexts);
    }
  }
  const double peak_rss = PeakRssMib();

  // Per context (and per step), the median over passes: a burst of host
  // noise in one pass moves neither the rates nor the tails.
  double pass_median = 0, pass_q3 = 0;
  for (size_t c = 0; c < contexts; ++c) {
    std::vector<double> seconds;
    for (const auto& pass : context_seconds) seconds.push_back(pass[c]);
    pass_median += Median(seconds);
    pass_q3 += Quantile(seconds, 0.75);
  }
  const std::vector<double> steps = ElementwiseMedian(step_ms);
  const std::vector<double> graph_ms_high = ElementwiseMedian(graph_ms);
  std::vector<double> rev_ms_low, rev_ms_high;
  for (size_t c = 0, i = 0; c < contexts; ++c) {
    for (size_t s = 0; s < lake.contexts[c].snapshots.size(); ++s, ++i) {
      (lake.high[c] ? rev_ms_high : rev_ms_low).push_back(steps[i]);
    }
  }
  // Every time is scaled to the reference host (see HostClock).
  const double host = clock.Factor();
  const double revisions = static_cast<double>(lake.revisions);
  result.Info("host_factor", host);
  result.Info("raw_revisions_per_s", revisions / pass_median);
  result.Set("setup_s", setup_seconds * host, "s");
  result.Set("revisions_per_s", revisions / (pass_median * host), "1/s");
  result.Set("input_mib_per_s",
             Mib(static_cast<double>(lake.cell_bytes)) / (pass_median * host),
             "MiB/s");
  result.Set("sustained_rps", revisions / (pass_q3 * host), "1/s");
  result.Set("peak_rss_mib", peak_rss, "MiB");
  result.Set("rev_p50_ms_low", Quantile(rev_ms_low, 0.5) * host, "ms");
  result.Set("rev_p99_ms_low", Quantile(rev_ms_low, 0.99) * host, "ms");
  result.Set("rev_p50_ms_high", Quantile(rev_ms_high, 0.5) * host, "ms");
  result.Set("rev_p99_ms_high", Quantile(rev_ms_high, 0.99) * host, "ms");
  result.Set("graph_p50_ms_high", Quantile(graph_ms_high, 0.5) * host, "ms");
  result.Set("graph_p99_ms_high", Quantile(graph_ms_high, 0.99) * host, "ms");
  result.Info("pass_seconds", JoinNumbers(pass_seconds));
  result.Info("rev_samples_low", static_cast<double>(rev_ms_low.size()));
  result.Info("rev_samples_high", static_cast<double>(rev_ms_high.size()));
  CheckQuality(options, reference_digest.value_or(0), accuracy, edges,
               result);

  if (!options.trace) return result;

  Tracer tracer(true);
  std::vector<LakePass> traced;
  std::vector<double> traced_seconds;
  const auto registry_before = CounterValues();
  TimedLoop traced_loop(budget);
  while (traced_loop.Next()) {
    traced.push_back(RunPass(lake, tracer, clock, false));
    traced_seconds.push_back(Sum(traced.back().context_seconds) -
                             traced.back().replica);
    if (traced.back().digest != *reference_digest) {
      result.Fail("traced replay produced different graphs", contexts);
      break;
    }
  }
  const auto registry_after = CounterValues();
  tracer.WriteChromeJson(options.work_dir + "/trace_datalake_batch.json");

  double wall = 0, replica = 0;
  for (const LakePass& pass : traced) {
    wall += pass.wall;
    replica += pass.replica;
  }
  LayerShares shares(tracer, wall, replica, kMatch);
  SetZeroPerLayer(result);
  const LakePass& one = traced.front();
  result.Set("extract.instances", static_cast<double>(one.instances),
             "count");
  result.Set("text.bag_build_share", shares.Share(kBagBuild), "share");
  result.Set("text.tokens", one.tokens, "count");
  result.Set("text.pool_tokens", static_cast<double>(one.pool_tokens),
             "count");
  result.Set("matching.step_share", shares.Share(kMatch), "share");
  SetMatchCounters(one.stats, one.instances, registry_before, registry_after,
                   static_cast<double>(traced.size()), result);
  result.Set("obs.trace_overhead_share",
             Median(traced_seconds) / Median(pass_seconds) - 1.0, "share");
  result.Set("obs.covered_share", shares.Covered(), "share");
  return result;
}

}  // namespace perfbench
