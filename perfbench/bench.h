#pragma once

// Shared pieces of the benchmark program: run options, the in-memory span
// recorder of the traced runs, sample statistics, process probes and the
// result line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "matching/identity_graph.h"
#include "matching/matcher.h"
#include "wikigen/evolver.h"
#include "xmldump/dump.h"

namespace perfbench {

struct Result;

/// The seed whose graph digests and accuracy floors spec.json records.
constexpr uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch space inside the checkout
  std::string serve_bin;  // somr_serve daemon (serve_mixed only)
  /// Smoke-test hooks: "graph" corrupts one output graph before the
  /// correctness check, "request" sends one malformed request.
  std::string perturb;
  /// Shrinks every input (the self-tests' tiny runs).
  bool tiny = false;
  /// Correctness record from spec.json: the graph digest of the default
  /// seed and the quality floors every seed must reach.
  std::string expect_digest;
  double min_object_accuracy = 0.0;
  double min_edge_f1 = 0.0;
};

constexpr somr::extract::ObjectType kTypes[] = {
    somr::extract::ObjectType::kTable, somr::extract::ObjectType::kInfobox,
    somr::extract::ObjectType::kList};
/// Strata capped at or above this many objects form the "high" half.
constexpr int kHighCap = 15;

inline double Mib(double bytes) { return bytes / (1 << 20); }

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
/// Per index, the median over the rows (rows of equal length).
std::vector<double> ElementwiseMedian(
    const std::vector<std::vector<double>>& rows);
/// "v1 v2 ..." with four significant digits (diagnostic output).
std::string JoinNumbers(const std::vector<double>& values);

/// Paces a timed loop: `while (loop.Next()) { ... }` runs at least
/// `min_iterations` times, then again only while one more iteration, as
/// long as the slowest so far, still ends within `budget` seconds.
class TimedLoop {
 public:
  explicit TimedLoop(double budget, size_t min_iterations = 1)
      : budget_(budget), min_iterations_(min_iterations), start_(Now()) {}
  bool Next() {
    const double now = Now();
    if (iterations_ > 0) slowest_ = std::max(slowest_, now - lap_start_);
    if (iterations_ >= min_iterations_ &&
        now - start_ + slowest_ > budget_) {
      return false;
    }
    lap_start_ = now;
    ++iterations_;
    return true;
  }

 private:
  double budget_;
  size_t min_iterations_;
  double start_;
  double lap_start_ = 0;
  double slowest_ = 0;
  size_t iterations_ = 0;
};

/// Keeps the compiler from discarding work whose result is unused.
inline void DoNotOptimize(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Set-up time of `fn`: the median over groups of repeated calls, per
/// call, so one descheduling cannot move the figure.
template <typename Fn>
double MeasureSetup(Fn&& fn, int groups = 31, int reps = 50) {
  std::vector<double> per_call;
  for (int g = 0; g < groups; ++g) {
    const double t0 = Now();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back((Now() - t0) / reps);
  }
  return Median(per_call);
}

/// Host-speed probe. The benchmark shares a host whose speed drifts by up
/// to 2x over minutes, far more than the bounds it gates. Probe() runs a
/// fixed kernel (map inserts, string building, hashing, a sort, random
/// reads through a 16 MiB table: the kinds of work the system does) and
/// records its time; the timed work interleaves probes with its
/// operations. The kernel uses nothing from src/. Factor() is the reference
/// kernel time over the median probe, so a measured time times Factor()
/// is that time on a host where the kernel takes kReferenceSeconds, and
/// a measured rate divided by it is that rate there. A change to the
/// system moves its time and not the kernel's, so it shows in full.
class HostClock {
 public:
  /// The kernel's median time on the 4 vCPU Xeon VM the benchmark was
  /// defined on.
  static constexpr double kReferenceSeconds = 3.7e-3;
  /// Runs the kernel once and records its time.
  void Probe();
  /// kReferenceSeconds over the median probe; 1 before the first probe.
  double Factor() const;

 private:
  std::vector<double> seconds_;
};

// ---- layers and spans -----------------------------------------------------

/// The modules a traced run attributes time to; one span per call into
/// the module's public function.
enum Layer : int {
  kXmlRead,   // xmldump::PageStreamReader::NextPage / xmldump::ReadDump
  kWikitext,  // wikitext::ParseWikitext
  kHtml,      // html::ParseHtml
  kExtract,   // extract::ExtractFromWikitext / ExtractFromHtml
  kBagBuild,  // extract::BuildFlatBag (replayed on a mirror TokenPool)
  kMatch,     // matching::TemporalMatcher::ProcessRevision
  kStateLoad, // serve::ContextCache::GetOrLoad
  kApply,     // state::ApplyPageToState
  kGraph,     // matching::SerializeIdentityGraph
  kPage,      // one page / context / request (parent of the above)
  kLayerCount
};
const char* LayerName(Layer layer);

/// In-memory span recorder. Spans nest through an explicit stack, are
/// kept until the run ends and then written as Chrome trace JSON. When
/// disabled, Scope is a no-op, so untraced and traced runs share code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened.
    double Elapsed() const { return Now() - start_; }

   private:
    Tracer* tracer_;
    int index_ = -1;
    double start_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Self time (duration minus child spans) summed per layer.
  std::vector<double> SelfSeconds() const;
  /// Summed durations of every span of `layer`.
  double TotalSeconds(Layer layer) const;
  void WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    Layer layer;
    int parent;
    double start;
    double end;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- graphs ---------------------------------------------------------------

/// FNV-1a64 over the serialized graphs, folded in order.
uint64_t Fnv(const std::string& text, uint64_t seed = 14695981039346656037ull);
std::string Hex(uint64_t value);

/// Removes the newest version of the first object with two or more, so
/// one identity edge is lost (the smoke tests' deliberate corruption).
void PerturbGraph(somr::matching::IdentityGraph& graph);

/// Checks the identity graphs against ground truth and, for the default
/// seed, against the recorded digest; records what it measured.
void CheckQuality(const Options& options, uint64_t digest,
                  const somr::eval::ObjectAccuracyCounts& accuracy,
                  const somr::eval::EdgeMetrics& edges, Result& result);

// ---- process probes -------------------------------------------------------

/// Resets this process's peak-RSS watermark (VmHWM) to its current RSS.
void ResetPeakRss();
/// Peak resident set of `pid` (0 = self) in MiB; 0 when unreadable.
double PeakRssMib(int pid = 0);
/// Returns freed heap memory to the system so a peak reset starts low.
void TrimHeap();

// ---- results --------------------------------------------------------------

/// One workload run's outcome; Print() emits the info line and then the
/// result object as the final stdout line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Run inputs and diagnostics, printed on the line before the result.
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);
  void Fail(const std::string& why, uint64_t count = 1);
  void Print() const;
};

/// Current value of every counter in the process-wide metrics registry.
std::map<std::string, uint64_t> CounterValues();

/// Per-layer shares of a traced run: each layer's self time over the
/// traced wall time. Work the run replays only to time it (`replica`
/// seconds, e.g. bag build ahead of a matching step) is taken out of the
/// denominator and out of the self time of `inside`, the layer whose
/// calls do that work internally.
class LayerShares {
 public:
  LayerShares(const Tracer& tracer, double wall, double replica, Layer inside)
      : self_(tracer.SelfSeconds()),
        denominator_(wall - replica),
        replica_(replica),
        inside_(inside) {}
  double Share(Layer layer) const {
    const double self = self_[layer] - (layer == inside_ ? replica_ : 0.0);
    return self / denominator_;
  }
  /// Sum of every layer's share but the per-page/request remainder.
  double Covered() const;

 private:
  std::vector<double> self_;
  double denominator_;
  double replica_;
  Layer inside_;
};

/// Sets every per-layer metric to 0 (layers that do not run stay 0).
void SetZeroPerLayer(Result& result);

/// Matcher and retrieval counters of one pass: `stats` summed over the
/// pass's matchers, registry deltas taken over `passes` identical passes.
void SetMatchCounters(const somr::matching::MatchStats& stats,
                      size_t instances,
                      const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      double passes, Result& result);

/// Every end-to-end metric with its unit (a run without --trace prints
/// exactly these).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Every per-layer metric with its unit; each workload prints all of
/// them in a traced run, with 0 where the layer does not run.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// One generated gold page: the evolver's output (revisions + truth),
/// its stratum cap and focal type, and its dump form.
struct GoldPage {
  somr::extract::ObjectType focal = somr::extract::ObjectType::kTable;
  int cap = 1;
  int copy = 0;  // index among the pages of its stratum
  somr::wikigen::GeneratedPage generated;
  somr::xmldump::PageHistory history;
};

/// The stratified gold pages of all three focal types, strata capped at
/// 1, 3, 7, 15, 31 and 64 objects: `small_pages` pages per stratum below
/// kHighCap, `large_pages` per stratum from it, each `revisions` long.
std::vector<GoldPage> MakeGoldPages(uint64_t seed, int revisions,
                                    int small_pages, int large_pages,
                                    bool tiny);

/// The workloads.
Result RunGoldBatch(const Options& options);
Result RunDatalakeBatch(const Options& options);
Result RunServeMixed(const Options& options);

}  // namespace perfbench
