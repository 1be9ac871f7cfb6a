// perfbench — runs one benchmark workload and prints its result
// as the final stdout line. Invoked by perfbench/run.py, which builds it:
//
//   perfbench --workload=gold_batch --seed=1 --seconds=10
//       --trace=0 --work-dir=.bench_build/work
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line is still printed), 2 on bad usage.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "common/flags.h"
#include "obs/metrics.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

std::vector<double> ElementwiseMedian(
    const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  if (rows.empty()) return out;
  for (size_t i = 0; i < rows.front().size(); ++i) {
    std::vector<double> column;
    for (const std::vector<double>& row : rows) {
      if (i < row.size()) column.push_back(row[i]);
    }
    out.push_back(Median(std::move(column)));
  }
  return out;
}

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

namespace {

/// The probe kernel's fixed input: 4,096 words of 3 to 14 letters, and
/// a 16 MiB table it reads at random.
struct KernelInput {
  std::vector<std::string> words;
  std::vector<uint64_t> table;
};

uint64_t XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

const KernelInput& Kernel() {
  static const KernelInput kInput = [] {
    KernelInput input;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 4096; ++i) {
      std::string word(3 + XorShift(x) % 12, ' ');
      for (char& c : word) c = static_cast<char>('a' + XorShift(x) % 26);
      input.words.push_back(std::move(word));
    }
    input.table.resize((16 << 20) / sizeof(uint64_t));
    for (uint64_t& v : input.table) v = XorShift(x);
    return input;
  }();
  return kInput;
}

}  // namespace

void HostClock::Probe() {
  const KernelInput& input = Kernel();
  const double start = Now();
  // Map inserts, string building, hashing and a sort ...
  std::unordered_map<std::string, uint32_t> counts;
  std::string text;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& word : input.words) {
      ++counts[word + static_cast<char>('a' + rep)];
      text += word;
      text += ' ';
    }
  }
  std::vector<uint64_t> keys;
  keys.reserve(counts.size());
  for (const auto& [word, count] : counts) keys.push_back(Fnv(word) ^ count);
  std::sort(keys.begin(), keys.end());
  // ... then a dependent chain of reads at random through the table, so
  // memory latency is in the probe too, as it is in the system's work.
  uint64_t at = keys.front();
  for (uint64_t i = 0; i < 8192; ++i) {
    at = input.table[(at ^ i) % input.table.size()];
  }
  const uint64_t digest = Fnv(text, at);
  DoNotOptimize(&digest);
  seconds_.push_back(Now() - start);
}

double HostClock::Factor() const {
  return seconds_.empty() ? 1.0 : kReferenceSeconds / Median(seconds_);
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "xmldump.read",       "wikitext.parse", "html.parse",
      "extract.extract",    "text.bag_build", "matching.step",
      "serve.get_or_load",  "state.apply_page", "matching.serialize_graph",
      "page"};
  return kNames[layer];
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
  start_ = Now();
  if (!tracer_->enabled_) return;
  const int parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({layer, parent, start_, 0.0});
  tracer_->stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end = Now();
  tracer_->stack_.pop_back();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(kLayerCount, 0.0);
  for (const Span& span : spans_) {
    const double duration = span.end - span.start;
    self[span.layer] += duration;
    if (span.parent >= 0) {
      self[spans_[static_cast<size_t>(span.parent)].layer] -= duration;
    }
  }
  return self;
}

double Tracer::TotalSeconds(Layer layer) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.layer == layer) total += span.end - span.start;
  }
  return total;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",", LayerName(s.layer),
                  (s.start - epoch) * 1e6, (s.end - s.start) * 1e6, i,
                  s.parent);
    out << line;
  }
  out << "\n]}\n";
}

uint64_t Fnv(const std::string& text, uint64_t seed) {
  uint64_t hash = seed;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void PerturbGraph(somr::matching::IdentityGraph& graph) {
  somr::matching::IdentityGraph out(graph.type());
  bool done = false;
  for (const auto& object : graph.objects()) {
    size_t keep = object.versions.size();
    if (!done && keep >= 2) {
      --keep;
      done = true;
    }
    const int64_t id = out.AddObject(object.versions[0]);
    for (size_t v = 1; v < keep; ++v) out.AppendVersion(id, object.versions[v]);
  }
  graph = std::move(out);
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void TrimHeap() { malloc_trim(0); }

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Result::Info(const std::string& key, double value) {
  info[key] = JsonNumber(value);
}

void Result::Info(const std::string& key, const std::string& value) {
  info[key] = JsonString(value);
}

void Result::Fail(const std::string& why, uint64_t count) {
  correct = false;
  failed += count;
  errors.push_back(why);
}

void Result::Print() const {
  for (const std::string& error : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::string line = "{\"inputs\": {";
  bool first = true;
  for (const auto& [key, value] : info) {
    line += (first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  line += "}, \"failed_share\": " +
          JsonNumber(attempted == 0 ? 1.0
                                    : static_cast<double>(failed) /
                                          static_cast<double>(attempted));
  line += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(errors[i]);
  }
  line += "]}";
  std::printf("%s\n", line.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.first) + ", \"unit\": " +
           JsonString(metric.second) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void CheckQuality(const Options& options, uint64_t digest,
                  const somr::eval::ObjectAccuracyCounts& accuracy,
                  const somr::eval::EdgeMetrics& edges, Result& result) {
  result.Info("graph_digest", Hex(digest));
  result.Info("object_accuracy", accuracy.Accuracy());
  result.Info("edge_f1", edges.F1());
  ++result.attempted;
  if (options.tiny) return;  // the record covers full-size inputs only
  if (options.seed == kDefaultSeed && !options.expect_digest.empty() &&
      Hex(digest) != options.expect_digest) {
    result.Fail("graph digest " + Hex(digest) + " != recorded " +
                options.expect_digest);
  }
  if (accuracy.Accuracy() < options.min_object_accuracy) {
    result.Fail("object accuracy " + std::to_string(accuracy.Accuracy()) +
                " below floor " + std::to_string(options.min_object_accuracy));
  }
  if (edges.F1() < options.min_edge_f1) {
    result.Fail("edge F1 " + std::to_string(edges.F1()) + " below floor " +
                std::to_string(options.min_edge_f1));
  }
}

std::map<std::string, uint64_t> CounterValues() {
  std::map<std::string, uint64_t> values;
  for (const auto& row :
       somr::obs::MetricsRegistry::Global().Scrape().counters) {
    values[row.name] = row.value;
  }
  return values;
}

double LayerShares::Covered() const {
  double covered = 0;
  for (int layer = 0; layer < kPage; ++layer) {
    covered += Share(static_cast<Layer>(layer));
  }
  return covered;
}

void SetZeroPerLayer(Result& result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (result.metrics.count(name) == 0) result.Set(name, 0, unit);
  }
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},           {"revisions_per_s", "1/s"},
      {"input_mib_per_s", "MiB/s"}, {"peak_rss_mib", "MiB"},
      {"sustained_rps", "1/s"}};
  return kMetrics;
}

void SetMatchCounters(const somr::matching::MatchStats& stats,
                      size_t instances,
                      const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      double passes, Result& result) {
  auto delta = [&](const std::string& name) {
    auto a = after.find(name);
    auto b = before.find(name);
    const double now = a == after.end() ? 0.0 : static_cast<double>(a->second);
    const double then =
        b == before.end() ? 0.0 : static_cast<double>(b->second);
    return (now - then) / passes;
  };
  const double sims = static_cast<double>(stats.similarities_computed);
  const double matches = static_cast<double>(
      stats.stage1_matches + stats.stage2_matches + stats.stage3_matches);
  const double n = static_cast<double>(std::max<size_t>(instances, 1));
  result.Set("matching.similarities_computed", sims, "count");
  result.Set("matching.sims_per_match", sims / std::max(matches, 1.0),
             "ratio");
  result.Set("matching.new_objects", static_cast<double>(stats.new_objects),
             "count");
  result.Set("retrieval.postings", delta("somr_retrieval_postings_total"),
             "count");
  result.Set("retrieval.wand_skips", delta("somr_retrieval_wand_skips_total"),
             "count");
  result.Set("retrieval.candidates_per_instance",
             (sims + static_cast<double>(stats.pairs_pruned)) / n, "ratio");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics =
      [] {
        std::vector<std::pair<std::string, std::string>> m = {
            {"xmldump.read_share", "share"},
            {"xmldump.mib_per_s", "MiB/s"},
            {"wikitext.parse_share", "share"},
            {"html.parse_share", "share"},
            {"extract.extract_share", "share"},
            {"extract.instances", "count"},
            {"text.bag_build_share", "share"},
            {"text.tokens", "count"},
            {"text.pool_tokens", "count"},
            {"matching.step_share", "share"},
            {"matching.similarities_computed", "count"},
            {"matching.sims_per_match", "ratio"},
            {"matching.new_objects", "count"},
            {"retrieval.postings", "count"},
            {"retrieval.wand_skips", "count"},
            {"retrieval.candidates_per_instance", "ratio"},
            {"state.miss_ms_p50", "ms"},
            {"state.miss_ms_p99", "ms"},
            {"state.bytes_written_per_revision", "B/revision"},
            {"state.commits", "count"},
            {"state.compactions", "count"},
            {"state.open_s", "s"},
            {"serve.http_share", "share"},
            {"serve.cache_hit_ratio", "ratio"},
            {"serve.graph_bytes_per_read", "B"},
            {"obs.trace_overhead_share", "share"},
            {"obs.covered_share", "share"},
            // Latencies: measured on every run but too unsteady from run
            // to run on serve_mixed to gate (see spec.json).
            {"rev_p50_ms_low", "ms"},
            {"rev_p99_ms_low", "ms"},
            {"rev_p50_ms_high", "ms"},
            {"rev_p99_ms_high", "ms"},
            {"graph_p50_ms_high", "ms"},
            {"graph_p99_ms_high", "ms"},
            {"loadgen.lag_p99_ms", "ms"},
            {"loadgen.backlog_max", "count"},
        };
        for (int cap : {1, 3, 7, 15, 31, 64}) {
          m.push_back({"matching.step_p50_us.cap" + std::to_string(cap),
                       "us"});
          m.push_back({"matching.step_p99_us.cap" + std::to_string(cap),
                       "us"});
        }
        return m;
      }();
  return kMetrics;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  somr::FlagParser flags;
  flags.AddString("workload", "", "gold_batch | datalake_batch | serve_mixed");
  flags.AddInt("seed", static_cast<int64_t>(kDefaultSeed), "input seed");
  flags.AddDouble("seconds", 10.0, "measured seconds");
  flags.AddInt("trace", 0, "1 = traced run (per-layer metrics)");
  flags.AddString("work-dir", "", "scratch directory (required)");
  flags.AddString("serve-bin", "", "somr_serve binary (serve_mixed)");
  flags.AddString("perturb", "", "smoke-test fault: graph | request");
  flags.AddBool("tiny", false, "shrink every input (self-tests)");
  flags.AddString("expect-digest", "", "graph digest of the default seed");
  flags.AddDouble("min-object-accuracy", 0.0, "object accuracy floor");
  flags.AddDouble("min-edge-f1", 0.0, "identity-edge F1 floor");
  if (somr::Status parsed = flags.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  Options options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetInt("trace") != 0;
  options.work_dir = flags.GetString("work-dir");
  options.serve_bin = flags.GetString("serve-bin");
  options.perturb = flags.GetString("perturb");
  options.tiny = flags.GetBool("tiny");
  options.expect_digest = flags.GetString("expect-digest");
  options.min_object_accuracy = flags.GetDouble("min-object-accuracy");
  options.min_edge_f1 = flags.GetDouble("min-edge-f1");
  if (options.work_dir.empty() || options.seconds <= 0 ||
      (options.perturb != "" && options.perturb != "graph" &&
       options.perturb != "request")) {
    std::fprintf(stderr, "%s", flags.Usage(argv[0]).c_str());
    return 2;
  }

  Result result;
  if (options.workload == "gold_batch") {
    result = RunGoldBatch(options);
  } else if (options.workload == "datalake_batch") {
    result = RunDatalakeBatch(options);
  } else if (options.workload == "serve_mixed") {
    if (options.serve_bin.empty()) {
      std::fprintf(stderr, "serve_mixed needs --serve-bin\n");
      return 2;
    }
    result = RunServeMixed(options);
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n",
                 options.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");
  // A run prints exactly its mode's metrics.
  const auto& declared = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, std::pair<double, std::string>> printed;
  for (const auto& [name, unit] : declared) {
    auto it = result.metrics.find(name);
    printed[name] = {it == result.metrics.end() ? 0.0 : it->second.first, unit};
  }
  result.metrics = std::move(printed);
  result.Print();
  return result.correct ? 0 : 1;
}
