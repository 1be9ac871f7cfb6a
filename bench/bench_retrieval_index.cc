// Candidate-generation benchmark for the retrieval index (DESIGN.md
// §12), in two parts.
//
// Synthetic sweep: a page with N tracked tables is matched against small
// perturbed revisions, once with the all-pairs sweep and once with the
// inverted-index path (each pinned through the matcher's test peer), at
// N = 10 / 32 / 64 / 100 / 1000 / 10000. Reports wall time per matching
// step, the number of candidate pairs actually scored and the tracked
// count from which the matcher picks the index on its own
// (TemporalMatcher::kIndexMinTracked); the acceptance bar is >= 5x fewer
// pairs scored at N = 10000 with a byte-identical identity graph.
//
// The corpus is deliberately hostile to the sweep's cheap totals-based
// upper bound: every object has the same weighted total (~40 unique
// tokens + 8 drawn from a 50-token shared pool + 4 universal tokens), so
// SimilarityUpperBound(total_a, total_b) is ~1 for every pair and only
// real overlap information — which is what the index provides — can
// prune a pair before scoring.
//
// Crossover table: the two real-shaped corpora the switch constant is
// chosen on — gold pages (wikigen, 4 pages of stratum cap 64 with 220
// revisions per focal type, all three object types matched) and a
// Socrata lake (one subdomain each of 12 to 150 datasets, 12 snapshots,
// spatial features off) — matched with each generator pinned. Each step's time is the best
// of three runs and is summed into a bucket by the number of objects the
// matcher tracked before the step.
//
//   bench_retrieval_index                # human-readable to stdout
//   bench_retrieval_index --json [path]  # merge into BENCH_matching.json
//                                        #   as ns_per_op.candidate_gen

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "archive/socrata.h"
#include "common/rng.h"
#include "eval/harness.h"
#include "extract/object.h"
#include "matching/graph_io.h"
#include "matching/matcher.h"
#include "matching/matcher_test_peer.h"
#include "wikigen/corpus.h"

namespace {

using namespace somr;

constexpr size_t kObjectCounts[] = {10, 32, 64, 100, 1000, 10000};
constexpr int kMeasuredSteps = 2;  // revisions after the seeding one
constexpr int kIncomingPerStep = 8;
constexpr double kAcceptanceRatio = 5.0;

// One synthetic table: 40 tokens unique to (object, revision-life), 8
// from the shared pool, 4 universal. One token per cell so the
// tokenizer reproduces the multiset exactly.
extract::ObjectInstance MakeObject(size_t object, int position, Rng& rng) {
  extract::ObjectInstance obj;
  obj.type = extract::ObjectType::kTable;
  obj.position = position;
  obj.schema = {"key", "value"};
  std::vector<std::string> cells;
  for (int j = 0; j < 40; ++j) {
    cells.push_back("u" + std::to_string(object) + "w" + std::to_string(j));
  }
  for (int j = 0; j < 8; ++j) {
    cells.push_back("s" + std::to_string(rng.UniformInt(0, 49)));
  }
  for (int j = 0; j < 4; ++j) {
    cells.push_back("c" + std::to_string(j));
  }
  obj.rows.push_back(std::move(cells));
  return obj;
}

// A revision-over-revision edit of `base`: 4 of the unique tokens are
// rewritten, the rest of the bag is untouched, so the true match clears
// theta2 while every other tracked object stays far below it.
extract::ObjectInstance Perturb(const extract::ObjectInstance& base,
                                int revision, int position) {
  extract::ObjectInstance obj = base;
  obj.position = position;
  for (int j = 0; j < 4; ++j) {
    obj.rows[0][static_cast<size_t>(j)] =
        "r" + std::to_string(revision) + "n" + std::to_string(j);
  }
  return obj;
}

struct Corpus {
  std::vector<extract::ObjectInstance> seed;                  // revision 0
  std::vector<std::vector<extract::ObjectInstance>> updates;  // revisions 1..
};

Corpus BuildCorpus(size_t objects) {
  Rng rng(20260809 + static_cast<uint64_t>(objects));
  Corpus corpus;
  corpus.seed.reserve(objects);
  for (size_t o = 0; o < objects; ++o) {
    corpus.seed.push_back(MakeObject(o, static_cast<int>(o), rng));
  }
  for (int r = 1; r <= kMeasuredSteps; ++r) {
    std::vector<extract::ObjectInstance> incoming;
    for (int i = 0; i < kIncomingPerStep; ++i) {
      const size_t source = rng.Index(objects);
      incoming.push_back(Perturb(corpus.seed[source], r, i));
    }
    corpus.updates.push_back(std::move(incoming));
  }
  return corpus;
}

struct RunResult {
  double step_ns = 0.0;       // wall ns per measured matching step (best)
  uint64_t pairs_scored = 0;  // similarities computed in measured steps
  std::string graph;
};

RunResult RunEngine(const Corpus& corpus, bool indexed, int repeats) {
  using Peer = matching::TemporalMatcherTestPeer;
  RunResult result;
  double best = 1e300;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    matching::TemporalMatcher matcher(extract::ObjectType::kTable);
    Peer::Pin(matcher, indexed ? Peer::Generator::kIndex
                               : Peer::Generator::kSweep);
    matcher.ProcessRevision(0, corpus.seed);
    const uint64_t pairs_before = matcher.stats().similarities_computed;
    auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < corpus.updates.size(); ++r) {
      matcher.ProcessRevision(static_cast<int>(r) + 1, corpus.updates[r]);
    }
    auto stop = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    best = std::min(best, ns / corpus.updates.size());
    result.pairs_scored =
        matcher.stats().similarities_computed - pairs_before;
    result.graph = matching::SerializeIdentityGraph(matcher.graph());
  }
  result.step_ns = best;
  return result;
}

struct SweepRow {
  size_t objects = 0;
  RunResult swept;
  RunResult indexed;
};

std::vector<SweepRow> RunSweep() {
  std::vector<SweepRow> rows;
  for (size_t objects : kObjectCounts) {
    const int repeats = objects >= 10000 ? 2 : 3;
    Corpus corpus = BuildCorpus(objects);
    SweepRow row;
    row.objects = objects;
    row.swept = RunEngine(corpus, /*indexed=*/false, repeats);
    row.indexed = RunEngine(corpus, /*indexed=*/true, repeats);
    if (row.swept.graph != row.indexed.graph) {
      std::fprintf(stderr,
                   "*** FATAL: swept and indexed identity graphs differ "
                   "at %zu objects ***\n",
                   objects);
      std::exit(1);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- Crossover table --------------------------------------------------

using Slices = std::vector<std::vector<extract::ObjectInstance>>;

/// One matcher context of a crossover corpus.
struct Context {
  extract::ObjectType type = extract::ObjectType::kTable;
  matching::MatcherConfig config;
  Slices revisions;
};

/// Lower edges of the tracked-before-step buckets; the last is open.
constexpr size_t kBucketFloors[] = {0, 32, 40, 48, 56, 64, 80, 128};
constexpr size_t kBuckets = std::size(kBucketFloors);
constexpr int kCrossoverRepeats = 3;

size_t BucketOf(size_t tracked) {
  size_t bucket = 0;
  while (bucket + 1 < kBuckets && tracked >= kBucketFloors[bucket + 1]) {
    ++bucket;
  }
  return bucket;
}

std::string BucketLabel(size_t bucket) {
  if (bucket + 1 == kBuckets) {
    return std::to_string(kBucketFloors[bucket]) + "+";
  }
  return std::to_string(kBucketFloors[bucket]) + "-" +
         std::to_string(kBucketFloors[bucket + 1] - 1);
}

struct CrossoverRow {
  std::string corpus;
  double swept_s[kBuckets] = {};
  double indexed_s[kBuckets] = {};
  size_t steps[kBuckets] = {};
};

/// Per-step wall seconds of one pinned run (best of the repeats), plus
/// the tracked count before each step.
std::vector<double> TimeSteps(const Context& context, bool indexed,
                              std::vector<size_t>* tracked_before,
                              std::string* graph) {
  using Peer = matching::TemporalMatcherTestPeer;
  std::vector<double> best(context.revisions.size(), 1e300);
  for (int repeat = 0; repeat < kCrossoverRepeats; ++repeat) {
    matching::TemporalMatcher matcher(context.type, context.config);
    Peer::Pin(matcher, indexed ? Peer::Generator::kIndex
                               : Peer::Generator::kSweep);
    tracked_before->clear();
    for (size_t r = 0; r < context.revisions.size(); ++r) {
      tracked_before->push_back(matcher.graph().ObjectCount());
      auto start = std::chrono::steady_clock::now();
      matcher.ProcessRevision(static_cast<int>(r), context.revisions[r]);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      best[r] = std::min(best[r], took.count());
    }
    *graph = matching::SerializeIdentityGraph(matcher.graph());
  }
  return best;
}

CrossoverRow RunCrossover(const std::string& corpus,
                          const std::vector<Context>& contexts) {
  CrossoverRow row;
  row.corpus = corpus;
  for (const Context& context : contexts) {
    std::vector<size_t> tracked;
    std::string swept_graph, indexed_graph;
    const std::vector<double> swept =
        TimeSteps(context, /*indexed=*/false, &tracked, &swept_graph);
    const std::vector<double> indexed =
        TimeSteps(context, /*indexed=*/true, &tracked, &indexed_graph);
    if (swept_graph != indexed_graph) {
      std::fprintf(stderr,
                   "*** FATAL: swept and indexed identity graphs differ "
                   "on the %s corpus ***\n",
                   corpus.c_str());
      std::exit(1);
    }
    for (size_t r = 0; r < tracked.size(); ++r) {
      const size_t bucket = BucketOf(tracked[r]);
      row.swept_s[bucket] += swept[r];
      row.indexed_s[bucket] += indexed[r];
      ++row.steps[bucket];
    }
  }
  return row;
}

std::vector<Context> GoldContexts() {
  std::vector<Context> contexts;
  for (extract::ObjectType focal :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    wikigen::CorpusConfig config;
    config.focal_type = focal;
    config.strata_caps = {64};
    config.pages_per_stratum = 4;
    config.min_revisions = 220;
    config.max_revisions = 220;
    const xmldump::Dump dump =
        wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
    for (const xmldump::PageHistory& page : dump.pages) {
      const std::vector<extract::PageObjects> objects =
          eval::ExtractRevisionObjects(page);
      for (extract::ObjectType type :
           {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
            extract::ObjectType::kList}) {
        contexts.push_back({type, {}, eval::SliceType(objects, type)});
      }
    }
  }
  return contexts;
}

std::vector<Context> LakeContexts() {
  std::vector<Context> contexts;
  matching::MatcherConfig config;
  config.use_spatial_features = false;
  for (int datasets : {12, 24, 32, 48, 64, 80, 100, 150}) {
    archive::SocrataConfig lake;
    lake.subdomains = {"lake"};
    lake.datasets_per_subdomain = datasets;
    lake.num_snapshots = 12;
    for (archive::SocrataContext& context : archive::GenerateSocrata(lake)) {
      contexts.push_back(
          {extract::ObjectType::kTable, config, std::move(context.snapshots)});
    }
  }
  return contexts;
}

std::vector<CrossoverRow> RunCrossoverTable() {
  return {RunCrossover("gold", GoldContexts()),
          RunCrossover("lake", LakeContexts())};
}

void PrintCrossover(const std::vector<CrossoverRow>& rows) {
  std::printf("\ncrossover: seconds per bucket of tracked-before-step, "
              "sweep / index (steps)\n%8s", "corpus");
  for (size_t b = 0; b < kBuckets; ++b) {
    std::printf(" %22s", BucketLabel(b).c_str());
  }
  std::printf("\n");
  for (const CrossoverRow& row : rows) {
    std::printf("%8s", row.corpus.c_str());
    for (size_t b = 0; b < kBuckets; ++b) {
      if (row.steps[b] == 0) {
        std::printf(" %22s", "-");
        continue;
      }
      char cell[64];
      std::snprintf(cell, sizeof cell, "%.3f / %.3f (%zu)", row.swept_s[b],
                    row.indexed_s[b], row.steps[b]);
      std::printf(" %22s", cell);
    }
    std::printf("\n");
  }
}

double PairReduction(const SweepRow& row) {
  if (row.indexed.pairs_scored == 0) {
    return static_cast<double>(row.swept.pairs_scored);
  }
  return static_cast<double>(row.swept.pairs_scored) /
         static_cast<double>(row.indexed.pairs_scored);
}

void PrintReport(const std::vector<SweepRow>& rows) {
  std::printf("%8s %14s %14s %12s %12s %8s\n", "objects", "swept ns/step",
              "index ns/step", "swept pairs", "index pairs", "ratio");
  for (const SweepRow& row : rows) {
    std::printf("%8zu %14.0f %14.0f %12llu %12llu %7.1fx\n", row.objects,
                row.swept.step_ns, row.indexed.step_ns,
                static_cast<unsigned long long>(row.swept.pairs_scored),
                static_cast<unsigned long long>(row.indexed.pairs_scored),
                PairReduction(row));
  }
  std::printf("index chosen from %zu tracked objects\n",
              matching::TemporalMatcher::kIndexMinTracked);
  const SweepRow& largest = rows.back();
  if (PairReduction(largest) < kAcceptanceRatio) {
    std::fprintf(stderr,
                 "*** WARNING: pair reduction at %zu objects is %.1fx, "
                 "below the %.0fx acceptance bar ***\n",
                 largest.objects, PairReduction(largest), kAcceptanceRatio);
  }
}

/// The crossover table as one JSON object per corpus: bucket label ->
/// [sweep seconds, index seconds, steps]; empty buckets are left out.
std::string CrossoverJson(const std::vector<CrossoverRow>& rows) {
  std::ostringstream out;
  out << "      \"crossover_s\": {";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << (i > 0 ? "," : "") << "\n        \"" << rows[i].corpus
        << "\": {";
    bool first = true;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (rows[i].steps[b] == 0) continue;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s\"%s\": [%.4f, %.4f, %zu]",
                    first ? "" : ", ", BucketLabel(b).c_str(),
                    rows[i].swept_s[b], rows[i].indexed_s[b],
                    rows[i].steps[b]);
      out << buf;
      first = false;
    }
    out << "}";
  }
  out << "\n      }";
  return out.str();
}

std::string CandidateGenJson(const std::vector<SweepRow>& rows,
                             const std::vector<CrossoverRow>& crossover) {
  std::ostringstream out;
  auto emit_map = [&](const char* name, auto value_of, const char* fmt) {
    out << "      \"" << name << "\": {";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out << ", ";
      char buf[80];
      std::snprintf(buf, sizeof buf, fmt, rows[i].objects, value_of(rows[i]));
      out << buf;
    }
    out << "}";
  };
  out << "\"candidate_gen\": {\n      \"index_min_tracked\": "
      << matching::TemporalMatcher::kIndexMinTracked << ",\n";
  emit_map(
      "swept_step_ns", [](const SweepRow& r) { return r.swept.step_ns; },
      "\"%zu\": %.0f");
  out << ",\n";
  emit_map(
      "indexed_step_ns", [](const SweepRow& r) { return r.indexed.step_ns; },
      "\"%zu\": %.0f");
  out << ",\n";
  emit_map(
      "swept_pairs",
      [](const SweepRow& r) {
        return static_cast<double>(r.swept.pairs_scored);
      },
      "\"%zu\": %.0f");
  out << ",\n";
  emit_map(
      "indexed_pairs",
      [](const SweepRow& r) {
        return static_cast<double>(r.indexed.pairs_scored);
      },
      "\"%zu\": %.0f");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", PairReduction(rows.back()));
  out << ",\n      \"pair_reduction_at_max\": " << buf << ",\n"
      << CrossoverJson(crossover) << "\n    }";
  return out.str();
}

/// Index of the brace matching the '{' at `open` (npos if unbalanced).
size_t MatchBrace(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Merges the section into BENCH_matching.json inside the existing
/// "ns_per_op" object (replacing a previous "candidate_gen" entry), or
/// writes a fresh file when the report does not exist yet.
int WriteJsonReport(const std::string& path,
                    const std::vector<SweepRow>& rows,
                    const std::vector<CrossoverRow>& crossover) {
  std::string existing;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    existing = buf.str();
  }

  // Drop a stale candidate_gen block (and the comma that bound it).
  const size_t stale = existing.find("\"candidate_gen\"");
  if (stale != std::string::npos) {
    const size_t open = existing.find('{', stale);
    const size_t close =
        open == std::string::npos ? std::string::npos
                                  : MatchBrace(existing, open);
    if (close == std::string::npos) {
      std::fprintf(stderr, "unparseable candidate_gen block in %s\n",
                   path.c_str());
      return 1;
    }
    size_t from = stale;
    while (from > 0 &&
           (std::isspace(static_cast<unsigned char>(existing[from - 1])) ||
            existing[from - 1] == ',')) {
      --from;
      if (existing[from] == ',') break;
    }
    existing.erase(from, close + 1 - from);
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const size_t section = existing.find("\"ns_per_op\"");
  const size_t open = section == std::string::npos
                          ? std::string::npos
                          : existing.find('{', section);
  const size_t close =
      open == std::string::npos ? std::string::npos
                                : MatchBrace(existing, open);
  if (close == std::string::npos) {
    out << "{\n  \"ns_per_op\": {\n    " << CandidateGenJson(rows, crossover)
        << "\n  }\n}\n";
  } else {
    size_t last = close;
    while (last > open + 1 &&
           std::isspace(static_cast<unsigned char>(existing[last - 1]))) {
      --last;
    }
    out << existing.substr(0, last) << ",\n    "
        << CandidateGenJson(rows, crossover) << "\n  }"
        << existing.substr(close + 1);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<SweepRow> rows = RunSweep();
  PrintReport(rows);
  std::vector<CrossoverRow> crossover = RunCrossoverTable();
  PrintCrossover(crossover);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::string path = i + 1 < argc ? argv[i + 1] : "BENCH_matching.json";
      return WriteJsonReport(path, rows, crossover);
    }
  }
  return 0;
}
