// serve_mixed: a somr_serve daemon over a store pre-ingested with the
// first half of each gold history, driven by an open loop that replays
// the rest as one-revision POSTs interleaved with graph reads, at fixed
// offered rates (rungs), then a closed-loop probe of the same mix that
// measures what the daemon completes per CPU second of its own when
// never left idle.
// The per-shard cache holds fewer contexts than the stream touches, so a
// few percent of requests fault a cold context and spill another (a
// committed Save with fsync, the daemon's default).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "extract/wikitext_extractor.h"
#include "matching/graph_io.h"
#include "serve/client.h"
#include "serve/context_cache.h"
#include "serve/http.h"
#include "state/context_store.h"
#include "state/incremental_pipeline.h"
#include "wikitext/parser.h"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using somr::extract::ObjectType;

/// Client connections: the daemon's default --connection-workers.
constexpr size_t kConnections = 4;
/// The daemon's default shard count (contexts hash to shards by FNV-1a).
constexpr size_t kShards = 4;
/// Resident contexts per shard: below the stream's working set.
constexpr int kCacheCapacity = 6;
/// Every kReadEvery-th arrival is a graph read, the rest revision POSTs.
constexpr size_t kReadEvery = 4;
/// Gold pages per stratum: the first is hot, the second cold when the
/// stratum caps at most kColdCapMax objects. The 18 hot contexts spread
/// 5/5/4/4 over the shards, below kCacheCapacity; 9 cold ones follow.
constexpr int kCopiesPerStratum = 2;
constexpr int kColdCapMax = 7;
constexpr size_t kColdRevisions = 40;
/// The share of requests to cold contexts.
constexpr double kColdShare = 0.05;
/// How long before a request is due the generator stops sleeping.
constexpr double kSpinSeconds = 200e-6;
/// The daemon's default --slo-threshold.
constexpr double kSloSeconds = 0.5;
/// Daemon runs per rung, each over the same schedule from the same
/// pre-ingested store; latencies are per-request medians over them.
constexpr size_t kRepetitions = 3;
/// Extra daemon starts (besides the rungs' own) for setup_s.
constexpr int kExtraStarts = 3;
/// The rungs' offered rates (req/s), lowest first, and each rung's share
/// of the measured time; the closed-loop probe's fixed request count
/// comes on top (about 6 s in all on 4 vCPUs).
constexpr double kRatesRps[] = {100, 160};
constexpr double kTinyRatesRps[] = {20, 40};
constexpr double kRungShare[] = {0.35, 0.55};
/// Requests per closed-loop probe repetition: few enough that no hot
/// context runs out of revisions, so the mix holds to the last request.
constexpr size_t kProbeRequests = 1600;
/// The closed loop pauses for a host-speed probe (see HostClock) after
/// every kHostProbeEvery requests; the pauses are taken out of its span.
constexpr size_t kHostProbeEvery = 50;
constexpr size_t kTinyProbeRequests = 100;

struct Context {
  std::string id;
  std::string target;      // percent-encoded id
  int64_t page_id = 0;
  somr::xmldump::PageHistory history;  // full history
  size_t preloaded = 0;    // revisions in the pre-ingested store
  bool hot = false;        // in the hot set (see Schedule)
};

struct Arrival {
  double due = 0;    // seconds after the rung's start
  size_t context = 0;
  bool read = false;
  size_t revision = 0;  // write: index into the context's history
  std::string body;     // write: one-page, one-revision dump
};

struct Outcome {
  double sent = 0;      // seconds after start
  double done = 0;
  int status = 0;       // 0 = transport failure
  size_t bytes = 0;     // response body bytes
  bool failed = false;
};

struct RungResult {
  double rate = 0;
  std::vector<double> rev_ms, graph_ms;  // from due time; failures = inf
  std::vector<double> service_ms;        // send -> done; failures = inf
  std::vector<double> lag_ms;
  double backlog_max = 0;
  bool backlog_grew = false;
  double completed_rps = 0;
  double graph_bytes_per_read = 0;
  size_t attempted = 0;
  size_t failed = 0;
  double peak_rss_mib = 0;
  std::map<std::string, double> counters;  // /metrics scrape at the end
  bool sustained = false;
};

std::string BodyFor(const Context& context, size_t revision) {
  somr::xmldump::Dump dump;
  somr::xmldump::PageHistory page;
  page.title = context.id;
  page.page_id = context.page_id;
  page.revisions.push_back(context.history.revisions[revision]);
  dump.pages.push_back(std::move(page));
  return somr::xmldump::WriteDump(dump);
}

// ---- the daemon ------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Starts somr_serve over `state_dir` and waits until /healthz answers.
  /// Returns the set-up time, or a negative value on failure.
  double Start(const Options& options, const std::string& state_dir) {
    const std::string port_file = state_dir + ".port";
    fs::remove(port_file);
    std::vector<std::string> args = {
        options.serve_bin,
        "--state-dir=" + state_dir,
        "--port-file=" + port_file,
        "--cache-capacity=" + std::to_string(kCacheCapacity),
        "run"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    const std::string log = state_dir + ".log";
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const double start = Now();
    const int rc = posix_spawn(&pid_, options.serve_bin.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return -1;
    }
    while (Now() - start < 60) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        somr::serve::HttpClient client;
        if (client.Connect(port_).ok()) {
          auto response = client.Request("GET", "/healthz");
          if (response.ok() && response->status == 200) return Now() - start;
        }
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return -1;
  }

  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// Seconds the daemon's threads have run on a CPU so far (the sum of
  /// every thread's schedstat run time); 0 when unreadable.
  double CpuSeconds() const {
    double total = 0;
    std::error_code error;
    const fs::path tasks = "/proc/" + std::to_string(pid_) + "/task";
    for (const fs::directory_entry& task :
         fs::directory_iterator(tasks, error)) {
      std::ifstream in(task.path() / "schedstat");
      double ns = 0;
      if (in >> ns) total += ns * 1e-9;
    }
    return total;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// The load generator's HTTP/1.1 client: one keep-alive connection with
/// Nagle off and delayed ACKs off, so a large body never waits on the
/// client's own TCP timers and latencies are the daemon's.
class LoadClient {
 public:
  LoadClient() = default;
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;
  ~LoadClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  /// Sends one request; returns the status (0 on a transport or parse
  /// failure) and stores the response body size in `*body_bytes`.
  int Request(const std::string& method, const std::string& target,
              const std::string& body, size_t* body_bytes) {
    std::string message = method + " " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
    for (size_t sent = 0; sent < message.size();) {
      const ssize_t n = send(fd_, message.data() + sent, message.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return 0;
      sent += static_cast<size_t>(n);
    }
    somr::serve::HttpResponseParser parser;
    char buf[65536];
    while (!parser.done()) {
      const int one = 1;
      setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return 0;
      for (size_t at = 0; at < static_cast<size_t>(n) && !parser.done();) {
        at += parser.Feed(buf + at, static_cast<size_t>(n) - at);
        if (parser.error()) return 0;
      }
    }
    *body_bytes = parser.body().size();
    return parser.status();
  }

 private:
  int fd_ = -1;
};

/// Counter and gauge values of a Prometheus text exposition.
std::map<std::string, double> ParseMetrics(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return values;
}

// ---- the open loop ---------------------------------------------------------

size_t ShardOf(const Context& context) {
  return somr::Fnv1a64(context.id) % kShards;
}

/// Draws an arrival schedule. All but `cold_share` of the requests go to
/// hot contexts, which fit the daemon's resident capacity on every shard;
/// the cold remainder faults in and spills. Every kReadEvery-th
/// arrival is a graph read; each write is its context's next revision.
std::vector<Arrival> Schedule(const std::vector<Context>& contexts,
                              double rate, double seconds, uint64_t seed,
                              double cold_share) {
  somr::Rng rng(seed);
  std::vector<size_t> hot, cold;
  for (size_t c = 0; c < contexts.size(); ++c) {
    (contexts[c].hot ? hot : cold).push_back(c);
  }
  std::vector<size_t> next(contexts.size());
  for (size_t c = 0; c < contexts.size(); ++c) next[c] = contexts[c].preloaded;
  auto drained = [&](size_t c) {
    return next[c] >= contexts[c].history.revisions.size();
  };

  // Hot arrivals deal the hot contexts out in shuffled rounds, so each
  // gets the same share whatever the seed: with random picks the cost of
  // a request followed which contexts a seed happened to favour.
  std::vector<size_t> deck;
  auto deal = [&] {
    if (deck.empty()) {
      deck = hot;
      rng.Shuffle(deck);
    }
    const size_t c = deck.back();
    deck.pop_back();
    return c;
  };

  std::vector<Arrival> arrivals;
  const size_t count = static_cast<size_t>(rate * seconds);
  for (size_t i = 0; i < count; ++i) {
    Arrival a;
    a.due = static_cast<double>(i) / rate;
    a.read = i % kReadEvery == kReadEvery - 1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const bool to_cold =
          !cold.empty() && rng.UniformDouble() < cold_share;
      a.context = to_cold ? cold[rng.Index(cold.size())] : deal();
      if (a.read || !drained(a.context)) break;
    }
    if (!a.read && drained(a.context)) a.read = true;
    if (!a.read) {
      a.revision = next[a.context]++;
      a.body = BodyFor(contexts[a.context], a.revision);
    }
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

/// Loads every hot context into the daemon's cache (one GET per context,
/// shards in parallel), so a rung measures the steady state of a
/// long-running daemon rather than its first touches. Untimed.
bool WarmUp(const std::vector<Context>& contexts, uint16_t port) {
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (size_t k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      LoadClient client;
      if (!client.Connect(port)) {
        ok = false;
        return;
      }
      for (const Context& context : contexts) {
        if (!context.hot || ShardOf(context) % kConnections != k) continue;
        size_t bytes = 0;
        if (client.Request("GET", "/context/" + context.target + "/graph",
                           "", &bytes) != 200) {
          ok = false;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ok;
}

/// One daemon run of a rung's schedule.
struct Repetition {
  std::vector<Outcome> outcomes;  // parallel to the arrivals
  std::vector<double> backlog;    // at each send
  double daemon_cpu_s = 0;        // the daemon's CPU time under the load
  double paused_s = 0;            // closed loop: host-speed probes
  double host_factor = 1;         // closed loop: HostClock::Factor()
};

/// Runs the load against `port` into `rep`, whose outcomes are parallel
/// to `arrivals`.
/// Open loop: kConnections connections, each sending its arrivals in due
/// order, never before they are due; a request is late when its
/// connection is busy. Closed loop: one connection sends every arrival
/// back to back, so the daemon is never idle and never has more than one
/// request to work on, and pauses for a `clock` probe every
/// kHostProbeEvery requests.
void RunLoad(const std::vector<Context>& contexts,
             const std::vector<Arrival>& arrivals, uint16_t port, bool closed,
             HostClock& clock, Repetition& rep) {
  std::vector<Outcome>& outcomes = rep.outcomes;
  std::vector<double>& backlog = rep.backlog;
  // In the open loop, one connection per shard keeps a context's requests
  // in order and spreads the load as evenly as the shards' hot sets do.
  const size_t connections = closed ? 1 : kConnections;
  std::vector<std::vector<size_t>> queues(connections);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    queues[ShardOf(contexts[arrivals[i].context]) % connections].push_back(i);
  }
  outcomes.assign(arrivals.size(), Outcome());
  backlog.assign(arrivals.size(), 0.0);
  std::atomic<size_t> sent{0};
  const double rate = arrivals.size() > 1 ? 1.0 / arrivals[1].due : 1.0;
  const double start = Now() + 0.05;
  std::vector<std::thread> threads;
  for (size_t k = 0; k < connections; ++k) {
    threads.emplace_back([&, k] {
      LoadClient client;
      const bool connected = client.Connect(port);
      if (const double wait = start - Now(); wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      for (size_t i : queues[k]) {
        const Arrival& a = arrivals[i];
        if (!closed) {
          const double due = start + a.due;
          // Sleep to just short of the due time, then spin: a sleeping
          // thread's wake-up jitter would otherwise land in every latency.
          const double wait = due - Now() - kSpinSeconds;
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          while (Now() < due) {
          }
        }
        Outcome& out = outcomes[i];
        out.sent = Now() - start;
        if (!closed) {
          const double due_count = std::floor(out.sent * rate) + 1;
          backlog[i] = due_count - static_cast<double>(sent.fetch_add(1) + 1);
        }
        if (!connected) {
          out.failed = true;
          out.done = Now() - start;
          continue;
        }
        const std::string& target = contexts[a.context].target;
        out.status =
            a.read ? client.Request("GET", "/context/" + target + "/graph", "",
                                    &out.bytes)
                   : client.Request("POST", "/context/" + target + "/revision",
                                    a.body, &out.bytes);
        out.done = Now() - start;
        out.failed = out.status != 200;
        if (closed && (&a - arrivals.data()) % kHostProbeEvery ==
                          kHostProbeEvery - 1) {
          const double pause_start = Now();
          clock.Probe();
          rep.paused_s += Now() - pause_start;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}


/// A rung's figures over its repetitions: per request, the median over
/// repetitions of its latency (a failure counts as infinitely late), so
/// a burst of host noise in one repetition does not reach the tail.
RungResult Summarize(const std::vector<Arrival>& arrivals,
                     const std::vector<Repetition>& reps, double rate) {
  RungResult rung;
  rung.rate = rate;
  const double inf = std::numeric_limits<double>::infinity();
  const double n = static_cast<double>(reps.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    std::vector<double> latency, lag, service;
    for (const Repetition& rep : reps) {
      const Outcome& o = rep.outcomes[i];
      ++rung.attempted;
      latency.push_back(o.failed ? inf : (o.done - a.due) * 1e3);
      lag.push_back((o.sent - a.due) * 1e3);
      service.push_back(o.failed ? inf : (o.done - o.sent) * 1e3);
      rung.backlog_max = std::max(rung.backlog_max, rep.backlog[i]);
      if (o.failed) {
        ++rung.failed;
      } else if (a.read) {
        rung.graph_bytes_per_read += static_cast<double>(o.bytes);
      }
    }
    (a.read ? rung.graph_ms : rung.rev_ms).push_back(Median(latency));
    rung.lag_ms.push_back(Median(lag));
    rung.service_ms.push_back(Median(service));
  }
  double span = 0;
  for (const Repetition& rep : reps) {
    double last_done = 0;
    for (const Outcome& o : rep.outcomes) last_done = std::max(last_done, o.done);
    span += last_done;
    // The backlog grew when the last quarter of sends saw a deeper queue
    // than the first quarter by more than one request per connection.
    const size_t quarter = arrivals.size() / 4;
    if (quarter == 0) continue;
    std::vector<std::pair<double, double>> by_time;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      by_time.push_back({rep.outcomes[i].sent, rep.backlog[i]});
    }
    std::sort(by_time.begin(), by_time.end());
    double first = 0, last = 0;
    for (size_t i = 0; i < quarter; ++i) {
      first += by_time[i].second;
      last += by_time[by_time.size() - 1 - i].second;
    }
    if ((last - first) / static_cast<double>(quarter) >
        static_cast<double>(kConnections)) {
      rung.backlog_grew = true;
    }
  }
  span = std::max(span, 1e-9);  // summed over repetitions
  const size_t reads = static_cast<size_t>(
      std::count_if(arrivals.begin(), arrivals.end(),
                    [](const Arrival& a) { return a.read; }));
  rung.completed_rps = static_cast<double>(rung.attempted - rung.failed) / span;
  rung.graph_bytes_per_read /= std::max(1.0, static_cast<double>(reads) * n);
  rung.sustained = rung.failed == 0 && !rung.backlog_grew &&
                   Quantile(rung.rev_ms, 0.99) < kSloSeconds * 1e3 &&
                   Quantile(rung.lag_ms, 0.99) < kSloSeconds * 1e3;
  return rung;
}

/// The closed-loop probe's figures. Its rates count the daemon's busy
/// time, not the wall time: per repetition, completions over the CPU
/// seconds the daemon's threads ran under the load, scaled to the
/// reference host by the HostClock probes the load paused for; the
/// median over repetitions. The wall-clock rate, which on the shared VM
/// swung by up to 2x from run to run with the cost of waking idle vCPUs
/// between requests, is printed for reference.
struct ProbeResult {
  double completed_per_cpu_s = 0;
  double rev_per_cpu_s = 0;
  double body_mib_per_cpu_s = 0;
  double rev_service_p99_ms = 0;  // the slowest repetition's
  // Per repetition: wall-clock completions per second, daemon CPU
  // seconds, HostClock factor.
  std::vector<double> wall_rps, cpu_s, host_factors;
  size_t attempted = 0;
  size_t failed = 0;
};

ProbeResult SummarizeProbe(const std::vector<Arrival>& arrivals,
                           const std::vector<Repetition>& reps) {
  ProbeResult probe;
  std::vector<double> completed_per_cpu_s, rev_per_cpu_s, body_mib_per_cpu_s;
  for (const Repetition& rep : reps) {
    double span = 1e-9, completed = 0, revisions = 0, body_bytes = 0;
    std::vector<double> service_ms;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Outcome& o = rep.outcomes[i];
      ++probe.attempted;
      span = std::max(span, o.done);
      if (o.failed) {
        ++probe.failed;
        continue;
      }
      completed += 1;
      if (!arrivals[i].read) {
        revisions += 1;
        body_bytes += static_cast<double>(arrivals[i].body.size());
        service_ms.push_back((o.done - o.sent) * 1e3);
      }
    }
    probe.wall_rps.push_back(completed / std::max(span - rep.paused_s, 1e-9));
    probe.cpu_s.push_back(rep.daemon_cpu_s);
    probe.host_factors.push_back(rep.host_factor);
    const double busy = std::max(rep.daemon_cpu_s * rep.host_factor, 1e-9);
    completed_per_cpu_s.push_back(completed / busy);
    rev_per_cpu_s.push_back(revisions / busy);
    body_mib_per_cpu_s.push_back(Mib(body_bytes) / busy);
    probe.rev_service_p99_ms =
        std::max(probe.rev_service_p99_ms, Quantile(service_ms, 0.99));
  }
  probe.completed_per_cpu_s = Median(completed_per_cpu_s);
  probe.rev_per_cpu_s = Median(rev_per_cpu_s);
  probe.body_mib_per_cpu_s = Median(body_mib_per_cpu_s);
  return probe;
}

// ---- inputs ----------------------------------------------------------------

struct ServeInput {
  std::vector<Context> contexts;
  std::string store_dir;  // pre-ingested, never served from directly
  size_t preloaded_revisions = 0;
};

ServeInput MakeInput(const Options& options) {
  ServeInput input;
  input.store_dir = options.work_dir + "/serve_store";
  fs::remove_all(input.store_dir);
  somr::state::ContextStore store(input.store_dir);
  if (!store.Open(/*create=*/true).ok()) return input;
  somr::state::IncrementalPipeline ingest(&store);
  std::vector<GoldPage> pages =
      MakeGoldPages(options.seed + 7777, options.tiny ? 12 : 200,
                    options.tiny ? 1 : kCopiesPerStratum,
                    options.tiny ? 1 : kCopiesPerStratum, options.tiny);
  size_t placed[2] = {0, 0};  // hot, cold contexts placed so far
  for (size_t i = 0; i < pages.size(); ++i) {
    Context context;
    // The first page of each stratum is hot; the second is cold, kept
    // only for small strata and cut to a short history, so a fault costs
    // about as much as a hot request and does not swing the tail. Context
    // ids get a suffix that puts the hot (and the cold) contexts round
    // robin on the daemon's shards.
    context.hot = pages[i].copy == 0;
    if (!context.hot && pages[i].cap > kColdCapMax) continue;
    const size_t shard = placed[context.hot ? 0 : 1]++ % kShards;
    std::string id;
    for (int salt = 0;; ++salt) {
      id = pages[i].history.title + " #" + std::to_string(salt);
      if (somr::Fnv1a64(id) % kShards == shard) break;
    }
    context.id = id;
    context.target = somr::serve::PercentEncode(context.id);
    context.page_id = pages[i].history.page_id;
    context.history = std::move(pages[i].history);
    context.history.title = context.id;
    if (!context.hot) {
      context.history.revisions.resize(
          std::min(context.history.revisions.size(), kColdRevisions));
    }
    context.preloaded = context.history.revisions.size() / 2;
    somr::xmldump::PageHistory first = context.history;
    first.revisions.resize(context.preloaded);
    if (!ingest.IngestPage(first).ok()) return ServeInput();
    input.preloaded_revisions += context.preloaded;
    input.contexts.push_back(std::move(context));
  }
  return input;
}

std::string CopyStore(const ServeInput& input, const std::string& name) {
  const std::string dir = fs::path(input.store_dir).parent_path() / name;
  fs::remove_all(dir);
  fs::copy(input.store_dir, dir, fs::copy_options::recursive);
  return dir;
}

/// The batch pipeline's serialized graphs of `context` over its first
/// `revisions` revisions, in the order GET /graph renders them.
std::string BatchGraphs(const somr::core::Pipeline& pipeline,
                        const Context& context, size_t revisions) {
  somr::xmldump::PageHistory page = context.history;
  page.revisions.resize(revisions);
  const somr::core::PageResult result = pipeline.ProcessPage(page);
  std::string out;
  for (ObjectType type : kTypes) {
    out += somr::matching::SerializeIdentityGraph(result.GraphFor(type));
  }
  return out;
}

// ---- in-process replay -----------------------------------------------------

struct ReplayResult {
  double wall = 0;
  double replica = 0;           // parse/extract replay
  std::vector<double> request_ms;  // per arrival, in order
  std::vector<double> miss_ms;
  double open_s = 0;
  somr::serve::ContextCache::Stats cache;
};

somr::serve::ContextCache::Stats CacheTotals(
    const std::vector<std::unique_ptr<somr::serve::ContextCache>>& caches) {
  somr::serve::ContextCache::Stats total;
  for (const auto& cache : caches) {
    total.hits += cache->stats().hits;
    total.faults += cache->stats().faults;
    total.created += cache->stats().created;
  }
  return total;
}

/// Replays a rung's requests in due order through the calls a shard
/// makes: ReadDump, ContextCache::GetOrLoad, ApplyPageToState (writes)
/// or SerializeIdentityGraph (reads). Traced replays also replay parse
/// and extraction on the revision text, so their time can be moved out
/// of ApplyPageToState, which does the same work internally.
ReplayResult Replay(const ServeInput& input,
                    const std::vector<Arrival>& arrivals, Tracer& tracer) {
  ReplayResult out;
  const std::string dir = CopyStore(input, "serve_replay");
  somr::state::ContextStore store(dir);
  const double open_start = Now();
  if (!store.Open(/*create=*/false).ok()) return out;
  out.open_s = Now() - open_start;
  std::vector<std::unique_ptr<somr::serve::ContextCache>> caches;
  for (size_t s = 0; s < kShards; ++s) {
    caches.push_back(
        std::make_unique<somr::serve::ContextCache>(&store, kCacheCapacity));
  }
  for (const Context& context : input.contexts) {
    if (!context.hot) continue;
    if (!caches[somr::Fnv1a64(context.id) % kShards]
             ->GetOrLoad(context.id, /*create=*/false)
             .ok()) {
      return out;
    }
  }
  const somr::serve::ContextCache::Stats warm = CacheTotals(caches);
  const double start = Now();
  for (const Arrival& a : arrivals) {
    const double t0 = Now();
    double replica = 0;
    Tracer::Scope request_span(&tracer, kPage);
    const std::string& id = input.contexts[a.context].id;
    somr::serve::ContextCache& cache =
        *caches[somr::Fnv1a64(id) % kShards];
    std::optional<somr::xmldump::Dump> dump;
    if (!a.read) {
      Tracer::Scope span(&tracer, kXmlRead);
      auto parsed = somr::xmldump::ReadDump(a.body);
      if (parsed.ok()) dump = std::move(*parsed);
    }
    const uint64_t faults = cache.stats().faults;
    somr::StatusOr<somr::state::PageState*> state = somr::Status::NotFound("");
    {
      Tracer::Scope span(&tracer, kStateLoad);
      state = cache.GetOrLoad(id, /*create=*/!a.read);
      if (cache.stats().faults != faults) {
        out.miss_ms.push_back(span.Elapsed() * 1e3);
      }
    }
    if (state.ok() && a.read) {
      Tracer::Scope span(&tracer, kGraph);
      std::string body;
      for (ObjectType type : kTypes) {
        body += somr::matching::SerializeIdentityGraph(
            (*state)->matcher.GraphFor(type));
      }
      DoNotOptimize(body.data());
    } else if (state.ok() && dump && dump->pages.size() == 1) {
      if (tracer.enabled()) {
        const double r0 = Now();
        for (const auto& rev : dump->pages[0].revisions) {
          somr::wikitext::Document doc;
          {
            Tracer::Scope span(&tracer, kWikitext);
            doc = somr::wikitext::ParseWikitext(rev.text);
          }
          Tracer::Scope span(&tracer, kExtract);
          const somr::extract::PageObjects objects =
              somr::extract::ExtractFromWikitext(doc);
          DoNotOptimize(&objects);
        }
        replica = Now() - r0;
      }
      Tracer::Scope span(&tracer, kApply);
      somr::state::ApplyPageToState(**state, dump->pages[0], nullptr,
                                    nullptr);
      cache.MarkDirty(id);
    }
    out.replica += replica;
    out.request_ms.push_back((Now() - t0 - replica) * 1e3);
  }
  out.wall = Now() - start;
  const somr::serve::ContextCache::Stats total = CacheTotals(caches);
  out.cache.hits = total.hits - warm.hits;
  out.cache.faults = total.faults - warm.faults;
  out.cache.created = total.created - warm.created;
  return out;
}

}  // namespace

Result RunServeMixed(const Options& options) {
  Result result;
  const double t_begin = Now();
  const std::vector<double> rates =
      options.tiny ? std::vector<double>(std::begin(kTinyRatesRps),
                                         std::end(kTinyRatesRps))
                   : std::vector<double>(std::begin(kRatesRps),
                                         std::end(kRatesRps));
  const ServeInput input = MakeInput(options);
  if (input.contexts.empty()) {
    result.Fail("could not pre-ingest the serve store");
    return result;
  }
  const size_t contexts = input.contexts.size();
  const size_t hot_contexts = static_cast<size_t>(
      std::count_if(input.contexts.begin(), input.contexts.end(),
                    [](const Context& c) { return c.hot; }));
  result.Info("input_seconds", Now() - t_begin);
  result.Info("seed", static_cast<double>(options.seed));
  result.Info("serve_contexts", static_cast<double>(contexts));
  result.Info("resident_capacity",
              static_cast<double>(kCacheCapacity * kShards));
  result.Info("preloaded_revisions",
              static_cast<double>(input.preloaded_revisions));
  result.Info("rates_rps", JoinNumbers(rates));

  std::vector<double> setup;
  {
    const std::string dir = CopyStore(input, "serve_setup");
    for (int i = 0; i < kExtraStarts; ++i) {
      Daemon daemon;
      const double s = daemon.Start(options, dir);
      if (s < 0) {
        result.Fail("daemon failed to start");
        return result;
      }
      setup.push_back(s);
    }
  }

  // The phases: the rungs (open loop, lowest rate first) and the
  // closed-loop probe. Their repetitions run in rounds (see `order`), so
  // a slow stretch of the host lands on every phase alike rather than on
  // whichever phase it happens to overlap.
  const size_t phases = rates.size() + 1;
  std::vector<std::vector<Arrival>> schedules;
  std::vector<std::vector<Repetition>> reps(phases);
  for (size_t r = 0; r < phases; ++r) {
    // The probe's schedule is drawn as a 1-second one at its request
    // count; it ignores the due times. It has no cold traffic: with it,
    // the fsyncs of the spills took about 45% of the probe's time, and
    // their latency, the disk's, set the probe's run-to-run spread.
    const bool closed = r == rates.size();
    const double rate =
        closed ? static_cast<double>(options.tiny ? kTinyProbeRequests
                                                  : kProbeRequests)
               : rates[r];
    const double seconds =
        closed ? 1.0 : options.seconds * kRungShare[r] / kRepetitions;
    schedules.push_back(Schedule(input.contexts, rate, seconds,
                                 options.seed * 31 + r,
                                 closed ? 0.0 : kColdShare));
    // The probe runs once after each rung's run (see `order`).
    reps[r].resize(closed ? kRepetitions * rates.size() : kRepetitions);
  }
  if (options.perturb == "request" && !schedules[0].empty()) {
    schedules[0][0].read = false;
    schedules[0][0].body = "not a dump";
  }

  const somr::core::Pipeline pipeline;
  std::vector<double> peak_rss_mib(phases, 0.0);
  std::vector<std::map<std::string, double>> phase_counters(phases);
  size_t faults = 0, requests = 0;
  // The order of the daemon runs: kRepetitions rounds of a low-rung run,
  // a probe, a high-rung run and another probe. Every probe follows a
  // light-load rung: probes that followed probes used up to 30% more
  // daemon CPU per request than those that followed a rung.
  std::vector<std::pair<size_t, size_t>> order;  // (phase, repetition)
  for (size_t k = 0; k < kRepetitions; ++k) {
    for (size_t r = 0; r < rates.size(); ++r) {
      order.push_back({r, k});
      order.push_back({rates.size(), k * rates.size() + r});
    }
  }
  for (const auto& [r, k] : order) {
    const bool closed = r == rates.size();
    const std::vector<Arrival>& arrivals = schedules[r];
    // Every repetition starts from the same pre-ingested store.
    Daemon daemon;
    const std::string dir = CopyStore(input, "serve_rung");
    const double s = daemon.Start(options, dir);
    if (s < 0) {
      result.Fail("daemon failed to start");
      return result;
    }
    setup.push_back(s);
    if (!WarmUp(input.contexts, daemon.port())) {
      result.Fail("warm-up reads failed");
    }
    const double cpu_start = daemon.CpuSeconds();
    HostClock load_clock;
    RunLoad(input.contexts, arrivals, daemon.port(), closed, load_clock,
            reps[r][k]);
    reps[r][k].daemon_cpu_s = daemon.CpuSeconds() - cpu_start;
    reps[r][k].host_factor = load_clock.Factor();
    if (k + 1 < reps[r].size()) continue;

    // After a phase's last repetition, untimed: the daemon's peak RSS
    // and counters, then every context's served graph against the
    // batch pipeline over the same revisions.
    peak_rss_mib[r] = PeakRssMib(daemon.pid());
    somr::serve::HttpClient client;
    if (!client.Connect(daemon.port()).ok()) {
      result.Fail("cannot reconnect to the daemon");
      return result;
    }
    if (auto metrics = client.Request("GET", "/metrics"); metrics.ok()) {
      phase_counters[r] = ParseMetrics(metrics->body);
    }
    if (options.perturb == "graph" && r == 0) {
      // Corrupts the daemon's graph of the first context: it applies one
      // revision (another context's text) the batch pipeline never sees.
      const Context& victim = input.contexts[0];
      somr::xmldump::Dump dump;
      somr::xmldump::PageHistory page;
      page.title = victim.id;
      page.page_id = victim.page_id;
      page.revisions.push_back(input.contexts[1].history.revisions.back());
      page.revisions[0].id = std::numeric_limits<int32_t>::max();
      page.revisions[0].timestamp =
          victim.history.revisions.back().timestamp + 86400;
      dump.pages.push_back(std::move(page));
      client.Request("POST", "/context/" + victim.target + "/revision",
                     somr::xmldump::WriteDump(dump));
    }
    const std::vector<Outcome>& outcomes = reps[r][k].outcomes;
    std::vector<size_t> applied(contexts);
    for (size_t c = 0; c < contexts; ++c) {
      applied[c] = input.contexts[c].preloaded;
    }
    for (size_t i = 0; i < arrivals.size(); ++i) {
      if (!arrivals[i].read && !outcomes[i].failed) {
        applied[arrivals[i].context] =
            std::max(applied[arrivals[i].context], arrivals[i].revision + 1);
      }
    }
    for (size_t c = 0; c < contexts; ++c) {
      ++result.attempted;
      auto served =
          client.Request("GET", "/context/" + input.contexts[c].target +
                                    "/graph");
      const std::string expected =
          BatchGraphs(pipeline, input.contexts[c], applied[c]);
      if (!served.ok() || served->status != 200 ||
          served->body != expected) {
        result.Fail("served graph of \"" + input.contexts[c].id +
                    "\" differs from the batch pipeline's");
      }
    }
    // The daemon's fault count less the warm-up's one fault per hot
    // context.
    const double faulted = phase_counters[r]["somr_serve_contexts_faulted"];
    faults += static_cast<size_t>(faulted) - hot_contexts;
    requests += arrivals.size();
  }
  fs::remove_all(fs::path(input.store_dir).parent_path() / "serve_rung");

  std::vector<RungResult> rungs;
  for (size_t r = 0; r < rates.size(); ++r) {
    rungs.push_back(Summarize(schedules[r], reps[r], rates[r]));
    rungs.back().peak_rss_mib = peak_rss_mib[r];
    rungs.back().counters = phase_counters[r];
  }
  const ProbeResult probe = SummarizeProbe(schedules.back(), reps.back());
  for (size_t r = 0; r < phases; ++r) {
    const bool closed = r == rates.size();
    const size_t failed = closed ? probe.failed : rungs[r].failed;
    result.attempted += closed ? probe.attempted : rungs[r].attempted;
    if (failed > 0) {
      result.Fail(std::to_string(failed) + " requests failed " +
                      (closed ? std::string("in the closed-loop probe")
                              : "at " + std::to_string(rates[r]) + " req/s"),
                  failed);
    }
  }
  const RungResult& low = rungs.front();
  const RungResult& high = rungs.back();
  result.Info("fault_share",
              static_cast<double>(faults) / static_cast<double>(requests));
  bool rungs_held = true;
  double sustained = 0;
  for (const RungResult& rung : rungs) {
    const std::string at = "rung_" + std::to_string(static_cast<int>(rung.rate));
    result.Info(at + "_sustained", rung.sustained ? "yes" : "no");
    result.Info(at + "_requests", static_cast<double>(rung.attempted));
    result.Info(at + "_lag_p99_ms", Quantile(rung.lag_ms, 0.99));
    result.Info(at + "_backlog_max", rung.backlog_max);
    rungs_held = rungs_held && rung.sustained;
    if (rung.sustained) sustained = rung.completed_rps;
  }
  result.Info("probe_requests", static_cast<double>(probe.attempted));
  result.Info("probe_wall_rps", JoinNumbers(probe.wall_rps));
  result.Info("probe_daemon_cpu_s", JoinNumbers(probe.cpu_s));
  result.Info("probe_host_factors", JoinNumbers(probe.host_factors));
  result.Info("probe_rev_service_p99_ms", probe.rev_service_p99_ms);
  // The probe's rate (per CPU second) counts as sustained only when every
  // rung held and the probe itself stayed clean and under the SLO;
  // otherwise the highest held rung's completed rate (0 when none held)
  // is reported.
  if (rungs_held && probe.failed == 0 &&
      probe.rev_service_p99_ms < kSloSeconds * 1e3) {
    sustained = probe.completed_per_cpu_s;
  }
  result.Info("setup_samples", JoinNumbers(setup));
  result.Set("setup_s", Median(setup), "s");
  result.Set("revisions_per_s", probe.rev_per_cpu_s, "1/s");
  result.Set("input_mib_per_s", probe.body_mib_per_cpu_s, "MiB/s");
  result.Set("peak_rss_mib", high.peak_rss_mib, "MiB");
  result.Set("rev_p50_ms_low", Quantile(low.rev_ms, 0.5), "ms");
  result.Set("rev_p99_ms_low", Quantile(low.rev_ms, 0.99), "ms");
  result.Set("rev_p50_ms_high", Quantile(high.rev_ms, 0.5), "ms");
  result.Set("rev_p99_ms_high", Quantile(high.rev_ms, 0.99), "ms");
  result.Set("graph_p50_ms_high", Quantile(high.graph_ms, 0.5), "ms");
  result.Set("graph_p99_ms_high", Quantile(high.graph_ms, 0.99), "ms");
  result.Set("sustained_rps", sustained, "1/s");
  if (!options.trace) return result;

  // Traced run: the low rung's requests replayed in process, untraced
  // and traced, plus the high rung's /metrics counters.
  Tracer untraced(false);
  const ReplayResult plain = Replay(input, schedules.front(), untraced);
  Tracer tracer(true);
  const ReplayResult traced = Replay(input, schedules.front(), tracer);
  tracer.WriteChromeJson(options.work_dir + "/trace_serve_mixed.json");

  SetZeroPerLayer(result);
  LayerShares shares(tracer, traced.wall, traced.replica, kApply);
  result.Set("xmldump.read_share", shares.Share(kXmlRead), "share");
  result.Set("wikitext.parse_share", shares.Share(kWikitext), "share");
  result.Set("extract.extract_share", shares.Share(kExtract), "share");
  // ApplyPageToState net of the parse/extract replay: the matching step.
  result.Set("matching.step_share", shares.Share(kApply), "share");
  std::map<std::string, double> counters = high.counters;
  const double new_revisions =
      std::max(1.0, counters["somr_ingest_revisions_new_total"]);
  result.Set("state.miss_ms_p50", Quantile(traced.miss_ms, 0.5), "ms");
  result.Set("state.miss_ms_p99", Quantile(traced.miss_ms, 0.99), "ms");
  result.Set("state.bytes_written_per_revision",
             counters["somr_recordlog_appended_bytes_total"] / new_revisions,
             "B/revision");
  result.Set("state.commits", counters["somr_recordlog_commits_total"],
             "count");
  result.Set("state.compactions", counters["somr_recordlog_compactions_total"],
             "count");
  result.Set("state.open_s", traced.open_s, "s");
  const double sims = counters["somr_match_similarities_total"];
  const double matches = counters["somr_match_stage1_matches_total"] +
                         counters["somr_match_stage2_matches_total"] +
                         counters["somr_match_stage3_matches_total"];
  result.Set("matching.similarities_computed", sims, "count");
  result.Set("matching.sims_per_match", sims / std::max(1.0, matches),
             "ratio");
  result.Set("matching.new_objects",
             counters["somr_match_new_objects_total"], "count");
  result.Set("retrieval.postings", counters["somr_retrieval_postings_total"],
             "count");
  result.Set("retrieval.wand_skips",
             counters["somr_retrieval_wand_skips_total"], "count");
  // HTTP share: the part of a request's service time (send to reply, no
  // queueing) that the in-process calls do not account for.
  const double in_process = Sum(plain.request_ms);
  double served = 0;
  for (double ms : low.service_ms) served += std::isfinite(ms) ? ms : 0.0;
  result.Set("serve.http_share",
             served > 0 ? 1.0 - in_process / served : 0.0, "share");
  const double lookups = static_cast<double>(
      traced.cache.hits + traced.cache.faults + traced.cache.created);
  result.Set("serve.cache_hit_ratio",
             static_cast<double>(traced.cache.hits) / std::max(1.0, lookups),
             "ratio");
  result.Set("serve.graph_bytes_per_read", high.graph_bytes_per_read, "B");
  result.Set("obs.trace_overhead_share",
             (traced.wall - traced.replica) / plain.wall - 1.0, "share");
  result.Set("obs.covered_share", shares.Covered(), "share");
  result.Set("loadgen.lag_p99_ms", Quantile(high.lag_ms, 0.99), "ms");
  result.Set("loadgen.backlog_max", high.backlog_max, "count");
  return result;
}

}  // namespace perfbench
