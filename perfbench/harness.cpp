// perfbench harness: runs one workload of the repo benchmark and prints
// its metrics as one JSON line (see perfbench/run.py, which builds this
// binary and is the command to run).
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --out-dir DIR
//
// Untraced (--trace 0) it runs one warm-up trial (plus the seeded checks
// of a pinned task), then timed trials until S seconds have gone by, then
// set-up-only repeats, and prints the end-to-end metrics. Traced (--trace 1) it alternates
// untraced and traced trials for S seconds and prints the per-layer
// metrics: span sums, call counts and shares of run wall time, the
// per-round ledger, the kernel and shard probes and the tracing overhead.
// Spans of the last traced trial go to DIR as JSON.
//
// A trial is one whole FL run of the workload's task: Simulation
// construction (plus the worker handshake on a pool), then
// Simulation::run_with_host with the timing decorators of ledger.h around
// the engine's Host and the registry algorithm.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "ledger.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/socket.h"
#include "net/worker.h"
#include "probe.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace algorithms = fedtrip::algorithms;
namespace net = fedtrip::net;
namespace nn = fedtrip::nn;

/// Set-ups measured per untraced run (trials plus set-up-only repeats):
/// at least kMinSetups and at least kSetupBudgetS seconds of them, at most
/// kMaxSetups. A set-up of a few milliseconds needs many samples for a
/// steady median; setup_s is their median.
constexpr std::size_t kMinSetups = 11;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.0;
/// The paper's evaluation batch, the kernel probe's second batch size.
constexpr std::size_t kEvalBatch = 128;
/// Layer kinds the kernel probe reports on every workload.
constexpr const char* kKernelKinds[] = {"conv2d", "linear", "maxpool2d",
                                        "relu"};
/// The CNN workloads' task seed. Rounds to 0.90 vary with the task seed far
/// beyond any timing noise (8 to 24 rounds over seeds 1-24, and 3 of those
/// 24 never reach 0.90 in 30 rounds), so the timed task is pinned and
/// --seed draws the seeded check task instead (check_seeded_task).
constexpr std::uint64_t kCnnTaskSeed = 42;
/// Rounds of the seeded check task.
constexpr std::size_t kSeededCheckRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

// ----------------------------------------------------------------- tasks

/// One workload's FL task and how it is executed.
struct Task {
  std::string workload;
  fl::ExperimentConfig config;
  std::string method;
  algorithms::AlgoParams algo;
  /// Accuracy the to-target metrics are measured against.
  double target = 0.0;
  /// Loopback WorkerServer sessions training remotely (0 = in-process);
  /// config.workers is the training threads per session or in-process.
  std::size_t pool_workers = 0;
  /// The task seed is fixed rather than drawn from --seed.
  bool pinned = false;
};

/// The paper's Table IV CNN/MNIST-90% case: FedTrip mu = 0.4, Dir-0.5,
/// 4 of 10 clients, batch 15, data scale 0.1, sync, eval every round.
Task cnn_mnist_task(std::uint64_t task_seed) {
  Task t;
  fl::ExperimentConfig& c = t.config;
  c.model.arch = nn::Arch::kCNN;
  c.dataset = "mnist";
  c.data_scale = 0.1;
  c.heterogeneity = fedtrip::data::Heterogeneity::kDir05;
  c.num_clients = 10;
  c.clients_per_round = 4;
  c.rounds = 20;
  c.local_epochs = 1;
  c.batch_size = 15;
  c.eval_every = 1;
  c.workers = 4;
  c.seed = task_seed;
  t.method = "FedTrip";
  t.algo.mu = 0.4f;
  t.algo.lr = c.lr;
  t.target = 0.90;
  return t;
}

/// FedAvg on the MLP over 20k virtual-shard clients (16 samples each), 100
/// in flight under buffered async aggregation (25 arrivals per
/// aggregation, 80 aggregations), error-feedback top-k delta uplink,
/// straggler network, one evaluation at the end. Its task follows --seed:
/// final accuracy stays within about 0.90 +- 0.01 across seeds.
Task fleet_async_task(std::uint64_t task_seed) {
  Task t;
  fl::ExperimentConfig& c = t.config;
  c.model.arch = nn::Arch::kMLP;
  c.dataset = "mnist";
  c.data_scale = 0.1;
  c.heterogeneity = fedtrip::data::Heterogeneity::kDir05;
  c.client_data = "virtual";
  c.shard_samples = 16;
  c.partition_stats = false;
  c.num_clients = 20000;
  c.clients_per_round = 100;
  c.sched.policy = "async";
  c.sched.buffer_size = 25;
  c.rounds = 80;
  c.batch_size = 4;
  c.eval_every = c.rounds;
  c.comm.uplink = "ef+topk";
  c.comm.delta_uplink = true;
  c.comm.network.profile = fedtrip::comm::NetProfile::kStraggler;
  c.workers = 4;
  c.seed = task_seed;
  t.method = "FedAvg";
  t.algo.lr = c.lr;
  t.target = 0.80;
  return t;
}

Task make_task(const std::string& workload, std::uint64_t seed) {
  if (workload == "cnn-mnist" || workload == "cnn-mnist-2w") {
    Task t = cnn_mnist_task(kCnnTaskSeed);
    t.workload = workload;
    t.pinned = true;
    if (workload == "cnn-mnist-2w") {
      t.pool_workers = 2;
      t.config.workers = 2;
    }
    return t;
  }
  if (workload == "fleet-async") {
    Task t = fleet_async_task(seed);
    t.workload = workload;
    return t;
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

/// The same task trained in-process: the reference a pool run must match.
Task in_process(Task t) {
  t.pool_workers = 0;
  t.config.workers = 4;
  return t;
}

// ---------------------------------------------------------------- trials

/// WorkerServer sessions on threads of this process, each behind its own
/// loopback TCP connection, adopted by a handshaken WorkerPool. The
/// destructor shuts the pool down and joins every session thread.
class LoopbackPool {
 public:
  LoopbackPool(const Task& task, std::size_t param_dim) {
    net::Listener listener(0);
    const std::uint16_t port = listener.port();
    errors_.resize(task.pool_workers);
    for (std::size_t i = 0; i < task.pool_workers; ++i) {
      threads_.emplace_back([this, port, i] {
        try {
          net::WorkerServer server;
          server.serve(net::connect_to("127.0.0.1", port));
        } catch (const std::exception& e) {
          errors_[i] = e.what();
        }
      });
    }
    try {
      std::vector<net::Socket> conns;
      for (std::size_t i = 0; i < task.pool_workers; ++i) {
        conns.push_back(listener.accept());
      }
      net::SetupMsg setup;
      setup.method = task.method;
      setup.algo = task.algo;
      setup.config = task.config;
      pool_.emplace(
          net::WorkerPool::handshake(std::move(conns), setup, param_dim));
    } catch (...) {
      join();
      throw;
    }
  }
  LoopbackPool(const LoopbackPool&) = delete;
  LoopbackPool& operator=(const LoopbackPool&) = delete;
  ~LoopbackPool() { join(); }

  net::WorkerPool& pool() { return *pool_; }

  /// Shuts the sessions down, joins them, and returns the first error a
  /// session reported ("" = all ended cleanly).
  std::string join() {
    if (pool_) pool_->shutdown();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    for (const auto& e : errors_) {
      if (!e.empty()) return e;
    }
    return "";
  }

 private:
  std::optional<net::WorkerPool> pool_;
  std::vector<std::string> errors_;  // one slot per thread, written once
  std::vector<std::thread> threads_;
};

/// Everything one trial measured.
struct Trial {
  double construct_s = 0.0;
  double handshake_s = 0.0;
  /// Simulation::run_with_host wall time (the run loop).
  double run_s = 0.0;
  /// Wall time between consecutive Host::aggregate returns; the first
  /// round starts when the engine hands the host over.
  std::vector<double> round_s;
  /// Run start to the end of the first round whose evaluation reached the
  /// target (-1 = never).
  double time_to_target_s = -1.0;
  std::size_t rounds_to_target = 0;
  double gflops_to_target = 0.0;
  double final_accuracy = 0.0;
  /// Accuracy of every evaluated round, in order.
  std::vector<double> accuracy;
  std::uint64_t digest = 0;
  double samples_per_s = 0.0;
  fedtrip::comm::ChannelStats comm;
  net::NetHost::Traffic traffic;
  // Traced trials only.
  std::vector<Span> spans;
  std::vector<double> aggregate_returns;  // seconds since run start
  double loop_start = 0.0;                // seconds since run start
  double make_shard_s = -1.0;             // per call; -1 = no synthesizer
  std::string error;                      // a pool session's failure
};

std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// A set-up engine: the Simulation, its timing algorithm and, on the pool,
/// the worker sessions, with how long each took to set up.
struct Engine {
  std::unique_ptr<fl::Simulation> sim;
  TimingAlgorithm* algo = nullptr;
  std::unique_ptr<LoopbackPool> pool;
  double construct_s = 0.0;
  double handshake_s = 0.0;
};

/// Sets an engine up; trials and set-up-only repeats both time this.
Engine build_engine(const Task& task) {
  Engine e;
  const auto t0 = Clock::now();
  auto algo = std::make_unique<TimingAlgorithm>(
      algorithms::make_algorithm(task.method, task.algo));
  e.algo = algo.get();
  e.sim = std::make_unique<fl::Simulation>(task.config, std::move(algo));
  const auto t1 = Clock::now();
  e.construct_s = seconds_between(t0, t1);
  if (task.pool_workers > 0) {
    e.pool = std::make_unique<LoopbackPool>(task, e.sim->param_dim());
    e.handshake_s = seconds_between(t1, Clock::now());
  }
  return e;
}

Trial run_trial(const Task& task, bool traced) {
  Trial t;
  Engine e = build_engine(task);
  t.construct_s = e.construct_s;
  t.handshake_s = e.handshake_s;

  const auto run_start = Clock::now();
  SpanLog log(run_start);
  std::optional<net::NetHost> net_host;
  std::optional<TimingHost> host;
  Clock::time_point loop_start;
  auto result =
      e.sim->run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
        loop_start = Clock::now();
        sched::Host* engine_host = &inner;
        if (e.pool) {
          net_host.emplace(inner, e.pool->pool());
          engine_host = &*net_host;
        }
        host.emplace(*engine_host, traced ? &log : nullptr);
        e.algo->bind(&*host);
        return *host;
      });
  const auto run_end = Clock::now();
  e.algo->bind(nullptr);
  if (e.pool) t.error = e.pool->join();

  t.run_s = seconds_between(run_start, run_end);
  Clock::time_point prev = loop_start;
  for (const auto& r : host->aggregate_returns()) {
    t.round_s.push_back(seconds_between(prev, r));
    prev = r;
  }
  for (const auto& rec : result.history) t.accuracy.push_back(rec.test_accuracy);
  if (!result.history.empty()) {
    t.final_accuracy = result.history.back().test_accuracy;
  }
  for (const auto& rec : result.history) {
    if (rec.test_accuracy < task.target) continue;
    t.rounds_to_target = rec.round;
    t.gflops_to_target = rec.cum_gflops;
    const auto& rounds = host->aggregate_rounds();
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      if (rounds[k] == rec.round) {
        t.time_to_target_s =
            seconds_between(run_start, host->aggregate_returns()[k]);
        break;
      }
    }
    break;
  }
  t.digest = fnv1a(result.final_params);
  t.samples_per_s = static_cast<double>(host->samples_trained()) / t.run_s;
  t.comm = result.comm_stats;
  if (net_host) t.traffic = net_host->traffic();
  if (traced) {
    t.spans = log.spans();
    t.loop_start = log.since_origin(loop_start);
    for (const auto& r : host->aggregate_returns()) {
      t.aggregate_returns.push_back(log.since_origin(r));
    }
    if (const auto* synth = e.sim->shard_synthesizer()) {
      t.make_shard_s = probe_make_shard(*synth, 200);
    }
  }
  return t;
}

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

// ----------------------------------------------------------------- output

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Metrics in insertion order, printed as the result's "metrics" object.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Output checks. Every FL run the harness makes is one operation; a run
/// that fails any check counts once as failed.
class Checks {
 public:
  /// Checks `t` against `reference`: same per-round accuracy, same final
  /// model, no worker session failure, and with `needs_target` the task's
  /// target reached within its round budget.
  void check(const Task& task, const Trial& t, const Trial& reference,
             bool needs_target, const std::string& label) {
    bool ok = true;
    const auto expect = [&](bool cond, const std::string& what) {
      if (cond) return;
      ok = false;
      std::printf("CHECK FAILED (%s): %s\n", label.c_str(), what.c_str());
    };
    expect(t.error.empty(), "worker session failed: " + t.error);
    expect(t.accuracy == reference.accuracy,
           "per-round accuracy differs from the reference run");
    expect(t.digest == reference.digest,
           "final model " + hex(t.digest) + " != reference " +
               hex(reference.digest));
    if (needs_target) {
      expect(t.time_to_target_s >= 0.0,
             task.workload + " did not reach " + std::to_string(task.target) +
                 " within " + std::to_string(task.config.rounds) + " rounds");
    }
    ++attempted_;
    if (!ok) ++failed_;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, m.json().c_str());
  std::fflush(stdout);
}

/// Runs the reference: the warm-up, and the run every timed trial must
/// reproduce (on the pool, the in-process engine trains the same task).
Trial run_reference(const Task& task, Checks& checks) {
  Trial ref = run_trial(in_process(task), false);
  checks.check(task, ref, ref, true, "reference");
  std::printf("reference (in-process): final accuracy %.4f, digest %s, %zu "
              "evaluations, rounds to target %zu\n",
              ref.final_accuracy, hex(ref.digest).c_str(),
              ref.accuracy.size(), ref.rounds_to_target);
  return ref;
}

/// For a pinned task, what --seed draws: a short run of the workload's task
/// with seed `seed` must give the same bits whatever executes it, one
/// training thread against four in-process, or the pool against the
/// in-process engine.
void check_seeded_task(const Task& task, std::uint64_t seed, Checks& checks) {
  Task check = task;
  check.config.seed = seed;
  check.config.rounds = kSeededCheckRounds;
  Task other = check;
  if (other.pool_workers == 0) other.config.workers = 1;
  const Trial a = run_trial(in_process(check), false);
  const Trial b = run_trial(other, false);
  checks.check(check, a, a, false, "seeded task, in-process");
  checks.check(check, b, a, false,
               other.pool_workers > 0 ? "seeded task, on the pool"
                                      : "seeded task, one thread");
  std::printf("seeded check task (seed %" PRIu64 ", %zu rounds): digest %s "
              "and %s\n",
              seed, check.config.rounds, hex(a.digest).c_str(),
              hex(b.digest).c_str());
}

// ------------------------------------------------------------ the modes

int run_untraced(const Args& args, const Task& task) {
  Checks checks;
  const Trial reference = run_reference(task, checks);
  if (task.pinned) check_seeded_task(task, args.seed, checks);

  std::vector<Trial> trials;
  const auto start = Clock::now();
  while (trials.size() < 2 ||
         seconds_between(start, Clock::now()) < args.seconds) {
    trials.push_back(run_trial(task, false));
    const Trial& t = trials.back();
    checks.check(task, t, reference, true,
                 "trial " + std::to_string(trials.size() - 1));
    std::printf("trial %zu: setup %.4f s, run %.4f s, %zu rounds, "
                "to-target %.4f s, digest %s\n",
                trials.size() - 1, t.construct_s + t.handshake_s, t.run_s,
                t.round_s.size(),
                t.time_to_target_s, hex(t.digest).c_str());
  }

  std::vector<double> setup, round, ttt, sps;
  for (const Trial& t : trials) {
    setup.push_back(t.construct_s + t.handshake_s);
    round.insert(round.end(), t.round_s.begin(), t.round_s.end());
    ttt.push_back(t.time_to_target_s);
    sps.push_back(t.samples_per_s);
  }
  double setup_spent = 0.0;
  for (double v : setup) setup_spent += v;
  while (setup.size() < kMinSetups ||
         (setup_spent < kSetupBudgetS && setup.size() < kMaxSetups)) {
    const Engine e = build_engine(task);
    setup.push_back(e.construct_s + e.handshake_s);
    setup_spent += setup.back();
  }

  const Trial& t0 = trials.front();
  Metrics m;
  m.add("setup_s", median(setup), "s");
  m.add("round_s_p50", median(round), "s");
  m.add("round_s_p90", quantile(round, 0.9), "s");
  m.add("time_to_target_s", median(ttt), "s");
  m.add("samples_per_s", median(sps), "samples/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("rounds_to_target", static_cast<double>(t0.rounds_to_target),
        "rounds");
  m.add("gflops_to_target", t0.gflops_to_target, "GFLOP");
  m.add("final_accuracy", t0.final_accuracy, "fraction");
  std::printf("samples: setup_s n=%zu, round_s n=%zu, time_to_target_s "
              "n=%zu, samples_per_s n=%zu\n",
              setup.size(), round.size(), ttt.size(), sps.size());
  print_result(checks.failed() == 0, checks.attempted(), checks.failed(), m);
  return 0;
}

/// Writes the spans of a traced trial as JSON (times in seconds since the
/// run started).
void write_spans(const std::string& path, const Trial& t) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"loop_start_s\": %.9f,\n \"aggregate_returns_s\": [",
               t.loop_start);
  for (std::size_t i = 0; i < t.aggregate_returns.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? ", " : "", t.aggregate_returns[i]);
  }
  std::fprintf(f, "],\n \"spans\": [\n");
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"round\": %zu}%s\n",
                 i, span_name(s.kind), s.start, s.end,
                 static_cast<long long>(s.parent), s.round,
                 i + 1 < t.spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void print_ledger(const Trial& t) {
  const auto rows = ledger_rows(t.spans, t.loop_start, t.aggregate_returns);
  std::printf("per-round ledger (last traced trial, seconds):\n");
  std::printf("%6s %9s %9s %9s %9s %9s %9s %13s\n", "round", "wall",
              "select", "broadcast", "train", "uplink", "aggregate",
              "unattributed");
  for (const LedgerRow& r : rows) {
    std::printf("%6zu %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f %13.6f\n",
                r.round, r.wall_s, r.host_s[0], r.host_s[1], r.host_s[2],
                r.host_s[3], r.host_s[4], r.unattributed_s);
  }
}

int run_traced(const Args& args, const Task& task) {
  Checks checks;
  const Trial reference = run_reference(task, checks);
  if (task.pinned) check_seeded_task(task, args.seed, checks);

  // Untraced and traced trials alternate, so both see the same machine
  // state; their run times give the tracing overhead.
  std::vector<Trial> plain;
  std::vector<Trial> traced;
  const auto start = Clock::now();
  while (traced.empty() ||
         seconds_between(start, Clock::now()) < args.seconds) {
    plain.push_back(run_trial(task, false));
    traced.push_back(run_trial(task, true));
  }
  for (std::size_t i = 0; i < plain.size(); ++i) {
    checks.check(task, plain[i], reference, true,
                 "untraced trial " + std::to_string(i));
    checks.check(task, traced[i], reference, true,
                 "traced trial " + std::to_string(i));
  }

  // Per-layer sums are means over the traced trials.
  const double n = static_cast<double>(traced.size());
  LayerTotals sum;
  double run_s = 0.0, construct_s = 0.0, handshake_s = 0.0;
  double unattributed_s = 0.0, evals = 0.0;
  std::vector<double> plain_run, traced_run;
  for (const Trial& t : traced) {
    const LayerTotals lt = layer_totals(t.spans);
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      sum.sum_s[k] += lt.sum_s[k] / n;
      sum.calls[k] += lt.calls[k];
    }
    sum.train_uncovered_s += lt.train_uncovered_s / n;
    run_s += t.run_s / n;
    construct_s += t.construct_s / n;
    handshake_s += t.handshake_s / n;
    evals += static_cast<double>(t.accuracy.size()) / n;
    for (const LedgerRow& r :
         ledger_rows(t.spans, t.loop_start, t.aggregate_returns)) {
      unattributed_s += r.unattributed_s / n;
    }
    traced_run.push_back(t.run_s);
  }
  for (const Trial& t : plain) plain_run.push_back(t.run_s);

  Metrics m;
  m.add("fl.construct_s", construct_s, "s");
  m.add("net.handshake_s", handshake_s, "s");
  const auto layer = [&](const std::string& name, double s, double calls) {
    m.add(name + "_s", s, "s");
    m.add(name + "_calls", calls, "count");
    m.add(name + "_share", s / run_s, "fraction");
  };
  const auto kind = [&](SpanKind k) {
    const auto i = static_cast<std::size_t>(k);
    layer(span_name(k), sum.sum_s[i], static_cast<double>(sum.calls[i]) / n);
  };
  kind(SpanKind::kSelect);
  kind(SpanKind::kBroadcast);
  kind(SpanKind::kTrain);
  kind(SpanKind::kUplink);
  kind(SpanKind::kAggregate);
  kind(SpanKind::kTrainClient);
  kind(SpanKind::kAlgoAggregate);
  const auto at = [&](SpanKind k) { return sum.sum_s[static_cast<std::size_t>(k)]; };
  layer("fl.eval", at(SpanKind::kAggregate) - at(SpanKind::kAlgoAggregate),
        evals);
  m.add("host.train_self_s", sum.train_uncovered_s, "s");
  const double threads = static_cast<double>(task.config.workers);
  const double train_s = at(SpanKind::kTrain);
  m.add("train.idle_share",
        train_s > 0.0 ? 1.0 - at(SpanKind::kTrainClient) / (threads * train_s)
                      : 0.0,
        "fraction");

  const Trial& last = traced.back();
  const double dispatches =
      static_cast<double>(sum.calls[static_cast<std::size_t>(SpanKind::kTrainClient)]) / n;
  const double shard_s = std::max(last.make_shard_s, 0.0);
  m.add("clients.make_shard_s", shard_s, "s");
  m.add("clients.make_shard_share", shard_s * dispatches / run_s, "fraction");

  const struct {
    const char* role;
    std::size_t batch;
  } batches[] = {{"train", task.config.batch_size}, {"eval", kEvalBatch}};
  for (const auto& b : batches) {
    const KernelTimings kt =
        probe_kernels(task.config.model, b.batch, args.seed, 5, 0.25);
    for (const char* name : kKernelKinds) {
      // A kind the model lacks (the MLP has no conv) reports zeros.
      const auto it = kt.find(name);
      const KernelTiming k = it != kt.end() ? it->second : KernelTiming{};
      const std::string p = std::string("nn.") + name + "." + b.role + ".";
      m.add(p + "forward_s", k.forward_s, "s");
      m.add(p + "backward_s", k.backward_s, "s");
      m.add(p + "gflop", (k.forward_flops + k.backward_flops) / 1e9, "GFLOP");
      m.add(p + "forward_gflop_per_s",
            k.forward_s > 0.0 ? k.forward_flops / 1e9 / k.forward_s : 0.0,
            "GFLOP/s");
      m.add(p + "backward_gflop_per_s",
            k.backward_s > 0.0 ? k.backward_flops / 1e9 / k.backward_s : 0.0,
            "GFLOP/s");
    }
  }

  const auto per = [](std::size_t bytes, std::size_t messages) {
    return messages > 0 ? static_cast<double>(bytes) /
                              static_cast<double>(messages)
                        : 0.0;
  };
  m.add("comm.bytes_up_per_update",
        per(last.comm.bytes_up, last.comm.messages_up), "bytes");
  m.add("comm.bytes_down_per_update",
        per(last.comm.bytes_down, last.comm.messages_down), "bytes");
  m.add("net.dispatch_frames",
        static_cast<double>(last.traffic.dispatch_frames), "count");
  m.add("net.down_wire_bytes",
        static_cast<double>(last.traffic.down.wire_bytes), "bytes");
  m.add("net.up_wire_bytes", static_cast<double>(last.traffic.up.wire_bytes),
        "bytes");
  m.add("ledger.unattributed_s", unattributed_s, "s");
  m.add("ledger.unattributed_share", unattributed_s / run_s, "fraction");
  const double base = median(plain_run);
  m.add("trace.overhead_ratio", median(traced_run) / base, "ratio");
  m.add("trace.untraced_run_s", base, "s");

  print_ledger(last);
  const std::string path = args.out_dir + "/spans-" + task.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  write_spans(path, last);
  std::printf("spans of the last traced trial: %s\n", path.c_str());
  std::printf("traced trials %zu, untraced trials %zu\n", traced.size(),
              plain.size());
  print_result(checks.failed() == 0, checks.attempted(), checks.failed(), m);
  return 0;
}

}  // namespace
}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n",
               msg);
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  try {
    const auto task = perfbench::make_task(args.workload, args.seed);
    return args.trace ? perfbench::run_traced(args, task)
                      : perfbench::run_untraced(args, task);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
