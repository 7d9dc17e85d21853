// Outside-in timing for the FL engine: a sched::Host decorator and a
// fl::FederatedAlgorithm decorator that time every call into the layer
// they wrap, and the span log both write to.
//
// Untraced (the end-to-end measurement), the Host decorator records only
// the wall time at which each Host::aggregate returns, plus the local
// training samples the train() results carry; the algorithm decorator is a
// plain forwarder. Traced, every forwarded call also appends a span (name,
// start, end, parent, round) to a SpanLog kept in memory and written out
// once the run is over. Spans form the tree round -> host.* -> algo.*: a
// host span's parent is the round it falls in, an algo span's parent is
// the host span open on the scheduler thread when it started (train()
// fans train_client out to pool threads while the scheduler waits, and
// aggregate() calls the algorithm's aggregate inline).
//
// Nothing here reaches into the engine: every number comes from timing a
// public call, so the ledger is valid for any build of the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "sched/scheduler.h"

namespace perfbench {

namespace fl = fedtrip::fl;
namespace sched = fedtrip::sched;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Layers a span can belong to. The host.* entries time sched::Host
/// primitives, the algo.* entries FederatedAlgorithm calls.
enum class SpanKind : std::uint8_t {
  kSelect,
  kBroadcast,
  kTrain,
  kUplink,
  kAggregate,
  kTrainClient,
  kAlgoAggregate,
};
inline constexpr std::size_t kNumSpanKinds = 7;
/// The host.* kinds come first.
inline constexpr std::size_t kNumHostKinds = 5;

const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kSelect;
  /// Seconds since the log's origin.
  double start = 0.0;
  double end = 0.0;
  /// Index of the parent span in SpanLog::spans(); -1 = the round itself.
  std::int64_t parent = -1;
  /// 1-based round (aggregations completed before the span began, + 1).
  std::size_t round = 0;
};

/// Thread-safe, append-only span store. Appends come from the scheduler
/// thread (host spans) and from the training pool's threads (train_client
/// spans), so they take a short lock; nothing is written out until the run
/// has ended.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  double since_origin(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }
  /// Appends a finished span.
  void add(const Span& span);
  /// Appends a span that is still open (end unset) and returns its index,
  /// so spans that start while it runs can name it as their parent.
  std::int64_t open(SpanKind kind, double start, std::size_t round);
  void close(std::int64_t index, double end);
  /// Finished spans in append order (call once the run is over).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Forwards every sched::Host call to `inner`. Always records aggregate
/// return times and trained samples; with a SpanLog also records a span
/// per call.
class TimingHost final : public sched::Host {
 public:
  TimingHost(sched::Host& inner, SpanLog* log) : inner_(inner), log_(log) {}
  TimingHost(const TimingHost&) = delete;
  TimingHost& operator=(const TimingHost&) = delete;

  std::size_t num_clients() const override { return inner_.num_clients(); }
  std::size_t clients_per_round() const override {
    return inner_.clients_per_round();
  }
  std::size_t total_rounds() const override { return inner_.total_rounds(); }
  const fedtrip::comm::NetworkModel& network() const override {
    return inner_.network();
  }
  const fedtrip::clients::AvailabilityModel& availability() const override {
    return inner_.availability();
  }
  bool compute_enabled() const override { return inner_.compute_enabled(); }
  double compute_seconds(std::size_t client) const override {
    return inner_.compute_seconds(client);
  }
  std::size_t message_bytes(fedtrip::comm::Direction dir) const override {
    return inner_.message_bytes(dir);
  }
  std::size_t extra_down_bytes() const override {
    return inner_.extra_down_bytes();
  }
  std::size_t extra_up_bytes() const override {
    return inner_.extra_up_bytes();
  }
  fedtrip::obs::Tracer* tracer() const override { return inner_.tracer(); }

  std::vector<std::size_t> select(std::size_t count,
                                  const std::vector<bool>* busy) override;
  std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) override;
  std::vector<fl::ClientUpdate> train(
      const std::vector<sched::Dispatch>& batch) override;
  std::size_t uplink(fl::ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override;
  void aggregate(std::vector<fl::ClientUpdate>& updates,
                 const sched::RoundMeta& meta) override;

  /// Wall time at which the k-th Host::aggregate returned (k = 0, 1, ...).
  const std::vector<Clock::time_point>& aggregate_returns() const {
    return aggregate_returns_;
  }
  /// Server round each aggregate call produced, parallel to
  /// aggregate_returns().
  const std::vector<std::size_t>& aggregate_rounds() const {
    return aggregate_rounds_;
  }
  /// Local training samples over every update train() returned.
  std::size_t samples_trained() const { return samples_; }

  /// Host span open on the scheduler thread (-1 = none): the parent the
  /// algorithm decorator gives its spans.
  std::int64_t open_span() const {
    return open_span_.load(std::memory_order_acquire);
  }
  /// Round the scheduler is working on (aggregations returned + 1).
  std::size_t current_round() const {
    return round_.load(std::memory_order_acquire);
  }
  SpanLog* log() const { return log_; }

 private:
  /// Opens a span of `kind` when traced.
  void begin(SpanKind kind);
  /// Closes the span begin() opened.
  void end();

  sched::Host& inner_;
  SpanLog* log_;
  std::vector<Clock::time_point> aggregate_returns_;
  std::vector<std::size_t> aggregate_rounds_;
  std::size_t samples_ = 0;
  /// The scheduler thread's host calls never nest, so one open span at a
  /// time; read by pool threads through open_span().
  std::atomic<std::int64_t> open_span_{-1};
  std::atomic<std::size_t> round_{1};
};

/// Forwards every FederatedAlgorithm call to `inner`; with a bound
/// TimingHost whose log is set, train_client and aggregate append spans.
class TimingAlgorithm final : public fl::FederatedAlgorithm {
 public:
  explicit TimingAlgorithm(fl::AlgorithmPtr inner)
      : inner_(std::move(inner)) {}

  /// Binds the host whose open span parents this algorithm's spans
  /// (nullptr = forward only).
  void bind(const TimingHost* host) { host_ = host; }

  std::string name() const override { return inner_->name(); }
  void initialize(std::size_t num_clients, std::size_t param_dim) override {
    inner_->initialize(num_clients, param_dim);
  }
  double pre_round(std::vector<fl::ClientContext>& ctx) override {
    return inner_->pre_round(ctx);
  }
  fl::ClientUpdate train_client(
      fl::ClientContext& ctx) override;
  void aggregate(std::vector<float>& global,
                 const std::vector<fl::ClientUpdate>& updates,
                 std::size_t round) override;
  fedtrip::optim::OptKind optimizer_kind() const override {
    return inner_->optimizer_kind();
  }
  std::size_t extra_downlink_floats(std::size_t dim) const override {
    return inner_->extra_downlink_floats(dim);
  }
  std::size_t extra_uplink_floats(std::size_t dim) const override {
    return inner_->extra_uplink_floats(dim);
  }
  bool uses_history() const override { return inner_->uses_history(); }
  bool remote_trainable() const override {
    return inner_->remote_trainable();
  }

 private:
  void record(SpanKind kind, Clock::time_point start, std::size_t round);

  fl::AlgorithmPtr inner_;
  const TimingHost* host_ = nullptr;
};

/// Per-layer totals of one traced run.
struct LayerTotals {
  double sum_s[kNumSpanKinds] = {};
  std::size_t calls[kNumSpanKinds] = {};
  /// host.train minus the union of its train_client children: time the
  /// scheduler waited on training with no client training on any thread
  /// counts once, however many threads were idle.
  double train_uncovered_s = 0.0;
};

/// One round of the ledger: wall time between consecutive aggregate
/// returns, split into the host.* spans that fell in it, and what is left.
struct LedgerRow {
  std::size_t round = 0;
  double wall_s = 0.0;
  double host_s[kNumHostKinds] = {};  // in SpanKind order
  double unattributed_s = 0.0;
};

/// Sums spans per layer and splits the run into per-round ledger rows.
/// `round_start` is the run loop's start, `returns` the aggregate return
/// times (both as seconds since the log's origin).
LayerTotals layer_totals(const std::vector<Span>& spans);
std::vector<LedgerRow> ledger_rows(const std::vector<Span>& spans,
                                   double round_start,
                                   const std::vector<double>& returns);

}  // namespace perfbench
