#include "ledger.h"

#include <algorithm>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSelect:
      return "host.select";
    case SpanKind::kBroadcast:
      return "host.broadcast";
    case SpanKind::kTrain:
      return "host.train";
    case SpanKind::kUplink:
      return "host.uplink";
    case SpanKind::kAggregate:
      return "host.aggregate";
    case SpanKind::kTrainClient:
      return "algo.train_client";
    case SpanKind::kAlgoAggregate:
      return "algo.aggregate";
  }
  return "?";
}

void SpanLog::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::int64_t SpanLog::open(SpanKind kind, double start, std::size_t round) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{kind, start, start, -1, round});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index, double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

// ------------------------------------------------------------ TimingHost

void TimingHost::begin(SpanKind kind) {
  if (log_ == nullptr) return;
  const std::int64_t index =
      log_->open(kind, log_->since_origin(Clock::now()), current_round());
  open_span_.store(index, std::memory_order_release);
}

void TimingHost::end() {
  if (log_ == nullptr) return;
  log_->close(open_span(), log_->since_origin(Clock::now()));
  open_span_.store(-1, std::memory_order_release);
}

std::vector<std::size_t> TimingHost::select(std::size_t count,
                                            const std::vector<bool>* busy) {
  begin(SpanKind::kSelect);
  auto selected = inner_.select(count, busy);
  end();
  return selected;
}

std::shared_ptr<const std::vector<float>> TimingHost::broadcast(
    std::uint64_t key, std::size_t copies, bool alias_ok,
    std::size_t* wire_bytes) {
  begin(SpanKind::kBroadcast);
  auto snapshot = inner_.broadcast(key, copies, alias_ok, wire_bytes);
  end();
  return snapshot;
}

std::vector<fl::ClientUpdate> TimingHost::train(
    const std::vector<sched::Dispatch>& batch) {
  begin(SpanKind::kTrain);
  auto updates = inner_.train(batch);
  end();
  for (const auto& u : updates) samples_ += u.num_samples;
  return updates;
}

std::size_t TimingHost::uplink(fl::ClientUpdate& update, std::uint64_t key,
                               const std::vector<float>& sent_from,
                               std::size_t round) {
  begin(SpanKind::kUplink);
  const std::size_t bytes = inner_.uplink(update, key, sent_from, round);
  end();
  return bytes;
}

void TimingHost::aggregate(std::vector<fl::ClientUpdate>& updates,
                           const sched::RoundMeta& meta) {
  begin(SpanKind::kAggregate);
  inner_.aggregate(updates, meta);
  end();
  aggregate_returns_.push_back(Clock::now());
  aggregate_rounds_.push_back(meta.round);
  round_.store(aggregate_returns_.size() + 1, std::memory_order_release);
}

// ------------------------------------------------------- TimingAlgorithm

void TimingAlgorithm::record(SpanKind kind, Clock::time_point start,
                             std::size_t round) {
  SpanLog* log = host_->log();
  log->add(Span{kind, log->since_origin(start),
                log->since_origin(Clock::now()), host_->open_span(), round});
}

fl::ClientUpdate TimingAlgorithm::train_client(fl::ClientContext& ctx) {
  if (host_ == nullptr || host_->log() == nullptr) {
    return inner_->train_client(ctx);
  }
  const std::size_t round = host_->current_round();
  const auto start = Clock::now();
  auto update = inner_->train_client(ctx);
  record(SpanKind::kTrainClient, start, round);
  return update;
}

void TimingAlgorithm::aggregate(std::vector<float>& global,
                                const std::vector<fl::ClientUpdate>& updates,
                                std::size_t round) {
  if (host_ == nullptr || host_->log() == nullptr) {
    inner_->aggregate(global, updates, round);
    return;
  }
  const std::size_t ledger_round = host_->current_round();
  const auto start = Clock::now();
  inner_->aggregate(global, updates, round);
  record(SpanKind::kAlgoAggregate, start, ledger_round);
}

// ---------------------------------------------------------------- ledger

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

LayerTotals layer_totals(const std::vector<Span>& spans) {
  LayerTotals t;
  // Children of each host.train span, for its uncovered (waiting) time.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    t.sum_s[k] += s.end - s.start;
    ++t.calls[k];
    if (s.kind == SpanKind::kTrainClient && s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind != SpanKind::kTrain) continue;
    t.train_uncovered_s += (spans[i].end - spans[i].start) -
                           union_length(std::move(children[i]));
  }
  return t;
}

std::vector<LedgerRow> ledger_rows(const std::vector<Span>& spans,
                                   double round_start,
                                   const std::vector<double>& returns) {
  std::vector<LedgerRow> rows(returns.size());
  double start = round_start;
  for (std::size_t r = 0; r < returns.size(); ++r) {
    rows[r].round = r + 1;
    rows[r].wall_s = returns[r] - start;
    start = returns[r];
  }
  for (const Span& s : spans) {
    const auto k = static_cast<std::size_t>(s.kind);
    if (k >= kNumHostKinds || s.round == 0 || s.round > rows.size()) continue;
    rows[s.round - 1].host_s[k] += s.end - s.start;
  }
  for (LedgerRow& row : rows) {
    double attributed = 0.0;
    for (double h : row.host_s) attributed += h;
    row.unattributed_s = row.wall_s - attributed;
  }
  return rows;
}

}  // namespace perfbench
