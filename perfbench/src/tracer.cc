#include "tracer.h"

#include <time.h>

#include <algorithm>
#include <utility>

namespace perfbench {

using resinfer::index::ComputerStats;
using resinfer::index::EstimateResult;

int64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t CallTotals::total_nanos() const {
  int64_t sum = 0;
  for (int64_t n : nanos) sum += n;
  return sum;
}

CallTotals& CallTotals::operator+=(const CallTotals& other) {
  for (int k = 0; k < static_cast<int>(CallKind::kNumKinds); ++k) {
    nanos[k] += other.nanos[k];
    calls[k] += other.calls[k];
  }
  first_start = std::min(first_start, other.first_start);
  last_end = std::max(last_end, other.last_end);
  code_calls += other.code_calls;
  gather_calls += other.gather_calls;
  return *this;
}

TracingComputer::TracingComputer(
    std::unique_ptr<resinfer::index::DistanceComputer> inner, bool enabled)
    : inner_(std::move(inner)), enabled_(enabled) {}

CallTotals TracingComputer::TakeTotals() {
  CallTotals out = totals_;
  totals_ = CallTotals();
  return out;
}

void TracingComputer::Close(CallKind kind, int64_t start) const {
  const int64_t end = NowNanos();
  const int k = static_cast<int>(kind);
  totals_.nanos[k] += end - start;
  ++totals_.calls[k];
  totals_.first_start = std::min(totals_.first_start, start);
  totals_.last_end = std::max(totals_.last_end, end);
  // Scan work extends the open group; hints such as code_tag() issued
  // before the next group's SetQueryBatch do not.
  if (!groups_.empty() && kind != CallKind::kOther) {
    groups_.back().end = end;
    groups_.back().core_nanos += end - start;
  }
}

// Each override: forward untouched when disabled; otherwise bracket the
// forward with a span of the given kind.
#define PERFBENCH_TRACED(kind, call)        \
  do {                                      \
    if (!enabled_) {                        \
      call;                                 \
    } else {                                \
      const int64_t span_start = NowNanos(); \
      call;                                 \
      Close(kind, span_start);              \
    }                                       \
  } while (0)

int64_t TracingComputer::dim() const {
  int64_t v = 0;
  PERFBENCH_TRACED(CallKind::kOther, v = inner_->dim());
  return v;
}

int64_t TracingComputer::size() const {
  int64_t v = 0;
  PERFBENCH_TRACED(CallKind::kOther, v = inner_->size());
  return v;
}

std::string TracingComputer::name() const {
  std::string v;
  PERFBENCH_TRACED(CallKind::kOther, v = inner_->name());
  return v;
}

void TracingComputer::BeginQuery(const float* query) {
  PERFBENCH_TRACED(CallKind::kBeginQuery, inner_->BeginQuery(query));
}

EstimateResult TracingComputer::EstimateWithThreshold(int64_t id, float tau) {
  EstimateResult v;
  PERFBENCH_TRACED(CallKind::kEstimate,
                   v = inner_->EstimateWithThreshold(id, tau));
  return v;
}

void TracingComputer::EstimateBatch(const int64_t* ids, int count, float tau,
                                    EstimateResult* out) {
  if (enabled_) ++totals_.gather_calls;
  PERFBENCH_TRACED(CallKind::kEstimate,
                   inner_->EstimateBatch(ids, count, tau, out));
}

std::string TracingComputer::code_tag() const {
  std::string v;
  PERFBENCH_TRACED(CallKind::kOther, v = inner_->code_tag());
  return v;
}

resinfer::quant::CodeStore TracingComputer::MakeCodeStore() const {
  resinfer::quant::CodeStore v;
  PERFBENCH_TRACED(CallKind::kOther, v = inner_->MakeCodeStore());
  return v;
}

void TracingComputer::EstimateBatchCodes(const uint8_t* codes,
                                         const int64_t* ids, int count,
                                         float tau, EstimateResult* out) {
  if (enabled_) ++totals_.code_calls;
  PERFBENCH_TRACED(CallKind::kEstimate,
                   inner_->EstimateBatchCodes(codes, ids, count, tau, out));
}

void TracingComputer::SetQueryBatch(const float* queries, int count,
                                    int64_t stride) {
  if (!enabled_) {
    inner_->SetQueryBatch(queries, count, stride);
    return;
  }
  const int64_t start = NowNanos();
  groups_.push_back(GroupSpan{start, start, 0});
  inner_->SetQueryBatch(queries, count, stride);
  Close(CallKind::kBeginQuery, start);
}

void TracingComputer::SelectQuery(int g) {
  PERFBENCH_TRACED(CallKind::kBeginQuery, inner_->SelectQuery(g));
}

void TracingComputer::EstimateBatchGroup(const int64_t* ids, int count,
                                         const int* members, int num_members,
                                         const float* taus,
                                         EstimateResult* out) {
  if (enabled_) ++totals_.gather_calls;
  PERFBENCH_TRACED(CallKind::kEstimate,
                   inner_->EstimateBatchGroup(ids, count, members, num_members,
                                              taus, out));
}

void TracingComputer::EstimateBatchCodesGroup(
    const uint8_t* codes, const int64_t* ids, int count, const int* members,
    int num_members, const float* taus, EstimateResult* out) {
  if (enabled_) ++totals_.code_calls;
  PERFBENCH_TRACED(CallKind::kEstimate,
                   inner_->EstimateBatchCodesGroup(codes, ids, count, members,
                                                   num_members, taus, out));
}

bool TracingComputer::group_scan_tiles_blocks() const {
  bool v = false;
  PERFBENCH_TRACED(CallKind::kOther, v = inner_->group_scan_tiles_blocks());
  return v;
}

float TracingComputer::ExactDistance(int64_t id) {
  float v = 0.0f;
  PERFBENCH_TRACED(CallKind::kExact, v = inner_->ExactDistance(id));
  return v;
}

void TracingComputer::SetExpansionAnchor(int64_t node,
                                         float distance_to_node) {
  PERFBENCH_TRACED(CallKind::kAnchor,
                   inner_->SetExpansionAnchor(node, distance_to_node));
}

// Counters live in the wrapped computer; stats() is a view, not a call
// into the scoring path, so it is not traced.
ComputerStats& TracingComputer::stats() { return inner_->stats(); }
const ComputerStats& TracingComputer::stats() const { return inner_->stats(); }

#undef PERFBENCH_TRACED

}  // namespace perfbench
