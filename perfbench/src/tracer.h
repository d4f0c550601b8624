// Forwarding DistanceComputer that times every call crossing the
// index -> core boundary.
//
// The benchmark measures layers from the outside: it never edits the
// library, so the only place it can see where an index spends its time is
// the plug-in interface the index calls into. TracingComputer owns the
// real computer, overrides every DistanceComputer virtual, and forwards
// each call unchanged — including code_tag() and MakeCodeStore(), so an
// IVF index with attached codes still takes the code-resident path, and
// the group entry points, so grouped scans stay grouped. Answers and
// ComputerStats are therefore bit-identical to the unwrapped computer
// (perfbench_selftest checks this for ddc-pq, ddc-res and ddc-opq).
//
// With tracing disabled every override is a plain forward. Enabled, each
// call becomes a span (start, end, kind) folded on the spot into per-kind
// totals; TakeTotals() hands them to the caller, who brackets one search
// (or one measured phase) with it. Spans that open a query group
// (SetQueryBatch) additionally start a group span, kept in memory until
// the run ends, that covers every call up to the next group.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/distance_computer.h"

namespace perfbench {

int64_t NowNanos();

enum class CallKind : int {
  kBeginQuery = 0,  // BeginQuery, SetQueryBatch, SelectQuery
  kEstimate,        // EstimateWithThreshold and every EstimateBatch* form
  kExact,           // ExactDistance
  kAnchor,          // SetExpansionAnchor
  kOther,           // dim, size, name, code_tag, MakeCodeStore, hints
  kNumKinds,
};

struct CallTotals {
  int64_t nanos[static_cast<int>(CallKind::kNumKinds)] = {};
  int64_t calls[static_cast<int>(CallKind::kNumKinds)] = {};
  // Earliest start and latest end of any span since the last TakeTotals;
  // lets the caller check that every child span nests inside its parent.
  int64_t first_start = INT64_MAX;
  int64_t last_end = INT64_MIN;
  // Scan calls by path: EstimateBatchCodes* (code-resident stream) and
  // EstimateBatch / EstimateBatchGroup (gather by id).
  int64_t code_calls = 0;
  int64_t gather_calls = 0;

  int64_t total_nanos() const;
  CallTotals& operator+=(const CallTotals& other);
};

// One dispatched query group: SetQueryBatch up to the last scan call
// before the next group, and the part of it spent inside core calls.
struct GroupSpan {
  int64_t start = 0;
  int64_t end = 0;
  int64_t core_nanos = 0;
};

class TracingComputer final : public resinfer::index::DistanceComputer {
 public:
  TracingComputer(std::unique_ptr<resinfer::index::DistanceComputer> inner,
                  bool enabled);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  // Returns the totals accumulated since the previous call and resets them.
  CallTotals TakeTotals();
  const std::vector<GroupSpan>& groups() const { return groups_; }

  int64_t dim() const override;
  int64_t size() const override;
  std::string name() const override;
  void BeginQuery(const float* query) override;
  resinfer::index::EstimateResult EstimateWithThreshold(int64_t id,
                                                        float tau) override;
  void EstimateBatch(const int64_t* ids, int count, float tau,
                     resinfer::index::EstimateResult* out) override;
  std::string code_tag() const override;
  resinfer::quant::CodeStore MakeCodeStore() const override;
  void EstimateBatchCodes(const uint8_t* codes, const int64_t* ids, int count,
                          float tau,
                          resinfer::index::EstimateResult* out) override;
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override;
  void SelectQuery(int g) override;
  void EstimateBatchGroup(const int64_t* ids, int count, const int* members,
                          int num_members, const float* taus,
                          resinfer::index::EstimateResult* out) override;
  void EstimateBatchCodesGroup(const uint8_t* codes, const int64_t* ids,
                               int count, const int* members, int num_members,
                               const float* taus,
                               resinfer::index::EstimateResult* out) override;
  bool group_scan_tiles_blocks() const override;
  float ExactDistance(int64_t id) override;
  void SetExpansionAnchor(int64_t node, float distance_to_node) override;
  resinfer::index::ComputerStats& stats() override;
  const resinfer::index::ComputerStats& stats() const override;

 private:
  // Closes a span opened at `start`. Const overrides record too (the
  // totals are bookkeeping, not computer state).
  void Close(CallKind kind, int64_t start) const;

  std::unique_ptr<resinfer::index::DistanceComputer> inner_;
  bool enabled_;
  mutable CallTotals totals_;
  mutable std::vector<GroupSpan> groups_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
