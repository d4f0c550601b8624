// Shared plumbing for the perfbench workloads: flags, the result report,
// answer checksums, percentiles, process memory, the host fingerprint,
// the closed-loop client, and the SIMD kernel probes.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "linalg/matrix.h"
#include "quant/code_store.h"
#include "tracer.h"

namespace perfbench {

using resinfer::data::Neighbor;

struct Args {
  std::string command;  // a workload name or "prepare-serve-open"
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  // serve-open's prepared files
};

// Parses `<command> --seed N --seconds S --trace 0|1 [--dir D]`.
bool ParseArgs(int argc, char** argv, Args* out);

// Every metric a workload can print, in output order, with its unit. The
// end-to-end set is printed by untraced runs, the per-layer set by traced
// runs; a metric a workload has no layer for reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Collects metrics and correctness outcomes, then prints the final JSON
// line. Every failed check or wrong answer counts in `failed`.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void Set(const std::string& name, double value);
  // Counts `n` attempted operations of which `failed` went wrong.
  void Count(int64_t attempted, int64_t failed);
  // One named gate: counts one attempt, and one failure (logged to
  // stderr) when `ok` is false.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }

  // Prints {"correct", "attempted", "failed", "metrics"} for the run's
  // metric set (end-to-end untraced, per-layer traced); success_rate is
  // 1 - failed / attempted. Returns the exit code: 0 only when every check
  // passed.
  int Print() const;

 private:
  bool trace_;
  std::vector<std::pair<std::string, double>> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Order-sensitive mix of (rank, id, distance bits) over one answer: equal
// iff two answers are bit-identical.
uint64_t AnswerChecksum(const std::vector<Neighbor>& answer);
uint64_t MixChecksum(uint64_t h, uint64_t value);

// The named proxy dataset exactly as data/synthetic.h defines it (its own
// fixed generator seed, so the mixture's structure is the same in every
// run) with `base` rows and `train` training queries. `seed` draws the
// run's `queries` queries from a pool ten times that size. A generator
// seed of its own would redraw the proxy's 64 cluster centers, which moved
// ivf-pq4 QPS by 1.8x between seeds: the benchmark would measure the
// seed, not the program.
resinfer::data::Dataset MakeProxy(resinfer::data::SyntheticSpec spec,
                                  int64_t base, int64_t queries,
                                  int64_t train, uint64_t seed);

// p in [0, 1], nearest-rank on a copy.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// VmHWM / VmRSS of this process in MiB.
double PeakRssMib();
double CurrentRssMib();

// One JSON line on stdout describing host and run: SIMD level, nproc, CPU
// model, seed, thread counts, build type, and one checksum over every
// query's answer checksum.
void PrintFingerprint(const Args& args, const std::string& workload,
                      int worker_threads,
                      const std::vector<uint64_t>& answer_checksums);

// Keeps every CPU busy for its lifetime with one SCHED_IDLE spinner per
// CPU. A spinner runs only while nothing else is runnable and yields to
// any thread that wakes. Why: on a virtual machine whose idle vCPUs halt,
// a thread sleeping on an otherwise idle vCPU wakes up to ~10 ms late
// (p99 ~4 ms for a 222 us sleep on a 4-vCPU KVM guest), which would make
// open-loop latencies measure the hypervisor. Spinners that cannot drop
// to SCHED_IDLE exit at once rather than compete.
class IdlePollers {
 public:
  IdlePollers();
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- closed-loop client ---------------------------------------------------

// Per-phase totals of a closed-loop run.
struct ClosedLoopPhase {
  int64_t queries = 0;
  double seconds = 0.0;
  std::vector<double> latency_us;  // one per query
  int64_t mismatches = 0;          // answers differing from the reference
  int64_t nesting_errors = 0;      // child spans outside their search span
  int64_t search_nanos = 0;        // traced: sum of search spans
  CallTotals core;                 // traced: the core child spans
  double qps() const { return seconds > 0.0 ? queries / seconds : 0.0; }
};

// Runs `search(q)` for q = 0, 1, ... (mod num_queries) until `seconds`
// have elapsed: one client, next call when the previous returns. The
// client moves to the next CPU every kCpuSliceSeconds, so a run spends
// equal time on every CPU: on a shared host the vCPUs differ in speed by
// up to 1.5x from minute to minute (ivf-pq4 pinned per vCPU: 7.0k-11.2k
// QPS), and a client left where the scheduler put it measured one vCPU's
// luck (QPS spread 0.27 over ten runs). Each
// answer is compared against reference[q] (see AnswerChecksum). When
// `tracer` is non-null and enabled, every call is a search span and the
// tracer's totals are taken as its core children.
inline constexpr double kCpuSliceSeconds = 0.25;
using SearchFn = std::function<std::vector<Neighbor>(int64_t q)>;
ClosedLoopPhase RunClosedLoop(const SearchFn& search, int64_t num_queries,
                              const std::vector<uint64_t>& reference,
                              double seconds, TracingComputer* tracer);

// Answers every query once (the reference pass, which also warms caches):
// fills per-query checksums and returns mean recall@k.
double ReferencePass(const SearchFn& search, int64_t num_queries,
                     const std::vector<std::vector<int64_t>>& truth, int k,
                     std::vector<uint64_t>* checksums);

// The measured phase of a closed-loop workload. Untraced: one phase of
// args.seconds, setting qps and the latencies. Traced: 30% of the time
// untraced, then 70% with `computer` tracing, setting the index.*, core.*
// span and counter metrics and bench.trace_overhead. Counts every answer
// and the span-nesting check in `report`; returns the last phase.
ClosedLoopPhase MeasureClosedLoop(const Args& args, const SearchFn& search,
                                  int64_t num_queries,
                                  const std::vector<uint64_t>& reference,
                                  TracingComputer* computer, int64_t dim,
                                  Report* report);

// Sets the ComputerStats-derived metrics (candidates, pruning, exact
// rescores, scan rate) for `queries` queries whose estimate spans took
// `estimate_nanos`.
void ReportCounters(const resinfer::index::ComputerStats& delta,
                    int64_t queries, int64_t estimate_nanos, int64_t dim,
                    Report* report);

// Mean microseconds of quant::NearestCentroids per query (median of three
// passes over `queries`).
double RankMicros(const resinfer::linalg::Matrix& centroids,
                  const resinfer::linalg::Matrix& queries, int nprobe);

// --- SIMD kernel probes ---------------------------------------------------
//
// Each runs the public kernel over the workload's own data for about
// `seconds` and returns items per second. Row probes visit rows in a
// seeded random order (the exact-rescore access pattern).

inline constexpr double kProbeSeconds = 0.25;

double ProbeFastScan(const resinfer::quant::CodeStore& codes, int m,
                     double seconds);
double ProbeL2SqrBatch4(const resinfer::linalg::Matrix& rows,
                        const float* query, uint64_t seed, double seconds);
double ProbeInnerProductBatch4(const resinfer::linalg::Matrix& rows,
                               const float* query, uint64_t seed,
                               double seconds);

// Times fn() `reps` times and returns the median seconds; keeps the last
// result's side effects.
double MedianSeconds(int reps, const std::function<void()>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
