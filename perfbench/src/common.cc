#include "common.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "data/metrics.h"
#include "quant/kmeans.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace simd = resinfer::simd;

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--seed") {
      out->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value, &end);
      if (!(out->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      out->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--dir") {
      out->dir = value;
      continue;
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return (argc % 2) == 0;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"qps", "1/s"},
      {"latency_p50_us", "us"},
      {"latency_p50_us.hi", "us"},
      {"recall_at_10", "ratio"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"success_rate", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"index.search_us", "us"},
      {"index.search_p99_us", "us"},
      {"index.self_us", "us"},
      {"index.candidates_per_query", "count"},
      {"index.expansions_per_query", "count"},
      {"index.build_s", "s"},
      {"index.attach_codes_s", "s"},
      {"core.begin_query_us", "us"},
      {"core.estimate_us", "us"},
      {"core.exact_distance_us", "us"},
      {"core.other_us", "us"},
      {"core.estimate_calls_per_query", "count"},
      {"core.candidates_per_s", "1/s"},
      {"core.pruned_rate", "ratio"},
      {"core.exact_per_query", "count"},
      {"core.scan_rate", "ratio"},
      {"core.corrector_train_s", "s"},
      {"linalg.rotate_us", "us"},
      {"linalg.pca_s", "s"},
      {"quant.rank_us", "us"},
      {"quant.train_s", "s"},
      {"simd.fastscan_codes_per_s", "1/s"},
      {"simd.l2sqr_batch4_gather_rows_per_s", "1/s"},
      {"simd.ip_batch4_rows_per_s", "1/s"},
      {"serve.max_qps", "1/s"},
      {"serve.p99_us", "us"},
      {"serve.p99_us.hi", "us"},
      {"serve.submit_us", "us"},
      {"serve.scan_us", "us"},
      {"serve.wait_us", "us"},
      {"serve.occupancy", "count"},
      {"serve.utilization", "ratio"},
      {"serve.flush_full", "ratio"},
      {"serve.flush_linger", "ratio"},
      {"persist.load_ivf_ms", "ms"},
      {"persist.load_base_ms", "ms"},
      {"persist.load_artifacts_ms", "ms"},
      {"persist.save_ms", "ms"},
      {"storage.rss_after_load_mib", "MiB"},
      {"storage.base_resident_mib", "MiB"},
      {"bench.trace_overhead", "ratio"},
      {"bench.gen_late_p99_us", "us"},
      {"bench.stamp_gap_p99_us", "us"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value) {
  for (auto& entry : values_) {
    if (entry.first == name) {
      entry.second = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1);
  if (!ok) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

int Report::Print() const {
  const auto& specs = trace_ ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  const double success =
      1.0 - static_cast<double>(failed_) / std::max<int64_t>(attempted_, 1);
  bool first = true;
  for (const MetricSpec& spec : specs) {
    double value = std::strcmp(spec.name, "success_rate") == 0 ? success : 0.0;
    for (const auto& entry : values_) {
      if (entry.first == spec.name) value = entry.second;
    }
    if (!std::isfinite(value)) value = 0.0;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value, spec.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

uint64_t MixChecksum(uint64_t h, uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xD6E8FEB86659FD93ull;
}

uint64_t AnswerChecksum(const std::vector<Neighbor>& answer) {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (std::size_t rank = 0; rank < answer.size(); ++rank) {
    uint32_t bits = 0;
    std::memcpy(&bits, &answer[rank].distance, sizeof(bits));
    h = MixChecksum(h, rank);
    h = MixChecksum(h, static_cast<uint64_t>(answer[rank].id));
    h = MixChecksum(h, bits);
  }
  return h;
}

namespace {

// `count` distinct values of [0, n) in a seeded random order (a partial
// Fisher-Yates shuffle).
std::vector<int64_t> SeededSample(int64_t n, int64_t count, uint64_t seed) {
  std::vector<int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  resinfer::Rng rng(seed);
  for (int64_t i = 0; i < count; ++i) {
    const int64_t j = i + static_cast<int64_t>(
                              rng.UniformInt(static_cast<uint64_t>(n - i)));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  order.resize(static_cast<std::size_t>(count));
  return order;
}

}  // namespace

resinfer::data::Dataset MakeProxy(resinfer::data::SyntheticSpec spec,
                                  int64_t base, int64_t queries,
                                  int64_t train, uint64_t seed) {
  constexpr int64_t kPoolFactor = 10;
  spec.num_base = base;
  spec.num_queries = queries * kPoolFactor;
  spec.num_train_queries = train;
  resinfer::data::Dataset ds = resinfer::data::GenerateSynthetic(spec);
  const std::vector<int64_t> picks =
      SeededSample(spec.num_queries, queries, seed);
  resinfer::linalg::Matrix picked(queries, ds.dim());
  for (int64_t i = 0; i < queries; ++i) {
    std::memcpy(picked.Row(i), ds.queries.Row(picks[static_cast<std::size_t>(i)]),
                static_cast<std::size_t>(ds.dim()) * sizeof(float));
  }
  ds.queries = std::move(picked);
  return ds;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::ceil(p * values.size())) -
          (p > 0.0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

double StatusMib(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::string clean;
        for (char c : model) {
          if (c != '"' && c != '\\') clean += c;
        }
        return clean;
      }
    }
  }
  return "unknown";
}

}  // namespace

double PeakRssMib() { return StatusMib("VmHWM:"); }
double CurrentRssMib() { return StatusMib("VmRSS:"); }

void PrintFingerprint(const Args& args, const std::string& workload,
                      int worker_threads,
                      const std::vector<uint64_t>& answer_checksums) {
  uint64_t answer_checksum = 0;
  for (uint64_t c : answer_checksums) {
    answer_checksum = MixChecksum(answer_checksum, c);
  }
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"simd\": \"%s\", \"nproc\": %u, "
      "\"cpu\": \"%s\", \"worker_threads\": %d, \"build_type\": \"%s\", "
      "\"answer_checksum\": \"%016llx\"}}\n",
      workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      simd::SimdLevelName(simd::ActiveLevel()),
      std::thread::hardware_concurrency(), CpuModel().c_str(), worker_threads,
      PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(answer_checksum));
}

IdlePollers::IdlePollers() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

IdlePollers::~IdlePollers() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

// --- closed-loop client ---------------------------------------------------

namespace {

// Pins the calling thread to each CPU of its affinity mask in turn;
// restores the mask on destruction.
class CpuRotation {
 public:
  CpuRotation() {
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

}  // namespace

double ReferencePass(const SearchFn& search, int64_t num_queries,
                     const std::vector<std::vector<int64_t>>& truth, int k,
                     std::vector<uint64_t>* checksums) {
  checksums->assign(static_cast<std::size_t>(num_queries), 0);
  double recall = 0.0;
  for (int64_t q = 0; q < num_queries; ++q) {
    const std::vector<Neighbor> answer = search(q);
    (*checksums)[static_cast<std::size_t>(q)] = AnswerChecksum(answer);
    std::vector<int64_t> ids;
    for (const Neighbor& nb : answer) ids.push_back(nb.id);
    recall += resinfer::data::RecallAtK(ids, truth[static_cast<std::size_t>(q)],
                                        k);
  }
  return num_queries > 0 ? recall / num_queries : 0.0;
}

ClosedLoopPhase RunClosedLoop(const SearchFn& search, int64_t num_queries,
                              const std::vector<uint64_t>& reference,
                              double seconds, TracingComputer* tracer) {
  ClosedLoopPhase phase;
  phase.latency_us.reserve(1 << 16);
  if (tracer != nullptr) tracer->TakeTotals();  // drop setup-time spans
  CpuRotation rotation;
  const int64_t slice = static_cast<int64_t>(kCpuSliceSeconds * 1e9);
  const int64_t begin = NowNanos();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  int64_t now = begin;
  int64_t next_move = begin;
  for (int64_t i = 0; now < deadline; ++i) {
    if (now >= next_move) {
      rotation.Next();
      next_move = now + slice;
    }
    const int64_t q = i % num_queries;
    const int64_t start = NowNanos();
    const std::vector<Neighbor> answer = search(q);
    now = NowNanos();
    phase.latency_us.push_back((now - start) * 1e-3);
    if (AnswerChecksum(answer) != reference[static_cast<std::size_t>(q)]) {
      ++phase.mismatches;
    }
    if (tracer != nullptr) {
      const CallTotals totals = tracer->TakeTotals();
      if (totals.first_start < start || totals.last_end > now) {
        ++phase.nesting_errors;
      }
      phase.search_nanos += now - start;
      phase.core += totals;
    }
    ++phase.queries;
  }
  phase.seconds = (now - begin) * 1e-9;
  return phase;
}

ClosedLoopPhase MeasureClosedLoop(const Args& args, const SearchFn& search,
                                  int64_t num_queries,
                                  const std::vector<uint64_t>& reference,
                                  TracingComputer* computer, int64_t dim,
                                  Report* report) {
  if (!args.trace) {
    const ClosedLoopPhase phase =
        RunClosedLoop(search, num_queries, reference, args.seconds, nullptr);
    report->Count(phase.queries, phase.mismatches);
    const double p50 = Percentile(phase.latency_us, 0.50);
    // One client keeps exactly one query outstanding, so its only load
    // point is both the low and the high one.
    report->Set("qps", phase.qps());
    report->Set("latency_p50_us", p50);
    report->Set("latency_p50_us.hi", p50);
    return phase;
  }

  const ClosedLoopPhase plain = RunClosedLoop(search, num_queries, reference,
                                              0.3 * args.seconds, nullptr);
  computer->set_enabled(true);
  const resinfer::index::ComputerStats before = computer->stats();
  const ClosedLoopPhase traced = RunClosedLoop(
      search, num_queries, reference, 0.7 * args.seconds, computer);
  computer->set_enabled(false);
  resinfer::index::ComputerStats delta = computer->stats();
  delta -= before;
  report->Count(plain.queries + traced.queries,
                plain.mismatches + traced.mismatches);
  report->Check(traced.nesting_errors == 0,
                "core spans nest inside their search span");

  const double n = std::max<int64_t>(traced.queries, 1);
  const auto us = [&](CallKind kind) {
    return traced.core.nanos[static_cast<int>(kind)] * 1e-3 / n;
  };
  const double search_us = traced.search_nanos * 1e-3 / n;
  report->Set("index.search_us", search_us);
  report->Set("index.search_p99_us", Percentile(plain.latency_us, 0.99));
  report->Set("index.self_us",
              search_us - traced.core.total_nanos() * 1e-3 / n);
  report->Set("index.expansions_per_query",
              traced.core.calls[static_cast<int>(CallKind::kAnchor)] / n);
  report->Set("core.begin_query_us", us(CallKind::kBeginQuery));
  report->Set("core.estimate_us", us(CallKind::kEstimate));
  report->Set("core.exact_distance_us", us(CallKind::kExact));
  report->Set("core.other_us", us(CallKind::kAnchor) + us(CallKind::kOther));
  report->Set("core.estimate_calls_per_query",
              traced.core.calls[static_cast<int>(CallKind::kEstimate)] / n);
  ReportCounters(delta, traced.queries,
                 traced.core.nanos[static_cast<int>(CallKind::kEstimate)], dim,
                 report);
  report->Set("bench.trace_overhead",
              plain.qps() > 0.0 ? traced.qps() / plain.qps() : 0.0);
  return traced;
}

void ReportCounters(const resinfer::index::ComputerStats& delta,
                    int64_t queries, int64_t estimate_nanos, int64_t dim,
                    Report* report) {
  const double n = std::max<int64_t>(queries, 1);
  report->Set("index.candidates_per_query", delta.candidates / n);
  report->Set("core.candidates_per_s",
              estimate_nanos > 0 ? delta.candidates / (estimate_nanos * 1e-9)
                                 : 0.0);
  report->Set("core.pruned_rate", delta.PrunedRate());
  report->Set("core.exact_per_query", delta.exact_computations / n);
  report->Set("core.scan_rate", delta.ScanRate(dim));
}

double RankMicros(const resinfer::linalg::Matrix& centroids,
                  const resinfer::linalg::Matrix& queries, int nprobe) {
  volatile int32_t sink = 0;
  const double seconds = MedianSeconds(3, [&] {
    for (int64_t q = 0; q < queries.rows(); ++q) {
      sink = sink + resinfer::quant::NearestCentroids(centroids, queries.Row(q),
                                                      nprobe)[0];
    }
  });
  return seconds * 1e6 / std::max<int64_t>(queries.rows(), 1);
}

// --- SIMD kernel probes ---------------------------------------------------

namespace {

// Repeats `pass` (which processes `items` items) until `seconds` elapse.
template <typename Pass>
double ItemsPerSecond(int64_t items, double seconds, Pass pass) {
  const int64_t begin = NowNanos();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  int64_t done = 0;
  int64_t now = begin;
  while (now < deadline || done == 0) {
    pass();
    done += items;
    now = NowNanos();
  }
  return done / ((now - begin) * 1e-9);
}

template <typename Kernel>
double ProbeBatch4(const resinfer::linalg::Matrix& rows, const float* query,
                   uint64_t seed, double seconds, Kernel kernel) {
  constexpr int64_t kMaxRows = 1 << 16;
  const std::vector<int64_t> order = SeededSample(
      rows.rows(), std::min(rows.rows(), kMaxRows) & ~int64_t{3}, seed);
  const std::size_t d = static_cast<std::size_t>(rows.cols());
  volatile float sink = 0.0f;
  return ItemsPerSecond(static_cast<int64_t>(order.size()), seconds, [&] {
    float out[4];
    float acc = 0.0f;
    for (std::size_t i = 0; i < order.size(); i += 4) {
      const float* ptrs[4] = {rows.Row(order[i]), rows.Row(order[i + 1]),
                              rows.Row(order[i + 2]), rows.Row(order[i + 3])};
      kernel(query, ptrs, d, out);
      acc += out[0] + out[3];
    }
    sink = sink + acc;
  });
}

}  // namespace

double ProbeFastScan(const resinfer::quant::CodeStore& codes, int m,
                     double seconds) {
  constexpr int kBlock = 32;
  if (codes.empty() || m <= 0) return 0.0;
  // Any LUT bytes exercise the kernel identically; a fixed pattern keeps
  // the probe independent of the workload's query.
  std::vector<uint8_t> lut(static_cast<std::size_t>(m) * 16);
  for (std::size_t i = 0; i < lut.size(); ++i) {
    lut[i] = static_cast<uint8_t>((i * 37) & 0x7F);
  }
  const int64_t n = codes.size() - codes.size() % kBlock;
  volatile uint32_t sink = 0;
  return ItemsPerSecond(n, seconds, [&] {
    const uint8_t* ptrs[kBlock];
    uint16_t out[kBlock];
    uint32_t acc = 0;
    for (int64_t i = 0; i < n; i += kBlock) {
      for (int j = 0; j < kBlock; ++j) ptrs[j] = codes.record(i + j);
      simd::PqAdcFastScan(lut.data(), m, ptrs, kBlock, out);
      acc += out[0];
    }
    sink = sink + acc;
  });
}

double ProbeL2SqrBatch4(const resinfer::linalg::Matrix& rows,
                        const float* query, uint64_t seed, double seconds) {
  return ProbeBatch4(rows, query, seed, seconds,
                     [](const float* q, const float* const* ptrs,
                        std::size_t d, float* out) {
                       simd::L2SqrBatch4(q, ptrs, d, out);
                     });
}

double ProbeInnerProductBatch4(const resinfer::linalg::Matrix& rows,
                               const float* query, uint64_t seed,
                               double seconds) {
  return ProbeBatch4(rows, query, seed, seconds,
                     [](const float* q, const float* const* ptrs,
                        std::size_t d, float* out) {
                       simd::InnerProductBatch4(q, ptrs, d, out);
                     });
}

double MedianSeconds(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const int64_t start = NowNanos();
    fn();
    times.push_back((NowNanos() - start) * 1e-9);
  }
  return Median(times);
}

}  // namespace perfbench
