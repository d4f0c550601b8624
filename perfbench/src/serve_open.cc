// serve-open: open-loop traffic into serve::IvfServer (2 executor
// workers, linger 200 us, nprobe=64, k=10) over sift-proxy n=100,000 with
// a DdcOpqComputer at 32 x 4 bits, loaded zero-copy from files on the
// mmap backend.
//
// Why: the only workload that uses admission, the executor, the grouped
// SearchBatchRange / EstimateBatchCodesGroup path, persist and storage.
// At nprobe=64 the scan dominates, so a rescore change should barely move
// it while a fast-scan or grouping change should.
//
// Two processes: PrepareServeOpen trains and saves the index, untimed;
// RunServeOpen loads it and measures, so its VmHWM is the serving
// process's alone.
//
// Open-loop honesty: one sender thread submits on a fixed schedule and
// every latency is timed from the request's scheduled send time, so a
// stall of the sender or the host is charged to every request it delays.
// One stamper thread records completions without spinning: it blocks on
// the oldest outstanding request for at most kStampWaitMicros, then
// sweeps every outstanding request. A completion is stamped at the first
// sweep after it, so its stamping error is at most the gap between two
// sweeps, reported as bench.stamp_gap_p99_us.
//
// The process runs under IdlePollers (common.h), so a sleeping sender,
// stamper or worker is not woken late by a halted vCPU; what lateness is
// left is reported as bench.gen_late_p99_us.
//
// Host stalls of 1-8 ms still arrive several times a second, and at these
// rates they, not the server, decide the p99: two runs of one build read
// 1.9 and 3.5 ms at 1,500/s. So the tails and max_qps (which a p99 limit
// decides) are per-layer numbers of the traced run; the end-to-end
// latencies are the medians.
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "common.h"
#include "persist/persist.h"
#include "resinfer/resinfer.h"
#include "storage/storage.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = resinfer::core;
namespace data = resinfer::data;
namespace index = resinfer::index;
namespace persist = resinfer::persist;
namespace serve = resinfer::serve;
namespace storage = resinfer::storage;
using resinfer::util::Status;

constexpr int64_t kBase = 100000;
constexpr int64_t kQueries = 2000;
constexpr int64_t kTrainQueries = 1000;
constexpr int kLists = 316;
constexpr int kSubspaces = 32;
constexpr int kNprobe = 64;
constexpr int kK = 10;
constexpr int kWorkers = 2;
constexpr int64_t kLingerMicros = 200;
constexpr int kLoadReps = 5;
constexpr double kRecallFloor = 0.95;
constexpr double kLowRate = 1500.0;
constexpr double kHighRate = 4500.0;
constexpr double kP99LimitUs = 10000.0;
constexpr int kSearchSteps = 5;
constexpr int64_t kStampWaitMicros = 100;

std::string FilePath(const Args& args, const char* name) {
  return args.dir + "/" + name;
}

bool Ok(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
  }
  return status.ok();
}

// --- open-loop engine -----------------------------------------------------

struct OpenLoopPhase {
  int64_t sent = 0;
  std::vector<double> latency_us;  // scheduled send -> completion stamp
  std::vector<double> late_us;     // sender lateness against the schedule
  std::vector<double> sweep_gap_us;
  std::vector<double> submit_us;   // Submit() call durations
  int64_t mismatches = 0;
  int64_t max_backlog = 0;  // outstanding requests seen by the sender
  bool aborted = false;     // sending stopped: the backlog ran away
  double seconds = 0.0;     // first scheduled send to last completion

  double P99() const { return Percentile(latency_us, 0.99); }
  // p99 within the limit and the backlog never ran away. A backlog that
  // grows for the whole phase shows as a p99 over the limit.
  bool Sustained() const { return !aborted && P99() <= kP99LimitUs; }
};

void SleepUntil(int64_t deadline_nanos) {
  timespec ts;
  ts.tv_sec = deadline_nanos / 1000000000;
  ts.tv_nsec = deadline_nanos % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// Offers `rate` requests per second for `seconds`, cycling through the
// distinct queries from *cursor on. Returns once every sent request has
// completed.
OpenLoopPhase RunOpenLoop(serve::IvfServer& server,
                          const resinfer::linalg::Matrix& queries,
                          const std::vector<uint64_t>& reference, double rate,
                          double seconds, bool abort_on_backlog,
                          int64_t* cursor) {
  struct Slot {
    std::future<std::vector<Neighbor>> answer;
    int64_t scheduled = 0;
    int64_t query = 0;
  };
  OpenLoopPhase phase;
  const int64_t total = std::max<int64_t>(1, static_cast<int64_t>(rate * seconds));
  const int64_t abort_backlog = static_cast<int64_t>(rate * 0.05) + 64;
  std::vector<Slot> slots(static_cast<std::size_t>(total));
  phase.latency_us.assign(static_cast<std::size_t>(total), 0.0);
  phase.late_us.reserve(static_cast<std::size_t>(total));
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> completed{0};
  std::atomic<bool> sender_done{false};
  int64_t last_stamp = 0;

  std::thread stamper([&] {
    std::vector<int64_t> pending;
    int64_t seen = 0;
    int64_t last_sweep = NowNanos();
    while (true) {
      const int64_t now_published = published.load(std::memory_order_acquire);
      for (; seen < now_published; ++seen) pending.push_back(seen);
      if (pending.empty()) {
        if (sender_done.load(std::memory_order_acquire) &&
            seen == published.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(kStampWaitMicros));
      } else {
        slots[static_cast<std::size_t>(pending.front())].answer.wait_for(
            std::chrono::microseconds(kStampWaitMicros));
      }
      const int64_t now = NowNanos();
      phase.sweep_gap_us.push_back((now - last_sweep) * 1e-3);
      last_sweep = now;
      std::size_t keep = 0;
      for (int64_t i : pending) {
        Slot& slot = slots[static_cast<std::size_t>(i)];
        if (slot.answer.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          pending[keep++] = i;
          continue;
        }
        const std::vector<Neighbor> answer = slot.answer.get();
        phase.latency_us[static_cast<std::size_t>(i)] =
            (now - slot.scheduled) * 1e-3;
        if (AnswerChecksum(answer) !=
            reference[static_cast<std::size_t>(slot.query)]) {
          ++phase.mismatches;
        }
        last_stamp = now;
        completed.fetch_add(1, std::memory_order_release);
      }
      pending.resize(keep);
    }
  });

  const int64_t period = static_cast<int64_t>(1e9 / rate);
  const int64_t start = NowNanos() + 1000000;
  int64_t sent = 0;
  for (; sent < total; ++sent) {
    const int64_t scheduled = start + sent * period;
    if (NowNanos() < scheduled) SleepUntil(scheduled);
    const int64_t begin = NowNanos();
    phase.late_us.push_back((begin - scheduled) * 1e-3);
    Slot& slot = slots[static_cast<std::size_t>(sent)];
    slot.scheduled = scheduled;
    slot.query = (*cursor)++ % queries.rows();
    slot.answer = server.Submit(queries.Row(slot.query), kK, kNprobe);
    phase.submit_us.push_back((NowNanos() - begin) * 1e-3);
    published.store(sent + 1, std::memory_order_release);
    const int64_t backlog =
        sent + 1 - completed.load(std::memory_order_acquire);
    phase.max_backlog = std::max(phase.max_backlog, backlog);
    if (abort_on_backlog && backlog > abort_backlog) {
      phase.aborted = true;
      ++sent;
      break;
    }
  }
  sender_done.store(true, std::memory_order_release);
  stamper.join();
  phase.sent = sent;
  phase.latency_us.resize(static_cast<std::size_t>(sent));
  phase.seconds = (last_stamp - start) * 1e-9;
  std::fprintf(stderr,
               "perfbench: serve-open %.0f/s: sent %lld, p50 %.0f us, p99 %.0f "
               "us, sender late p99 %.0f us, stamp gap p99 %.0f us, max "
               "backlog %lld%s\n",
               rate, static_cast<long long>(phase.sent),
               Percentile(phase.latency_us, 0.5), phase.P99(),
               Percentile(phase.late_us, 0.99),
               Percentile(phase.sweep_gap_us, 0.99),
               static_cast<long long>(phase.max_backlog),
               phase.aborted ? " (aborted)" : "");
  return phase;
}

// --- prepared files ---------------------------------------------------------

struct PrepareTimes {
  double build_s = 0.0;
  double attach_s = 0.0;
  double opq_s = 0.0;
  double corrector_s = 0.0;
  double save_ms = 0.0;
};

struct Loaded {
  persist::MappedMatrix base;
  index::IvfIndex ivf;
  core::DdcOpqArtifacts artifacts;
  double base_ms = 0.0;
  double ivf_ms = 0.0;
  double artifacts_ms = 0.0;
  double total_s() const { return (base_ms + ivf_ms + artifacts_ms) * 1e-3; }
};

std::unique_ptr<Loaded> Load(const Args& args) {
  auto out = std::make_unique<Loaded>();
  int64_t t = NowNanos();
  const auto lap_ms = [&t] {
    const int64_t now = NowNanos();
    const double ms = (now - t) * 1e-6;
    t = now;
    return ms;
  };
  if (!Ok(persist::LoadMatrixMapped(FilePath(args, "base.bin"), &out->base,
                                    storage::StorageBackend::kMmap),
          "load base")) {
    return nullptr;
  }
  out->base_ms = lap_ms();
  persist::IvfLoadOptions options;
  options.backend = storage::StorageBackend::kMmap;
  if (!Ok(persist::LoadIvf(FilePath(args, "ivf.bin"), &out->ivf, options),
          "load ivf")) {
    return nullptr;
  }
  out->ivf_ms = lap_ms();
  if (!Ok(persist::LoadDdcOpqArtifacts(FilePath(args, "artifacts.bin"),
                                       &out->artifacts),
          "load artifacts")) {
    return nullptr;
  }
  out->artifacts_ms = lap_ms();
  return out;
}

// Resident MiB of [data, data + bytes) by mincore.
double ResidentMib(const uint8_t* data, int64_t bytes) {
  if (data == nullptr || bytes <= 0) return 0.0;
  const int64_t page = sysconf(_SC_PAGESIZE);
  const uintptr_t lo = reinterpret_cast<uintptr_t>(data) & ~(page - 1);
  const uintptr_t hi = reinterpret_cast<uintptr_t>(data) + bytes;
  const int64_t pages = static_cast<int64_t>((hi - lo + page - 1) / page);
  std::vector<unsigned char> vec(static_cast<std::size_t>(pages));
  if (mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()) != 0) {
    return 0.0;
  }
  int64_t resident = 0;
  for (unsigned char v : vec) resident += v & 1;
  return resident * static_cast<double>(page) / (1 << 20);
}

double BusySeconds(const serve::Executor::Stats& stats) {
  double sum = 0.0;
  for (double s : stats.busy_seconds) sum += s;
  return sum;
}

}  // namespace

int PrepareServeOpen(const Args& args) {
  const data::Dataset ds = MakeProxy(data::SiftProxySpec(), kBase, kQueries,
                                     kTrainQueries, args.seed);
  const auto truth = data::BruteForceKnn(ds.base, ds.queries, kK);

  PrepareTimes times;
  core::DdcOpqOptions options;
  options.opq.pq.num_subspaces = kSubspaces;
  options.opq.pq.nbits = 4;
  options.opq.num_iterations = 1;
  options.training.max_queries = 300;
  const core::DdcOpqArtifacts artifacts =
      core::TrainDdcOpq(ds.base, ds.train_queries, options);
  times.opq_s = artifacts.opq_train_seconds;
  times.corrector_s = artifacts.corrector_train_seconds;

  int64_t t = NowNanos();
  index::IvfOptions ivf_options;
  ivf_options.num_clusters = kLists;
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, ivf_options);
  times.build_s = (NowNanos() - t) * 1e-9;
  t = NowNanos();
  {
    core::DdcOpqComputer computer(&ds.base, &artifacts);
    if (!ivf.AttachCodesFrom(computer)) {
      std::fprintf(stderr, "perfbench: ddc-opq has no code-resident form\n");
      return 1;
    }
  }
  times.attach_s = (NowNanos() - t) * 1e-9;

  t = NowNanos();
  if (!Ok(persist::SaveIvf(FilePath(args, "ivf.bin"), ivf), "save ivf") ||
      !Ok(persist::SaveMatrix(FilePath(args, "base.bin"), ds.base),
          "save base") ||
      !Ok(persist::SaveDdcOpqArtifacts(FilePath(args, "artifacts.bin"),
                                       artifacts),
          "save artifacts")) {
    return 1;
  }
  times.save_ms = (NowNanos() - t) * 1e-6;

  std::vector<std::vector<int32_t>> truth32(truth.size());
  for (std::size_t q = 0; q < truth.size(); ++q) {
    truth32[q].assign(truth[q].begin(), truth[q].end());
  }
  if (!Ok(persist::SaveMatrix(FilePath(args, "queries.bin"), ds.queries),
          "save queries") ||
      !Ok(data::WriteIvecs(FilePath(args, "truth.ivecs"), truth32),
          "save truth")) {
    return 1;
  }
  std::ofstream out(FilePath(args, "prepare.txt"));
  out.precision(17);
  out << times.build_s << " " << times.attach_s << " " << times.opq_s << " "
      << times.corrector_s << " " << times.save_ms << "\n";
  return out ? 0 : 1;
}

int RunServeOpen(const Args& args) {
  const IdlePollers pollers;
  Report report(args.trace);
  PrepareTimes prepared;
  {
    std::ifstream in(FilePath(args, "prepare.txt"));
    in >> prepared.build_s >> prepared.attach_s >> prepared.opq_s >>
        prepared.corrector_s >> prepared.save_ms;
    if (!in) {
      std::fprintf(stderr, "perfbench: serve-open needs the prepare step's "
                           "files in --dir\n");
      return 2;
    }
  }
  resinfer::linalg::Matrix queries;
  std::vector<std::vector<int32_t>> truth32;
  if (!Ok(persist::LoadMatrix(FilePath(args, "queries.bin"), &queries),
          "load queries") ||
      !Ok(data::ReadIvecs(FilePath(args, "truth.ivecs"), &truth32),
          "load truth")) {
    return 2;
  }
  std::vector<std::vector<int64_t>> truth(truth32.size());
  for (std::size_t q = 0; q < truth.size(); ++q) {
    truth[q].assign(truth32[q].begin(), truth32[q].end());
  }

  // setup_s: the zero-copy load, repeated; the last load serves.
  std::unique_ptr<Loaded> loaded;
  std::vector<double> total, base_ms, ivf_ms, artifacts_ms;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    loaded.reset();
    loaded = Load(args);
    if (loaded == nullptr) return 2;
    total.push_back(loaded->total_s());
    base_ms.push_back(loaded->base_ms);
    ivf_ms.push_back(loaded->ivf_ms);
    artifacts_ms.push_back(loaded->artifacts_ms);
  }
  const double rss_after_load = CurrentRssMib();
  const index::IvfIndex& ivf = loaded->ivf;
  const resinfer::linalg::Matrix& base = loaded->base.matrix;
  report.Check(ivf.codes().storage_backend() == storage::StorageBackend::kMmap,
               "serve-open: code records are served from the mmap backend");
  report.Check(loaded->base.backend == storage::StorageBackend::kMmap &&
                   !loaded->base.pin.empty(),
               "serve-open: base rows are served from the mmap backend");

  // Solo answers on the loaded index: the reference every served answer
  // must equal bit for bit.
  core::DdcOpqComputer solo(&base, &loaded->artifacts);
  report.Check(ivf.has_codes() && ivf.codes().tag() == solo.code_tag(),
               "serve-open: attached codes match the computer");
  const SearchFn search = [&](int64_t q) {
    return ivf.Search(solo, queries.Row(q), kK, kNprobe);
  };
  std::vector<uint64_t> reference;
  const double recall =
      ReferencePass(search, queries.rows(), truth, kK, &reference);
  report.Check(recall >= kRecallFloor, "serve-open: recall@10 " +
                                           std::to_string(recall) +
                                           " below floor");
  PrintFingerprint(args, "serve-open", kWorkers, reference);

  std::vector<TracingComputer*> tracers;
  serve::AdmissionOptions options;
  options.num_threads = kWorkers;
  options.linger_micros = kLingerMicros;
  serve::IvfServer server(
      &ivf,
      [&]() -> std::unique_ptr<index::DistanceComputer> {
        auto tracer = std::make_unique<TracingComputer>(
            std::make_unique<core::DdcOpqComputer>(&base, &loaded->artifacts),
            /*enabled=*/false);
        tracers.push_back(tracer.get());
        return tracer;
      },
      options);

  int64_t cursor = 0;
  const auto count = [&](const OpenLoopPhase& phase) {
    report.Count(phase.sent, phase.mismatches);
  };

  // Each fixed rate runs on its own; `busy` is the executor's time inside
  // tasks over the phase, which gives its service capacity.
  const auto fixed_rate = [&](double rate, double seconds, double* busy) {
    const double before = BusySeconds(server.executor_stats());
    OpenLoopPhase phase = RunOpenLoop(server, queries, reference, rate,
                                      seconds, false, &cursor);
    *busy = BusySeconds(server.executor_stats()) - before;
    count(phase);
    return phase;
  };
  double low_busy = 0.0, high_busy = 0.0;

  if (!args.trace) {
    const OpenLoopPhase low =
        fixed_rate(kLowRate, 0.5 * args.seconds, &low_busy);
    const OpenLoopPhase high =
        fixed_rate(kHighRate, 0.5 * args.seconds, &high_busy);
    server.Shutdown();
    report.Set("qps", high_busy > 0.0 ? kWorkers * high.sent / high_busy : 0.0);
    report.Set("latency_p50_us", Percentile(low.latency_us, 0.50));
    report.Set("latency_p50_us.hi", Percentile(high.latency_us, 0.50));
    report.Set("recall_at_10", recall);
    report.Set("setup_s", Median(total));
    report.Set("peak_rss_mib", PeakRssMib());
    return report.Print();
  }

  // Traced run. Untraced first: the tails at both rates and the max_qps
  // search, a bisection between the highest sustained fixed rate and a
  // rate above the executor's capacity.
  const OpenLoopPhase low = fixed_rate(kLowRate, 0.15 * args.seconds,
                                       &low_busy);
  const OpenLoopPhase plain = fixed_rate(kHighRate, 0.15 * args.seconds,
                                         &high_busy);
  const double capacity =
      high_busy > 0.0 ? kWorkers * plain.sent / high_busy : 2 * kHighRate;
  double lo = plain.Sustained() ? kHighRate : (low.Sustained() ? kLowRate : 0.0);
  double hi = std::max(1.3 * capacity, 1.5 * lo);
  for (int step = 0; step < kSearchSteps; ++step) {
    const double rate = 0.5 * (lo + hi);
    const OpenLoopPhase probe =
        RunOpenLoop(server, queries, reference, rate,
                    0.4 * args.seconds / kSearchSteps, true, &cursor);
    count(probe);
    (probe.Sustained() ? lo : hi) = rate;
  }
  report.Set("serve.max_qps", lo);
  report.Set("serve.p99_us", low.P99());
  report.Set("serve.p99_us.hi", plain.P99());

  // Then the low rate traced: spans per worker computer, and the
  // executor's busy time per request against the untraced low-rate phase
  // gives the tracing overhead. (Traced, the high rate would saturate the
  // two workers: every member's scan block is a span.)
  const serve::Executor::Stats busy1 = server.executor_stats();
  const serve::ServingStats serving1 = server.stats();
  index::ComputerStats before;
  for (TracingComputer* t : tracers) {
    before += t->stats();
    t->TakeTotals();
    t->set_enabled(true);  // ordered before the next Submit by its locks
  }
  const OpenLoopPhase traced = RunOpenLoop(
      server, queries, reference, kLowRate, 0.3 * args.seconds, false,
      &cursor);
  const serve::Executor::Stats busy2 = server.executor_stats();
  const serve::ServingStats serving2 = server.stats();
  server.Shutdown();
  count(traced);

  CallTotals core_totals;
  index::ComputerStats delta;
  int64_t group_count = 0, group_nanos = 0, group_core_nanos = 0;
  for (TracingComputer* t : tracers) {
    core_totals += t->TakeTotals();
    delta += t->stats();
    for (const GroupSpan& span : t->groups()) {  // traced phase only
      ++group_count;
      group_nanos += span.end - span.start;
      group_core_nanos += span.core_nanos;
    }
  }
  delta -= before;
  const double requests = std::max<int64_t>(traced.sent, 1);
  const double plain_busy = low_busy / std::max<int64_t>(low.sent, 1);
  const double traced_busy = (BusySeconds(busy2) - BusySeconds(busy1)) / requests;

  const auto us = [&](CallKind kind) {
    return core_totals.nanos[static_cast<int>(kind)] * 1e-3 / requests;
  };
  report.Set("index.search_us", group_nanos * 1e-3 / requests);
  report.Set("index.self_us", (group_nanos - group_core_nanos) * 1e-3 / requests);
  report.Set("index.build_s", prepared.build_s);
  report.Set("index.attach_codes_s", prepared.attach_s);
  report.Set("core.begin_query_us", us(CallKind::kBeginQuery));
  report.Set("core.estimate_us", us(CallKind::kEstimate));
  report.Set("core.exact_distance_us", us(CallKind::kExact));
  report.Set("core.other_us", us(CallKind::kAnchor) + us(CallKind::kOther));
  report.Set("core.estimate_calls_per_query",
             core_totals.calls[static_cast<int>(CallKind::kEstimate)] / requests);
  ReportCounters(delta, traced.sent,
                 core_totals.nanos[static_cast<int>(CallKind::kEstimate)],
                 base.cols(), &report);
  report.Set("core.corrector_train_s", prepared.corrector_s);
  report.Set("quant.train_s", prepared.opq_s);
  report.Set("quant.rank_us", RankMicros(ivf.centroids(), queries, kNprobe));
  report.Set("simd.fastscan_codes_per_s",
             ProbeFastScan(ivf.codes(), kSubspaces, kProbeSeconds));
  report.Set("simd.l2sqr_batch4_gather_rows_per_s",
             ProbeL2SqrBatch4(base, queries.Row(0), args.seed, kProbeSeconds));
  report.Set("simd.ip_batch4_rows_per_s",
             ProbeInnerProductBatch4(base, queries.Row(0), args.seed,
                                     kProbeSeconds));

  const double scan_us =
      group_count > 0 ? group_nanos * 1e-3 / group_count : 0.0;
  double mean_latency = 0.0;
  for (double l : traced.latency_us) mean_latency += l;
  mean_latency /= requests;
  const double groups = serving2.groups - serving1.groups;
  double submit_us = 0.0;
  for (double s : traced.submit_us) submit_us += s;
  report.Set("serve.submit_us", submit_us / requests);
  report.Set("serve.scan_us", scan_us);
  report.Set("serve.wait_us", mean_latency - scan_us);
  report.Set("serve.occupancy",
             groups > 0 ? (serving2.requests - serving1.requests) / groups : 0.0);
  report.Set("serve.utilization",
             (BusySeconds(busy2) - BusySeconds(busy1)) /
                 (kWorkers * std::max(traced.seconds, 1e-9)));
  report.Set("serve.flush_full",
             groups > 0 ? (serving2.full_flushes - serving1.full_flushes) / groups
                        : 0.0);
  report.Set("serve.flush_linger",
             groups > 0
                 ? (serving2.linger_flushes - serving1.linger_flushes) / groups
                 : 0.0);

  report.Set("persist.load_ivf_ms", Median(ivf_ms));
  report.Set("persist.load_base_ms", Median(base_ms));
  report.Set("persist.load_artifacts_ms", Median(artifacts_ms));
  report.Set("persist.save_ms", prepared.save_ms);
  report.Set("storage.rss_after_load_mib", rss_after_load);
  report.Set("storage.base_resident_mib",
             ResidentMib(loaded->base.pin.data(), loaded->base.pin.size()));

  std::vector<double> late, gaps;
  for (const OpenLoopPhase* phase : {&low, &plain, &traced}) {
    late.insert(late.end(), phase->late_us.begin(), phase->late_us.end());
    gaps.insert(gaps.end(), phase->sweep_gap_us.begin(),
                phase->sweep_gap_us.end());
  }
  report.Set("bench.gen_late_p99_us", Percentile(late, 0.99));
  report.Set("bench.stamp_gap_p99_us", Percentile(gaps, 0.99));
  report.Set("bench.trace_overhead",
             traced_busy > 0.0 ? plain_busy / traced_busy : 0.0);
  return report.Print();
}

}  // namespace perfbench
