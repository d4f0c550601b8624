// ivf-pq4: one closed-loop client calling IvfIndex::Search on sift-proxy
// (n=100,000, d=128, 316 lists, nprobe=16, k=10) through a DdcAnyComputer
// over a 32 x 4-bit PqAdcEstimator, scanning the fast-scan records
// attached to the index.
//
// Why: the repo's standard operating point on its fastest estimator. The
// scan is cheap here, so the exact rescore of the survivors dominates;
// serving, persist and storage are not used.
#include <memory>

#include "common.h"
#include "workloads.h"
#include "resinfer/resinfer.h"

namespace perfbench {
namespace {

namespace core = resinfer::core;
namespace data = resinfer::data;
namespace index = resinfer::index;
namespace quant = resinfer::quant;

constexpr int64_t kBase = 100000;
constexpr int64_t kQueries = 2000;
constexpr int64_t kTrainQueries = 1000;
constexpr int kLists = 316;
constexpr int kNprobe = 16;
constexpr int kK = 10;
constexpr int kSubspaces = 32;
constexpr int kSetupReps = 3;
constexpr double kRecallFloor = 0.95;

// Everything setup_s pays for; the computer points into `pq` and
// `corrector`, so a Setup never moves once built.
struct Setup {
  index::IvfIndex ivf;
  core::PqEstimatorData pq;
  core::LinearCorrector corrector;
  std::unique_ptr<TracingComputer> computer;
  double build_s = 0.0;
  double train_s = 0.0;
  double corrector_s = 0.0;
  double attach_s = 0.0;
  double total_s() const { return build_s + train_s + corrector_s + attach_s; }
};

std::unique_ptr<Setup> BuildSetup(const data::Dataset& ds) {
  auto s = std::make_unique<Setup>();
  int64_t t = NowNanos();
  const auto lap = [&t] {
    const int64_t now = NowNanos();
    const double seconds = (now - t) * 1e-9;
    t = now;
    return seconds;
  };
  index::IvfOptions ivf_options;
  ivf_options.num_clusters = kLists;
  s->ivf = index::IvfIndex::Build(ds.base, ivf_options);
  s->build_s = lap();

  quant::PqOptions pq_options;
  pq_options.num_subspaces = kSubspaces;
  pq_options.nbits = 4;
  s->pq = core::BuildPqEstimatorData(ds.base, pq_options);
  s->train_s = lap();

  core::TrainingDataOptions training;
  training.max_queries = 300;
  {
    core::PqAdcEstimator estimator(&s->pq);
    s->corrector = core::TrainAnyCorrector(estimator, ds.base,
                                           ds.train_queries, training);
  }
  s->corrector_s = lap();

  s->computer = std::make_unique<TracingComputer>(
      std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&s->pq),
          &s->corrector),
      /*enabled=*/false);
  s->ivf.AttachCodesFrom(*s->computer);
  s->attach_s = lap();
  return s;
}

}  // namespace

int RunIvfPq4(const Args& args) {
  const data::Dataset ds = MakeProxy(data::SiftProxySpec(), kBase, kQueries,
                                     kTrainQueries, args.seed);
  const auto truth = data::BruteForceKnn(ds.base, ds.queries, kK);

  Report report(args.trace);
  std::unique_ptr<Setup> setup;
  std::vector<double> total, build, train, corrector, attach;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    setup = BuildSetup(ds);
    total.push_back(setup->total_s());
    build.push_back(setup->build_s);
    train.push_back(setup->train_s);
    corrector.push_back(setup->corrector_s);
    attach.push_back(setup->attach_s);
  }
  const index::IvfIndex& ivf = setup->ivf;
  TracingComputer& computer = *setup->computer;
  report.Check(ivf.has_codes() && ivf.codes().tag() == computer.code_tag(),
               "ivf-pq4: attached codes match the computer (code-resident)");

  const SearchFn search = [&](int64_t q) {
    return ivf.Search(computer, ds.queries.Row(q), kK, kNprobe);
  };
  std::vector<uint64_t> reference;
  const double recall = ReferencePass(search, kQueries, truth, kK, &reference);
  report.Check(recall >= kRecallFloor, "ivf-pq4: recall@10 " +
                                           std::to_string(recall) +
                                           " below floor");
  PrintFingerprint(args, "ivf-pq4", 1, reference);

  const ClosedLoopPhase phase = MeasureClosedLoop(
      args, search, kQueries, reference, &computer, ds.dim(), &report);
  if (!args.trace) {
    report.Set("recall_at_10", recall);
    report.Set("setup_s", Median(total));
    report.Set("peak_rss_mib", PeakRssMib());
    return report.Print();
  }
  report.Check(phase.core.code_calls > 0 && phase.core.gather_calls == 0,
               "ivf-pq4: traced scans take the code-resident path");
  report.Set("index.build_s", Median(build));
  report.Set("index.attach_codes_s", Median(attach));
  report.Set("quant.train_s", Median(train));
  report.Set("core.corrector_train_s", Median(corrector));
  report.Set("quant.rank_us", RankMicros(ivf.centroids(), ds.queries, kNprobe));
  report.Set("simd.fastscan_codes_per_s",
             ProbeFastScan(ivf.codes(), kSubspaces, kProbeSeconds));
  report.Set("simd.l2sqr_batch4_gather_rows_per_s",
             ProbeL2SqrBatch4(ds.base, ds.queries.Row(0), args.seed,
                              kProbeSeconds));
  report.Set("simd.ip_batch4_rows_per_s",
             ProbeInnerProductBatch4(ds.base, ds.queries.Row(0), args.seed,
                                     kProbeSeconds));
  return report.Print();
}

}  // namespace perfbench
