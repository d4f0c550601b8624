// hnsw-ddcres: one closed-loop client calling HnswIndex::Search on
// gist-proxy (n=30,000, d=960, M=16, ef_construction=120, ef=100, k=10)
// through MethodFactory::Make("ddc-res") with default options.
//
// Why: the paper's headline method on its other index type. It reaches
// core through the by-id EstimateBatch path with projection stages, and
// its query preparation (the 960 x 960 PCA rotation in BeginQuery) is a
// large share of each query. No code store, fast-scan or admission.
#include <memory>

#include "common.h"
#include "workloads.h"
#include "resinfer/resinfer.h"

namespace perfbench {
namespace {

namespace core = resinfer::core;
namespace data = resinfer::data;
namespace index = resinfer::index;

constexpr int64_t kBase = 30000;
constexpr int64_t kQueries = 1000;
constexpr int64_t kTrainQueries = 100;  // ddc-res trains no corrector
constexpr int kM = 16;
constexpr int kEfConstruction = 120;
constexpr int kEf = 100;
constexpr int kK = 10;
// Two builds keep a run inside its time budget (one graph build is ~10 s).
constexpr int kSetupReps = 2;
constexpr double kRecallFloor = 0.88;

struct Setup {
  index::HnswIndex graph;
  std::unique_ptr<core::MethodFactory> factory;
  std::unique_ptr<TracingComputer> computer;
  double build_s = 0.0;
  double computer_s = 0.0;  // PCA fit, base rotation, computer
  double total_s() const { return build_s + computer_s; }
};

std::unique_ptr<Setup> BuildSetup(const data::Dataset& ds) {
  auto s = std::make_unique<Setup>();
  const int64_t start = NowNanos();
  index::HnswOptions options;
  options.M = kM;
  options.ef_construction = kEfConstruction;
  s->graph = index::HnswIndex::Build(ds.base, options);
  const int64_t built = NowNanos();
  s->factory = std::make_unique<core::MethodFactory>(&ds);
  s->computer = std::make_unique<TracingComputer>(
      s->factory->Make(core::kMethodDdcRes), /*enabled=*/false);
  s->build_s = (built - start) * 1e-9;
  s->computer_s = (NowNanos() - built) * 1e-9;
  return s;
}

}  // namespace

int RunHnswDdcRes(const Args& args) {
  const data::Dataset ds = MakeProxy(data::GistProxySpec(), kBase, kQueries,
                                     kTrainQueries, args.seed);
  const auto truth = data::BruteForceKnn(ds.base, ds.queries, kK);

  Report report(args.trace);
  std::unique_ptr<Setup> setup;
  std::vector<double> total, build, pca;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();
    setup = BuildSetup(ds);
    total.push_back(setup->total_s());
    build.push_back(setup->build_s);
    pca.push_back(setup->factory->costs().pca_seconds);
  }
  const index::HnswIndex& graph = setup->graph;
  TracingComputer& computer = *setup->computer;

  index::HnswScratch scratch;
  const SearchFn search = [&](int64_t q) {
    return graph.Search(computer, ds.queries.Row(q), kK, kEf, &scratch);
  };
  std::vector<uint64_t> reference;
  const double recall = ReferencePass(search, kQueries, truth, kK, &reference);
  report.Check(recall >= kRecallFloor, "hnsw-ddcres: recall@10 " +
                                           std::to_string(recall) +
                                           " below floor");
  PrintFingerprint(args, "hnsw-ddcres", 1, reference);

  MeasureClosedLoop(args, search, kQueries, reference, &computer, ds.dim(),
                    &report);
  if (!args.trace) {
    report.Set("recall_at_10", recall);
    report.Set("setup_s", Median(total));
    report.Set("peak_rss_mib", PeakRssMib());
    return report.Print();
  }
  report.Set("index.build_s", Median(build));
  report.Set("linalg.pca_s", Median(pca));

  const resinfer::linalg::PcaModel& model = setup->factory->EnsurePca();
  std::vector<float> rotated(static_cast<std::size_t>(ds.dim()));
  const double rotate_s = MedianSeconds(3, [&] {
    for (int64_t q = 0; q < kQueries; ++q) {
      model.Transform(ds.queries.Row(q), rotated.data());
    }
  });
  report.Set("linalg.rotate_us", rotate_s * 1e6 / kQueries);
  report.Set("simd.l2sqr_batch4_gather_rows_per_s",
             ProbeL2SqrBatch4(ds.base, ds.queries.Row(0), args.seed,
                              kProbeSeconds));
  model.Transform(ds.queries.Row(0), rotated.data());
  report.Set("simd.ip_batch4_rows_per_s",
             ProbeInnerProductBatch4(setup->factory->EnsurePcaRotatedBase(),
                                     rotated.data(), args.seed,
                                     kProbeSeconds));
  return report.Print();
}

}  // namespace perfbench
