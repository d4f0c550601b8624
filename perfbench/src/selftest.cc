// perfbench_selftest: the tracer must not change what it measures.
//
// On a tiny dataset, for ddc-pq (DdcAnyComputer over a 4-bit
// PqAdcEstimator), ddc-res and ddc-opq, a TracingComputer (tracing on, and
// off) must return answers and ComputerStats bit-identical to an unwrapped
// twin on every search path the workloads use: IvfIndex::Search (code-
// resident where codes are attached), IvfIndex::SearchBatch (the grouped
// path) and HnswIndex::Search. The wrapped ddc-pq computer must also take
// the code-resident path, i.e. code_tag() is forwarded. Exits non-zero on
// any difference.
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "resinfer/resinfer.h"

namespace perfbench {
namespace {

namespace core = resinfer::core;
namespace data = resinfer::data;
namespace index = resinfer::index;

constexpr int kK = 10;
constexpr int kNprobe = 4;
constexpr int kEf = 40;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool SameStats(const index::ComputerStats& a, const index::ComputerStats& b) {
  return a.candidates == b.candidates && a.pruned == b.pruned &&
         a.dims_scanned == b.dims_scanned &&
         a.exact_computations == b.exact_computations;
}

// Runs every search path through `plain` and through `wrapped` and
// requires identical answers and counters.
void Compare(const std::string& name, const data::Dataset& ds,
             const index::IvfIndex& ivf, const index::HnswIndex& graph,
             index::DistanceComputer& plain, TracingComputer& wrapped,
             bool expect_code_path) {
  for (bool enabled : {true, false}) {
    const std::string label =
        name + (enabled ? " (tracing on)" : " (tracing off)");
    plain.stats().Reset();
    wrapped.stats().Reset();
    wrapped.set_enabled(enabled);
    wrapped.TakeTotals();
    for (int64_t q = 0; q < ds.queries.rows(); ++q) {
      const float* query = ds.queries.Row(q);
      Expect(AnswerChecksum(ivf.Search(plain, query, kK, kNprobe)) ==
                 AnswerChecksum(ivf.Search(wrapped, query, kK, kNprobe)),
             label + ": IvfIndex::Search answer");
      Expect(AnswerChecksum(graph.Search(plain, query, kK, kEf)) ==
                 AnswerChecksum(graph.Search(wrapped, query, kK, kEf)),
             label + ": HnswIndex::Search answer");
    }
    const auto batch_plain = ivf.SearchBatch(plain, ds.queries, kK, kNprobe);
    const auto batch_wrapped =
        ivf.SearchBatch(wrapped, ds.queries, kK, kNprobe);
    for (std::size_t q = 0; q < batch_plain.size(); ++q) {
      Expect(AnswerChecksum(batch_plain[q]) == AnswerChecksum(batch_wrapped[q]),
             label + ": IvfIndex::SearchBatch answer");
    }
    Expect(SameStats(plain.stats(), wrapped.stats()),
           label + ": ComputerStats");
    const CallTotals totals = wrapped.TakeTotals();
    if (enabled) {
      Expect(totals.calls[static_cast<int>(CallKind::kEstimate)] > 0,
             label + ": estimate spans recorded");
      Expect(!wrapped.groups().empty(), label + ": group spans recorded");
      if (expect_code_path) {
        Expect(totals.code_calls > 0, label + ": code-resident IVF scans");
      }
    }
  }
}

int Run() {
  data::SyntheticSpec spec = data::SiftProxySpec();
  spec.dim = 32;
  spec.num_base = 3000;
  spec.num_queries = 40;
  spec.num_train_queries = 200;
  spec.seed = 7;
  const data::Dataset ds = data::GenerateSynthetic(spec);
  index::IvfOptions ivf_options;
  ivf_options.num_clusters = 32;
  index::HnswOptions hnsw_options;
  hnsw_options.ef_construction = 40;
  const index::HnswIndex graph = index::HnswIndex::Build(ds.base, hnsw_options);
  core::TrainingDataOptions training;
  training.max_queries = 100;

  {  // ddc-pq: the ivf-pq4 computer, codes attached.
    resinfer::quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 4;
    const core::PqEstimatorData pq =
        core::BuildPqEstimatorData(ds.base, pq_options);
    core::PqAdcEstimator estimator(&pq);
    const core::LinearCorrector corrector =
        core::TrainAnyCorrector(estimator, ds.base, ds.train_queries, training);
    const auto make = [&] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq), &corrector);
    };
    auto plain = make();
    TracingComputer wrapped(make(), true);
    index::IvfIndex ivf = index::IvfIndex::Build(ds.base, ivf_options);
    Expect(ivf.AttachCodesFrom(wrapped), "ddc-pq: MakeCodeStore forwarded");
    Expect(ivf.codes().tag() == plain->code_tag(), "ddc-pq: code_tag");
    Compare("ddc-pq", ds, ivf, graph, *plain, wrapped, true);
  }
  {  // ddc-res: the hnsw-ddcres computer, gather path.
    core::MethodFactory factory(&ds);
    auto plain = factory.Make(core::kMethodDdcRes);
    TracingComputer wrapped(factory.Make(core::kMethodDdcRes), true);
    const index::IvfIndex ivf = index::IvfIndex::Build(ds.base, ivf_options);
    Compare("ddc-res", ds, ivf, graph, *plain, wrapped, false);
  }
  {  // ddc-opq: the serve-open computer, codes attached.
    core::DdcOpqOptions options;
    options.opq.pq.num_subspaces = 8;
    options.opq.pq.nbits = 4;
    options.opq.num_iterations = 1;
    options.training = training;
    const core::DdcOpqArtifacts artifacts =
        core::TrainDdcOpq(ds.base, ds.train_queries, options);
    core::DdcOpqComputer plain(&ds.base, &artifacts);
    TracingComputer wrapped(
        std::make_unique<core::DdcOpqComputer>(&ds.base, &artifacts), true);
    index::IvfIndex ivf = index::IvfIndex::Build(ds.base, ivf_options);
    Expect(ivf.AttachCodesFrom(plain), "ddc-opq: codes attach");
    Compare("ddc-opq", ds, ivf, graph, plain, wrapped, true);
  }
  std::fprintf(stderr, "perfbench_selftest: %s\n",
               failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Run(); }
