// perfbench: the repository benchmark's measuring binary.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1 [--dir D]
//   perfbench prepare-serve-open --seed N --dir D
//
// Workloads: ivf-pq4, hnsw-ddcres, serve-open (see workloads.h and each
// workload's file for what it measures and why). perfbench/run.py is the
// entry point that builds this binary, runs serve-open's prepare step in
// its own process, and cleans up.
#include <cstdio>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench <ivf-pq4|hnsw-ddcres|serve-open|"
                 "prepare-serve-open> --seed N --seconds S --trace 0|1 "
                 "[--dir D]\n");
    return 2;
  }
  if (args.command == "ivf-pq4") return perfbench::RunIvfPq4(args);
  if (args.command == "hnsw-ddcres") return perfbench::RunHnswDdcRes(args);
  if (args.command == "serve-open") return perfbench::RunServeOpen(args);
  if (args.command == "prepare-serve-open") {
    return perfbench::PrepareServeOpen(args);
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.command.c_str());
  return 2;
}
