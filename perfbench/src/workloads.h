// The benchmark's workloads. Each builds its inputs from args.seed, runs
// its measured phase for args.seconds, checks its answers, prints the
// result line, and returns the process exit code (non-zero on any failed
// check).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

int RunIvfPq4(const Args& args);
int RunHnswDdcRes(const Args& args);
// serve-open runs in two processes: the prepare step trains and saves the
// index into args.dir, untimed; the measured process only loads it.
int PrepareServeOpen(const Args& args);
int RunServeOpen(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
