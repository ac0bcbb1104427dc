// Shared main() for the standalone bench binaries. CMake compiles this file
// once per binary with NOWSCHED_EXPERIMENT_ID set to the slug it runs:
//
//   ./bench_table1 --tier=quick --outdir=out --c=32
//
// All experiments are linked in, so `--experiment=E5` can redirect any
// binary, but the baked-in slug is the default (and what the CMake target
// name promises).
#include "harness/harness.h"

#ifndef NOWSCHED_EXPERIMENT_ID
#error "compile with -DNOWSCHED_EXPERIMENT_ID=\"<slug>\""
#endif

int main(int argc, char** argv) {
  const nowsched::util::Flags flags(argc, argv);
  const std::string id = flags.get("experiment", NOWSCHED_EXPERIMENT_ID);
  return nowsched::bench::harness::standalone_main(id, argc, argv);
}
