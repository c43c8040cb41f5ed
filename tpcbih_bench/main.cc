// TPC-BiH benchmark program (bih_bench). Usage:
//   bih_bench --workload analytic|sql_mixed|analytic_par4|served_mixed|
//                        durable_updates
//             --seed N --seconds S --trace 0|1 [--tiny] [--work-dir DIR]
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1. The full record
// (fingerprint, both metric sets, sample counts) goes to
// <work-dir>/result-<workload>-<seed>-<trace>.json, spans of a traced run
// to <work-dir>/spans-<workload>-<seed>.jsonl.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  bench::Args args;
  if (!bench::ParseArgs(argc, argv, &args)) return 2;
  // Both sides of every comparison flush and scan the same way: no
  // inherited fsync stub, fault plan or scan-width default.
  ::unsetenv("BIH_NO_FSYNC");
  ::unsetenv("BIH_FAULT");
  ::unsetenv("BIH_SCAN_THREADS");
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  bench::Result r;
  if (args.workload == "analytic") {
    r = bench::RunAnalytic(args, /*parallel=*/false);
  } else if (args.workload == "analytic_par4") {
    r = bench::RunAnalytic(args, /*parallel=*/true);
  } else if (args.workload == "served_mixed") {
    r = bench::RunServedMixed(args);
  } else if (args.workload == "durable_updates") {
    r = bench::RunDurableUpdates(args);
  } else if (args.workload == "sql_mixed") {
    r = bench::RunSqlMixed(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (r.attempted == 0) r.Fail("no operation attempted");
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  const std::string tag = args.workload + "-" + std::to_string(args.seed);
  if (args.trace) {
    bench::Tracer::Get().Enable(false);
    bench::Tracer::Get().Dump(args.work_dir + "/spans-" + tag + ".jsonl");
  }
  const std::string record = bench::ResultRecordJson(args, r);
  const std::string path = args.work_dir + "/result-" + tag + "-" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", record.c_str());
    std::fclose(f);
  }
  std::printf("# record %s\n", record.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      r.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      bench::MetricsJson(args.trace ? r.layers : r.metrics).c_str());
  return 0;
}
