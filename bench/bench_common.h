#ifndef TPCBIH_BENCH_BENCH_COMMON_H_
#define TPCBIH_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workload/context.h"
#include "workload/queries.h"
#include "workload/tpch_queries.h"

namespace bih {
namespace bench {

// Positive double from the environment, else `fallback`.
inline double EnvDouble(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double x = std::atof(v);
    if (x > 0.0) return x;
  }
  return fallback;
}

// Integer in [lo, hi] from the environment, else `fallback`.
inline int EnvInt(const char* name, int fallback, int lo, int hi) {
  if (const char* v = std::getenv(name)) {
    const int x = std::atoi(v);
    if (x >= lo && x <= hi) return x;
  }
  return fallback;
}

// Scale knobs for all benches. The paper runs h=1.0/m=1.0 on a 384 GB
// server; this repository defaults to small scales suited to a laptop core
// but keeps the same linear knobs: set BIH_H and BIH_M to raise them.
inline double ScaleH() { return EnvDouble("BIH_H", 0.005); }
inline double ScaleM() { return EnvDouble("BIH_M", 0.005); }

// One shared workload per bench binary: generated once, loaded on demand
// into each engine (same archive for every engine, Section 4.2).
class SharedWorkload {
 public:
  static SharedWorkload& Get() {
    static SharedWorkload* instance = new SharedWorkload();
    return *instance;
  }

  const WorkloadContext& ctx() const { return ctx_; }

  // The context's own engine for letter "A"; fresh loads for the others.
  TemporalEngine& Engine(const std::string& letter) {
    if (letter == "A") return *ctx_.engine;
    auto it = engines_.find(letter);
    if (it == engines_.end()) {
      std::fprintf(stderr, "# loading engine %s ...\n", letter.c_str());
      it = engines_.emplace(letter, LoadEngine(letter, ctx_.initial,
                                               ctx_.history)).first;
    }
    return *it->second;
  }

  // Fresh engine (not cached) under the index `setting`; for benches that
  // compare tuning settings.
  std::unique_ptr<TemporalEngine> Fresh(
      const std::string& letter, IndexSetting setting = IndexSetting::kNone,
      IndexType type = IndexType::kBTree) {
    std::unique_ptr<TemporalEngine> e =
        LoadEngine(letter, ctx_.initial, ctx_.history);
    Status st = ApplyIndexSetting(*e, setting, type);
    BIH_CHECK_MSG(st.ok(), st.ToString());
    return e;
  }

 private:
  SharedWorkload() {
    WorkloadConfig cfg;
    cfg.engine_letter = "A";
    cfg.h = ScaleH();
    cfg.m = ScaleM();
    cfg.seed = 42;
    std::fprintf(stderr, "# generating workload h=%.4f m=%.4f ...\n", cfg.h,
                 cfg.m);
    ctx_ = BuildWorkload(cfg);
  }

  WorkloadContext ctx_;
  std::map<std::string, std::unique_ptr<TemporalEngine>> engines_;
};

// Median wall time of `runs` executions (after one warmup), milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn, int runs = 3) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(static_cast<size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// Runs fn(t) for t in [0, threads) on that many threads, each a closed
// loop, and joins them; returns the wall time in seconds.
template <typename Fn>
double RunThreads(int threads, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  ts.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) ts.emplace_back([&fn, t] { fn(t); });
  for (std::thread& th : ts) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The sample at rank floor(p * n), clamped to the maximum; 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

// Paper-style output helpers.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label,
                     const std::vector<std::pair<std::string, double>>& cells,
                     const char* unit = "ms") {
  std::printf("%-40s", label.c_str());
  for (const auto& [name, v] : cells) {
    std::printf("  %s=%.3f%s", name.c_str(), v, unit);
  }
  std::printf("\n");
}

// One timed lane: the median of `runs` executions of fn, as one row. The
// default suits sub-millisecond queries, whose median of 3 still moves
// with single cache misses and scheduler ticks.
template <typename Fn>
void TimeRow(const std::string& label, Fn&& fn, int runs = 21) {
  PrintRow(label, {{"time", TimeMs(std::forward<Fn>(fn), runs)}});
}

// Writes {"bench":"<name>",<fields>} to BENCH_<name>.json in the working
// directory; `fields` is the rest of the object's members. Returns 1 (after
// saying why) when the file cannot be written, else 0, for main's exit code.
inline int WriteBenchJson(const std::string& name, const std::string& fields) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"bench\":\"%s\",%s}\n", name.c_str(), fields.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace bench
}  // namespace bih

#endif  // TPCBIH_BENCH_BENCH_COMMON_H_
