// Shared helpers of the TPC-BiH benchmark program: command-line arguments,
// clocks, percentiles, metric output, the host fingerprint and the span
// tracer. Every workload file uses these instead of its own copies.
#ifndef TPCBIH_BENCH_HARNESS_H_
#define TPCBIH_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

// --- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks every scale for the smoke test; never used for measurements.
  bool tiny = false;
  // Directory for WAL files, traces and result records (inside the
  // checkout the benchmark runs from).
  std::string work_dir = ".bench_build/run";
};

// Parses --workload, --seed, --seconds, --trace, --tiny, --work-dir. On a
// malformed command line prints the problem to stderr and returns false.
bool ParseArgs(int argc, char** argv, Args* out);

// --- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// --- statistics -------------------------------------------------------------

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);
double Geomean(const std::vector<double>& v);
double Sum(const std::vector<double>& v);

// The highest of p50/p90/p99/p99.9 that has at least ten samples above it,
// so a reported tail is backed by data (0.5 when the sample is tiny).
double SupportedTail(size_t samples);

// A latency stamped with its completion time, seconds since phase start.
struct Sample {
  double t_s = 0.0;
  double us = 0.0;
};

// Cuts [0, seconds) into whole windows of `window_s` seconds and computes
// p50, p99 and completions per second in each; returns the median of each
// over the windows, so a stall confined to a few windows (a noisy device,
// a neighbour's burst) does not move the run's figure.
struct WindowSummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double per_s = 0.0;
  size_t windows = 0;
};
WindowSummary SummarizeWindows(const std::vector<Sample>& samples,
                               double seconds, double window_s);

// --- process ----------------------------------------------------------------

double PeakRssMb();     // getrusage high-water mark, MiB
double CurrentRssMb();  // /proc/self/statm resident set, MiB

// --- results ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// One workload run's outcome. `metrics` holds the end-to-end metrics (the
// untraced ones); `layers` the per-layer metrics of a traced run; `notes`
// free-form numbers kept only in the result record (sample counts, the
// supported tail percentile, tracing overhead, ...).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::map<std::string, double> notes;
  std::map<std::string, std::string> config;  // fingerprint fields

  void Fail(const std::string& why);
  void Layer(const std::string& name, double v, const char* unit) {
    layers[name] = Metric{v, unit};
  }
};

// Records, for every end-to-end metric, the factor by which tracing made it
// worse (traced / untraced for times and sizes, the inverse for rates) as
// the per-layer metric "tracing.overhead.<name>"; 1.0 = no overhead.
void AddTracingOverhead(const std::map<std::string, Metric>& plain,
                        const std::map<std::string, Metric>& traced,
                        Result* r);

// Host and configuration fingerprint common to every workload: nproc,
// compiler, build type, seed; workloads add scales, threads and the WAL
// flush policy through Result::config.
void AddHostFingerprint(const Args& args, Result* r);

// File system type of `path` ("ext4", "tmpfs", "overlay", ...).
std::string FsType(const std::string& path);

// JSON object of the metrics named in `m`.
std::string MetricsJson(const std::map<std::string, Metric>& m);
std::string ResultRecordJson(const Args& args, const Result& r);

// --- tracing ----------------------------------------------------------------

// In-memory span recorder. A span carries name, start, end, parent and a
// request id; spans of one thread nest through a per-thread stack. Nothing
// is written until Dump(). Disabled tracers record nothing and cost one
// branch per span.
class Tracer {
 public:
  struct SpanRec {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  static Tracer& Get();
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  uint64_t Begin(const char* name, uint64_t request);
  void End(uint64_t id);
  // Adds `delta` to the counter `name` (recorded at the same boundaries as
  // the spans around it).
  void Count(const std::string& name, double delta);

  // Writes every span as one JSON line (with its self time: duration minus
  // the part its children cover), then the counters, then a per-name
  // summary: count, total and self time.
  void Dump(const std::string& path);

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
  std::map<std::string, double> counters_;  // guarded by mu_
};

// RAII span; `request` groups the spans of one operation.
class Span {
 public:
  Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint64_t id_ = 0;
};

// Per-thread request ids for spans.
uint64_t NextRequestId();

}  // namespace bench

#endif  // TPCBIH_BENCH_HARNESS_H_
