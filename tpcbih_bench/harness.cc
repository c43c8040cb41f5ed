#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/json.h"

#ifndef BIH_BENCH_COMPILER
#define BIH_BENCH_COMPILER "unknown"
#endif
#ifndef BIH_BENCH_BUILD_TYPE
#define BIH_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* v) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        return false;
      }
      *v = argv[++i];
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (a == "--tiny") {
      out->tiny = true;
    } else if (a == "--workload") {
      if (!value(&out->workload)) return false;
    } else if (a == "--work-dir") {
      if (!value(&out->work_dir)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      out->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') {
        std::fprintf(stderr, "bad --seed '%s'\n", v.c_str());
        return false;
      }
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      out->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(out->seconds > 0.0) ||
          out->seconds > 600.0) {
        std::fprintf(stderr, "bad --seconds '%s'\n", v.c_str());
        return false;
      }
    } else if (a == "--trace") {
      if (!value(&v)) return false;
      if (v != "0" && v != "1") {
        std::fprintf(stderr, "bad --trace '%s' (0 or 1)\n", v.c_str());
        return false;
      }
      out->trace = v == "1";
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  if (out->workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double SupportedTail(size_t samples) {
  double best = 0.5;
  for (double p : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

WindowSummary SummarizeWindows(const std::vector<Sample>& samples,
                               double seconds, double window_s) {
  WindowSummary out;
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::floor(seconds / window_s)));
  std::vector<std::vector<double>> win(n);
  for (const Sample& s : samples) {
    const size_t w = static_cast<size_t>(std::max(0.0, s.t_s) / window_s);
    if (w < n) win[w].push_back(s.us);
  }
  std::vector<double> p50, p99, rate;
  for (const std::vector<double>& v : win) {
    rate.push_back(static_cast<double>(v.size()) / window_s);
    if (v.empty()) continue;
    p50.push_back(Median(v));
    p99.push_back(Percentile(v, 0.99));
  }
  out.p50_us = Median(p50);
  out.p99_us = Median(p99);
  out.per_s = Median(rate);
  out.windows = n;
  return out;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Result::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void AddTracingOverhead(const std::map<std::string, Metric>& plain,
                        const std::map<std::string, Metric>& traced,
                        Result* r) {
  for (const auto& [name, m] : plain) {
    auto it = traced.find(name);
    if (it == traced.end() || m.value == 0.0 || it->second.value == 0.0) continue;
    // A factor >= 1 means tracing cost that much, for times and rates.
    const bool rate = name.size() > 6 && name.substr(name.size() - 6) == "_per_s";
    const double factor = rate ? m.value / it->second.value
                               : it->second.value / m.value;
    r->Layer("tracing.overhead." + name, factor, "x");
  }
}

std::string FsType(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void AddHostFingerprint(const Args& args, Result* r) {
  r->config["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r->config["compiler"] = BIH_BENCH_COMPILER;
  r->config["build_type"] = BIH_BENCH_BUILD_TYPE;
  r->config["seed"] = std::to_string(args.seed);
  r->config["seconds"] = std::to_string(args.seconds);
  r->config["trace"] = args.trace ? "1" : "0";
  r->config["tiny"] = args.tiny ? "1" : "0";
}

std::string MetricsJson(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metric.value);
    out += "\"" + bih::JsonEscape(name) + "\": {\"value\": " + num +
           ", \"unit\": \"" + bih::JsonEscape(metric.unit) + "\"}";
  }
  return out + "}";
}

std::string ResultRecordJson(const Args& args, const Result& r) {
  std::string out = "{\"workload\": \"" + bih::JsonEscape(args.workload) +
                    "\", \"config\": {";
  bool first = true;
  for (const auto& [k, v] : r.config) {
    out += (first ? "\"" : ", \"") + bih::JsonEscape(k) + "\": \"" +
           bih::JsonEscape(v) + "\"";
    first = false;
  }
  out += "}, \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(r.metrics) +
         ", \"layers\": " + MetricsJson(r.layers) + ", \"notes\": {";
  first = true;
  for (const auto& [k, v] : r.notes) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (first ? "\"" : ", \"") + bih::JsonEscape(k) + "\": " + num;
    first = false;
  }
  return out + "}}";
}

// --- tracing ----------------------------------------------------------------

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct OpenSpan {
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  const char* name;
  int64_t start_ns;
};

thread_local std::vector<OpenSpan> t_open;
std::atomic<uint64_t> g_next_request{1};

}  // namespace

uint64_t NextRequestId() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

Tracer& Tracer::Get() {
  static Tracer* t = new Tracer();
  return *t;
}

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  uint64_t parent = 0;
  if (!t_open.empty()) {
    parent = t_open.back().id;
    if (request == 0) request = t_open.back().request;
  }
  t_open.push_back(OpenSpan{id, parent, request, name, NowNs()});
  return id;
}

void Tracer::End(uint64_t id) {
  if (id == 0 || t_open.empty() || t_open.back().id != id) return;
  const OpenSpan o = t_open.back();
  t_open.pop_back();
  SpanRec rec{o.id, o.parent, o.request, o.name, o.start_ns, NowNs()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

void Tracer::Count(const std::string& name, double delta) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void Tracer::Dump(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time: the span's duration minus the union of its children's
  // intervals.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const SpanRec& s : spans_) {
    if (s.parent != 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Summary {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summary;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const SpanRec& s : spans_) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const int64_t dur = s.end_ns - s.start_ns;
    Summary& sum = summary[s.name];
    ++sum.count;
    sum.total_ms += static_cast<double>(dur) / 1e6;
    sum.self_ms += static_cast<double>(dur - covered) / 1e6;
    std::fprintf(f,
                 "{\"span\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}\n",
                 bih::JsonEscape(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(dur - covered));
  }
  for (const auto& [name, v] : counters_) {
    std::fprintf(f, "{\"counter\": \"%s\", \"value\": %.17g}\n",
                 bih::JsonEscape(name).c_str(), v);
  }
  for (const auto& [name, s] : summary) {
    std::fprintf(f,
                 "{\"summary\": \"%s\", \"count\": %llu, \"total_ms\": "
                 "%.6f, \"self_ms\": %.6f}\n",
                 bih::JsonEscape(name).c_str(),
                 static_cast<unsigned long long>(s.count), s.total_ms, s.self_ms);
  }
  std::fclose(f);
}

Span::Span(const char* name, uint64_t request)
    : id_(Tracer::Get().Begin(name, request)) {}

Span::~Span() { Tracer::Get().End(id_); }

}  // namespace bench
