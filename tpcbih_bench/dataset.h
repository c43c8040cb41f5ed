// TPC-BiH data set of one run: the seed-generated version-0 population and
// update history, loaded into engines through the public loader.
#ifndef TPCBIH_BENCH_DATASET_H_
#define TPCBIH_BENCH_DATASET_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bih/generator.h"
#include "engine/engine.h"
#include "tpch/dbgen.h"

namespace bench {

inline const std::vector<std::string>& EngineLetters() {
  static const std::vector<std::string> kLetters = {"A", "B", "C", "D"};
  return kLetters;
}

struct Dataset {
  double h = 0.0;
  double m = 0.0;
  bih::TpchData initial;
  bih::History history;
  double generate_s = 0.0;  // GenerateTpch + HistoryGenerator::Generate
  // Customers ordered by the number of history operations on them, most
  // first (the K queries pick from the head, like the paper's hot key).
  std::vector<int64_t> busy_customers;
};

// Generates the TPC-H population at scale h and m*10^6 update scenarios,
// both derived from `seed`.
Dataset Generate(double h, double m, uint64_t seed);

struct LoadedEngine {
  std::string letter;
  std::unique_ptr<bih::TemporalEngine> engine;
  double load_s = 0.0;
  // Resident-set growth across LoadEngine (meaningful on a first load in
  // the process, before freed memory can be reused).
  double rss_growth_mb = 0.0;
  uint64_t versions = 0;  // current + history rows over every table
  std::vector<double> txn_us;  // per history transaction apply latency

  double BytesPerVersion() const {
    return rss_growth_mb * 1024.0 * 1024.0 /
           static_cast<double>(versions > 0 ? versions : 1);
  }
};

// LoadEngine with timing, RSS growth and the stored version count.
LoadedEngine Load(const std::string& letter, const Dataset& data);

// Stored versions (current + history partitions) over all tables.
uint64_t StoredVersions(const bih::TemporalEngine& engine);

// System-time anchors of a loaded engine: the clock after the load and the
// first history commit (the clock ticks once per history transaction).
struct TimeAnchors {
  int64_t sys_v0 = 0;
  int64_t sys_end = 0;
  int64_t app_lo = 0;
  int64_t app_hi = 0;
};
TimeAnchors Anchors(const bih::TemporalEngine& engine, const Dataset& data);

// Deterministic generator for every seed-derived choice of the benchmark;
// `stream` separates independent uses of one seed.
inline std::mt19937_64 Rng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream)};
  return std::mt19937_64(seq);
}

inline int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

}  // namespace bench

#endif  // TPCBIH_BENCH_DATASET_H_
