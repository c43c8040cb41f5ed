#ifndef TPCBIH_ENGINE_SCAN_UTIL_H_
#define TPCBIH_ENGINE_SCAN_UTIL_H_

#include "catalog/schema.h"
#include "common/value.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "storage/btree_index.h"
#include "storage/row_table.h"
#include "temporal/temporal.h"

namespace bih {

// Positions of the temporal columns inside a scan-schema row. `app_begin`/
// `app_end` are -1 for tables without application time (or when the request
// does not constrain it).
struct TemporalCols {
  int sys_from = -1;
  int sys_to = -1;
  int app_begin = -1;
  int app_end = -1;
};

// Derives the temporal column positions for `def` under the scan schema
// (user columns + sys_from + sys_to) and the requested app period.
TemporalCols ResolveTemporalCols(const TableDef& def, int app_period_index);

// Extracts the system-time period of a scan-schema row.
Period RowSystemPeriod(const Row& row, const TemporalCols& tc);

// Extracts the application-time period; requires app columns present.
Period RowAppPeriod(const Row& row, const TemporalCols& tc);

// Full temporal qualification of a row under the request's selectors.
// `now` is the engine's current system time in micros.
bool MatchesTemporal(const Row& row, const TemporalScanSpec& spec,
                     const TemporalCols& tc, int64_t now);

// Non-temporal residual predicates (equality list + range constraint).
bool MatchesConstraints(const Row& row, const ScanRequest& req);

// The primary-key values of `row`, a user or scan-schema row (the key
// columns are user columns, so both layouts agree).
IndexKey PrimaryKeyOf(const TableDef& def, const Row& row);

// Fills `key` with the full primary key bound by the request's equality
// constraints; false when they leave a key column unbound. Serves the
// system key index fast path of the row stores.
bool PrimaryKeyFromEquals(const TableDef& def, const ScanRequest& req,
                          IndexKey* key);

// Records that one partition of this scan was served by index `name`.
// Every engine's index access paths report through this helper so the
// ExecStats contract is uniform: used_index means *some* partition used an
// index, and index_name lists the chosen index of each served partition in
// scan order, comma-separated (engine_test.cc asserts this).
inline void RecordIndexUse(ExecStats* stats, const std::string& name) {
  stats->used_index = true;
  if (!stats->index_name.empty()) stats->index_name += ",";
  stats->index_name += name;
}

// The sink of one scan's index access and serial loop (see ScanSlots),
// counting into `stats`.
inline ScanSink MakeScanSink(const ScanRequest& req, ExecStats* stats,
                             bool* stopped, const RowCallback& cb) {
  return ScanSink{req.ctx, &stats->rows_examined, &stats->rows_output,
                  stopped, cb};
}

// The per-row scan body (see ScanSlots) of a row store that keeps
// scan-schema rows verbatim, as Systems A and D do: the stored row is
// filtered and emitted in place.
inline auto StoredRowVisit(const RowTable& part, const ScanRequest& req,
                           const TemporalCols& tc, int64_t now) {
  return [&part, &req, tc, now](RowId rid, auto& sink) -> bool {
    if (!part.IsLive(rid)) return true;
    if (!sink.Examine()) return false;
    const Row& row = part.Get(rid);
    if (!MatchesTemporal(row, req.temporal, tc, now) ||
        !MatchesConstraints(row, req)) {
      return true;
    }
    return sink.Emit(row);
  };
}

}  // namespace bih

#endif  // TPCBIH_ENGINE_SCAN_UTIL_H_
