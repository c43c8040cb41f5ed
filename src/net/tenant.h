#ifndef TPCBIH_NET_TENANT_H_
#define TPCBIH_NET_TENANT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "server/admission.h"

namespace bih {
namespace net {

// Snapshot of one tenant's counters.
struct TenantStats {
  uint64_t queries = 0;      // requests that reached the tenant boundary
  uint64_t ok = 0;
  uint64_t errors = 0;       // non-OK outcomes other than the ones below
  uint64_t shed = 0;         // kResourceExhausted (tenant or global quota)
  uint64_t cancelled = 0;
  uint64_t deadline = 0;
  uint64_t unavailable = 0;  // kUnavailable (read-only degradation)
  uint64_t bytes_out = 0;    // response payload bytes
};

// One tenant: a name, its own AdmissionController, and outcome counters.
// The tenant's admission is layered *above* the SessionManager's global
// admission control: a tenant first competes for its own bounded quota,
// then the admitted query competes for the shared engine. The layering is
// what isolates tenants — one tenant flooding its queue is shed at its own
// boundary and cannot starve the global queue dry for everyone else.
// Counters are relaxed atomics — they are monotone tallies read only by
// stats reporting, never used for synchronization.
class TenantState {
 public:
  TenantState(std::string name, const AdmissionConfig& quota)
      : name_(std::move(name)), admission_(quota) {}

  TenantState(const TenantState&) = delete;
  TenantState& operator=(const TenantState&) = delete;

  const std::string& name() const { return name_; }
  AdmissionController& admission() { return admission_; }

  // Folds one finished request's outcome into the counters.
  void Account(const Status& s);
  // Adds one response's payload bytes (tallied where the frame is sent).
  void AddBytesOut(size_t n) {
    bytes_out_.fetch_add(n, std::memory_order_relaxed);
  }

  TenantStats GetStats() const;

 private:
  const std::string name_;
  AdmissionController admission_;
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> deadline_{0};
  std::atomic<uint64_t> unavailable_{0};
  std::atomic<uint64_t> bytes_out_{0};
};

// Get-or-create registry keyed by tenant name. Tenants are never removed:
// a benchmark run's tenant set is small and fixed, and stable pointers let
// connections hold their TenantState* without further locking.
class TenantRegistry {
 public:
  explicit TenantRegistry(const AdmissionConfig& quota) : quota_(quota) {}

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // The returned pointer stays valid for the registry's lifetime.
  TenantState* GetOrCreate(const std::string& name);

  // {"<name>":{...counters...},...} — one member per tenant, names
  // JSON-escaped via the shared helper (tenant names arrive from the wire
  // and are attacker-shaped by definition). The server embeds this object
  // under its own "tenants" key.
  std::string StatsJson() const;

 private:
  const AdmissionConfig quota_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_
      GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace bih

#endif  // TPCBIH_NET_TENANT_H_
