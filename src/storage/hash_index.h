#ifndef TPCBIH_STORAGE_HASH_INDEX_H_
#define TPCBIH_STORAGE_HASH_INDEX_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "storage/btree_index.h"

namespace bih {

// Equality-only index from composite keys to row ids. Used where the
// workload needs point access but never ranges (e.g., the generator's
// current-version lookup); the executor's hash join builds an equivalent
// structure ad hoc.
class HashIndex {
 public:
  void Insert(const IndexKey& key, RowId rid);
  bool Erase(const IndexKey& key, RowId rid);
  // Re-points the entry (key, from) to `to` in place, keeping its position
  // among the key's entries; false when there is no such entry.
  bool Replace(const IndexKey& key, RowId from, RowId to);
  void Lookup(const IndexKey& key, const std::function<bool(RowId)>& fn) const;
  size_t size() const { return size_; }

 private:
  struct KeyHash {
    size_t operator()(const IndexKey& k) const {
      size_t h = 0x345678;
      for (const Value& v : k) h = h * 1000003ULL ^ v.Hash();
      return h;
    }
  };
  struct KeyEq {
    bool operator()(const IndexKey& a, const IndexKey& b) const {
      return CompareKeys(a, b) == 0;
    }
  };
  std::unordered_map<IndexKey, std::vector<RowId>, KeyHash, KeyEq> map_;
  size_t size_ = 0;
};

}  // namespace bih

#endif  // TPCBIH_STORAGE_HASH_INDEX_H_
