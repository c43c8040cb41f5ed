#include "storage/hash_index.h"

#include <algorithm>

namespace bih {

void HashIndex::Insert(const IndexKey& key, RowId rid) {
  map_[key].push_back(rid);
  ++size_;
}

bool HashIndex::Erase(const IndexKey& key, RowId rid) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  auto& rids = it->second;
  auto pos = std::find(rids.begin(), rids.end(), rid);
  if (pos == rids.end()) return false;
  rids.erase(pos);
  if (rids.empty()) map_.erase(it);
  --size_;
  return true;
}

bool HashIndex::Replace(const IndexKey& key, RowId from, RowId to) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  auto pos = std::find(it->second.begin(), it->second.end(), from);
  if (pos == it->second.end()) return false;
  *pos = to;
  return true;
}

void HashIndex::Lookup(const IndexKey& key,
                       const std::function<bool(RowId)>& fn) const {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  for (RowId rid : it->second) {
    if (!fn(rid)) return;
  }
}

}  // namespace bih
