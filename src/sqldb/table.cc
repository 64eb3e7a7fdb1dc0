#include "sqldb/table.h"

#include <algorithm>

namespace p3pdb::sqldb {

Status Index::Insert(const Row& row, size_t row_id) {
  IndexKey key = ExtractKey(row);
  for (const Value& v : key.values) {
    if (v.is_null()) return Status::OK();  // NULL keys are not indexed
  }
  // Find-then-emplace so the key vector is moved into the map instead of
  // copied (map_[key] would deep-copy every Value).
  auto it = map_.find(key);
  if (it == map_.end()) it = map_.try_emplace(std::move(key)).first;
  std::vector<size_t>& ids = it->second;
  if (unique_ && !ids.empty()) {
    return Status::AlreadyExists("unique index '" + name_ +
                                 "' violation for key " +
                                 [&] {
                                   std::string s;
                                   for (const Value& v : it->first.values) {
                                     if (!s.empty()) s += ", ";
                                     s += v.ToString();
                                   }
                                   return s;
                                 }());
  }
  ids.push_back(row_id);
  return Status::OK();
}

void Index::Erase(const Row& row, size_t row_id) {
  IndexKey key = ExtractKey(row);
  for (const Value& v : key.values) {
    if (v.is_null()) return;
  }
  auto it = map_.find(key);
  if (it == map_.end()) return;
  auto& ids = it->second;
  ids.erase(std::remove(ids.begin(), ids.end(), row_id), ids.end());
  if (ids.empty()) map_.erase(it);
}

const std::vector<size_t>* Index::Lookup(const IndexKey& key) const {
  for (const Value& v : key.values) {
    if (v.is_null()) return nullptr;
  }
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

const std::vector<size_t>* Index::Lookup(const IndexKeyView& key) const {
  for (size_t i = 0; i < key.size; ++i) {
    if (key.values[i]->is_null()) return nullptr;
  }
  auto it = map_.find(key);  // heterogeneous lookup, no IndexKey built
  return it == map_.end() ? nullptr : &it->second;
}

IndexKey Index::ExtractKey(const Row& row) const {
  IndexKey key;
  key.values.reserve(column_ordinals_.size());
  for (size_t ord : column_ordinals_) key.values.push_back(row[ord]);
  return key;
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  if (!schema_.primary_key().empty()) {
    // The implicit PK index; CreateIndex validates the column names.
    Status st = CreateIndex("pk_" + schema_.name(), schema_.primary_key(),
                            /*unique=*/true);
    (void)st;  // schema construction validated PK columns upstream
  }
}

Status Table::Insert(Row row) {
  P3PDB_RETURN_IF_ERROR(schema_.ValidateRow(row));
  size_t row_id = rows_.size();
  for (auto& index : indexes_) {
    Status st = index->Insert(row, row_id);
    if (!st.ok()) {
      // Roll back entries added to earlier indexes.
      for (auto& prior : indexes_) {
        if (prior.get() == index.get()) break;
        prior->Erase(row, row_id);
      }
      return st;
    }
  }
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  version_.fetch_add(1, std::memory_order_relaxed);
  for (TableObserver* obs : observers_) {
    obs->OnInsert(*this, row_id, rows_[row_id]);
  }
  return Status::OK();
}

void Table::AddObserver(TableObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void Table::RemoveObserver(TableObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void Table::Delete(size_t row_id) {
  if (row_id >= rows_.size() || !live_[row_id]) return;
  for (auto& index : indexes_) index->Erase(rows_[row_id], row_id);
  live_[row_id] = false;
  --live_count_;
  version_.fetch_add(1, std::memory_order_relaxed);
  for (TableObserver* obs : observers_) obs->OnDelete(*this, row_id);
}

Status Table::RestoreSlot(Row row, bool live) {
  const size_t row_id = rows_.size();
  if (live) {
    P3PDB_RETURN_IF_ERROR(schema_.ValidateRow(row));
    for (auto& index : indexes_) {
      Status st = index->Insert(row, row_id);
      if (!st.ok()) {
        for (auto& prior : indexes_) {
          if (prior.get() == index.get()) break;
          prior->Erase(row, row_id);
        }
        return st;
      }
    }
  }
  rows_.push_back(std::move(row));
  live_.push_back(live);
  if (live) ++live_count_;
  version_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& column_names,
                          bool unique) {
  std::vector<size_t> ordinals;
  ordinals.reserve(column_names.size());
  for (const std::string& name : column_names) {
    std::optional<size_t> ord = schema_.ColumnIndex(name);
    if (!ord.has_value()) {
      return Status::NotFound("index column '" + name +
                              "' not in table '" + schema_.name() + "'");
    }
    ordinals.push_back(*ord);
  }
  for (const auto& existing : indexes_) {
    if (existing->name() == index_name) {
      return Status::AlreadyExists("index '" + index_name + "' exists");
    }
  }
  auto index = std::make_unique<Index>(index_name, std::move(ordinals), unique);
  for (size_t row_id = 0; row_id < rows_.size(); ++row_id) {
    if (!live_[row_id]) continue;
    P3PDB_RETURN_IF_ERROR(index->Insert(rows_[row_id], row_id));
  }
  indexes_.push_back(std::move(index));
  for (TableObserver* obs : observers_) {
    obs->OnCreateIndex(*this, *indexes_.back());
  }
  return Status::OK();
}

const Index* Table::FindIndexCovering(
    std::span<const size_t> column_ordinals) const {
  // An index is usable if every one of its columns appears in the available
  // equality set; prefer the index binding the most columns.
  const Index* best = nullptr;
  for (const auto& index : indexes_) {
    const auto& cols = index->column_ordinals();
    bool all_available = true;
    for (size_t c : cols) {
      if (std::find(column_ordinals.begin(), column_ordinals.end(), c) ==
          column_ordinals.end()) {
        all_available = false;
        break;
      }
    }
    if (!all_available) continue;
    if (best == nullptr ||
        cols.size() > best->column_ordinals().size()) {
      best = index.get();
    }
  }
  return best;
}

}  // namespace p3pdb::sqldb
