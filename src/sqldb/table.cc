#include "sqldb/table.h"

#include <algorithm>

namespace p3pdb::sqldb {

namespace {

constexpr uint32_t kEnd = IndexRows::kEnd;
constexpr size_t kMinSlots = 8;

}  // namespace

template <typename KeyAt>
uint64_t Index::HashKey(KeyAt key_at) const {
  uint64_t hash = kFnvOffsetBasis;
  for (size_t i = 0; i < column_ordinals_.size(); ++i) {
    hash = CombineKeyHash(hash, key_at(i));
  }
  return FinalizeKeyHash(hash);
}

template <typename KeyAt>
size_t Index::FindSlot(uint64_t hash, KeyAt key_at, uint32_t self) const {
  const size_t mask = slots_.size() - 1;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const Slot& slot = slots_[pos];
    if (slot.first == kEnd) return pos;
    if (slot.hash != hash) continue;
    // A row id sits in one chain only, so `self` needs no key compare
    // (and may be the row Table::Insert has not appended yet).
    if (slot.first == self) return pos;
    const RowView first = table_->RowAt(slot.first);
    bool equal = true;
    for (size_t i = 0; i < column_ordinals_.size() && equal; ++i) {
      equal = first[column_ordinals_[i]] == key_at(i);
    }
    if (equal) return pos;
  }
}

void Index::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, old.size() * 2), Slot{0, kEnd, kEnd});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.first == kEnd) continue;
    size_t pos = slot.hash & mask;
    while (slots_[pos].first != kEnd) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }
}

Status Index::Insert(RowView row, size_t row_id) {
  for (size_t ord : column_ordinals_) {
    if (row[ord].is_null()) return Status::OK();  // NULL keys are not indexed
  }
  if (row_id >= kEnd) {
    return Status::LimitExceeded("index '" + name_ + "' is full");
  }
  if (slots_.empty()) Grow();
  auto key_at = [&](size_t i) -> const Value& {
    return row[column_ordinals_[i]];
  };
  const uint64_t hash = HashKey(key_at);
  size_t pos = FindSlot(hash, key_at, kEnd);
  const auto id = static_cast<uint32_t>(row_id);
  if (slots_[pos].first != kEnd) {
    if (unique_) {
      std::string key;
      for (size_t ord : column_ordinals_) {
        if (!key.empty()) key += ", ";
        key += row[ord].ToString();
      }
      return Status::AlreadyExists("unique index '" + name_ +
                                   "' violation for key " + key);
    }
    // Ids arrive ascending, so appending keeps the chain in row order.
    if (next_.size() <= row_id) next_.resize(row_id + 1, kEnd);
    next_[slots_[pos].last] = id;
    next_[id] = kEnd;
    slots_[pos].last = id;
    return Status::OK();
  }
  if ((keys_ + 1) * 4 > slots_.size() * 3) {
    Grow();
    pos = FindSlot(hash, key_at, kEnd);
  }
  if (next_.size() <= row_id) next_.resize(row_id + 1, kEnd);
  next_[id] = kEnd;
  slots_[pos] = Slot{hash, id, id};
  ++keys_;
  return Status::OK();
}

void Index::Erase(RowView row, size_t row_id) {
  for (size_t ord : column_ordinals_) {
    if (row[ord].is_null()) return;
  }
  if (slots_.empty() || row_id >= next_.size()) return;
  auto key_at = [&](size_t i) -> const Value& {
    return row[column_ordinals_[i]];
  };
  const auto id = static_cast<uint32_t>(row_id);
  size_t pos = FindSlot(HashKey(key_at), key_at, id);
  Slot& slot = slots_[pos];
  if (slot.first == kEnd) return;
  if (slot.first != id) {
    uint32_t prev = slot.first;
    while (prev != kEnd && next_[prev] != id) prev = next_[prev];
    if (prev == kEnd) return;  // not under this key
    next_[prev] = next_[id];
    if (slot.last == id) slot.last = prev;
    next_[id] = kEnd;
    return;
  }
  slot.first = next_[id];
  next_[id] = kEnd;
  if (slot.first != kEnd) return;
  // The key's last row is gone: backward-shift deletion. Each later slot
  // of the probe run moves into the hole unless its home slot lies
  // between the hole and it, so every key stays reachable from its home.
  const size_t mask = slots_.size() - 1;
  size_t hole = pos;
  for (size_t j = (hole + 1) & mask; slots_[j].first != kEnd;
       j = (j + 1) & mask) {
    const size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{0, kEnd, kEnd};
  --keys_;
}

IndexRows Index::Lookup(const IndexKeyView& key) const {
  if (slots_.empty() || key.size != column_ordinals_.size()) return {};
  for (size_t i = 0; i < key.size; ++i) {
    if (key.values[i]->is_null()) return {};
  }
  auto key_at = [&](size_t i) -> const Value& { return *key.values[i]; };
  const Slot& slot = slots_[FindSlot(HashKey(key_at), key_at, kEnd)];
  return IndexRows(slot.first, next_.data());
}

Index::Footprint Index::footprint() const {
  Footprint f;
  f.keys = keys_;
  f.slots = slots_.size();
  const size_t mask = slots_.size() - 1;
  for (size_t pos = 0; pos < slots_.size(); ++pos) {
    if (slots_[pos].first == kEnd) continue;
    f.max_probe = std::max(f.max_probe, (pos - slots_[pos].hash) & mask);
  }
  f.heap_bytes = slots_.capacity() * sizeof(Slot) +
                 next_.capacity() * sizeof(uint32_t);
  return f;
}

Value TextPool::Intern(const Value& v) {
  const size_t bytes = v.StoredTextBytes();
  if (bytes == 0) return v;
  if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
  const size_t hash = v.Hash();
  const size_t mask = slots_.size() - 1;
  size_t pos = hash & mask;
  for (; !slots_[pos].is_null(); pos = (pos + 1) & mask) {
    const Value& slot = slots_[pos];
    if (slot.Hash() == hash && slot.AsText() == v.AsText()) {
      return slot.Borrow();
    }
  }
  // Entries stay 8-byte aligned for their hash headers. A chunk holds at
  // least every byte stored so far (capped), so chunks grow geometrically
  // and a small table's pool stays small.
  constexpr size_t kMinChunk = 256;
  constexpr size_t kMaxChunk = 64 * 1024;
  const size_t need = (bytes + 7) & ~size_t{7};
  if (need > free_bytes_) {
    const size_t chunk = std::max(
        need, std::clamp(chunk_bytes_, kMinChunk, kMaxChunk));
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(chunk));
    free_ = chunks_.back().get();
    free_bytes_ = chunk;
    chunk_bytes_ += chunk;
  }
  slots_[pos] = v.StoreText(free_);
  free_ += need;
  free_bytes_ -= need;
  ++size_;
  return slots_[pos].Borrow();
}

void TextPool::Grow() {
  std::vector<Value> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, old.size() * 2), Value());
  const size_t mask = slots_.size() - 1;
  for (Value& entry : old) {
    if (entry.is_null()) continue;
    size_t pos = entry.Hash() & mask;
    while (!slots_[pos].is_null()) pos = (pos + 1) & mask;
    slots_[pos] = std::move(entry);
  }
}

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), columns_(schema_.ColumnCount()) {
  if (!schema_.primary_key().empty()) {
    // The implicit PK index; CreateIndex validates the column names.
    Status st = CreateIndex("pk_" + schema_.name(), schema_.primary_key(),
                            /*unique=*/true);
    (void)st;  // schema construction validated PK columns upstream
  }
}

void Table::AppendCells(RowView row) {
  // Growth by half again (not doubling) bounds the idle tail of the array,
  // the bulk of a table's memory, to a third of it.
  if (cells_.size() + columns_ > cells_.capacity()) {
    // `row` may be one of this table's own slots, which the move drops.
    const Value* old = cells_.data();
    const bool own_slot = row.data() >= old && row.data() < old + cells_.size();
    cells_.reserve(std::max(cells_.capacity() + cells_.capacity() / 2,
                            cells_.size() + columns_));
    if (own_slot) {
      row = RowView(cells_.data() + (row.data() - old), row.size());
    }
  }
  for (const Value& v : row) cells_.push_back(text_.Intern(v));
  live_.push_back(false);
}

Status Table::IndexAppended(size_t row_id) {
  const RowView row = RowAt(row_id);
  for (auto& index : indexes_) {
    Status st = index->Insert(row, row_id);
    if (!st.ok()) {
      // Roll back entries added to earlier indexes.
      for (auto& prior : indexes_) {
        if (prior.get() == index.get()) break;
        prior->Erase(row, row_id);
      }
      cells_.resize(row_id * columns_);
      live_.pop_back();
      return st;
    }
  }
  return Status::OK();
}

Status Table::Insert(RowView row) {
  P3PDB_RETURN_IF_ERROR(schema_.ValidateRow(row));
  const size_t row_id = live_.size();
  AppendCells(row);
  P3PDB_RETURN_IF_ERROR(IndexAppended(row_id));
  live_[row_id] = true;
  ++live_count_;
  version_.fetch_add(1, std::memory_order_relaxed);
  for (TableObserver* obs : observers_) {
    obs->OnInsert(*this, row_id, RowAt(row_id));
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
  if (row_id >= live_.size() || !live_[row_id]) return;
  for (auto& index : indexes_) index->Erase(RowAt(row_id), row_id);
  live_[row_id] = false;
  --live_count_;
  version_.fetch_add(1, std::memory_order_relaxed);
  for (TableObserver* obs : observers_) obs->OnDelete(*this, row_id);
}

Status Table::RestoreSlot(RowView row, bool live) {
  const size_t row_id = live_.size();
  if (live) {
    P3PDB_RETURN_IF_ERROR(schema_.ValidateRow(row));
    AppendCells(row);
    P3PDB_RETURN_IF_ERROR(IndexAppended(row_id));
    live_[row_id] = true;
    ++live_count_;
  } else {
    // A dead slot keeps only its place: NULL cells, nothing interned.
    cells_.resize(cells_.size() + columns_);
    live_.push_back(false);
  }
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
  auto index = std::make_unique<Index>(index_name, std::move(ordinals), unique,
                                       this);
  for (size_t row_id = 0; row_id < live_.size(); ++row_id) {
    if (!live_[row_id]) continue;
    P3PDB_RETURN_IF_ERROR(index->Insert(RowAt(row_id), row_id));
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
