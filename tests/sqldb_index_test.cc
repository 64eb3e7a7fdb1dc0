// Index differential: seeded streams of Table::Insert / Delete /
// RestoreSlot / CreateIndex-on-a-populated-table / Index::Lookup against a
// reference std::map from key to the ascending row ids under it. The
// streams carry NULL key components, unique violations (a violation on the
// table's last index rolls the row back out of every earlier one), long
// duplicate chains, text+integer composite keys, integer keys that share
// their low 16 bits, and enough distinct keys to rehash every index
// several times. Each run prints its seed; P3PDB_INDEX_SEED replays one. A
// failing run writes the seed and the tail of its operation log to
// plan_equivalence_failure.txt, which CI uploads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "sqldb/table.h"

namespace p3pdb::sqldb {
namespace {

using Key = std::vector<Value>;

struct KeyLess {
  bool operator()(const Key& a, const Key& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = Value::OrderCompare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// The reference for one index: every non-NULL key and its row ids, in
/// ascending order.
struct RefIndex {
  std::string name;
  std::vector<size_t> columns;
  bool unique = false;
  std::map<Key, std::vector<size_t>, KeyLess> rows;

  Key KeyOf(RowView row) const {
    Key key;
    for (size_t c : columns) key.push_back(row[c]);
    return key;
  }
  static bool HasNull(const Key& key) {
    return std::any_of(key.begin(), key.end(),
                       [](const Value& v) { return v.is_null(); });
  }
  void Add(RowView row, size_t id) {
    Key key = KeyOf(row);
    if (!HasNull(key)) rows[key].push_back(id);
  }
  void Remove(RowView row, size_t id) {
    Key key = KeyOf(row);
    if (HasNull(key)) return;
    auto it = rows.find(key);
    ASSERT_NE(it, rows.end());
    std::erase(it->second, id);
    if (it->second.empty()) rows.erase(it);
  }
};

// Columns: id (NOT NULL, primary key), a, b (text), c.
constexpr size_t kId = 0, kA = 1, kB = 2, kC = 3;

TableSchema Schema() {
  TableSchema schema("T", {{"id", ColumnType::kInteger, false},
                           {"a", ColumnType::kInteger, true},
                           {"b", ColumnType::kText, true},
                           {"c", ColumnType::kInteger, true}});
  schema.set_primary_key({"id"});
  return schema;
}

/// A value of `a`: a small domain (long duplicate chains), keys that share
/// their low 16 bits, a wide range, or NULL.
Value DrawA(Random* rng) {
  const uint64_t pick = rng->Uniform(10);
  if (pick < 4) return Value::Integer(static_cast<int64_t>(rng->Uniform(24)));
  if (pick < 7) {
    return Value::Integer(static_cast<int64_t>(rng->Uniform(4096) << 16) |
                          0xBEEF);
  }
  if (pick < 9) {
    return Value::Integer(static_cast<int64_t>(rng->Next() >> 1));
  }
  return Value::Null();
}

Value DrawB(Random* rng) {
  static const char* const kWords[] = {
      "current", "admin", "develop", "ours", "delivery",
      "a text too long for the inline string buffer", "", "same"};
  if (rng->Bernoulli(0.1)) return Value::Null();
  if (rng->Bernoulli(0.3)) {
    return Value::Text("t" + std::to_string(rng->Uniform(2000)));
  }
  return Value::Text(kWords[rng->Uniform(std::size(kWords))]);
}

Row DrawRow(Random* rng, size_t ops) {
  Row row(4);
  row[kId] = Value::Integer(static_cast<int64_t>(rng->Uniform(ops)));
  row[kA] = DrawA(rng);
  row[kB] = DrawB(rng);
  row[kC] = rng->Bernoulli(0.2)
                ? Value::Null()
                : Value::Integer(static_cast<int64_t>(rng->Uniform(ops)));
  return row;
}

std::string KeyText(const Key& key) {
  std::string s;
  for (const Value& v : key) {
    if (!s.empty()) s += ", ";
    s += v.ToString();
  }
  return s;
}

/// Row ids Lookup returns for `key`, in iteration order.
std::vector<size_t> Probe(const Index& index, const Key& key) {
  std::vector<const Value*> ptrs;
  for (const Value& v : key) ptrs.push_back(&v);
  std::vector<size_t> ids;
  for (size_t id : index.Lookup(IndexKeyView{ptrs.data(), ptrs.size()})) {
    ids.push_back(id);
  }
  return ids;
}

class IndexDifferential : public ::testing::TestWithParam<uint64_t> {
 protected:
  /// Every index agrees with its reference: each reference key's rows come
  /// back in ascending order, and the index holds no other key.
  void VerifyAll(const Table& table, const std::vector<RefIndex>& refs) {
    ASSERT_EQ(table.indexes().size(), refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      const Index& index = *table.indexes()[i];
      ASSERT_EQ(index.name(), refs[i].name);
      for (const auto& [key, ids] : refs[i].rows) {
        ASSERT_EQ(Probe(index, key), ids)
            << index.name() << " key " << KeyText(key);
      }
      EXPECT_EQ(index.footprint().keys, refs[i].rows.size()) << index.name();
    }
  }

  void Record(std::string op) {
    log_.push_back(std::move(op));
    if (log_.size() > 400) log_.erase(log_.begin(), log_.begin() + 200);
  }

  // Also after an ASSERT returned from the test body.
  void TearDown() override {
    if (!HasFailure()) return;
    std::ofstream out("plan_equivalence_failure.txt", std::ios::trunc);
    out << "index differential disagreement (seed " << GetParam() << ")\n"
        << "last operations:\n";
    for (const std::string& op : log_) out << "  " << op << "\n";
    out << "replay: P3PDB_INDEX_SEED=" << GetParam()
        << " ./sqldb_index_test --gtest_filter='*IndexDifferential*'\n";
  }

  std::vector<std::string> log_;
};

TEST_P(IndexDifferential, AgreesWithReferenceMap) {
  const uint64_t seed = GetParam();
  std::printf("index differential seed %llu\n",
              static_cast<unsigned long long>(seed));
  Random rng(seed * 7727 + 11);
  constexpr size_t kOps = 24000;

  Table table(Schema());
  // Index order is the order Table::Insert tries them in: the unique index
  // on c comes last, so its violations roll back the three before it.
  std::vector<RefIndex> refs = {{"pk_T", {kId}, true, {}}};
  ASSERT_TRUE(table.CreateIndex("idx_a", {"a"}, false).ok());
  refs.push_back({"idx_a", {kA}, false, {}});
  ASSERT_TRUE(table.CreateIndex("idx_b_c", {"b", "c"}, false).ok());
  refs.push_back({"idx_b_c", {kB, kC}, false, {}});
  ASSERT_TRUE(table.CreateIndex("uq_c", {"c"}, true).ok());
  refs.push_back({"uq_c", {kC}, true, {}});
  std::vector<size_t> live;  // live row ids
  bool late_index = false;
  size_t rollbacks = 0;

  for (size_t op = 0; op < kOps && !HasFailure(); ++op) {
    const uint64_t pick = rng.Uniform(100);
    if (pick < 55 || live.empty()) {
      // Insert, or restore a live slot: the same checks, the same outcome.
      const bool restore = rng.Bernoulli(0.2);
      Row row = DrawRow(&rng, kOps);
      const size_t id = table.SlotCount();
      const RefIndex* violated = nullptr;
      for (const RefIndex& ref : refs) {
        const Key key = ref.KeyOf(row);
        if (ref.unique && !RefIndex::HasNull(key) && ref.rows.count(key)) {
          violated = &ref;
          break;
        }
      }
      Record(std::string(restore ? "restore " : "insert ") +
             KeyText(row) + " -> " + std::to_string(id));
      Status st = restore ? table.RestoreSlot(row, true) : table.Insert(row);
      if (violated != nullptr) {
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.message(), "unique index '" + violated->name +
                                    "' violation for key " +
                                    KeyText(violated->KeyOf(row)));
        EXPECT_EQ(table.SlotCount(), id);
        if (violated != &refs.front()) ++rollbacks;
        continue;
      }
      ASSERT_TRUE(st.ok()) << st;
      for (RefIndex& ref : refs) ref.Add(row, id);
      live.push_back(id);
    } else if (pick < 80) {
      const size_t at = rng.Uniform(live.size());
      const size_t id = live[at];
      Record("delete " + std::to_string(id));
      for (RefIndex& ref : refs) ref.Remove(table.RowAt(id), id);
      table.Delete(id);
      live[at] = live.back();
      live.pop_back();
    } else if (pick < 83) {
      Record("restore dead slot " + std::to_string(table.SlotCount()));
      ASSERT_TRUE(table.RestoreSlot(Row(4), false).ok());
    } else {
      // Probe a live row's key, a NULL-bearing key, or a random one.
      Key key;
      const RefIndex& ref = refs[rng.Uniform(refs.size())];
      if (rng.Bernoulli(0.6) && !live.empty()) {
        key = ref.KeyOf(table.RowAt(live[rng.Uniform(live.size())]));
      } else {
        key = ref.KeyOf(DrawRow(&rng, kOps));
      }
      Record("lookup " + ref.name + " " + KeyText(key));
      const size_t i = static_cast<size_t>(&ref - refs.data());
      std::vector<size_t> expected;
      if (!RefIndex::HasNull(key)) {
        auto it = ref.rows.find(key);
        if (it != ref.rows.end()) expected = it->second;
      }
      ASSERT_EQ(Probe(*table.indexes()[i], key), expected)
          << ref.name << " key " << KeyText(key);
    }
    if (!late_index && op == kOps / 2) {
      // An index created over a populated table (and dead slots) indexes
      // every live row at once.
      Record("create index idx_a_b (a, b)");
      ASSERT_TRUE(table.CreateIndex("idx_a_b", {"a", "b"}, false).ok());
      RefIndex ref{"idx_a_b", {kA, kB}, false, {}};
      for (size_t id = 0; id < table.SlotCount(); ++id) {
        if (table.IsLive(id)) ref.Add(table.RowAt(id), id);
      }
      refs.push_back(std::move(ref));
      late_index = true;
      VerifyAll(table, refs);
    }
    if (op % 3000 == 0) VerifyAll(table, refs);
  }
  VerifyAll(table, refs);

  // The stream exercised what it is for.
  EXPECT_GT(rollbacks, 0u);
  size_t longest_chain = 0;
  for (const auto& [key, ids] : refs[1].rows) {
    longest_chain = std::max(longest_chain, ids.size());
  }
  EXPECT_GE(longest_chain, 50u);
  EXPECT_GE(table.indexes()[0]->footprint().slots, 8u << 8)
      << "the primary-key index rehashed fewer than 8 times";
}

std::vector<uint64_t> Seeds() {
  if (const char* env = std::getenv("P3PDB_INDEX_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3, 20261020};
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential,
                         ::testing::ValuesIn(Seeds()));

// Keys that differ only above their low 16 bits, alone and as the last
// column of (policy_id, statement_id, data_id)-shaped composites, spread
// over the table: with no finalizer the FNV fold leaves their low bits
// equal and every one of them probes from the same home slot.
TEST(IndexHashSpread, KeysSharingLowBitsDoNotCluster) {
  TableSchema schema("S", {{"p", ColumnType::kInteger, false},
                           {"s", ColumnType::kInteger, false},
                           {"d", ColumnType::kInteger, false}});
  Table table(std::move(schema));
  ASSERT_TRUE(table.CreateIndex("idx_d", {"d"}, true).ok());
  ASSERT_TRUE(table.CreateIndex("idx_psd", {"p", "s", "d"}, true).ok());
  constexpr int64_t kKeys = 4096;
  for (int64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::Integer(i % 7), Value::Integer(i % 3),
                             Value::Integer((i << 16) | 0x2A2A)})
                    .ok());
  }
  for (const auto& index : table.indexes()) {
    const Index::Footprint f = index->footprint();
    std::printf("%s: %zu keys in %zu slots, longest probe %zu\n",
                index->name().c_str(), f.keys, f.slots, f.max_probe);
    EXPECT_EQ(f.keys, static_cast<size_t>(kKeys));
    EXPECT_LE(f.max_probe, 64u) << index->name();
  }
}

}  // namespace
}  // namespace p3pdb::sqldb
