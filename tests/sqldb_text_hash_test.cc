// Text hashing across storage kinds, a seeded property test. A text
// Value's bytes are owned (a parameter), kept in a statement arena (a
// literal) or interned in a table's TextPool (a row's cell); Value::Hash,
// CombineKeyHash and IndexKeyHash must be a function of the bytes alone
// whichever it is, or an index probe, a hash-join key set or a statistics
// sketch would disagree between two replicas, or between a table and its
// checkpoint-restored copy. The texts cover the empty text, the inline
// boundary (Value::kInlineText), embedded NUL bytes, text over 4 KiB and
// texts whose hashes collide in their low bits (the bits an index slot and
// the pool's lookup table take first). Each run prints its seed;
// P3PDB_TEXT_HASH_SEED replays one.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "common/fnv.h"
#include "common/random.h"
#include "common/string_util.h"
#include "sqldb/database.h"
#include "sqldb/table.h"
#include "sqldb/value.h"

namespace p3pdb::sqldb {
namespace {

uint64_t Seed() {
  const char* env = std::getenv("P3PDB_TEXT_HASH_SEED");
  const uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10)
                                       : 20261021;
  std::printf("text hash seed %llu (P3PDB_TEXT_HASH_SEED replays it)\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

std::string RandomText(Random* rng, size_t size, bool printable) {
  std::string text(size, '\0');
  for (char& c : text) {
    c = printable ? static_cast<char>('a' + rng->Uniform(26))
                  : static_cast<char>(rng->Uniform(256));
  }
  return text;
}

/// Distinct texts of every kind the file comment names. `printable` keeps
/// them to SQL-literal-safe letters (no NUL, no quote).
std::vector<std::string> Texts(Random* rng, bool printable) {
  std::set<std::string> texts = {
      "",
      "a",
      std::string(Value::kInlineText, 'i'),
      std::string(Value::kInlineText + 1, 'j'),
      RandomText(rng, 5000, printable),
      RandomText(rng, 4097, printable),
  };
  if (!printable) {
    texts.insert(std::string("\0", 1));
    texts.insert(std::string("ab\0cd", 5));
    texts.insert(std::string("embedded\0nul\0across\0the boundary", 32));
  }
  for (int i = 0; i < 60; ++i) {
    texts.insert(RandomText(rng, rng->Uniform(48), printable));
  }
  // Groups of long texts whose hashes agree in their low 12 bits.
  std::map<size_t, std::vector<std::string>> by_low_bits;
  int groups = 0;
  while (groups < 4) {
    std::string text = RandomText(rng, 20 + rng->Uniform(20), printable);
    std::vector<std::string>& group =
        by_low_bits[std::hash<std::string_view>()(text) & 0xfff];
    group.push_back(std::move(text));
    if (group.size() == 2) {
      texts.insert(group.begin(), group.end());
      ++groups;
    }
  }
  return {texts.begin(), texts.end()};
}

uint64_t KeyHash(const Value& v) {
  return FinalizeKeyHash(CombineKeyHash(kFnvOffsetBasis, v));
}

TEST(TextHashTest, HashIsAFunctionOfTheBytesWhereverTheyLive) {
  Random rng(Seed());
  const std::vector<std::string> texts = Texts(&rng, /*printable=*/false);

  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (id INTEGER, "
                               "s TEXT, PRIMARY KEY (id)); CREATE INDEX t_s ON t (s);")
                  .ok());
  // Every text twice, so the pool must find the first copy again.
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < texts.size(); ++i) {
      const int64_t id = static_cast<int64_t>(round * texts.size() + i);
      ASSERT_TRUE(
          db.InsertRow("t", {Value::Integer(id), Value::Text(texts[i])}).ok());
    }
  }
  const Table& table = *db.LookupTable("t");
  size_t long_texts = 0;
  for (const std::string& text : texts) {
    if (text.size() > Value::kInlineText) ++long_texts;
  }
  EXPECT_EQ(table.footprint().distinct_texts, long_texts);

  const Index* index = table.FindIndexCovering(std::vector<size_t>{1});
  ASSERT_NE(index, nullptr);
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE("text " + std::to_string(i) + " of size " +
                 std::to_string(texts[i].size()));
    const Value param = Value::Text(texts[i]);
    const Value& cell = table.RowAt(i)[1];
    const Value& again = table.RowAt(texts.size() + i)[1];
    ASSERT_EQ(cell.AsText(), texts[i]);
    EXPECT_EQ(param.AsText().size(), texts[i].size());
    const size_t bytes_hash = std::hash<std::string_view>()(texts[i]);
    for (const Value* v : {&param, &cell, &again}) {
      EXPECT_EQ(v->Hash(), bytes_hash);
      EXPECT_EQ(Value(*v).Hash(), bytes_hash);
      EXPECT_EQ(v->Borrow().Hash(), bytes_hash);
      EXPECT_EQ(KeyHash(*v), KeyHash(param));
      EXPECT_TRUE(*v == param);
    }
    const IndexKey owned{{param}};
    const Value* view_values[] = {&cell};
    const IndexKeyView view{view_values, 1};
    EXPECT_EQ(IndexKeyHash()(owned), IndexKeyHash()(view));
    EXPECT_TRUE(IndexKeyEqual()(owned, view));

    // The index, keyed by the interned cells, finds both rows from the
    // owned text.
    const Value* probe_values[] = {&param};
    std::vector<size_t> rows;
    for (size_t row : index->Lookup(IndexKeyView{probe_values, 1})) {
      rows.push_back(row);
    }
    EXPECT_EQ(rows, (std::vector<size_t>{i, texts.size() + i}));

    // So does SQL, with the text as a parameter.
    auto by_param = db.Execute("SELECT id FROM t WHERE s = ? ORDER BY id",
                               {Value::Text(texts[i])});
    ASSERT_TRUE(by_param.ok()) << by_param.status();
    ASSERT_EQ(by_param.value().rows.size(), 2u);
    EXPECT_EQ(by_param.value().rows[0][0].AsInteger(),
              static_cast<int64_t>(i));
  }
}

TEST(TextHashTest, LiteralsHashLikeTheInternedCopy) {
  Random rng(Seed() + 1);
  const std::vector<std::string> texts = Texts(&rng, /*printable=*/true);

  Database db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (id INTEGER, "
                               "s TEXT, PRIMARY KEY (id)); CREATE INDEX t_s ON t (s);")
                  .ok());
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", " + SqlQuote(texts[i]) + ")")
                    .ok());
  }
  const Table& table = *db.LookupTable("t");
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE("text " + std::to_string(i));
    EXPECT_EQ(table.RowAt(i)[1].Hash(),
              std::hash<std::string_view>()(texts[i]));
    // The literal's arena copy probes the index built from the pool's.
    auto by_literal =
        db.Execute("SELECT id FROM t WHERE s = " + SqlQuote(texts[i]));
    ASSERT_TRUE(by_literal.ok()) << by_literal.status();
    ASSERT_EQ(by_literal.value().rows.size(), 1u);
    EXPECT_EQ(by_literal.value().rows[0][0].AsInteger(),
              static_cast<int64_t>(i));
    EXPECT_EQ(by_literal.value().columns.size(), 1u);
  }
  // A semi-join between two tables matches each text across their two
  // pools, whichever plan (hash key set or index probe) runs it.
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE u (s TEXT);").ok());
  for (size_t i = 0; i < texts.size(); i += 2) {
    ASSERT_TRUE(db.InsertRow("u", {Value::Text(texts[i])}).ok());
  }
  auto joined = db.Execute(
      "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT * FROM u WHERE u.s = t.s)");
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined.value().rows[0][0].AsInteger(),
            static_cast<int64_t>((texts.size() + 1) / 2));
}

/// NDV estimates and index shapes of `table`, which depend on every
/// value's hash (and, for the longest probe, on the insertion order).
struct HashShape {
  std::vector<double> ndv;
  std::vector<size_t> index_keys;
  std::vector<size_t> index_max_probe;
};

void ExpectSameShape(const HashShape& got, const HashShape& want) {
  ASSERT_EQ(got.ndv.size(), want.ndv.size());
  for (size_t c = 0; c < want.ndv.size(); ++c) {
    // HLL registers are max-based and order-insensitive: bit-identical.
    EXPECT_DOUBLE_EQ(got.ndv[c], want.ndv[c]) << "column " << c;
  }
  EXPECT_EQ(got.index_keys, want.index_keys);
  EXPECT_EQ(got.index_max_probe, want.index_max_probe);
}

HashShape ShapeOf(Database* db, const std::string& name) {
  const Table* table = db->LookupTable(name);
  db->mutable_stats_catalog().Analyze(table);
  HashShape shape;
  auto snap = db->stats_catalog().Snapshot(table);
  EXPECT_TRUE(snap.has_value());
  if (snap.has_value()) {
    for (const ColumnStatsSnapshot& col : snap->columns) {
      shape.ndv.push_back(col.ndv);
    }
  }
  for (const auto& index : table->indexes()) {
    const Index::Footprint f = index->footprint();
    shape.index_keys.push_back(f.keys);
    shape.index_max_probe.push_back(f.max_probe);
  }
  return shape;
}

TEST(TextHashTest, SketchesAgreeAcrossReplicasAndARestore) {
  Random rng(Seed() + 2);
  const std::vector<std::string> vocabulary = Texts(&rng, /*printable=*/true);
  std::vector<std::pair<size_t, size_t>> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.emplace_back(rng.Uniform(vocabulary.size()),
                      rng.Uniform(vocabulary.size()));
  }
  const std::string schema =
      "CREATE TABLE t (id INTEGER, s TEXT, u TEXT, PRIMARY KEY (id)); "
      "CREATE INDEX t_s ON t (s); CREATE INDEX t_su ON t (s, u);";
  Database::Options options;
  options.enable_cost_model = true;  // the statistics are the cost model's

  // Replica A: programmatic inserts, disk-backed.
  const std::string dir = ::testing::TempDir() + "p3pdb_text_hash_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  HashShape a;
  {
    Database::Options durable = options;
    durable.storage.path = dir;
    Database db(durable);
    ASSERT_TRUE(db.storage_status().ok()) << db.storage_status();
    ASSERT_TRUE(db.ExecuteScript(schema).ok());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(db.InsertRow("t", {Value::Integer(static_cast<int64_t>(i)),
                                     Value::Text(vocabulary[rows[i].first]),
                                     Value::Text(vocabulary[rows[i].second])})
                      .ok());
    }
    a = ShapeOf(&db, "t");
  }  // checkpoints on close

  // Replica B: the same rows as SQL literals.
  Database b_db(options);
  ASSERT_TRUE(b_db.ExecuteScript(schema).ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(b_db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                             ", " + SqlQuote(vocabulary[rows[i].first]) +
                             ", " + SqlQuote(vocabulary[rows[i].second]) + ")")
                    .ok());
  }
  ExpectSameShape(ShapeOf(&b_db, "t"), a);

  // A's checkpoint-restored copy.
  Database::Options durable = options;
  durable.storage.path = dir;
  {
    Database restored(durable);
    ASSERT_TRUE(restored.storage_status().ok()) << restored.storage_status();
    ExpectSameShape(ShapeOf(&restored, "t"), a);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p3pdb::sqldb
