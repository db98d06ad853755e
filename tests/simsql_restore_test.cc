/// ChainRunner::Restore over hostile snapshots. The "state" section is
/// bytes from outside the process; every snapshot here is built with
/// ckpt::SnapshotWriter, so the CRC holds and decoding reaches the table
/// reader. A malformed table must make Restore return an error, never
/// abort the process.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/snapshot.h"
#include "simsql/simsql.h"
#include "table/table.h"
#include "util/rng.h"

namespace mde::simsql {
namespace {

using table::DataType;

constexpr size_t kSteps = 4;

/// A one-table chain; Restore needs only the runner's step count, but a
/// real spec keeps the runner representative.
MarkovChainDb MakeDb() {
  MarkovChainDb db;
  ChainTableSpec spec;
  spec.name = "T";
  spec.init = [](const DatabaseState&, Rng&) -> Result<table::Table> {
    return table::Table{table::Schema({{"id", DataType::kInt64}})};
  };
  spec.transition = [](const DatabaseState& prev, const DatabaseState&,
                       Rng&) -> Result<table::Table> { return prev.at("T"); };
  EXPECT_TRUE(db.AddChainTable(std::move(spec)).ok());
  return db;
}

void PutType(ckpt::SectionWriter* w, DataType t) {
  w->PutU8(static_cast<uint8_t>(t));
}

/// A state section in the layout ChainRunner::Save writes: table count;
/// per table its name, column count, (name, type byte) per column, row
/// count, and per cell a type tag plus payload. One table of every column
/// type, with nulls.
std::string ValidState() {
  ckpt::SectionWriter w;
  w.PutU32(1);
  w.PutString("T");
  w.PutU32(4);
  w.PutString("id");
  PutType(&w, DataType::kInt64);
  w.PutString("x");
  PutType(&w, DataType::kDouble);
  w.PutString("name");
  PutType(&w, DataType::kString);
  w.PutString("flag");
  PutType(&w, DataType::kBool);
  w.PutU64(3);
  for (int64_t r = 0; r < 3; ++r) {
    PutType(&w, DataType::kInt64);
    w.PutI64(r);
    if (r == 1) {
      PutType(&w, DataType::kNull);
    } else {
      PutType(&w, DataType::kDouble);
      w.PutDouble(0.5 * static_cast<double>(r));
    }
    PutType(&w, DataType::kString);
    w.PutString("row" + std::to_string(r));
    PutType(&w, DataType::kBool);
    w.PutBool(r % 2 == 0);
  }
  return w.bytes();
}

/// A single-table state section with one column whose type byte is
/// `type_byte`, announcing `rows` rows; callers append the cells.
ckpt::SectionWriter OneColumnState(uint8_t type_byte, uint64_t rows) {
  ckpt::SectionWriter w;
  w.PutU32(1);
  w.PutString("T");
  w.PutU32(1);
  w.PutString("v");
  w.PutU8(type_byte);
  w.PutU64(rows);
  return w;
}

/// Wraps `state` into a complete simsql snapshot (cursor, state, history).
std::string Snapshot(const std::string& state) {
  ckpt::SnapshotWriter snap("simsql");
  ckpt::SectionWriter* cursor = snap.AddSection("cursor");
  cursor->PutU64(1);
  cursor->PutU64(kSteps);
  cursor->PutRngState(Rng(7).state());
  snap.AddSection("state")->PutBytes(state.data(), state.size());
  snap.AddSection("history")->PutU32(0);
  return snap.Finish();
}

Status RestoreState(const std::string& state) {
  MarkovChainDb db = MakeDb();
  ChainRunner runner(db, kSteps, /*seed=*/7, /*rep=*/0);
  return runner.Restore(Snapshot(state));
}

TEST(SimsqlRestoreTest, StringCellInDoubleColumnIsRejected) {
  ckpt::SectionWriter w =
      OneColumnState(static_cast<uint8_t>(DataType::kDouble), 1);
  PutType(&w, DataType::kString);
  w.PutString("not a double");
  const Status st = RestoreState(w.bytes());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SimsqlRestoreTest, OutOfRangeColumnTypeIsRejected) {
  ckpt::SectionWriter w = OneColumnState(/*type_byte=*/9, 0);
  const Status st = RestoreState(w.bytes());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

/// Seeded fuzz over the valid section: each round flips a few bytes,
/// truncates, or both. Restore may accept (a flipped double payload is
/// still a valid table) or reject, but must return.
TEST(SimsqlRestoreTest, FuzzedStateSectionNeverAborts) {
  const std::string valid = ValidState();
  ASSERT_TRUE(RestoreState(valid).ok());
  Rng rng(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string mutant = valid;
    const uint64_t mode = rng.NextBounded(3);  // 0 flip, 1 truncate, 2 both
    if (mode != 1) {
      const uint64_t flips = 1 + rng.NextBounded(4);
      for (uint64_t f = 0; f < flips; ++f) {
        mutant[rng.NextBounded(mutant.size())] =
            static_cast<char>(rng.NextBounded(256));
      }
    }
    if (mode != 0) mutant.resize(rng.NextBounded(mutant.size()));
    if (RestoreState(mutant).ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both outcomes occur: the mutants exercise the table reader's accept
  // and reject paths, not just one of them.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace mde::simsql
