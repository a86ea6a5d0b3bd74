// End-to-end recovery tests: every scheme must restore the exact
// pre-crash committed state (content-hash checked), across workloads,
// thread counts, execution modes, ad-hoc fractions and backends.
#include "pacman/database.h"

#include <gtest/gtest.h>

#include <functional>

#include "proc/procedure.h"
#include "workload/adhoc.h"
#include "workload/bank.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

using logging::LogScheme;
using recovery::PacmanMode;
using recovery::RecoveryOptions;
using recovery::Scheme;

LogScheme SchemeLogFormat(Scheme s) {
  switch (s) {
    case Scheme::kPlr:
      return LogScheme::kPhysical;
    case Scheme::kLlr:
    case Scheme::kLlrP:
      return LogScheme::kLogical;
    case Scheme::kClr:
    case Scheme::kClrP:
      return LogScheme::kCommand;
  }
  return LogScheme::kCommand;
}

// Builds a bank database, runs a workload, checkpoints mid-way, crashes,
// recovers with `scheme` and verifies the content hash.
class BankRecoveryTest
    : public ::testing::TestWithParam<std::tuple<Scheme, uint32_t>> {};

TEST_P(BankRecoveryTest, RecoversExactState) {
  const Scheme scheme = std::get<0>(GetParam());
  const uint32_t threads = std::get<1>(GetParam());

  DatabaseOptions opts;
  opts.scheme = SchemeLogFormat(scheme);
  opts.num_ssds = 2;
  opts.num_loggers = 2;
  opts.epochs_per_batch = 3;
  opts.commits_per_epoch = 50;
  Database db(opts);

  workload::Bank bank(
      {.num_users = 500, .num_nations = 8, .single_fraction = 0.1});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  db.TakeCheckpoint();

  Rng rng(99);
  std::vector<Value> params;
  for (int i = 0; i < 400; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    if (i == 200) db.TakeCheckpoint();  // Mid-run checkpoint.
  }

  const uint64_t pre_crash = db.ContentHash();
  db.Crash();
  EXPECT_NE(db.ContentHash(), pre_crash);  // Memory is really gone.

  RecoveryOptions ropts;
  ropts.num_threads = threads;
  FullRecoveryResult result = db.Recover(scheme, ropts);
  EXPECT_EQ(db.ContentHash(), pre_crash);
  EXPECT_GT(result.checkpoint.seconds, 0.0);
  EXPECT_GT(result.log.seconds, 0.0);
  EXPECT_GT(result.log.records_replayed, 0u);

  // The database accepts new transactions after recovery.
  ProcId proc = bank.NextTransaction(&rng, &params);
  EXPECT_TRUE(db.ExecuteProcedure(proc, params).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BankRecoveryTest,
    ::testing::Combine(::testing::Values(Scheme::kPlr, Scheme::kLlr,
                                         Scheme::kLlrP, Scheme::kClr,
                                         Scheme::kClrP),
                       ::testing::Values(1u, 4u, 16u)));

// CLR-P execution-mode matrix (static / synchronous / pipelined) on TPC-C.
class ClrPModeTest : public ::testing::TestWithParam<PacmanMode> {};

TEST_P(ClrPModeTest, TpccRecoversExactState) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 40;
  opts.epochs_per_batch = 2;
  Database db(opts);

  workload::Tpcc tpcc({.num_warehouses = 2,
                       .districts_per_warehouse = 4,
                       .customers_per_district = 50,
                       .num_items = 100,
                       .orders_per_district = 8});
  tpcc.CreateTables(db.catalog());
  tpcc.RegisterProcedures(db.registry());
  tpcc.Load(db.catalog());
  db.FinalizeSchema();
  db.TakeCheckpoint();

  Rng rng(5);
  std::vector<Value> params;
  for (int i = 0; i < 300; ++i) {
    ProcId proc = tpcc.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  const uint64_t pre_crash = db.ContentHash();
  db.Crash();

  RecoveryOptions ropts;
  ropts.num_threads = 8;
  ropts.mode = GetParam();
  db.Recover(Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), pre_crash);
}

INSTANTIATE_TEST_SUITE_P(Modes, ClrPModeTest,
                         ::testing::Values(PacmanMode::kStaticOnly,
                                           PacmanMode::kSynchronous,
                                           PacmanMode::kPipelined));

TEST(RecoveryEquivalenceTest, AllSchemesProduceTheSameState) {
  // The same transaction stream recovered by all five schemes must yield
  // identical content hashes.
  std::vector<uint64_t> hashes;
  for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                        Scheme::kClr, Scheme::kClrP}) {
    DatabaseOptions opts;
    opts.scheme = SchemeLogFormat(scheme);
    opts.commits_per_epoch = 30;
    Database db(opts);
    workload::Smallbank sb({.num_accounts = 300,
                            .hotspot_fraction = 0.3,
                            .hotspot_size = 20});
    sb.CreateTables(db.catalog());
    sb.RegisterProcedures(db.registry());
    sb.Load(db.catalog());
    db.FinalizeSchema();
    db.TakeCheckpoint();
    Rng rng(17);
    std::vector<Value> params;
    for (int i = 0; i < 250; ++i) {
      ProcId proc = sb.NextTransaction(&rng, &params);
      ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 6;
    db.Recover(scheme, ropts);
    ASSERT_EQ(db.ContentHash(), pre) << recovery::SchemeName(scheme);
    hashes.push_back(db.ContentHash());
  }
  for (uint64_t h : hashes) EXPECT_EQ(h, hashes[0]);
}

TEST(AdhocRecoveryTest, MixedCommandAndLogicalRecords) {
  for (double frac : {0.0, 0.3, 1.0}) {
    DatabaseOptions opts;
    opts.scheme = LogScheme::kCommand;
    opts.commits_per_epoch = 25;
    Database db(opts);
    workload::Bank bank(
        {.num_users = 300, .num_nations = 8, .single_fraction = 0.0});
    bank.CreateTables(db.catalog());
    bank.RegisterProcedures(db.registry());
    bank.Load(db.catalog());
    db.FinalizeSchema();
    db.TakeCheckpoint();

    Rng rng(23);
    std::vector<Value> params;
    for (int i = 0; i < 200; ++i) {
      ProcId proc = bank.NextTransaction(&rng, &params);
      bool adhoc = workload::TagAdhoc(&rng, frac);
      ASSERT_TRUE(db.ExecuteProcedure(proc, params, adhoc).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 8;
    db.Recover(Scheme::kClrP, ropts);
    EXPECT_EQ(db.ContentHash(), pre) << "adhoc fraction " << frac;
  }
}

TEST(AdhocRecoveryTest, FreeFormWritesRecover) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 10;
  Database db(opts);
  workload::Bank bank({.num_users = 100, .num_nations = 4,
                       .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  db.TakeCheckpoint();

  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    std::vector<workload::AdhocWrite> writes;
    writes.push_back({"Current",
                      static_cast<Key>(rng.UniformInt(0, 99)),
                      {Value(static_cast<double>(i))}});
    writes.push_back({"Saving",
                      static_cast<Key>(rng.UniformInt(0, 99)),
                      {Value(static_cast<double>(2 * i))}});
    txn::CommitInfo info;
    ASSERT_TRUE(workload::ExecuteAdhocWrites(db.catalog(), db.txn_manager(),
                                             writes, &info)
                    .ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), pre);
}

TEST(ThreadBackendTest, RealThreadsRecoverToo) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 20;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 200, .num_nations = 4, .single_fraction = 0.1});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  db.TakeCheckpoint();
  Rng rng(13);
  std::vector<Value> params;
  for (int i = 0; i < 150; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(Scheme::kClrP, ropts, ExecutionBackend::kThreads);
  EXPECT_EQ(db.ContentHash(), pre);
}

TEST(ChoppingRecoveryTest, ChoppingGraphRecoversExactState) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 25;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 300, .num_nations = 8, .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  db.TakeCheckpoint();
  Rng rng(41);
  std::vector<Value> params;
  for (int i = 0; i < 200; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();

  analysis::GlobalDependencyGraph chopping_gdg = db.BuildChoppingGdg();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  ropts.mode = PacmanMode::kStaticOnly;
  ropts.gdg_override = &chopping_gdg;
  db.Recover(Scheme::kClrP, ropts);
  EXPECT_EQ(db.ContentHash(), pre);
}

TEST(RecoveryStatsTest, ClrIsSlowerThanClrPInVirtualTime) {
  auto run = [](Scheme scheme) {
    DatabaseOptions opts;
    opts.scheme = LogScheme::kCommand;
    opts.commits_per_epoch = 40;
    Database db(opts);
    workload::Smallbank sb({.num_accounts = 500,
                            .hotspot_fraction = 0.1,
                            .hotspot_size = 50});
    sb.CreateTables(db.catalog());
    sb.RegisterProcedures(db.registry());
    sb.Load(db.catalog());
    db.FinalizeSchema();
    db.TakeCheckpoint();
    Rng rng(3);
    std::vector<Value> params;
    for (int i = 0; i < 400; ++i) {
      ProcId proc = sb.NextTransaction(&rng, &params);
      EXPECT_TRUE(db.ExecuteProcedure(proc, params).ok());
    }
    const uint64_t pre = db.ContentHash();
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 16;
    FullRecoveryResult r = db.Recover(scheme, ropts);
    EXPECT_EQ(db.ContentHash(), pre);
    return r.log.seconds;
  };
  const double clr = run(Scheme::kClr);
  const double clr_p = run(Scheme::kClrP);
  // The headline claim, in miniature: parallel command-log recovery is
  // substantially faster than serial replay at 16 threads.
  EXPECT_LT(clr_p, clr / 2.0);
}

// A procedure that reads key K into a local, writes K, and then uses the
// local — as a field and as the base row of a second write of K. Replay
// reads lend the read version's row instead of copying it, so the local
// must keep that version's value while the same piece installs a newer
// one. Recovery must reproduce the forward state under CLR and CLR-P,
// sharded and unsharded, on both backends.
class ReadWriteUseRecoveryTest
    : public ::testing::TestWithParam<
          std::tuple<Scheme, uint32_t, ExecutionBackend>> {};

TEST_P(ReadWriteUseRecoveryTest, LocalKeepsTheValueItRead) {
  const auto [scheme, shards, backend] = GetParam();
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.num_shards = shards;
  opts.commits_per_epoch = 10;
  opts.epochs_per_batch = 2;
  Database db(opts);
  storage::Table* acct = db.catalog()->CreateTable(
      "Acct", Schema({{"balance", ValueType::kDouble, 0},
                      {"note", ValueType::kString, 48}}));
  // ReadWriteUse(k, j, amount). Notes are longer than the inline-string
  // limit, so every row owns heap storage a dangling view would expose.
  proc::ProcedureBuilder b(
      "ReadWriteUse",
      {ValueType::kInt64, ValueType::kInt64, ValueType::kDouble});
  const int own = b.Read("Acct", proc::P(0));
  b.Update("Acct", proc::P(0), own,
           {{0, proc::Add(proc::F(own, 0), proc::P(2))},
            {1, proc::C(std::string(40, 'w'))}});
  const int other = b.Read("Acct", proc::P(1));
  b.Update("Acct", proc::P(1), other,
           {{0, proc::Add(proc::F(other, 0), proc::F(own, 0))}});
  b.Update("Acct", proc::P(0), own,
           {{0, proc::Sub(proc::F(own, 0), proc::P(2))}});
  const ProcId id = db.registry()->Register(b.Build());
  constexpr int64_t kKeys = 24;
  for (int64_t k = 0; k < kKeys; ++k) {
    acct->LoadRow(k,
                  {Value(100.0 + static_cast<double>(k)),
                   Value("note-" + std::to_string(k) + std::string(24, '.'))},
                  1);
  }
  db.FinalizeSchema();
  db.TakeCheckpoint();

  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const int64_t k = rng.UniformInt(0, kKeys - 1);
    const int64_t j = rng.UniformInt(0, kKeys - 1);
    const auto amount = static_cast<double>(rng.UniformInt(1, 9));
    ASSERT_TRUE(
        db.ExecuteProcedure(id, {Value(k), Value(j), Value(amount)}).ok());
  }
  const uint64_t pre = db.ContentHash();
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  db.Recover(scheme, ropts, backend);
  EXPECT_EQ(db.ContentHash(), pre);
}

INSTANTIATE_TEST_SUITE_P(
    ClrSchemes, ReadWriteUseRecoveryTest,
    ::testing::Combine(::testing::Values(Scheme::kClr, Scheme::kClrP),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(ExecutionBackend::kSimulated,
                                         ExecutionBackend::kThreads)));

// One CLR-P piece-set on real threads: a hand-built command log whose
// single block interleaves a write -> read -> write chain on one hot key
// with many independent pieces. Bump(k, d) reads and rewrites key k; Copy
// (src, dst) reads src and writes dst. Round r bumps the hot key by r + 1,
// then copies it to key kCopyBase + r, with independent bumps of fresh
// keys in between, so the conflict DAG is one long chain through key 0
// plus a wide fan of roots. Every restart must restore the exact values,
// and helper workers must run some of the independent pieces.
TEST(ConcurrentReplayTest, HotKeyChainAmongIndependentPieces) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  // One epoch, one batch: the whole log is a single piece-set.
  opts.commits_per_epoch = 100000;
  opts.epochs_per_batch = 1;
  Database db(opts);
  storage::Table* acct = db.catalog()->CreateTable(
      "Acct", Schema({{"balance", ValueType::kDouble, 0}}));
  proc::ProcedureBuilder bump("Bump", {ValueType::kInt64, ValueType::kDouble});
  const int own = bump.Read("Acct", proc::P(0));
  bump.Update("Acct", proc::P(0), own,
              {{0, proc::Add(proc::F(own, 0), proc::P(1))}});
  const ProcId bump_id = db.registry()->Register(bump.Build());
  proc::ProcedureBuilder copy("Copy", {ValueType::kInt64, ValueType::kInt64});
  const int src = copy.Read("Acct", proc::P(0));
  const int dst = copy.Read("Acct", proc::P(1));
  copy.Update("Acct", proc::P(1), dst, {{0, proc::F(src, 0)}});
  const ProcId copy_id = db.registry()->Register(copy.Build());

  constexpr int64_t kRounds = 60;
  constexpr int64_t kFanout = 12;  // Independent bumps per round.
  constexpr int64_t kCopyBase = 100000;
  auto initial = [](int64_t k) { return static_cast<double>(k % 97); };
  for (int64_t k = 0; k <= kRounds * kFanout; ++k) {
    acct->LoadRow(k, {Value(initial(k))}, 1);
  }
  for (int64_t r = 0; r < kRounds; ++r) {
    acct->LoadRow(kCopyBase + r, {Value(-1.0)}, 1);
  }
  db.FinalizeSchema();
  ASSERT_EQ(db.gdg().NumBlocks(), 1u);
  db.TakeCheckpoint();

  for (int64_t r = 0; r < kRounds; ++r) {
    const auto d = static_cast<double>(r + 1);
    ASSERT_TRUE(db.ExecuteProcedure(bump_id, {Value(int64_t{0}), Value(d)})
                    .ok());
    for (int64_t t = 0; t < kFanout; ++t) {
      const int64_t k = 1 + r * kFanout + t;
      ASSERT_TRUE(
          db.ExecuteProcedure(bump_id, {Value(k), Value(1.0)}).ok());
      if (t == kFanout / 2) {
        ASSERT_TRUE(db.ExecuteProcedure(
                          copy_id, {Value(int64_t{0}), Value(kCopyBase + r)})
                        .ok());
      }
    }
  }
  const uint64_t pre = db.ContentHash();

  auto value_of = [&](Key k) {
    const Row* row = acct->NewestRow(k);
    return row == nullptr ? -2.0 : (*row)[0].AsDouble();
  };
  uint64_t helper_pieces = 0;
  for (int rep = 0; rep < 50; ++rep) {
    db.Crash();
    RecoveryOptions ropts;
    ropts.num_threads = 4;
    FullRecoveryResult r =
        db.Recover(Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    ASSERT_EQ(db.ContentHash(), pre) << "restart " << rep;
    ASSERT_EQ(r.log.records_replayed,
              static_cast<uint64_t>(kRounds * (kFanout + 2)));
    helper_pieces += r.log.helper_pieces;
    double hot = initial(0);
    for (int64_t round = 0; round < kRounds; ++round) {
      hot += static_cast<double>(round + 1);
      ASSERT_EQ(value_of(kCopyBase + round), hot) << "restart " << rep;
      for (int64_t t = 0; t < kFanout; ++t) {
        const int64_t k = 1 + round * kFanout + t;
        ASSERT_EQ(value_of(k), initial(k) + 1.0) << "restart " << rep;
      }
    }
    ASSERT_EQ(value_of(0), hot) << "restart " << rep;
  }
  EXPECT_GT(helper_pieces, 0u);
}

// Real-thread CLR-P on contended workloads: TPC-C with 10% ad-hoc
// transactions and Smallbank with a hotspot, over shards x mode x
// threads. Every restart must reproduce the state and the record count
// of a simulated recovery of the same log. Wherever a lane has more than
// one thread, helper workers must have run pieces: a silently serial
// replay fails here.
enum class ReplayWorkload { kTpccAdhoc, kSmallbankHotspot };

class ConcurrentReplayWorkloadTest
    : public ::testing::TestWithParam<
          std::tuple<ReplayWorkload, uint32_t, PacmanMode, uint32_t>> {};

TEST_P(ConcurrentReplayWorkloadTest, ThreadsMatchSimulatedRecovery) {
  const auto [workload, shards, mode, threads] = GetParam();
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.num_shards = shards;
  opts.commits_per_epoch = 500;
  opts.epochs_per_batch = 2;
  Database db(opts);
  workload::Tpcc tpcc({.num_warehouses = 2,
                       .districts_per_warehouse = 4,
                       .customers_per_district = 50,
                       .num_items = 100,
                       .orders_per_district = 8});
  workload::Smallbank sb(
      {.num_accounts = 2000, .hotspot_fraction = 0.25, .hotspot_size = 20});
  std::function<ProcId(Rng*, std::vector<Value>*)> next;
  double adhoc_fraction = 0.0;
  int txns = 0;
  if (workload == ReplayWorkload::kTpccAdhoc) {
    tpcc.CreateTables(db.catalog());
    tpcc.RegisterProcedures(db.registry());
    tpcc.Load(db.catalog());
    next = [&](Rng* rng, std::vector<Value>* p) {
      return tpcc.NextTransaction(rng, p);
    };
    adhoc_fraction = 0.1;
    txns = 1600;
  } else {
    sb.CreateTables(db.catalog());
    sb.RegisterProcedures(db.registry());
    sb.Load(db.catalog());
    next = [&](Rng* rng, std::vector<Value>* p) {
      return sb.NextTransaction(rng, p);
    };
    txns = 4000;
  }
  db.FinalizeSchema();
  db.TakeCheckpoint();
  Rng rng(77);
  std::vector<Value> params;
  for (int i = 0; i < txns; ++i) {
    const ProcId proc = next(&rng, &params);
    const bool adhoc = workload::TagAdhoc(&rng, adhoc_fraction);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params, adhoc).ok());
  }
  const uint64_t pre = db.ContentHash();

  RecoveryOptions ropts;
  ropts.num_threads = threads;
  ropts.mode = mode;
  db.Crash();
  const FullRecoveryResult sim = db.Recover(Scheme::kClrP, ropts);
  ASSERT_EQ(db.ContentHash(), pre);
  ASSERT_GT(sim.log.records_replayed, 0u);
  EXPECT_EQ(sim.log.helper_pieces, 0u);
  // Whether a helper gets to run a piece is up to the scheduler: a lane
  // thread can still be starting, or parked on the next batch's load
  // gate, while another drains a whole piece-set. So restart until one
  // recovery had help, checking every restart; a replay that never hands
  // pieces to a second worker fails all of them.
  const bool can_help = threads / shards > 1;
  uint64_t helper_pieces = 0;
  for (int restart = 0; restart < 10; ++restart) {
    db.Crash();
    const FullRecoveryResult real =
        db.Recover(Scheme::kClrP, ropts, ExecutionBackend::kThreads);
    ASSERT_EQ(db.ContentHash(), pre) << "restart " << restart;
    ASSERT_EQ(real.log.records_replayed, sim.log.records_replayed);
    helper_pieces = real.log.helper_pieces;
    if (!can_help || helper_pieces > 0) break;
  }
  if (can_help) {
    EXPECT_GT(helper_pieces, 0u);
  } else {
    EXPECT_EQ(helper_pieces, 0u);  // One worker per piece-set.
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConcurrentReplay, ConcurrentReplayWorkloadTest,
    ::testing::Combine(::testing::Values(ReplayWorkload::kTpccAdhoc,
                                         ReplayWorkload::kSmallbankHotspot),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(PacmanMode::kSynchronous,
                                         PacmanMode::kPipelined),
                       ::testing::Values(2u, 4u, 8u)));

TEST(ReloadOnlyTest, ReloadSkipsReplay) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.commits_per_epoch = 20;
  Database db(opts);
  workload::Bank bank(
      {.num_users = 100, .num_nations = 4, .single_fraction = 0.0});
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  db.FinalizeSchema();
  db.TakeCheckpoint();
  Rng rng(8);
  std::vector<Value> params;
  for (int i = 0; i < 100; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    ASSERT_TRUE(db.ExecuteProcedure(proc, params).ok());
  }
  db.Crash();
  RecoveryOptions ropts;
  ropts.num_threads = 4;
  ropts.reload_only = true;
  FullRecoveryResult r = db.Recover(Scheme::kClr, ropts);
  EXPECT_EQ(r.log.records_replayed, 0u);
  EXPECT_GT(r.log.breakdown.data_loading, 0.0);
  EXPECT_EQ(r.log.breakdown.useful_work, 0.0);
}

}  // namespace
}  // namespace pacman
