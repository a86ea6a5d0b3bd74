// Compiled-execution golden suite: the bytecode VM must reproduce, bit
// for bit, the outputs recorded in tests/golden/procedure_outputs.txt —
// every emitted value and the final table state of forward processing,
// and the pre-crash and recovered state under every recovery scheme,
// sharded and unsharded — plus arena reuse semantics and the
// unfinalized-procedure death check. The file's header says where its
// values came from.
#include "proc/bytecode.h"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "pacman/database.h"
#include "proc/compiler.h"
#include "proc/exec_arena.h"
#include "workload/bank.h"
#include "workload/tpcc.h"

namespace pacman {
namespace {

using logging::LogScheme;
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

// The golden file's value token: type and payload, bit for bit (see the
// file's header), so equal tokens mean identical values (no numeric
// promotion).
std::string EncodeValue(const Value& v) {
  char buf[32];
  switch (v.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kInt64:
      std::snprintf(buf, sizeof buf, "i%" PRId64, v.AsInt64());
      return buf;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof buf, "d%016" PRIx64,
                    std::bit_cast<uint64_t>(v.AsDouble()));
      return buf;
    case ValueType::kString: {
      std::string s = "s";
      for (unsigned char c : v.AsStringView()) {
        std::snprintf(buf, sizeof buf, "%02x", c);
        s += buf;
      }
      return s;
    }
  }
  return "?";
}

std::string HashHex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// One `run` section of the golden file.
struct GoldenRun {
  // Per transaction, in order: procedure id, commit status (1 = ok),
  // then one token per emitted value.
  std::vector<std::vector<std::string>> txns;
  // "hash", "precrash <scheme>", "recovered <scheme>" -> hex hash.
  std::map<std::string, std::string> hashes;
};

std::map<std::string, GoldenRun> ReadGolden() {
  std::map<std::string, GoldenRun> runs;
  std::ifstream in(PACMAN_GOLDEN_DIR "/procedure_outputs.txt");
  PACMAN_CHECK_MSG(in.good(), "cannot open tests/golden/procedure_outputs.txt");
  GoldenRun* run = nullptr;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::vector<std::string> tok;
    for (std::string t; fields >> t;) tok.push_back(t);
    if (tok[0] == "run") {
      run = &runs[tok.at(1)];
    } else if (tok[0] == "txn") {
      PACMAN_CHECK(run != nullptr && tok.size() >= 4 &&
                   tok[1] == std::to_string(run->txns.size()));
      run->txns.emplace_back(tok.begin() + 2, tok.end());
    } else {
      PACMAN_CHECK(run != nullptr && tok.size() >= 2);
      std::string key = tok[0];
      if (tok.size() == 3) key += " " + tok[1];
      run->hashes[key] = tok.back();
    }
  }
  return runs;
}

const GoldenRun& Golden(const std::string& name) {
  static const std::map<std::string, GoldenRun> runs = ReadGolden();
  auto it = runs.find(name);
  PACMAN_CHECK_MSG(it != runs.end(), "run missing from the golden file");
  return it->second;
}

// Transaction `i` of a run against its golden line: same procedure, same
// commit status, every emitted value bit-identical.
::testing::AssertionResult MatchesGolden(const GoldenRun& run, size_t i,
                                         ProcId proc, const TxnResult& r) {
  if (i >= run.txns.size()) {
    return ::testing::AssertionFailure() << "txn " << i << " not recorded";
  }
  const std::vector<std::string>& want = run.txns[i];
  if (want[0] != std::to_string(proc) || want[1] != (r.ok() ? "1" : "0")) {
    return ::testing::AssertionFailure()
           << "txn " << i << ": proc " << proc << " ok " << r.ok()
           << ", recorded proc " << want[0] << " ok " << want[1];
  }
  if (want.size() - 2 != r.values.size()) {
    return ::testing::AssertionFailure()
           << "txn " << i << ": " << r.values.size() << " values, recorded "
           << want.size() - 2;
  }
  for (size_t v = 0; v < r.values.size(); ++v) {
    if (EncodeValue(r.values[v]) != want[2 + v]) {
      return ::testing::AssertionFailure()
             << "txn " << i << " value " << v << ": "
             << EncodeValue(r.values[v]) << " ("
             << r.values[v].ToString() << "), recorded " << want[2 + v];
    }
  }
  return ::testing::AssertionSuccess();
}

DatabaseOptions ParityOptions(LogScheme scheme, uint32_t num_shards = 1) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.num_shards = num_shards;
  return opts;
}

std::unique_ptr<Database> MakeBankDb(LogScheme scheme, workload::Bank* bank,
                                     uint32_t num_shards = 1) {
  DatabaseOptions opts = ParityOptions(scheme, num_shards);
  opts.commits_per_epoch = 25;
  opts.epochs_per_batch = 2;
  auto db = std::make_unique<Database>(opts);
  bank->CreateTables(db->catalog());
  bank->RegisterProcedures(db->registry());
  bank->Load(db->catalog());
  db->FinalizeSchema();
  return db;
}

// Every bank procedure, transaction by transaction: emitted values must
// match the golden file exactly and so must the final table state.
TEST(BytecodeParityTest, BankForwardEmittedValuesAndState) {
  const GoldenRun& golden = Golden("bank_forward");
  workload::Bank bank{workload::BankConfig{
      .num_users = 300, .num_nations = 8, .single_fraction = 0.2}};
  auto db = MakeBankDb(LogScheme::kCommand, &bank);

  Rng rng(7);
  std::vector<Value> params;
  for (int i = 0; i < 400; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    TxnResult r = db->Execute(proc, params);
    ASSERT_TRUE(r.ok()) << "txn " << i;
    ASSERT_TRUE(MatchesGolden(golden, i, proc, r));
  }
  EXPECT_EQ(golden.txns.size(), 400u);
  EXPECT_EQ(HashHex(db->ContentHash()), golden.hashes.at("hash"));
}

// Directed branch coverage: Transfer with a married source (guard taken),
// a single source (guard skipped -> Null results), and Deposit below and
// above the savings-bonus threshold.
TEST(BytecodeParityTest, BankGuardBranchesMatch) {
  for (int single : {0, 1}) {
    SCOPED_TRACE(single);
    const GoldenRun& golden =
        Golden("bank_guard_single" + std::to_string(single));
    workload::Bank b{workload::BankConfig{
        .num_users = 10, .num_nations = 2, .single_fraction = 1.0 * single}};
    auto db = MakeBankDb(LogScheme::kCommand, &b);
    const std::vector<std::pair<ProcId, std::vector<Value>>> cases = {
        {b.transfer_id(), {Value(int64_t{0}), Value(5.0)}},
        {b.deposit_id(), {Value(int64_t{1}), Value(3.0), Value(int64_t{0})}},
        {b.deposit_id(),
         {Value(int64_t{1}), Value(11000.0), Value(int64_t{1})}},
    };
    for (size_t i = 0; i < cases.size(); ++i) {
      const auto& [proc, params] = cases[i];
      TxnResult r = db->Execute(proc, params);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(MatchesGolden(golden, i, proc, r));
    }
    EXPECT_EQ(golden.txns.size(), cases.size());
    EXPECT_EQ(HashHex(db->ContentHash()), golden.hashes.at("hash"));
  }
}

// TPC-C: every procedure of the full mix.
TEST(BytecodeParityTest, TpccForwardEmittedValuesAndState) {
  const GoldenRun& golden = Golden("tpcc_forward");
  workload::TpccConfig config;
  config.num_warehouses = 2;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 30;
  config.num_items = 100;
  config.orders_per_district = 8;

  auto db = std::make_unique<Database>(ParityOptions(LogScheme::kCommand));
  auto tpcc = std::make_shared<workload::Tpcc>(config);
  tpcc->Install(db.get());
  db->FinalizeSchema();

  Rng rng(11);
  std::vector<Value> params;
  for (int i = 0; i < 300; ++i) {
    ProcId proc = tpcc->NextTransaction(&rng, &params);
    TxnResult r = db->Execute(proc, params);
    ASSERT_TRUE(MatchesGolden(golden, i, proc, r));
  }
  EXPECT_EQ(golden.txns.size(), 300u);
  EXPECT_EQ(HashHex(db->ContentHash()), golden.hashes.at("hash"));
}

// All five recovery schemes restore the exact pre-crash state, and both
// states equal the golden file's, on the unsharded and a 4-shard engine
// (ContentHash does not depend on partitioning).
TEST(BytecodeParityTest, ReplayParityAcrossAllSchemes) {
  const GoldenRun& golden = Golden("bank_replay");
  for (uint32_t shards : {1u, 4u}) {
    for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                          Scheme::kClr, Scheme::kClrP}) {
      const std::string name = recovery::SchemeName(scheme);
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      workload::Bank bank{workload::BankConfig{
          .num_users = 300, .num_nations = 8, .single_fraction = 0.2}};
      auto db = MakeBankDb(SchemeLogFormat(scheme), &bank, shards);
      db->TakeCheckpoint();
      Rng rng(5);
      std::vector<Value> params;
      for (int i = 0; i < 200; ++i) {
        ProcId proc = bank.NextTransaction(&rng, &params);
        ASSERT_TRUE(db->ExecuteProcedure(proc, params).ok());
      }
      const uint64_t pre = db->ContentHash();
      ASSERT_EQ(HashHex(pre), golden.hashes.at("precrash " + name));

      RecoveryOptions ropts;
      ropts.num_threads = 4;
      db->Crash();
      db->Recover(scheme, ropts);
      EXPECT_EQ(db->ContentHash(), pre);
      EXPECT_EQ(HashHex(db->ContentHash()),
                golden.hashes.at("recovered " + name));
    }
  }
}

// Arena reuse: Bind() clears the local views between transactions but
// keeps the copy targets' capacity, so steady-state execution does not
// grow. Runs through TxnAccess, which copies every read into the arena;
// ReplayAccess lends version rows and never writes the copy targets.
TEST(ExecArenaTest, BindResetsPresenceAndKeepsCapacity) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(LogScheme::kCommand, &bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  proc::ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::VmState st = arena.Bind(prog, &params);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(st.locals[l], nullptr);
  }

  txn::Transaction t = db->txn_manager()->Begin();
  proc::TxnAccess access(db->catalog(), &t);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());
  db->txn_manager()->Abort(&t);
  bool any_present = false;
  std::vector<size_t> caps;
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    if (st.locals[l] != nullptr) {
      any_present = true;
      EXPECT_EQ(st.locals[l], &st.rows[l]);  // A copy, not a lent row.
    }
    caps.push_back(st.rows[l].capacity());
  }
  EXPECT_TRUE(any_present);

  // Rebind: views cleared, the copy targets' heap capacity survives.
  proc::VmState st2 = arena.Bind(prog, &params);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(st2.locals[l], nullptr);
    EXPECT_EQ(st2.rows[l].capacity(), caps[l]);
  }
}

// Zero-copy replay reads: ReplayAccess lends the slot's newest
// Version::data, leaves the caller's copy target untouched, and the lent
// row keeps the value it read after a later install supersedes it.
TEST(ReplayAccessTest, ReadViewLendsNewestVersionRow) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(LogScheme::kCommand, &bank);
  storage::Table* current = db->catalog()->GetTable("Current");
  const Key key = 3;
  const storage::Version* loaded = current->GetSlot(key)->newest.load();
  ASSERT_NE(loaded, nullptr);

  proc::ReplayAccess access(db->catalog(), proc::InstallMode::kUnlatched);
  Row buf = {Value("untouched")};
  const Row* view = nullptr;
  ASSERT_TRUE(
      access.ReadView(current, current->id(), key, &buf, &view).ok());
  EXPECT_EQ(view, &loaded->data);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0].AsStringView(), "untouched");
  const Row before = *view;

  access.set_commit_ts(loaded->begin_ts + 1);
  access.Write(current->id(), key, {Value(-1.0)}, false, false);
  EXPECT_EQ(view, &loaded->data);
  ASSERT_EQ(view->size(), before.size());
  for (size_t c = 0; c < before.size(); ++c) {
    EXPECT_EQ(EncodeValue((*view)[c]), EncodeValue(before[c]));
  }
  const Row* newer = nullptr;
  ASSERT_TRUE(
      access.ReadView(current, current->id(), key, &buf, &newer).ok());
  EXPECT_EQ(newer, &current->GetSlot(key)->newest.load()->data);
  EXPECT_NE(newer, view);
  EXPECT_EQ((*newer)[0].AsDouble(), -1.0);

  // Misses: a key with no slot and a tombstoned key both read NotFound.
  EXPECT_EQ(access.ReadView(current, current->id(), 1u << 20, &buf, &newer)
                .code(),
            StatusCode::kNotFound);
  access.set_commit_ts(loaded->begin_ts + 2);
  access.Write(current->id(), key, {}, true, false);
  EXPECT_EQ(access.ReadView(current, current->id(), key, &buf, &newer).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(buf[0].AsStringView(), "untouched");
  EXPECT_EQ(access.reads(), 4u);
}

// Shared-locals binding (CLR-P): VmTxnLocals carries the per-transaction
// views across piece executions; BindShared points the state at them and
// offers no copy targets, so every read must be a lent version row.
TEST(ExecArenaTest, BindSharedUsesTxnLocals) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(LogScheme::kCommand, &bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  proc::VmTxnLocals locals;
  locals.Reset(prog.num_locals);
  ASSERT_EQ(locals.views.size(), prog.num_locals);

  proc::ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  proc::VmState st = arena.BindShared(prog, &params, &locals);
  EXPECT_EQ(st.locals, locals.views.data());
  EXPECT_EQ(st.rows, nullptr);

  storage::Table* current = db->catalog()->GetTable("Current");
  const storage::Version* read_version = current->GetSlot(0)->newest.load();
  proc::ReplayAccess access(db->catalog(), proc::InstallMode::kUnlatched);
  access.set_commit_ts(read_version->begin_ts + 1);
  ASSERT_TRUE(proc::VmExecuteAll(&st, &access).ok());
  // Transfer reads Current[src] into a local, then writes Current[src]:
  // the local still views the version it read, now superseded.
  int src_cur = -1;
  for (const proc::Operation& op : prog.def->ops) {
    if (op.type == proc::OpType::kRead && op.table_name == "Current") {
      src_cur = op.output_local;
      break;
    }
  }
  ASSERT_GE(src_cur, 0);
  EXPECT_EQ(locals.views[src_cur], &read_version->data);
  EXPECT_NE(current->GetSlot(0)->newest.load(), read_version);
  locals.Reset(prog.num_locals);
  for (uint16_t l = 0; l < prog.num_locals; ++l) {
    EXPECT_EQ(locals.views[l], nullptr);
  }
}

// The compiled program records the procedure's static footprint for the
// commit-path fast paths and the disassembler round-trips the stream.
TEST(CompiledProgramTest, SummaryAndDisassembly) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 20, .num_nations = 2, .single_fraction = 0.0}};
  auto db = MakeBankDb(LogScheme::kCommand, &bank);
  const proc::CompiledProgram& prog =
      db->programs().Get(bank.transfer_id());

  EXPECT_FALSE(prog.code.empty());
  EXPECT_GT(prog.num_regs, 0);
  // Transfer: reads Family, Current x2, Saving; updates Current x2,
  // Saving.
  EXPECT_EQ(prog.summary.num_reads, 4u);
  EXPECT_EQ(prog.summary.num_writes, 3u);
  EXPECT_TRUE(prog.summary.writes_may_alias);  // Current written twice.
  ASSERT_EQ(prog.summary.canonical_write_order.size(), 3u);
  const auto& defs = prog.def->ops;
  for (size_t i = 1; i < prog.summary.canonical_write_order.size(); ++i) {
    EXPECT_LE(defs[prog.summary.canonical_write_order[i - 1]].table_id,
              defs[prog.summary.canonical_write_order[i]].table_id);
  }

  const std::string dis = proc::DisassembleProgram(prog);
  EXPECT_NE(dis.find("read_row"), std::string::npos);
  EXPECT_NE(dis.find("write_row"), std::string::npos);
  EXPECT_NE(dis.find("jump_if_false"), std::string::npos);
}

// Executing on a database whose schema was never finalized must trip the
// check: there is no compiled program to run.
TEST(BytecodeDeathTest, ExecuteWithoutFinalizeDies) {
  Database db(ParityOptions(LogScheme::kCommand));
  workload::Bank bank{workload::BankConfig{
      .num_users = 10, .num_nations = 2, .single_fraction = 0.0}};
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  // No FinalizeSchema(): no compiled programs exist.
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  EXPECT_DEATH(db.ExecuteProcedure(bank.transfer_id(), params),
               "Execute requires FinalizeSchema\\(\\)");
}

}  // namespace
}  // namespace pacman
