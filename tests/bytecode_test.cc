// Compiled-execution parity suite: the bytecode VM must be bit-identical
// to the expression-tree interpreter — same emitted values, same final
// table state — on forward processing and on replay under every recovery
// scheme, plus arena reuse semantics and the unfinalized-procedure death
// check.
#include "proc/bytecode.h"

#include <gtest/gtest.h>

#include "pacman/database.h"
#include "proc/compiler.h"
#include "proc/exec_arena.h"
#include "proc/interpreter.h"
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

// Bit-exact value equality: type and payload, no numeric promotion (the
// parity claim is "identical results", not "equivalent results").
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case ValueType::kString:
      return a.AsStringView() == b.AsStringView();
  }
  return false;
}

std::unique_ptr<Database> MakeBankDb(bool compiled,
                                     LogScheme scheme = LogScheme::kCommand,
                                     workload::Bank* bank = nullptr) {
  DatabaseOptions opts;
  opts.scheme = scheme;
  opts.compiled_procedures = compiled;
  opts.commits_per_epoch = 25;
  opts.epochs_per_batch = 2;
  auto db = std::make_unique<Database>(opts);
  static workload::Bank local_bank{workload::BankConfig{
      .num_users = 300, .num_nations = 8, .single_fraction = 0.2}};
  workload::Bank* b = bank != nullptr ? bank : &local_bank;
  b->CreateTables(db->catalog());
  b->RegisterProcedures(db->registry());
  b->Load(db->catalog());
  db->FinalizeSchema();
  return db;
}

// Every bank procedure, both engines, transaction by transaction: emitted
// values must match exactly and the final table state must hash equal.
TEST(BytecodeParityTest, BankForwardEmittedValuesAndState) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 300, .num_nations = 8, .single_fraction = 0.2}};
  auto interp = MakeBankDb(/*compiled=*/false, LogScheme::kCommand, &bank);
  auto vm = MakeBankDb(/*compiled=*/true, LogScheme::kCommand, &bank);

  Rng rng(7);
  std::vector<Value> params;
  for (int i = 0; i < 400; ++i) {
    ProcId proc = bank.NextTransaction(&rng, &params);
    TxnResult a = interp->Execute(proc, params);
    TxnResult b = vm->Execute(proc, params);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.values.size(), b.values.size()) << "txn " << i;
    for (size_t v = 0; v < a.values.size(); ++v) {
      EXPECT_TRUE(SameValue(a.values[v], b.values[v]))
          << "txn " << i << " value " << v << ": "
          << a.values[v].ToString() << " vs " << b.values[v].ToString();
    }
  }
  EXPECT_EQ(interp->ContentHash(), vm->ContentHash());
}

// Directed branch coverage: Transfer with a married source (guard taken),
// a single source (guard skipped -> Null results), and Deposit below and
// above the savings-bonus threshold.
TEST(BytecodeParityTest, BankGuardBranchesMatch) {
  workload::Bank bank{workload::BankConfig{
      .num_users = 10, .num_nations = 2, .single_fraction = 0.0}};
  workload::Bank single_bank{workload::BankConfig{
      .num_users = 10, .num_nations = 2, .single_fraction = 1.0}};
  for (workload::Bank* b : {&bank, &single_bank}) {
    auto interp = MakeBankDb(false, LogScheme::kCommand, b);
    auto vm = MakeBankDb(true, LogScheme::kCommand, b);
    const std::vector<std::pair<ProcId, std::vector<Value>>> cases = {
        {b->transfer_id(), {Value(int64_t{0}), Value(5.0)}},
        {b->deposit_id(),
         {Value(int64_t{1}), Value(3.0), Value(int64_t{0})}},
        {b->deposit_id(),
         {Value(int64_t{1}), Value(11000.0), Value(int64_t{1})}},
    };
    for (const auto& [proc, params] : cases) {
      TxnResult a = interp->Execute(proc, params);
      TxnResult r = vm->Execute(proc, params);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(a.values.size(), r.values.size());
      for (size_t v = 0; v < a.values.size(); ++v) {
        EXPECT_TRUE(SameValue(a.values[v], r.values[v]));
      }
    }
    EXPECT_EQ(interp->ContentHash(), vm->ContentHash());
  }
}

// TPC-C: every procedure of the full mix, both engines.
TEST(BytecodeParityTest, TpccForwardEmittedValuesAndState) {
  workload::TpccConfig config;
  config.num_warehouses = 2;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 30;
  config.num_items = 100;
  config.orders_per_district = 8;

  auto make = [&](bool compiled) {
    DatabaseOptions opts;
    opts.scheme = LogScheme::kCommand;
    opts.compiled_procedures = compiled;
    auto db = std::make_unique<Database>(opts);
    auto tpcc = std::make_shared<workload::Tpcc>(config);
    tpcc->Install(db.get());
    db->FinalizeSchema();
    return std::make_pair(std::move(db), tpcc);
  };
  auto [interp, tpcc_a] = make(false);
  auto [vm, tpcc_b] = make(true);

  Rng rng(11);
  std::vector<Value> params;
  for (int i = 0; i < 300; ++i) {
    ProcId proc = tpcc_a->NextTransaction(&rng, &params);
    TxnResult a = interp->Execute(proc, params);
    TxnResult b = vm->Execute(proc, params);
    ASSERT_EQ(a.ok(), b.ok()) << "txn " << i;
    ASSERT_EQ(a.values.size(), b.values.size()) << "txn " << i;
    for (size_t v = 0; v < a.values.size(); ++v) {
      EXPECT_TRUE(SameValue(a.values[v], b.values[v]))
          << "txn " << i << " value " << v;
    }
  }
  EXPECT_EQ(interp->ContentHash(), vm->ContentHash());
}

// All five recovery schemes restore the exact pre-crash state with
// compiled execution on; CLR/CLR-P additionally must agree with the
// interpreter-replayed state (only they re-execute procedures).
TEST(BytecodeParityTest, ReplayParityAcrossAllSchemes) {
  for (Scheme scheme : {Scheme::kPlr, Scheme::kLlr, Scheme::kLlrP,
                        Scheme::kClr, Scheme::kClrP}) {
    workload::Bank bank{workload::BankConfig{
        .num_users = 300, .num_nations = 8, .single_fraction = 0.2}};
    auto interp = MakeBankDb(false, SchemeLogFormat(scheme), &bank);
    auto vm = MakeBankDb(true, SchemeLogFormat(scheme), &bank);
    for (Database* db : {interp.get(), vm.get()}) {
      db->TakeCheckpoint();
      Rng rng(5);
      std::vector<Value> params;
      for (int i = 0; i < 200; ++i) {
        ProcId proc = bank.NextTransaction(&rng, &params);
        ASSERT_TRUE(db->ExecuteProcedure(proc, params).ok());
      }
    }
    const uint64_t pre_interp = interp->ContentHash();
    const uint64_t pre_vm = vm->ContentHash();
    ASSERT_EQ(pre_interp, pre_vm) << "scheme " << static_cast<int>(scheme);

    RecoveryOptions ropts;
    ropts.num_threads = 4;
    for (Database* db : {interp.get(), vm.get()}) {
      db->Crash();
      db->Recover(scheme, ropts);
      EXPECT_EQ(db->ContentHash(), pre_interp)
          << "scheme " << static_cast<int>(scheme);
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
  auto db = MakeBankDb(true, LogScheme::kCommand, &bank);
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
  auto db = MakeBankDb(true, LogScheme::kCommand, &bank);
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
    EXPECT_TRUE(SameValue((*view)[c], before[c]));
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
  auto db = MakeBankDb(true, LogScheme::kCommand, &bank);
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
  auto db = MakeBankDb(true, LogScheme::kCommand, &bank);
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

// Executing a compiled-procedures database whose schema was never
// finalized must trip the check rather than run uncompiled.
TEST(BytecodeDeathTest, ExecuteWithoutFinalizeDies) {
  DatabaseOptions opts;
  opts.scheme = LogScheme::kCommand;
  opts.compiled_procedures = true;
  Database db(opts);
  workload::Bank bank{workload::BankConfig{
      .num_users = 10, .num_nations = 2, .single_fraction = 0.0}};
  bank.CreateTables(db.catalog());
  bank.RegisterProcedures(db.registry());
  bank.Load(db.catalog());
  // No FinalizeSchema(): no compiled programs exist.
  const std::vector<Value> params = {Value(int64_t{0}), Value(5.0)};
  EXPECT_DEATH(db.ExecuteProcedure(bank.transfer_id(), params),
               "compiled_procedures requires FinalizeSchema");
}

}  // namespace
}  // namespace pacman
