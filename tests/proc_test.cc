// Tests for the stored-procedure DSL: expressions (evaluated through the
// bytecode VM), builder-derived flow dependencies, VM execution and
// dynamic access-set extraction.
#include <gtest/gtest.h>

#include "pacman/database.h"
#include "proc/bytecode.h"
#include "proc/compiler.h"
#include "proc/exec_arena.h"
#include "proc/expr.h"
#include "proc/procedure.h"
#include "proc/registry.h"
#include "storage/catalog.h"
#include "workload/bank.h"

namespace pacman::proc {
namespace {

// A database with one table T(v int64) holding T[1] = 9 and T[775] = 5.
std::unique_ptr<Database> MakeTableDb() {
  auto db = std::make_unique<Database>(DatabaseOptions{});
  storage::Table* t = db->catalog()->CreateTable(
      "T", Schema({{"v", ValueType::kInt64, 0}}), storage::IndexType::kHash);
  t->LoadRow(1, {Value(int64_t{9})}, 1);
  t->LoadRow(775, {Value(int64_t{5})}, 1);
  return db;
}

// Runs `def` once through Database::Execute on a MakeTableDb() database
// and returns its emitted values.
std::vector<Value> EmitValues(ProcedureDef def, std::vector<Value> args) {
  std::unique_ptr<Database> db = MakeTableDb();
  const ProcId id = db->registry()->Register(std::move(def));
  db->FinalizeSchema();
  TxnResult r = db->Execute(id, args);
  EXPECT_TRUE(r.ok());
  return r.values;
}

TEST(ExprTest, EvalArithmeticAndComparison) {
  ProcedureBuilder b("Eval", 2);
  b.Read("T", C(int64_t{1}));
  b.Emit(Add(P(0), C(int64_t{3})));
  b.Emit(Mul(P(0), P(1)));
  b.Emit(Gt(P(0), C(int64_t{3})));
  b.Emit(Lt(P(0), C(int64_t{3})));
  b.Emit(Mod(C(int64_t{17}), C(int64_t{5})));
  b.Emit(Mod(C(int64_t{-3}), C(int64_t{5})));
  std::vector<Value> out =
      EmitValues(b.Build(), {Value(int64_t{4}), Value(2.5)});
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].AsInt64(), 7);
  EXPECT_DOUBLE_EQ(out[1].AsDouble(), 10.0);
  EXPECT_EQ(out[2].AsInt64(), 1);
  EXPECT_EQ(out[3].AsInt64(), 0);
  EXPECT_EQ(out[4].AsInt64(), 2);
  EXPECT_EQ(out[5].AsInt64(), 2);
}

TEST(ExprTest, FieldOnAbsentLocalIsNull) {
  ProcedureBuilder b("Fields", 0);
  const int miss = b.Read("T", C(int64_t{0}));  // No row: absent.
  const int hit = b.Read("T", C(int64_t{1}));
  b.Emit(F(miss, 0));
  b.Emit(Exists(miss));
  b.Emit(F(hit, 0));
  b.Emit(Exists(hit));
  std::vector<Value> out = EmitValues(b.Build(), {});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out[0].is_null());
  EXPECT_EQ(out[1].AsInt64(), 0);
  EXPECT_EQ(out[2].AsInt64(), 9);
  EXPECT_EQ(out[3].AsInt64(), 1);
}

TEST(ExprTest, PackBuildsCompositeKeys) {
  ProcedureBuilder b("Pack", 2);
  ExprPtr key = Expr::Pack({P(0), P(1)}, {0, 8});
  const int row = b.Read("T", key);  // T[(3 << 8) | 7] = T[775].
  b.Emit(key);
  b.Emit(F(row, 0));
  std::vector<Value> out =
      EmitValues(b.Build(), {Value(int64_t{3}), Value(int64_t{7})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].AsInt64(), (3 << 8) | 7);
  EXPECT_EQ(out[1].AsInt64(), 5);
}

// Resolvability as the dynamic analysis sees it: a parameter key always
// resolves, a key reading an absent local does not, and an Exists() guard
// on an absent local is an answer (false).
TEST(ExprTest, ResolvableTracksLocals) {
  std::unique_ptr<Database> db = MakeTableDb();
  ProcedureBuilder b("Resolve", 1);
  const int l0 = b.Read("T", P(0));  // op 0
  b.Read("T", F(l0, 0));             // op 1
  b.BeginIf(Exists(l0));
  b.Read("T", P(0));  // op 2
  b.EndIf();
  const ProcId id = db->registry()->Register(b.Build());
  db->FinalizeSchema();
  const CompiledProgram& prog = db->programs().Get(id);
  const TableId t = db->catalog()->GetTableId("T");

  ExecArena arena;
  const std::vector<Value> params = {Value(int64_t{1})};
  VmState st = arena.Bind(prog, &params);
  std::vector<std::pair<TableId, Key>> accesses;
  ASSERT_TRUE(VmTryExtractAccessSet({0}, &st, &accesses));
  EXPECT_EQ(accesses, (std::vector<std::pair<TableId, Key>>{{t, 1}}));
  EXPECT_FALSE(VmTryExtractAccessSet({1}, &st, &accesses));
  ASSERT_TRUE(VmTryExtractAccessSet({2}, &st, &accesses));
  EXPECT_TRUE(accesses.empty());  // Absence is an answer.

  ReplayAccess access(db->catalog(), InstallMode::kUnlatched);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access).ok());  // l0 = T[1] = {9}.
  ASSERT_TRUE(VmTryExtractAccessSet({1}, &st, &accesses));
  EXPECT_EQ(accesses, (std::vector<std::pair<TableId, Key>>{{t, 9}}));
  ASSERT_TRUE(VmTryExtractAccessSet({2}, &st, &accesses));
  EXPECT_EQ(accesses, (std::vector<std::pair<TableId, Key>>{{t, 1}}));
}

TEST(ExprTest, CollectRefsFindsParamsAndLocals) {
  ExprPtr e = Add(Mul(P(1), F(0, 2)), F(3, 0));
  std::vector<int> params, locals;
  e->CollectRefs(&params, &locals);
  EXPECT_EQ(params, (std::vector<int>{1}));
  std::sort(locals.begin(), locals.end());
  EXPECT_EQ(locals, (std::vector<int>{0, 3}));
}

TEST(BuilderTest, FlowDepsFromDefineUseAndControl) {
  // op0: l0 = read(T, p0)
  // op1: write(T, p0, f(l0))        -- define-use dep on op0
  // op2 guarded by l0: l1 = read(U, p1)   -- control dep on op0
  // op3: write(U, p1, f(l1))        -- define-use dep on op2 (+ guard dep).
  ProcedureBuilder b("p", 2);
  int l0 = b.Read("T", P(0));
  b.Update("T", P(0), l0, {{0, Add(F(l0, 0), C(int64_t{1}))}});
  b.BeginIf(Exists(l0));
  int l1 = b.Read("U", P(1));
  b.Update("U", P(1), l1, {{0, F(l1, 0)}});
  b.EndIf();
  ProcedureDef def = b.Build();

  ASSERT_EQ(def.ops.size(), 4u);
  EXPECT_EQ(def.ops[0].flow_deps, (std::vector<OpIndex>{}));
  EXPECT_EQ(def.ops[1].flow_deps, (std::vector<OpIndex>{0}));
  EXPECT_EQ(def.ops[2].flow_deps, (std::vector<OpIndex>{0}));
  std::vector<OpIndex> d3 = def.ops[3].flow_deps;
  EXPECT_EQ(d3, (std::vector<OpIndex>{0, 2}));
  EXPECT_EQ(def.num_locals, 2);
  EXPECT_EQ(def.ops[2].guard != nullptr, true);
}

// The bank procedures compiled over a bare catalog, executed directly
// through the VM (no transaction manager).
class VmTest : public ::testing::Test {
 protected:
  VmTest() : registry_(&catalog_) {
    bank_.CreateTables(&catalog_);
    bank_.RegisterProcedures(&registry_);
    bank_.Load(&catalog_);
    programs_.Build(registry_, &catalog_, {}, {});
  }

  // Binds a run of `proc` whose locals live in the per-transaction
  // `locals`, as CLR-P's pieces share them.
  VmState BindShared(ProcId proc, const std::vector<Value>* args,
                     VmTxnLocals* locals, ExecArena* arena) {
    const CompiledProgram& prog = programs_.Get(proc);
    locals->Reset(prog.num_locals);
    return arena->BindShared(prog, args, locals);
  }

  storage::Catalog catalog_;
  ProcedureRegistry registry_;
  ProgramSet programs_;
  ExecArena arena_;
  workload::Bank bank_{workload::BankConfig{.num_users = 100,
                                            .num_nations = 4,
                                            .single_fraction = 0.0}};
};

TEST_F(VmTest, TransferMovesMoney) {
  ReplayAccess access(&catalog_, InstallMode::kUnlatched);
  access.set_commit_ts(10);
  // User 0's spouse is user 1 (single_fraction = 0).
  std::vector<Value> args = {Value(int64_t{0}), Value(100.0)};
  VmState st = arena_.Bind(programs_.Get(bank_.transfer_id()), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access).ok());

  Row src, dst, sav;
  ASSERT_TRUE(catalog_.GetTable("Current")->Read(0, 10, &src).ok());
  ASSERT_TRUE(catalog_.GetTable("Current")->Read(1, 10, &dst).ok());
  ASSERT_TRUE(catalog_.GetTable("Saving")->Read(0, 10, &sav).ok());
  EXPECT_DOUBLE_EQ(src[0].AsDouble(), 1000.0 - 100.0);
  EXPECT_DOUBLE_EQ(dst[0].AsDouble(), 1001.0 + 100.0);
  EXPECT_DOUBLE_EQ(sav[0].AsDouble(), 5001.0);  // +$1 bonus.
  EXPECT_EQ(access.writes(), 3u);
  EXPECT_EQ(access.reads(), 4u);
}

TEST_F(VmTest, GuardSkipsBody) {
  // Nation deposits below the threshold touch only Current.
  ReplayAccess access(&catalog_, InstallMode::kUnlatched);
  access.set_commit_ts(10);
  std::vector<Value> args = {Value(int64_t{5}), Value(1.0), Value(int64_t{2})};
  VmState st = arena_.Bind(programs_.Get(bank_.deposit_id()), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access).ok());
  EXPECT_EQ(access.writes(), 1u);
  Row stats;
  ASSERT_TRUE(catalog_.GetTable("Stats")->Read(2, 10, &stats).ok());
  EXPECT_EQ(stats[0].AsInt64(), 0);
}

TEST_F(VmTest, GuardTriggersBody) {
  ReplayAccess access(&catalog_, InstallMode::kUnlatched);
  access.set_commit_ts(10);
  std::vector<Value> args = {Value(int64_t{5}), Value(20000.0), Value(int64_t{2})};
  VmState st = arena_.Bind(programs_.Get(bank_.deposit_id()), &args);
  ASSERT_TRUE(VmExecuteAll(&st, &access).ok());
  EXPECT_EQ(access.writes(), 3u);
  Row stats;
  ASSERT_TRUE(catalog_.GetTable("Stats")->Read(2, 10, &stats).ok());
  EXPECT_EQ(stats[0].AsInt64(), 1);
}

TEST_F(VmTest, ExecuteOpsSubsetSharesState) {
  // Execute the Transfer ops in two stages, like recovery pieces would:
  // each stage binds its own arena (its own thread's registers) to the
  // transaction's shared locals.
  ReplayAccess access(&catalog_, InstallMode::kUnlatched);
  access.set_commit_ts(10);
  std::vector<Value> args = {Value(int64_t{2}), Value(50.0)};
  VmTxnLocals locals;
  VmState st = BindShared(bank_.transfer_id(), &args, &locals, &arena_);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access).ok());  // Family read.
  EXPECT_NE(locals.views[0], nullptr);
  ExecArena other;
  st = other.BindShared(programs_.Get(bank_.transfer_id()), &args, &locals);
  ASSERT_TRUE(VmExecuteOps({1, 2, 3, 4, 5, 6}, &st, &access).ok());
  Row dst;
  ASSERT_TRUE(catalog_.GetTable("Current")->Read(3, 10, &dst).ok());
  EXPECT_DOUBLE_EQ(dst[0].AsDouble(), 1003.0 + 50.0);
}

TEST_F(VmTest, AccessSetResolvableAfterUpstreamRead) {
  std::vector<Value> args = {Value(int64_t{0}), Value(10.0)};
  VmTxnLocals locals;
  VmState st = BindShared(bank_.transfer_id(), &args, &locals, &arena_);

  // Ops 1-4 (Current accesses) use dst = F(l0, 0): unresolved until the
  // Family read ran.
  std::vector<std::pair<TableId, Key>> accesses;
  EXPECT_FALSE(VmTryExtractAccessSet({1, 2, 3, 4}, &st, &accesses));

  ReplayAccess access(&catalog_, InstallMode::kUnlatched);
  access.set_commit_ts(5);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access).ok());
  ASSERT_TRUE(VmTryExtractAccessSet({1, 2, 3, 4}, &st, &accesses));
  ASSERT_EQ(accesses.size(), 4u);
  const TableId current = catalog_.GetTableId("Current");
  EXPECT_EQ(accesses[0], (std::pair<TableId, Key>{current, 0}));
  EXPECT_EQ(accesses[2], (std::pair<TableId, Key>{current, 1}));
}

TEST_F(VmTest, AccessSetOmitsGuardedOutOps) {
  std::vector<Value> args = {Value(int64_t{5}), Value(1.0), Value(int64_t{0})};
  VmTxnLocals locals;
  VmState st = BindShared(bank_.deposit_id(), &args, &locals, &arena_);
  ReplayAccess access(&catalog_, InstallMode::kUnlatched);
  access.set_commit_ts(5);
  ASSERT_TRUE(VmExecuteOps({0}, &st, &access).ok());  // Read Current.
  // Stats ops (indices 4,5) are guarded by the >10000 condition == false.
  std::vector<std::pair<TableId, Key>> accesses;
  ASSERT_TRUE(VmTryExtractAccessSet({4, 5}, &st, &accesses));
  EXPECT_TRUE(accesses.empty());
}

TEST_F(VmTest, RegistryResolvesTablesAndNames) {
  EXPECT_EQ(registry_.size(), 2u);
  EXPECT_NE(registry_.Find("Transfer"), nullptr);
  EXPECT_EQ(registry_.Find("Nope"), nullptr);
  for (const Operation& op : registry_.Get(bank_.transfer_id()).ops) {
    EXPECT_NE(op.table_id, kInvalidTableId);
  }
}

}  // namespace
}  // namespace pacman::proc
