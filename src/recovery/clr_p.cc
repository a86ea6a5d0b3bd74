#include "recovery/clr_p.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "proc/access_context.h"
#include "proc/exec_arena.h"

namespace pacman::recovery {

namespace {

constexpr BlockId kNoBlock = std::numeric_limits<BlockId>::max();
constexpr uint32_t kNoPiece = std::numeric_limits<uint32_t>::max();

// Packed (table, key) used by the conflict-chain maps. Workload keys use
// well under 56 bits; the table id occupies the top byte, so the packing
// is exact (no false conflicts).
uint64_t PackAccess(TableId table, Key key) {
  PACMAN_DCHECK(key < (1ull << 56));
  return (static_cast<uint64_t>(table) << 56) | key;
}

// Open-addressing map from a packed (table, key) to the last piece that
// touched it: the dynamic analysis' conflict-chain index, one per
// piece-set (no allocation per key).
class LastTouchMap {
 public:
  explicit LastTouchMap(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    Resize(cap);
  }

  // Records `piece` as the last toucher of `key`; returns the previous
  // one, or kNoPiece.
  uint32_t Exchange(uint64_t key, uint32_t piece) {
    if ((size_ + 1) * 2 > slots_.size()) Resize(slots_.size() * 2);
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.piece == kNoPiece) {
        slot = {key, piece};
        ++size_;
        return kNoPiece;
      }
      if (slot.key == key) return std::exchange(slot.piece, piece);
    }
  }

 private:
  struct Slot {
    uint64_t key;
    uint32_t piece;  // kNoPiece: empty.
  };

  size_t Home(uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  void Resize(size_t cap) {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(cap, {0, kNoPiece}));
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.piece != kNoPiece) Exchange(slot.key, slot.piece);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

// This replay thread's private registers and scratch; the per-transaction
// local views live in TxnReplay::vm_locals.
proc::ExecArena& ThreadArena() {
  thread_local proc::ExecArena arena;
  return arena;
}

// Maps each table that any procedure (or ad-hoc transaction) writes to the
// unique GDG block containing all slices that touch it. Indexed by TableId
// (catalog ids are dense); kNoBlock for tables no procedure touches.
std::vector<BlockId> BuildTableBlockMap(
    const analysis::GlobalDependencyGraph& gdg,
    const proc::ProcedureRegistry* registry) {
  std::vector<BlockId> map;
  for (ProcId p = 0; p < gdg.proc_pieces.size(); ++p) {
    const proc::ProcedureDef& def = registry->Get(p);
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      for (OpIndex oi : piece.ops) {
        const proc::Operation& op = def.ops[oi];
        if (op.table_id >= map.size()) map.resize(op.table_id + 1, kNoBlock);
        // Data-dependence merging guarantees a single owner block for any
        // table with a writer; reads of read-only tables may appear in
        // several blocks and are not registered.
        BlockId& owner = map[op.table_id];
        if (owner == kNoBlock || op.IsModification()) owner = piece.block;
      }
    }
  }
  return map;
}

BlockId TableBlock(const std::vector<BlockId>& map, TableId table) {
  return table < map.size() ? map[table] : kNoBlock;
}

// Immutable state of one replay graph, shared by its task closures (which
// may outlive the builder frame).
struct ReplayContext {
  const analysis::GlobalDependencyGraph* gdg = nullptr;
  std::vector<BlockId> table_block;  // BuildTableBlockMap.
  storage::Catalog* catalog = nullptr;
  const proc::ProgramSet* programs = nullptr;
  RecoveryCounters* counters = nullptr;
  CostModel cm;
  PacmanMode mode = PacmanMode::kPipelined;
  uint32_t total_threads = 1;
  bool simulated = false;  // Whether anything reads the modeled makespan.
};

// Replay state of one logged transaction within a batch.
struct TxnReplay {
  const logging::LogRecord* rec = nullptr;
  // The local views shared by all pieces of the transaction (different
  // threads may run them) — pointers to the immutable version rows the
  // reads returned, no copies; registers and scratch are bound from each
  // replay thread's own arena at piece execution time.
  proc::VmTxnLocals vm_locals;
};

// One piece: its transaction and the ops it runs (nullptr for an ad-hoc
// transaction's writes to the block's tables).
struct Piece {
  TxnReplay* txn = nullptr;
  const std::vector<OpIndex>* ops = nullptr;
};

struct BatchState {
  std::vector<TxnReplay> txns;
  // [block] -> the block's piece-set, in commit order. Each piece-set
  // takes its list when it starts.
  std::vector<std::vector<Piece>> block_pieces;
};

// Fills `bs` from the batch's records and routes every transaction to the
// piece-sets of the blocks it has pieces in. Ad-hoc records replay as
// write-only pieces in the blocks owning their written tables (§4.5).
void PrepareBatch(const ReplayContext& ctx, const GlobalBatch& batch,
                  BatchState* bs) {
  bs->txns.resize(batch.records.size());
  bs->block_pieces.resize(ctx.gdg->NumBlocks());
  for (uint32_t i = 0; i < batch.records.size(); ++i) {
    const logging::LogRecord* rec = batch.records[i];
    TxnReplay& txn = bs->txns[i];
    txn.rec = rec;
    if (rec->is_adhoc()) {
      for (const logging::WriteImage& img : rec->writes) {
        const BlockId k = TableBlock(ctx.table_block, img.table);
        PACMAN_CHECK(k != kNoBlock);
        std::vector<Piece>& list = bs->block_pieces[k];
        if (list.empty() || list.back().txn != &txn) list.push_back({&txn});
      }
      continue;
    }
    txn.vm_locals.Reset(ctx.programs->Get(rec->proc).num_locals);
    for (const analysis::ProcPiece& p : ctx.gdg->proc_pieces[rec->proc]) {
      bs->block_pieces[p.block].push_back({&txn, &p.ops});
    }
  }
}

// One piece-set (batch, block) in flight: the conflict DAG its dynamic
// analysis builds (§4.3.1) and the state its worker tasks drain it with.
//
// Every worker task calls Work(). The first one in is the analyst: it
// walks the pieces in TID order, links each to its DAG predecessors and
// publishes every piece whose predecessors have all finished; then it
// drains like the others. The other workers drain while it analyzes: they
// claim published pieces in TID order, and a worker that finishes a piece
// releases its successors, runs the lowest-TID released one itself and
// shares the rest. A worker waits only while the analysis is running on
// the analyst's thread; once it is done, a worker that finds nothing to
// run exits. No piece is lost that way: each piece becomes runnable in
// the hands of a worker that is still running (the analyst, or whoever
// finished its last predecessor), and that worker drains what it
// publishes or shares before it exits. The worker that ran the last piece
// computes the modeled makespan from the same DAG and the measured
// per-piece op costs.
//
// The simulated machine dispatches one task at a time, the first worker
// before its siblings, so there the analyst runs every piece and the
// siblings return its makespan.
class PieceSet {
 public:
  PieceSet(std::shared_ptr<const ReplayContext> ctx,
           std::shared_ptr<BatchState> batch, BlockId block, uint32_t cores)
      : ctx_(std::move(ctx)),
        batch_(std::move(batch)),
        block_(block),
        cores_(cores) {}

  // One worker task's body. Returns the piece-set's modeled makespan
  // (virtual seconds), which each of its simulated cores is occupied for.
  double Work() {
    bool analyst = false;
    bool empty = false;
    std::call_once(started_, [&] {
      Start();
      analyst = true;
      empty = pieces_.empty();
    });
    if (analyst) Analyze();
    proc::ReplayAccess access(ctx_->catalog, proc::InstallMode::kUnlatched);
    uint32_t ran = 0;
    uint32_t next = kNoPiece;
    Claim claim;
    while (next != kNoPiece || (next = Take(&claim)) != kNoPiece) {
      op_cost_[next] = Execute(next, &access);
      ++ran;
      next = Release(next);
    }
    ctx_->counters->AddTuples(access.writes());
    if (!analyst) ctx_->counters->AddHelperPieces(ran);
    // The worker whose count takes `remaining_` to zero ran the last piece
    // (an empty piece-set: the analyst).
    const bool last =
        ran > 0 ? remaining_.fetch_sub(ran, std::memory_order_acq_rel) == ran
                : empty;
    if (last) makespan_.store(Finish(), std::memory_order_release);
    const double makespan = makespan_.load(std::memory_order_acquire);
    // Every worker task calls Work() once. The last one to leave frees the
    // drain state: no other worker is left in its take loop to read it.
    if (exited_.fetch_add(1, std::memory_order_acq_rel) + 1 == cores_) {
      succ_heads_ = std::vector<std::atomic<Edge*>>();
      waiting_ = std::vector<std::atomic<uint32_t>>();
      ready_ = {};
    }
    return std::max(0.0, makespan);
  }

 private:
  // A successor-list node: `succ` waits for the piece whose list holds it.
  struct Edge {
    uint32_t succ;
    Edge* next;
  };
  // Initial unfinished-predecessor count while a piece is being linked,
  // so no release can take it to zero before all its links exist.
  static constexpr uint32_t kLinking = 1u << 31;

  // Sizes the shared arrays (under the call_once, before any other worker
  // may touch them).
  void Start() {
    pieces_ = std::move(batch_->block_pieces[block_]);
    const size_t n = pieces_.size();
    op_cost_.assign(n, 0.0);
    succ_heads_ = std::vector<std::atomic<Edge*>>(n);
    waiting_ = std::vector<std::atomic<uint32_t>>(n);
    ready_.resize(n);
    remaining_.store(static_cast<uint32_t>(n), std::memory_order_relaxed);
    analyzing_.store(true, std::memory_order_relaxed);
  }

  // Dynamic analysis: extracts each piece's access set from the runtime
  // parameters (before that piece executes) and links it to the last
  // earlier piece that touched each of its (table, key) pairs. TIDs order
  // all conflicting transactions (w-w, w-r and r-w; see
  // txn/transaction_manager.h), so replaying every key's touches in TID
  // order re-executes the commands correctly. A piece whose keys depend on
  // a read not yet executed is unresolved: it follows every earlier piece
  // and precedes every later one. Without dynamic analysis (static-only
  // mode, §4.2.1) the pieces form one chain in commit order.
  void Analyze() {
    const auto n = static_cast<uint32_t>(pieces_.size());
    const bool dynamic = ctx_->mode != PacmanMode::kStaticOnly;
    pred_begin_.reserve(n + 1);
    pred_begin_.push_back(0);
    LastTouchMap last_touch(dynamic ? static_cast<size_t>(n) * 4 : 0);
    std::vector<std::pair<TableId, Key>> access_set;
    uint32_t barrier = kNoPiece;  // The last unresolved piece.
    uint32_t published = 0, visible = 0;
    for (uint32_t j = 0; j < n; ++j) {
      TxnReplay& txn = *pieces_[j].txn;
      const logging::LogRecord* rec = txn.rec;
      const std::vector<OpIndex>* ops = pieces_[j].ops;
      const size_t first = preds_.size();
      if (!dynamic) {
        if (j > 0) preds_.push_back(j - 1);
      } else {
        bool resolved = true;
        if (ops == nullptr) {
          access_set.clear();
          for (const logging::WriteImage& img : rec->writes) {
            if (TableBlock(ctx_->table_block, img.table) == block_) {
              access_set.emplace_back(img.table, img.key);
            }
          }
        } else {
          proc::VmState vm = ThreadArena().BindShared(
              ctx_->programs->Get(rec->proc), &rec->params, &txn.vm_locals);
          resolved = proc::VmTryExtractAccessSet(*ops, &vm, &access_set);
        }
        if (barrier != kNoPiece) preds_.push_back(barrier);
        if (resolved) {
          for (const auto& [table, key] : access_set) {
            const uint32_t i = last_touch.Exchange(PackAccess(table, key), j);
            if (i == kNoPiece || i == j) continue;
            if (std::find(preds_.begin() + first, preds_.end(), i) ==
                preds_.end()) {
              preds_.push_back(i);
            }
          }
        } else {
          for (uint32_t i = barrier == kNoPiece ? 0 : barrier + 1; i < j;
               ++i) {
            preds_.push_back(i);
          }
          barrier = j;
        }
      }
      pred_begin_.push_back(static_cast<uint32_t>(preds_.size()));

      // Publish: link j behind its unfinished predecessors; if none is
      // left (all finished meanwhile, or none at all), j is ready now.
      // Ready pieces become visible a claim batch at a time.
      bool ready = true;
      if (first < preds_.size()) {
        waiting_[j].store(kLinking, std::memory_order_relaxed);
        uint32_t linked = 0;
        for (size_t e = first; e < preds_.size(); ++e) {
          if (Link(preds_[e], j)) ++linked;
        }
        const uint32_t unlink = kLinking - linked;
        ready = waiting_[j].fetch_sub(unlink, std::memory_order_acq_rel) ==
                unlink;
      }
      if (ready) ready_[published++] = j;
      if (published - visible >= kClaimBatch) {
        visible = published;
        published_.store(visible, std::memory_order_release);
      }
    }
    published_.store(published, std::memory_order_release);
    analyzing_.store(false, std::memory_order_release);
  }

  // Adds j to i's successor list; false when i has already finished.
  bool Link(uint32_t i, uint32_t j) {
    Edge* e = &edges_.emplace_back(Edge{j, nullptr});
    Edge* head = succ_heads_[i].load(std::memory_order_acquire);
    do {
      if (head == &finished_) {
        edges_.pop_back();
        return false;
      }
      e->next = head;
    } while (!succ_heads_[i].compare_exchange_weak(
        head, e, std::memory_order_release, std::memory_order_acquire));
    return true;
  }

  // Marks j finished and releases the successors it was the last
  // unfinished predecessor of. Returns the lowest-TID one for the caller
  // to run next and shares the others; kNoPiece when none.
  uint32_t Release(uint32_t j) {
    Edge* e = succ_heads_[j].exchange(&finished_, std::memory_order_acq_rel);
    uint32_t next = kNoPiece;
    for (; e != nullptr; e = e->next) {
      const uint32_t s = e->succ;
      if (waiting_[s].fetch_sub(1, std::memory_order_acq_rel) != 1) continue;
      if (next == kNoPiece) {
        next = s;
        continue;
      }
      std::lock_guard<std::mutex> lock(shared_mu_);
      shared_.push(std::max(next, s));
      shared_size_.fetch_add(1, std::memory_order_release);
      next = std::min(next, s);
    }
    return next;
  }

  // Published pieces a worker has claimed: ready_[begin, end).
  struct Claim {
    uint32_t begin = 0, end = 0;
  };
  // Published pieces are claimed a few at a time, so that workers draining
  // a piece-set of tiny pieces do not contend on every one.
  static constexpr uint32_t kClaimBatch = 4;

  // A runnable piece for a worker with none in hand: the next of its
  // claimed pieces, a shared released piece, or the next published ones
  // in TID order. While the analysis is still running (on the analyst's
  // thread) more may be published, so the worker yields and looks again;
  // once it is done, kNoPiece means there is nothing to run right now.
  uint32_t Take(Claim* claim) {
    if (claim->begin < claim->end) return ready_[claim->begin++];
    while (true) {
      const bool analyzing = analyzing_.load(std::memory_order_acquire);
      if (shared_size_.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> lock(shared_mu_);
        if (!shared_.empty()) {
          const uint32_t j = shared_.top();
          shared_.pop();
          shared_size_.fetch_sub(1, std::memory_order_relaxed);
          return j;
        }
      }
      uint32_t c = claimed_.load(std::memory_order_relaxed);
      uint32_t p;
      while (c < (p = published_.load(std::memory_order_acquire))) {
        const uint32_t end = std::min(p, c + kClaimBatch);
        if (claimed_.compare_exchange_weak(c, end,
                                           std::memory_order_acq_rel)) {
          *claim = {c + 1, end};
          return ready_[c];
        }
      }
      if (!analyzing) return kNoPiece;
      std::this_thread::yield();
    }
  }

  // Executes piece `j` for real; returns its modeled op cost.
  double Execute(uint32_t j, proc::ReplayAccess* access) {
    const Piece& piece = pieces_[j];
    TxnReplay& txn = *piece.txn;
    const logging::LogRecord* rec = txn.rec;
    access->set_commit_ts(rec->commit_ts);
    const uint64_t r0 = access->reads(), w0 = access->writes();
    if (piece.ops == nullptr) {
      for (const logging::WriteImage& img : rec->writes) {
        if (TableBlock(ctx_->table_block, img.table) == block_) {
          access->Write(img.table, img.key, img.after, img.deleted, false);
        }
      }
    } else {
      proc::VmState vm = ThreadArena().BindShared(
          ctx_->programs->Get(rec->proc), &rec->params, &txn.vm_locals);
      Status s = proc::VmExecuteOps(*piece.ops, &vm, access);
      PACMAN_CHECK(s.ok());
    }
    const CostModel& cm = ctx_->cm;
    return cm.read_op * static_cast<double>(access->reads() - r0) +
           cm.write_op * static_cast<double>(access->writes() - w0);
  }

  // The modeled makespan of the piece-set on its `cores_` cores: a list
  // schedule of the pieces in TID order, each starting once its DAG
  // predecessors have finished and a core is free.
  double ListSchedule(double dispatch) const {
    const CostModel& cm = ctx_->cm;
    const size_t n = op_cost_.size();
    std::vector<double> finish(n);
    std::vector<double> core_free(cores_, 0.0);
    double makespan = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double ready = 0.0;
      for (uint32_t e = pred_begin_[j]; e < pred_begin_[j + 1]; ++e) {
        ready = std::max(ready, finish[preds_[e]]);
      }
      auto core_it = std::min_element(core_free.begin(), core_free.end());
      const double start = std::max(ready, *core_it);
      finish[j] = start + cm.piece_param_check + dispatch + op_cost_[j];
      *core_it = finish[j];
      makespan = std::max(makespan, finish[j]);
    }
    return makespan;
  }

  // Charges the Fig. 20 categories and returns the modeled makespan (on
  // the simulated machine; real threads ignore it), then frees the DAG.
  // Runs once, after every piece.
  double Finish() {
    const CostModel& cm = ctx_->cm;
    const auto n = static_cast<uint32_t>(op_cost_.size());
    double useful = 0.0, param = 0.0, sched = 0.0;
    double makespan = 0.0;
    if (ctx_->mode == PacmanMode::kStaticOnly) {
      // §4.2.1: without dynamic analysis the piece-set is executed
      // serially by its single owning thread.
      for (double c : op_cost_) useful += c;
      makespan = useful;
    } else {
      const double dispatch =
          cm.SchedCost(ctx_->total_threads) + cm.per_piece_coordination;
      for (uint32_t j = 0; j < n; ++j) {
        param += cm.piece_param_check;
        useful += op_cost_[j];
        sched += dispatch;
      }
      if (ctx_->simulated) makespan = ListSchedule(dispatch);
    }
    makespan += cm.pieceset_coordination;
    sched += cm.pieceset_coordination;
    ctx_->counters->AddUseful(useful);
    ctx_->counters->AddParamCheck(param);
    ctx_->counters->AddScheduling(sched);
    // Workers still looking for work touch only the take state.
    pieces_ = {};
    pred_begin_ = {};
    preds_ = {};
    op_cost_ = {};
    edges_ = {};
    return makespan;
  }

  const std::shared_ptr<const ReplayContext> ctx_;
  const std::shared_ptr<BatchState> batch_;
  const BlockId block_;
  // Worker tasks, which are also the simulated cores of the list schedule.
  const uint32_t cores_;

  std::once_flag started_;
  std::vector<Piece> pieces_;  // In TID order.
  // The analyst's DAG: each piece's predecessors (CSR, read back only by
  // the list schedule) and the nodes of the successor lists.
  std::vector<uint32_t> pred_begin_, preds_;
  std::deque<Edge> edges_;
  std::vector<double> op_cost_;  // Written by each piece's executor.

  // Drain state, shared by the workers.
  Edge finished_{};  // Successor-list head of a finished piece.
  std::vector<std::atomic<Edge*>> succ_heads_;
  std::vector<std::atomic<uint32_t>> waiting_;  // Unfinished preds.
  std::vector<uint32_t> ready_;  // Published pieces, in TID order.
  std::atomic<bool> analyzing_{false};
  std::atomic<uint32_t> published_{0};
  std::atomic<uint32_t> claimed_{0};
  std::mutex shared_mu_;
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>>
      shared_;  // Released pieces their releaser did not keep.
  std::atomic<uint32_t> shared_size_{0};
  std::atomic<uint32_t> remaining_{0};  // Pieces not yet counted run.
  std::atomic<uint32_t> exited_{0};     // Workers that have left Work().
  std::atomic<double> makespan_{-1.0};
};

}  // namespace

ClrPLayout PlanClrPLayout(const analysis::GlobalDependencyGraph& gdg,
                          const std::vector<GlobalBatch>& batches,
                          const proc::ProcedureRegistry* registry,
                          uint32_t num_ssds,
                          const RecoveryOptions& options) {
  const auto num_blocks = static_cast<uint32_t>(gdg.NumBlocks());
  const uint32_t num_threads = options.num_threads;
  const CostModel& cm = options.costs;
  PACMAN_CHECK(num_blocks > 0);
  ClrPLayout layout;
  for (uint32_t d = 0; d < num_ssds; ++d) {
    layout.machine.cores_per_group.push_back(1);
  }

  // Workload distribution over blocks (§4.4). Each piece contributes its
  // modeled replay cost (per-op costs plus per-piece dispatch), so blocks
  // with heavy pieces (e.g. TPC-C's CUSTOMER/ORDER_LINE block) receive a
  // proportional share of cores.
  const double piece_overhead =
      cm.piece_param_check + cm.SchedCost(num_threads);
  // Per-procedure per-block cost of one instantiated piece.
  std::vector<std::unordered_map<BlockId, double>> piece_cost(
      gdg.proc_pieces.size());
  for (ProcId p = 0; p < gdg.proc_pieces.size(); ++p) {
    const proc::ProcedureDef& def = registry->Get(p);
    for (const analysis::ProcPiece& piece : gdg.proc_pieces[p]) {
      double cost = piece_overhead;
      for (OpIndex oi : piece.ops) {
        cost += def.ops[oi].IsModification() ? cm.write_op : cm.read_op;
      }
      piece_cost[p][piece.block] = cost;
    }
  }
  // Ad-hoc records replay as write-only pieces routed by the written
  // table's owning block (§4.5); count them into the distribution too.
  const std::vector<BlockId> table_block = BuildTableBlockMap(gdg, registry);
  std::vector<double> piece_count(num_blocks, 0.0);
  for (const GlobalBatch& b : batches) {
    for (const logging::LogRecord* rec : b.records) {
      if (rec->is_adhoc()) {
        for (const logging::WriteImage& img : rec->writes) {
          const BlockId k = TableBlock(table_block, img.table);
          if (k != kNoBlock) piece_count[k] += cm.write_op;
        }
        continue;
      }
      for (const auto& [block, cost] : piece_cost[rec->proc]) {
        piece_count[block] += cost;
      }
    }
  }
  double total = 0.0;
  for (double c : piece_count) total += c;
  if (total == 0.0) {
    for (double& c : piece_count) c = 1.0;
    total = num_blocks;
  }

  // Proportional assignment, at least one core per block. The pool itself
  // has exactly num_threads cores, so over-subscription (more blocks than
  // threads) resolves as genuine contention in the simulation.
  layout.block_cores.resize(num_blocks);
  for (uint32_t k = 0; k < num_blocks; ++k) {
    layout.block_cores[k] = std::max(
        1u, static_cast<uint32_t>(
                std::llround(num_threads * piece_count[k] / total)));
  }
  layout.cpu_group = num_ssds;
  layout.machine.cores_per_group.push_back(num_threads);
  return layout;
}

void BuildClrPReplay(const analysis::GlobalDependencyGraph& gdg,
                     const std::vector<GlobalBatch>& batches,
                     const std::vector<device::StorageDevice*>& ssds,
                     storage::Catalog* catalog,
                     const proc::ProcedureRegistry* registry,
                     const proc::ProgramSet& programs,
                     const RecoveryOptions& options, const ClrPLayout* layout,
                     sim::TaskGraph* graph, RecoveryCounters* counters,
                     const std::vector<sim::TaskId>* batch_gates) {
  const auto num_blocks = static_cast<uint32_t>(gdg.NumBlocks());
  const CostModel& cm = options.costs;
  const bool reload_only = options.reload_only;
  const PacmanMode mode = options.mode;
  const sim::GroupId cpu_group =
      layout != nullptr ? layout->cpu_group
                        : CpuGroup(static_cast<uint32_t>(ssds.size()));

  auto ctx = std::make_shared<ReplayContext>();
  ctx->gdg = &gdg;
  ctx->table_block = BuildTableBlockMap(gdg, registry);
  ctx->catalog = catalog;
  ctx->programs = &programs;
  ctx->counters = counters;
  ctx->cm = cm;
  ctx->mode = mode;
  ctx->total_threads = options.num_threads;
  ctx->simulated = layout != nullptr;

  std::vector<sim::TaskId> prev_ps(num_blocks, sim::kInvalidTask);
  sim::TaskId prev_barrier = sim::kInvalidTask;

  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const GlobalBatch& batch = batches[bi];
    // --- Reload stage --------------------------------------------------
    std::vector<sim::TaskId> ios;
    size_t batch_bytes = 0;
    for (const auto& [ssd_index, bytes] : batch.files) {
      const double io_cost = ssds[ssd_index]->ReadSeconds(bytes);
      batch_bytes += bytes;
      ios.push_back(graph->AddTask(
          io_cost, [counters, io_cost]() { counters->AddLoading(io_cost); },
          SsdGroup(ssd_index), batch.seq));
    }
    const double deser_cost =
        static_cast<double>(batch_bytes) * cm.deserialize_byte;
    auto bstate = std::make_shared<BatchState>();
    const GlobalBatch* b = &batch;
    sim::TaskId deser = graph->AddTask(0.0, nullptr, cpu_group, batch.seq);
    graph->task(deser).dynamic_work = [b, bstate, ctx, counters,
                                       deser_cost]() {
      PrepareBatch(*ctx, *b, bstate.get());
      counters->AddLoading(deser_cost);
      counters->AddRecords(b->records.size());
      return deser_cost;
    };
    for (sim::TaskId io : ios) graph->AddEdge(io, deser);
    if (batch_gates != nullptr) graph->AddEdge((*batch_gates)[bi], deser);
    if (reload_only) continue;

    // --- Piece-set tasks ------------------------------------------------
    // A piece-set runs as `workers` tasks on the shared CPU pool that
    // drain its conflict DAG together (PieceSet). ps_tasks[k] is the join.
    std::vector<sim::TaskId> ps_tasks(num_blocks);
    for (BlockId k = 0; k < num_blocks; ++k) {
      uint32_t workers = 1;
      if (mode != PacmanMode::kStaticOnly) {
        workers =
            layout != nullptr ? layout->block_cores[k] : options.num_threads;
      }
      auto piece_set = std::make_shared<PieceSet>(ctx, bstate, k, workers);
      sim::TaskId join = graph->AddTask(0.0, nullptr, cpu_group, batch.seq);
      for (uint32_t c = 0; c < workers; ++c) {
        sim::TaskId w = graph->AddTask(0.0, nullptr, cpu_group, batch.seq);
        graph->task(w).dynamic_work = [piece_set]() {
          return piece_set->Work();
        };
        graph->AddEdge(deser, w);
        for (BlockId dep : gdg.blocks[k].deps) {
          graph->AddEdge(ps_tasks[dep], w);
        }
        if (mode == PacmanMode::kPipelined) {
          if (prev_ps[k] != sim::kInvalidTask) {
            graph->AddEdge(prev_ps[k], w);
          }
        } else if (prev_barrier != sim::kInvalidTask) {
          graph->AddEdge(prev_barrier, w);
        }
        graph->AddEdge(w, join);
      }
      ps_tasks[k] = join;
    }

    if (mode != PacmanMode::kPipelined) {
      // Synchronous execution: a barrier separates consecutive batches
      // (Fig. 9a).
      sim::TaskId barrier =
          graph->AddTask(0.0, nullptr, cpu_group, batch.seq);
      for (BlockId k = 0; k < num_blocks; ++k) {
        graph->AddEdge(ps_tasks[k], barrier);
      }
      prev_barrier = barrier;
    }
    prev_ps = ps_tasks;
  }
}

}  // namespace pacman::recovery
