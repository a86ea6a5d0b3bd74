// Copyright (c) 2026 The PACMAN reproduction authors.
// Procedure compiler: expr trees -> register bytecode (proc/bytecode.h).
//
// Runs once per procedure, at Database::FinalizeSchema() time. Lowering is
// a straight postorder walk of each operation's expressions; constant and
// parameter leaves become operands (zero instructions), everything else
// lands in a register allocated from a per-operation counter that restarts
// at zero — operations exchange data only through locals, so register
// numbers can be reused and the file stays small. Table lookups are
// resolved against the catalog here, once per (program, table), instead of
// per access at run time.
//
// Compilation also revives the static analysis (src/analysis/): each
// program carries a StaticAccessSummary with its read/write footprint,
// canonical write order, and the PACMAN-slice / chopping piece boundaries,
// so forward processing can pre-size transaction footprints and skip
// provably-redundant write coalescing, and dependency-aware replay has its
// piece metadata without re-deriving it per run.
#ifndef PACMAN_PROC_COMPILER_H_
#define PACMAN_PROC_COMPILER_H_

#include <vector>

#include "analysis/local_graph.h"
#include "common/macros.h"
#include "proc/bytecode.h"
#include "proc/registry.h"
#include "storage/catalog.h"

namespace pacman::proc {

// Compiles one procedure. `ldg` / `chopping` supply the piece boundaries
// for the summary; either may be null (summary piece lists stay empty).
CompiledProgram CompileProcedure(
    const ProcedureDef& def, storage::Catalog* catalog,
    const analysis::LocalDependencyGraph* ldg,
    const analysis::LocalDependencyGraph* chopping);

// All compiled programs of a database, indexed by ProcId. Built once at
// FinalizeSchema(); immutable afterwards, shared by every executor and
// recovery thread.
class ProgramSet {
 public:
  ProgramSet() = default;
  PACMAN_DISALLOW_COPY_AND_MOVE(ProgramSet);

  // `ldgs[p]` / `chopping[p]` must correspond to registry proc p; either
  // vector may be empty to skip piece metadata.
  void Build(const ProcedureRegistry& registry, storage::Catalog* catalog,
             const std::vector<analysis::LocalDependencyGraph>& ldgs,
             const std::vector<analysis::LocalDependencyGraph>& chopping);

  size_t size() const { return programs_.size(); }

  const CompiledProgram& Get(ProcId id) const {
    PACMAN_CHECK(id < programs_.size());
    return programs_[id];
  }

 private:
  std::vector<CompiledProgram> programs_;
};

}  // namespace pacman::proc

#endif  // PACMAN_PROC_COMPILER_H_
