// Context-free workflow grammars (Def. 4): G = (Σ, Δ, S, P) with modules Σ,
// composite modules Δ ⊆ Σ, start module S and workflow productions P.
//
// A workflow specification (Def. 7) is a Grammar plus a DependencyAssignment
// for its atomic modules; the pair is carried around as `Specification`.

#ifndef FVL_WORKFLOW_GRAMMAR_H_
#define FVL_WORKFLOW_GRAMMAR_H_

#include <optional>
#include <string>
#include <vector>

#include "fvl/workflow/dependency.h"
#include "fvl/workflow/module.h"
#include "fvl/workflow/simple_workflow.h"

namespace fvl {

// A workflow production M ->f W (Def. 3). The bijection f is encoded by the
// order of W.initial_inputs / W.final_outputs (index x maps the x-th
// input/output port of M).
struct Production {
  ModuleId lhs = kInvalidModule;
  SimpleWorkflow rhs;
};

class Grammar {
 public:
  Grammar() = default;
  Grammar(std::vector<Module> modules, std::vector<bool> composite,
          ModuleId start, std::vector<Production> productions);

  int num_modules() const { return static_cast<int>(modules_.size()); }
  const Module& module(ModuleId m) const { return modules_[m]; }
  const std::vector<Module>& modules() const { return modules_; }
  bool is_composite(ModuleId m) const { return composite_[m]; }
  ModuleId start() const { return start_; }

  int num_productions() const { return static_cast<int>(productions_.size()); }
  const Production& production(ProductionId k) const { return productions_[k]; }
  // Productions whose lhs is `m`, in production-table order.
  const std::vector<ProductionId>& ProductionsOf(ModuleId m) const {
    return productions_of_[m];
  }

  // Module lookup by name; kInvalidModule if absent.
  ModuleId FindModule(const std::string& name) const;

  // All atomic (non-composite) module ids.
  std::vector<ModuleId> AtomicModules() const;
  // All composite module ids (Δ).
  std::vector<ModuleId> CompositeModules() const;

  // Structural validation: start exists and is composite, production lhs are
  // composite, rhs workflows validate, port bijections have matching arity,
  // atomic modules have no productions.
  std::optional<std::string> Validate() const;

  // Size |G| = sum of production sizes (total ports of lhs + rhs), used in
  // complexity accounting.
  int64_t Size() const;

 private:
  std::vector<Module> modules_;
  std::vector<bool> composite_;
  ModuleId start_ = kInvalidModule;
  std::vector<Production> productions_;
  std::vector<std::vector<ProductionId>> productions_of_;
};

// A workflow specification G^λ (Def. 7).
struct Specification {
  Grammar grammar;
  DependencyAssignment deps;  // λ, defined for atomic modules

  // Validates the grammar, the kMaxPorts limit on each module side and
  // λ-coverage of all atomic modules.
  std::optional<std::string> Validate() const;
};

}  // namespace fvl

#endif  // FVL_WORKFLOW_GRAMMAR_H_
