#include "fvl/workflow/grammar.h"

#include "fvl/util/check.h"

namespace fvl {

Grammar::Grammar(std::vector<Module> modules, std::vector<bool> composite,
                 ModuleId start, std::vector<Production> productions)
    : modules_(std::move(modules)),
      composite_(std::move(composite)),
      start_(start),
      productions_(std::move(productions)),
      productions_of_(modules_.size()) {
  FVL_CHECK(composite_.size() == modules_.size());
  for (ProductionId k = 0; k < num_productions(); ++k) {
    ModuleId lhs = productions_[k].lhs;
    FVL_CHECK(lhs >= 0 && lhs < num_modules());
    productions_of_[lhs].push_back(k);
  }
}

ModuleId Grammar::FindModule(const std::string& name) const {
  for (ModuleId m = 0; m < num_modules(); ++m) {
    if (modules_[m].name == name) return m;
  }
  return kInvalidModule;
}

std::vector<ModuleId> Grammar::AtomicModules() const {
  std::vector<ModuleId> atoms;
  for (ModuleId m = 0; m < num_modules(); ++m) {
    if (!composite_[m]) atoms.push_back(m);
  }
  return atoms;
}

std::vector<ModuleId> Grammar::CompositeModules() const {
  std::vector<ModuleId> result;
  for (ModuleId m = 0; m < num_modules(); ++m) {
    if (composite_[m]) result.push_back(m);
  }
  return result;
}

std::optional<std::string> Grammar::Validate() const {
  if (start_ < 0 || start_ >= num_modules()) return "invalid start module";
  if (!composite_[start_]) return "start module must be composite";
  for (ProductionId k = 0; k < num_productions(); ++k) {
    const Production& p = productions_[k];
    std::string where = "production " + std::to_string(k + 1) + " (" +
                        modules_[p.lhs].name + "): ";
    if (!composite_[p.lhs]) return where + "lhs module is atomic";
    if (auto error = p.rhs.Validate(modules_)) return where + *error;
    if (static_cast<int>(p.rhs.initial_inputs.size()) !=
        modules_[p.lhs].num_inputs) {
      return where + "initial inputs do not biject with lhs input ports";
    }
    if (static_cast<int>(p.rhs.final_outputs.size()) !=
        modules_[p.lhs].num_outputs) {
      return where + "final outputs do not biject with lhs output ports";
    }
  }
  return std::nullopt;
}

int64_t Grammar::Size() const {
  int64_t size = 0;
  for (const Production& p : productions_) {
    size += modules_[p.lhs].num_inputs + modules_[p.lhs].num_outputs;
    size += p.rhs.TotalPorts(modules_);
  }
  return size;
}

std::optional<std::string> Specification::Validate() const {
  if (auto error = grammar.Validate()) return error;
  for (const Module& m : grammar.modules()) {
    if (m.num_inputs > kMaxPorts || m.num_outputs > kMaxPorts) {
      return "module " + m.name + " has more than " +
             std::to_string(kMaxPorts) + " input or output ports";
    }
  }
  return deps.ValidateCoverage(grammar.modules(), grammar.AtomicModules());
}

}  // namespace fvl
