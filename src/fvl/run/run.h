// Workflow runs built by online derivations (Def. 10).
//
// A Run starts as the start module with its input/output data items and
// grows by applying productions to unexpanded composite module instances.
// Every application creates one module instance per rhs member and one data
// item per rhs data edge; the items adjacent to the expanded instance are
// rewired to the new children per the production's port bijection f.
//
// Data items record their *creation-time* endpoints, which never change —
// this is the immutability that dynamic labels rely on (labels are assigned
// when an item is created and must not be modified later). The current
// (deepest) endpoints needed by ground-truth oracles are recovered by
// replaying the derivation (see provenance_oracle.*).

#ifndef FVL_RUN_RUN_H_
#define FVL_RUN_RUN_H_

#include <span>
#include <vector>

#include "fvl/workflow/grammar.h"

namespace fvl {

constexpr int kNoInstance = -1;

struct ModuleInstance {
  int id = -1;
  ModuleId type = kInvalidModule;
  // Derivation step that created this instance (-1 for the start instance)
  // and its member position within that step's production.
  int creation_step = -1;
  int position = -1;
};

struct DataItem {
  int id = -1;
  // Creation-time producer (kNoInstance if this is an initial input of the
  // start module) and consumer (kNoInstance if a final output).
  int producer_instance = kNoInstance;
  int producer_port = -1;
  int consumer_instance = kNoInstance;
  int consumer_port = -1;

  bool IsInitialInput() const { return producer_instance == kNoInstance; }
  bool IsFinalOutput() const { return consumer_instance == kNoInstance; }
};

struct DerivationStep {
  int index = -1;
  int instance = -1;             // the expanded composite instance
  ProductionId production = -1;
  int first_child = -1;          // children are [first_child, first_child+members)
  int first_item = -1;           // new items are [first_item, first_item+num_items)
  int num_items = 0;
};

class Run {
 public:
  explicit Run(const Grammar* grammar);

  const Grammar& grammar() const { return *grammar_; }

  int start_instance() const { return 0; }
  int num_instances() const { return static_cast<int>(instances_.size()); }
  const ModuleInstance& instance(int id) const { return instances_[id]; }

  int num_items() const { return static_cast<int>(items_.size()); }
  const DataItem& item(int id) const { return items_[id]; }

  int num_steps() const { return static_cast<int>(steps_.size()); }
  const DerivationStep& step(int index) const { return steps_[index]; }

  // Item ids wired to the instance's ports at its creation time, in port
  // order. (For the start instance: the run's initial inputs / final
  // outputs.) Views into the run's one port table: a later Apply may
  // reallocate it.
  std::span<const int> InputItems(int instance) const {
    return {ports_.data() + port_base_[instance],
            static_cast<size_t>(ModuleOf(instance).num_inputs)};
  }
  std::span<const int> OutputItems(int instance) const {
    const Module& module = ModuleOf(instance);
    return {ports_.data() + port_base_[instance] + module.num_inputs,
            static_cast<size_t>(module.num_outputs)};
  }

  bool IsExpanded(int instance) const { return expanded_[instance]; }
  // Unexpanded composite instances (order unspecified).
  const std::vector<int>& Frontier() const { return frontier_; }
  // True iff the run contains only atomic module instances (R ∈ L(G)).
  bool IsComplete() const { return frontier_.empty(); }

  // Applies `production` to `instance`; the instance must be unexpanded and
  // the production's lhs must match its type. Returns the recorded step.
  const DerivationStep& Apply(int instance, ProductionId production);

 private:
  const Module& ModuleOf(int instance) const {
    return grammar_->module(instances_[instance].type);
  }
  // Appends an instance with its ports unwired (-1).
  void AddInstance(ModuleInstance instance);
  int& InputSlot(int instance, int port) {
    return ports_[port_base_[instance] + port];
  }
  int& OutputSlot(int instance, int port) {
    return ports_[port_base_[instance] + ModuleOf(instance).num_inputs + port];
  }

  const Grammar* grammar_;
  std::vector<ModuleInstance> instances_;
  std::vector<DataItem> items_;
  std::vector<DerivationStep> steps_;
  // Every instance's input item ids then output item ids, in instance
  // order; instance i's start at port_base_[i].
  std::vector<int> ports_;
  std::vector<int> port_base_;
  std::vector<bool> expanded_;
  std::vector<int> frontier_;
  std::vector<int> frontier_position_;  // per instance, -1 if not on frontier
};

}  // namespace fvl

#endif  // FVL_RUN_RUN_H_
