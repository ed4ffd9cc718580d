#include "fvl/run/run.h"

#include "fvl/util/check.h"

namespace fvl {

Run::Run(const Grammar* grammar) : grammar_(grammar) {
  const Module& start = grammar_->module(grammar_->start());

  ModuleInstance root;
  root.id = 0;
  root.type = grammar_->start();
  AddInstance(root);  // composite (Grammar::Validate), so on the frontier

  for (int port = 0; port < start.num_inputs; ++port) {
    DataItem item;
    item.id = num_items();
    item.consumer_instance = 0;
    item.consumer_port = port;
    InputSlot(0, port) = item.id;
    items_.push_back(item);
  }
  for (int port = 0; port < start.num_outputs; ++port) {
    DataItem item;
    item.id = num_items();
    item.producer_instance = 0;
    item.producer_port = port;
    OutputSlot(0, port) = item.id;
    items_.push_back(item);
  }
}

void Run::AddInstance(ModuleInstance instance) {
  const Module& module = grammar_->module(instance.type);
  port_base_.push_back(static_cast<int>(ports_.size()));
  ports_.resize(ports_.size() + module.num_inputs + module.num_outputs, -1);
  expanded_.push_back(false);
  frontier_position_.push_back(-1);
  if (grammar_->is_composite(instance.type)) {
    frontier_position_.back() = static_cast<int>(frontier_.size());
    frontier_.push_back(instance.id);
  }
  instances_.push_back(instance);
}

const DerivationStep& Run::Apply(int instance, ProductionId production) {
  FVL_CHECK(instance >= 0 && instance < num_instances());
  FVL_CHECK(!expanded_[instance]);
  const Production& p = grammar_->production(production);
  FVL_CHECK(p.lhs == instances_[instance].type);
  const SimpleWorkflow& w = p.rhs;

  DerivationStep step;
  step.index = num_steps();
  step.instance = instance;
  step.production = production;
  step.first_child = num_instances();
  step.first_item = num_items();
  step.num_items = static_cast<int>(w.edges.size());

  // Children.
  for (int pos = 0; pos < w.num_members(); ++pos) {
    ModuleInstance child;
    child.id = num_instances();
    child.type = w.members[pos];
    child.creation_step = step.index;
    child.position = pos;
    AddInstance(child);
  }

  // New items, one per rhs data edge.
  for (const DataEdge& e : w.edges) {
    DataItem item;
    item.id = num_items();
    item.producer_instance = step.first_child + e.src.member;
    item.producer_port = e.src.port;
    item.consumer_instance = step.first_child + e.dst.member;
    item.consumer_port = e.dst.port;
    items_.push_back(item);
    OutputSlot(item.producer_instance, item.producer_port) = item.id;
    InputSlot(item.consumer_instance, item.consumer_port) = item.id;
  }

  // Rewire the expanded instance's adjacent items to the children (creation
  // records of those items are untouched).
  for (int x = 0; x < static_cast<int>(w.initial_inputs.size()); ++x) {
    const PortRef& target = w.initial_inputs[x];
    InputSlot(step.first_child + target.member, target.port) =
        InputSlot(instance, x);
  }
  for (int y = 0; y < static_cast<int>(w.final_outputs.size()); ++y) {
    const PortRef& source = w.final_outputs[y];
    OutputSlot(step.first_child + source.member, source.port) =
        OutputSlot(instance, y);
  }

  // Frontier maintenance (swap-remove).
  expanded_[instance] = true;
  int pos = frontier_position_[instance];
  FVL_CHECK(pos >= 0);
  int last = frontier_.back();
  frontier_[pos] = last;
  frontier_position_[last] = pos;
  frontier_.pop_back();
  frontier_position_[instance] = -1;

  steps_.push_back(step);
  return steps_.back();
}

}  // namespace fvl
