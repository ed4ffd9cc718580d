#include "fvl/core/run_labeler.h"

#include <vector>

#include "fvl/util/check.h"

namespace fvl {

RunLabeler::RunLabeler(const Grammar* grammar, const ProductionGraph* pg)
    : tree_(grammar, pg), store_(LabelCodec(*pg)) {
  store_.BeginGroup();
}

void RunLabeler::OnStart(const Run& run) {
  tree_.OnStart(run);
  // Item ids are allocated sequentially; the start module's boundary items
  // are exactly [0, inputs + outputs). Buffering that count (rather than
  // run.num_items()) keeps the labeler strictly online even when replaying
  // an already-completed run; the store appends in item-id order.
  std::vector<DataLabel> boundary(
      run.InputItems(run.start_instance()).size() +
      run.OutputItems(run.start_instance()).size());
  const ParseNode& start_node =
      tree_.node(tree_.NodeOfInstance(run.start_instance()));
  for (int item_id : run.InputItems(run.start_instance())) {
    boundary[item_id].consumer =
        PortLabel{start_node.path, run.item(item_id).consumer_port};
  }
  for (int item_id : run.OutputItems(run.start_instance())) {
    boundary[item_id].producer =
        PortLabel{start_node.path, run.item(item_id).producer_port};
  }
  for (const DataLabel& label : boundary) store_.Append(label);
}

void RunLabeler::OnApply(const Run& run, const DerivationStep& step) {
  tree_.OnApply(run, step);
  FVL_CHECK(store_.total_items() == step.first_item);
  // Label exactly the step's own items (not up to run.num_items(), which is
  // already the final count when replaying a completed run).
  for (int e = 0; e < step.num_items; ++e) {
    int item_id = step.first_item + e;
    const DataItem& item = run.item(item_id);
    const ParseNode& producer_node =
        tree_.node(tree_.NodeOfInstance(item.producer_instance));
    const ParseNode& consumer_node =
        tree_.node(tree_.NodeOfInstance(item.consumer_instance));
    label_.producer->path = producer_node.path;
    label_.producer->port = item.producer_port;
    label_.consumer->path = consumer_node.path;
    label_.consumer->port = item.consumer_port;
    store_.Append(label_);
  }
}

RunLabeler LabelEntireRun(const Run& run, const ProductionGraph& pg) {
  RunLabeler labeler(&run.grammar(), &pg);
  labeler.OnStart(run);
  for (int s = 0; s < run.num_steps(); ++s) {
    labeler.OnApply(run, run.step(s));
  }
  return labeler;
}

}  // namespace fvl
