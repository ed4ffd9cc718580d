// Modules (Def. 1): a module has named identity and a number of input and
// output ports. Ports are identified positionally (0-based); the paper's
// examples use 1-based positions, converted at the test boundary.

#ifndef FVL_WORKFLOW_MODULE_H_
#define FVL_WORKFLOW_MODULE_H_

#include <string>

namespace fvl {

// Index into a grammar's module table.
using ModuleId = int;
// Index into a grammar's production table (the paper's k, 0-based here).
using ProductionId = int;

constexpr ModuleId kInvalidModule = -1;

// Most input (and most output) ports of one module in a valid
// specification: the decoder holds a set of one module's ports in a word.
constexpr int kMaxPorts = 64;

struct Module {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
};

}  // namespace fvl

#endif  // FVL_WORKFLOW_MODULE_H_
