// Random run generation, mirroring the paper's methodology (§6.1: "we
// simulated runs by applying a random sequence of productions, varying their
// sizes from 1K to 32K").
//
// The generator expands random frontier instances; while the run is below
// the target size it picks productions uniformly (which keeps recursions
// unfolding), and once the target is reached it switches every instance to
// its cheapest terminating production, so generation always halts close to
// the requested number of data items.

#ifndef FVL_RUN_RUN_GENERATOR_H_
#define FVL_RUN_RUN_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "fvl/run/run.h"

namespace fvl {

struct RunGeneratorOptions {
  int target_items = 1000;
  uint64_t seed = 1;
};

// Per-module cost of the cheapest all-atomic completion, measured in data
// items (min_k [#edges(p_k) + sum over members]); infinity for unproductive
// modules. Exposed for tests.
std::vector<int64_t> MinCompletionItems(const Grammar& grammar);

Run GenerateRandomRun(const Grammar& grammar, const RunGeneratorOptions& options);

// Callback-driven variant so labeling schemes can observe every step online
// (the derivation-based dynamic labeling problem of Def. 10). The callback
// is invoked once after Run construction (step = nullptr) and once after
// every Apply.
using StepCallback = std::function<void(const Run&, const DerivationStep*)>;
Run GenerateRandomRun(const Grammar& grammar, const RunGeneratorOptions& options,
                      const StepCallback& callback);

}  // namespace fvl

#endif  // FVL_RUN_RUN_GENERATOR_H_
