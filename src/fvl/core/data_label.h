// Data labels (§4.2.2).
//
// An edge label identifies an edge of the compressed parse tree: (k, i) for
// a child of a module node (production k, member position i) or (s, t, i)
// for the i-th child of a recursive node (cycle s unfolded starting from
// cycle edge t). A port label is the path of edge labels from the root to
// the node of the module that *first created* the port, followed by the
// port index. A data label pairs the producer's output-port label with the
// consumer's input-port label; either side is absent for initial inputs /
// final outputs of the run.
//
// Bit encoding (measured by the paper's Figures 17/21/24): grammar-bounded
// fields (production id, member position, cycle id, cycle start) use fixed
// widths derived from the grammar; unbounded iteration indices use
// Elias-gamma; the common prefix of the two paths is stored once (§4.2.2's
// "factoring" optimization). Everything round-trips losslessly.

#ifndef FVL_CORE_DATA_LABEL_H_
#define FVL_CORE_DATA_LABEL_H_

#include <optional>
#include <string>
#include <vector>

#include "fvl/util/bitstream.h"
#include "fvl/workflow/production_graph.h"

namespace fvl {

struct EdgeLabel {
  enum class Kind : uint8_t { kProduction, kRecursion };
  Kind kind = Kind::kProduction;
  // kProduction: (production, position).
  int production = -1;
  int position = -1;
  // kRecursion: (cycle, start, iteration); iteration is 1-based as in the
  // paper ((s, t, 1) is the first unfolded member).
  int cycle = -1;
  int start = -1;
  int iteration = 0;

  static EdgeLabel Prod(int production, int position) {
    EdgeLabel e;
    e.kind = Kind::kProduction;
    e.production = production;
    e.position = position;
    return e;
  }
  static EdgeLabel Rec(int cycle, int start, int iteration) {
    EdgeLabel e;
    e.kind = Kind::kRecursion;
    e.cycle = cycle;
    e.start = start;
    e.iteration = iteration;
    return e;
  }

  bool operator==(const EdgeLabel&) const = default;
  std::string ToString() const;  // e.g. "(1,5)" or "(1,1,5)", 1-based
};

struct PortLabel {
  std::vector<EdgeLabel> path;
  int port = -1;

  bool operator==(const PortLabel&) const = default;
  std::string ToString() const;
};

struct DataLabel {
  std::optional<PortLabel> producer;  // absent for initial inputs
  std::optional<PortLabel> consumer;  // absent for final outputs

  bool operator==(const DataLabel&) const = default;
  std::string ToString() const;
};

// Fixed-width field sizes derived from a grammar/production graph; shared by
// the encoder and decoder (spec-level knowledge, not part of the label).
struct LabelCodec {
  explicit LabelCodec(const ProductionGraph& pg);
  // All-zero widths; used when the widths are read back from a serialized
  // header (ProvenanceIndex::Deserialize) instead of derived from a grammar.
  LabelCodec() = default;

  int production_bits = 0;
  int position_bits = 0;
  int cycle_bits = 0;
  int start_bits = 0;
  int port_bits = 0;

  friend bool operator==(const LabelCodec&, const LabelCodec&) = default;

  void EncodeEdge(const EdgeLabel& edge, BitWriter* writer) const;
  EdgeLabel DecodeEdge(BitReader* reader) const;

  // Full data-label encoding with common-prefix factoring.
  BitWriter Encode(const DataLabel& label) const;
  // Appends the encoding to an existing stream (provenance index arenas).
  void EncodeTo(const DataLabel& label, BitWriter* writer) const;

  // Decodes one label into caller-owned storage, overwriting every field.
  // A side present both before and after keeps its path's capacity, and
  // the shared prefix is decoded once into the producer path and copied
  // into the consumer's, so decoding a stream of labels into one reused
  // label stops allocating once its paths are as long as the longest.
  // After a failed permissive read the label's contents are unspecified.
  void Decode(BitReader* reader, DataLabel* label) const;
  // The same decode into a fresh label.
  DataLabel Decode(BitReader* reader) const {
    DataLabel label;
    Decode(reader, &label);
    return label;
  }
};

}  // namespace fvl

#endif  // FVL_CORE_DATA_LABEL_H_
