#include "fvl/core/data_label.h"

#include <algorithm>

#include "fvl/util/check.h"

namespace fvl {

std::string EdgeLabel::ToString() const {
  // Appends rather than an operator+ chain: GCC 12 flags the rvalue string
  // operator+ overloads with a bogus -Wrestrict.
  std::string out = "(";
  if (kind == Kind::kProduction) {
    out += std::to_string(production + 1);
    out += ",";
    out += std::to_string(position + 1);
  } else {
    out += std::to_string(cycle + 1);
    out += ",";
    out += std::to_string(start + 1);
    out += ",";
    out += std::to_string(iteration);
  }
  out += ")";
  return out;
}

std::string PortLabel::ToString() const {
  std::string out = "{";
  for (const EdgeLabel& edge : path) out += edge.ToString() + ",";
  out += std::to_string(port + 1) + "}";
  return out;
}

std::string DataLabel::ToString() const {
  std::string out = "(";
  out += producer.has_value() ? producer->ToString() : "-";
  out += ", ";
  out += consumer.has_value() ? consumer->ToString() : "-";
  out += ")";
  return out;
}

LabelCodec::LabelCodec(const ProductionGraph& pg) {
  const Grammar& g = pg.grammar();
  production_bits = BitWidthFor(g.num_productions());
  int max_members = 1;
  for (ProductionId k = 0; k < g.num_productions(); ++k) {
    max_members = std::max(max_members, g.production(k).rhs.num_members());
  }
  position_bits = BitWidthFor(max_members);
  cycle_bits = BitWidthFor(std::max(1, pg.num_cycles()));
  int max_cycle = 1;
  for (int s = 0; s < pg.num_cycles(); ++s) {
    max_cycle = std::max(max_cycle, pg.cycle(s).length());
  }
  start_bits = BitWidthFor(max_cycle);
  int max_ports = 1;
  for (ModuleId m = 0; m < g.num_modules(); ++m) {
    max_ports = std::max(
        {max_ports, g.module(m).num_inputs, g.module(m).num_outputs});
  }
  port_bits = BitWidthFor(max_ports);
}

void LabelCodec::EncodeEdge(const EdgeLabel& edge, BitWriter* writer) const {
  if (edge.kind == EdgeLabel::Kind::kProduction) {
    writer->WriteFixed(0, 1);
    writer->WriteFixed(static_cast<uint64_t>(edge.production), production_bits);
    writer->WriteFixed(static_cast<uint64_t>(edge.position), position_bits);
  } else {
    writer->WriteFixed(1, 1);
    writer->WriteFixed(static_cast<uint64_t>(edge.cycle), cycle_bits);
    writer->WriteFixed(static_cast<uint64_t>(edge.start), start_bits);
    writer->WriteGamma(static_cast<uint64_t>(edge.iteration));
  }
}

EdgeLabel LabelCodec::DecodeEdge(BitReader* reader) const {
  if (reader->ReadFixed(1) == 0) {
    int production = static_cast<int>(reader->ReadFixed(production_bits));
    int position = static_cast<int>(reader->ReadFixed(position_bits));
    return EdgeLabel::Prod(production, position);
  }
  int cycle = static_cast<int>(reader->ReadFixed(cycle_bits));
  int start = static_cast<int>(reader->ReadFixed(start_bits));
  int iteration = static_cast<int>(reader->ReadGamma());
  return EdgeLabel::Rec(cycle, start, iteration);
}

namespace {

size_t CommonPrefix(const DataLabel& label) {
  if (!label.producer.has_value() || !label.consumer.has_value()) return 0;
  const auto& a = label.producer->path;
  const auto& b = label.consumer->path;
  size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  return prefix;
}

// Engages `side` with an empty path when `present`, keeping the path's
// capacity if it was already engaged; disengages it otherwise.
PortLabel* Engage(std::optional<PortLabel>* side, bool present) {
  if (!present) {
    side->reset();
    return nullptr;
  }
  if (!side->has_value()) side->emplace();
  (*side)->path.clear();
  return &**side;
}

}  // namespace

BitWriter LabelCodec::Encode(const DataLabel& label) const {
  BitWriter writer;
  EncodeTo(label, &writer);
  return writer;
}

void LabelCodec::EncodeTo(const DataLabel& label, BitWriter* out) const {
  BitWriter& writer = *out;
  writer.WriteFixed(label.producer.has_value() ? 1 : 0, 1);
  writer.WriteFixed(label.consumer.has_value() ? 1 : 0, 1);
  size_t prefix = CommonPrefix(label);
  if (label.producer.has_value() && label.consumer.has_value()) {
    writer.WriteGamma(prefix + 1);
    for (size_t i = 0; i < prefix; ++i) {
      EncodeEdge(label.producer->path[i], &writer);
    }
  }
  auto encode_side = [&](const PortLabel& side) {
    size_t skip = label.producer.has_value() && label.consumer.has_value()
                      ? prefix
                      : 0;
    writer.WriteGamma(side.path.size() - skip + 1);
    for (size_t i = skip; i < side.path.size(); ++i) {
      EncodeEdge(side.path[i], &writer);
    }
    writer.WriteFixed(static_cast<uint64_t>(side.port), port_bits);
  };
  if (label.producer.has_value()) encode_side(*label.producer);
  if (label.consumer.has_value()) encode_side(*label.consumer);
}

void LabelCodec::Decode(BitReader* reader, DataLabel* label) const {
  PortLabel* producer = Engage(&label->producer, reader->ReadFixed(1) == 1);
  PortLabel* consumer = Engage(&label->consumer, reader->ReadFixed(1) == 1);
  // Reads a length-prefixed run of edges onto `path`, after the first
  // `shared` edges of the producer's path. Every encoded edge is at least
  // one bit, so bounding the length by the remaining bits, and the reserve
  // by a constant, caps allocations on corrupt input.
  auto read_edges = [&](std::vector<EdgeLabel>* path, size_t shared) {
    const uint64_t count = reader->ReadGamma() - 1;
    if (!reader->CheckRemaining(count)) return false;
    path->reserve(path->size() + shared +
                  static_cast<size_t>(std::min<uint64_t>(count, 1024)));
    if (shared > 0) {
      path->insert(path->end(), producer->path.begin(),
                   producer->path.begin() + static_cast<ptrdiff_t>(shared));
    }
    for (uint64_t i = 0; i < count && !reader->failed(); ++i) {
      path->push_back(DecodeEdge(reader));
    }
    return true;
  };
  size_t prefix = 0;
  if (producer != nullptr && consumer != nullptr) {
    // The shared prefix, decoded straight into the producer's path.
    if (!read_edges(&producer->path, 0)) return;
    prefix = producer->path.size();
  }
  if (producer != nullptr) {
    if (!read_edges(&producer->path, 0)) return;
    producer->port = static_cast<int>(reader->ReadFixed(port_bits));
  }
  if (consumer != nullptr) {
    if (!read_edges(&consumer->path, prefix)) return;
    consumer->port = static_cast<int>(reader->ReadFixed(port_bits));
  }
}

}  // namespace fvl
