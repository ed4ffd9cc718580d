#include "fvl/drl/drl_label.h"

namespace fvl {

std::string DrlLabel::ToString() const {
  auto side = [](const std::optional<Side>& s) {
    if (!s.has_value()) return std::string("-");
    std::string out = "{";
    for (const EdgeLabel& e : s->path) out += e.ToString() + ",";
    out += "#";
    out += std::to_string(s->seq);
    out += "}";
    return out;
  };
  std::string out = "(";
  out += side(producer);
  out += ", ";
  out += side(consumer);
  out += ")";
  return out;
}

namespace {

size_t CommonPrefix(const DrlLabel& label) {
  if (!label.producer.has_value() || !label.consumer.has_value()) return 0;
  const auto& a = label.producer->path;
  const auto& b = label.consumer->path;
  size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  return prefix;
}

}  // namespace

BitWriter DrlCodec::Encode(const DrlLabel& label) const {
  BitWriter writer;
  writer.WriteFixed(label.producer.has_value() ? 1 : 0, 1);
  writer.WriteFixed(label.consumer.has_value() ? 1 : 0, 1);
  size_t prefix = CommonPrefix(label);
  bool both = label.producer.has_value() && label.consumer.has_value();
  if (both) {
    writer.WriteGamma(prefix + 1);
    for (size_t i = 0; i < prefix; ++i) {
      edge_codec_.EncodeEdge(label.producer->path[i], &writer);
    }
  }
  auto encode_side = [&](const DrlLabel::Side& side) {
    size_t skip = both ? prefix : 0;
    writer.WriteGamma(side.path.size() - skip + 1);
    for (size_t i = skip; i < side.path.size(); ++i) {
      edge_codec_.EncodeEdge(side.path[i], &writer);
    }
    writer.WriteGamma(static_cast<uint64_t>(side.seq));
  };
  if (label.producer.has_value()) encode_side(*label.producer);
  if (label.consumer.has_value()) encode_side(*label.consumer);
  return writer;
}

DrlLabel DrlCodec::Decode(BitReader* reader) const {
  DrlLabel label;
  bool has_producer = reader->ReadFixed(1) == 1;
  bool has_consumer = reader->ReadFixed(1) == 1;
  std::vector<EdgeLabel> prefix;
  if (has_producer && has_consumer) {
    size_t prefix_size = static_cast<size_t>(reader->ReadGamma() - 1);
    for (size_t i = 0; i < prefix_size; ++i) {
      prefix.push_back(edge_codec_.DecodeEdge(reader));
    }
  }
  auto decode_side = [&]() {
    DrlLabel::Side side;
    side.path = prefix;
    size_t suffix = static_cast<size_t>(reader->ReadGamma() - 1);
    for (size_t i = 0; i < suffix; ++i) {
      side.path.push_back(edge_codec_.DecodeEdge(reader));
    }
    side.seq = static_cast<int>(reader->ReadGamma());
    return side;
  };
  if (has_producer) label.producer = decode_side();
  if (has_consumer) label.consumer = decode_side();
  return label;
}

int64_t DrlCodec::EncodedBits(const DrlLabel& label) const {
  // Encode() is cheap enough for the accounting path; labels are tiny.
  return Encode(label).size_bits();
}

}  // namespace fvl
