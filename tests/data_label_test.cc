#include <gtest/gtest.h>

#include "fvl/core/data_label.h"
#include "fvl/util/random.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

class DataLabelTest : public ::testing::Test {
 protected:
  DataLabelTest()
      : ex_(MakePaperExample()), pg_(&ex_.spec.grammar), codec_(pg_) {}

  PaperExample ex_;
  ProductionGraph pg_;
  LabelCodec codec_;
};

TEST_F(DataLabelTest, EdgeLabelToString1Based) {
  EXPECT_EQ(EdgeLabel::Prod(0, 4).ToString(), "(1,5)");
  EXPECT_EQ(EdgeLabel::Rec(0, 0, 5).ToString(), "(1,1,5)");
}

TEST_F(DataLabelTest, CodecWidthsFromGrammar) {
  EXPECT_EQ(codec_.production_bits, 3);  // 8 productions
  EXPECT_EQ(codec_.position_bits, 3);    // up to 6 members
  EXPECT_EQ(codec_.cycle_bits, 1);       // 2 cycles
  EXPECT_EQ(codec_.start_bits, 1);       // max cycle length 2
  EXPECT_EQ(codec_.port_bits, 2);        // up to 3 ports
}

TEST_F(DataLabelTest, EdgeRoundTrip) {
  for (const EdgeLabel& edge :
       {EdgeLabel::Prod(7, 5), EdgeLabel::Prod(0, 0), EdgeLabel::Rec(1, 0, 1),
        EdgeLabel::Rec(0, 1, 12345)}) {
    BitWriter writer;
    codec_.EncodeEdge(edge, &writer);
    BitReader reader(writer);
    EXPECT_EQ(codec_.DecodeEdge(&reader), edge);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST_F(DataLabelTest, LabelRoundTripWithPrefixFactoring) {
  DataLabel label;
  std::vector<EdgeLabel> common = {EdgeLabel::Prod(0, 2),
                                   EdgeLabel::Rec(0, 0, 5),
                                   EdgeLabel::Prod(2, 1)};
  label.producer = PortLabel{common, 0};
  label.producer->path.push_back(EdgeLabel::Prod(4, 0));
  label.consumer = PortLabel{common, 1};
  label.consumer->path.push_back(EdgeLabel::Prod(4, 1));
  label.consumer->path.push_back(EdgeLabel::Rec(1, 0, 1));

  BitWriter writer = codec_.Encode(label);
  BitReader reader(writer);
  EXPECT_EQ(codec_.Decode(&reader), label);
  EXPECT_TRUE(reader.AtEnd());

  // Factoring must beat encoding both sides in full.
  DataLabel producer_only{label.producer, std::nullopt};
  DataLabel consumer_only{std::nullopt, label.consumer};
  EXPECT_LT(writer.size_bits(), codec_.Encode(producer_only).size_bits() +
                                    codec_.Encode(consumer_only).size_bits());
}

TEST_F(DataLabelTest, BoundaryLabelsRoundTrip) {
  DataLabel initial;
  initial.consumer = PortLabel{{}, 1};
  DataLabel final_output;
  final_output.producer = PortLabel{{EdgeLabel::Rec(0, 0, 1)}, 2};
  for (const DataLabel& label : {initial, final_output}) {
    BitWriter writer = codec_.Encode(label);
    BitReader reader(writer);
    EXPECT_EQ(codec_.Decode(&reader), label);
  }
}

TEST_F(DataLabelTest, RandomLabelRoundTripSweep) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    auto random_path = [&](std::vector<EdgeLabel> base) {
      int extra = rng.NextInt(0, 4);
      for (int i = 0; i < extra; ++i) {
        if (rng.NextBool(0.5)) {
          base.push_back(EdgeLabel::Prod(rng.NextInt(0, 7), rng.NextInt(0, 5)));
        } else {
          base.push_back(EdgeLabel::Rec(rng.NextInt(0, 1), rng.NextInt(0, 1),
                                        rng.NextInt(1, 5000)));
        }
      }
      return base;
    };
    std::vector<EdgeLabel> common = random_path({});
    DataLabel label;
    if (rng.NextBool(0.9)) {
      label.producer = PortLabel{random_path(common), rng.NextInt(0, 2)};
    }
    if (rng.NextBool(0.9)) {
      label.consumer = PortLabel{random_path(common), rng.NextInt(0, 2)};
    }
    BitWriter writer = codec_.Encode(label);
    BitReader reader(writer);
    ASSERT_EQ(codec_.Decode(&reader), label) << "trial " << trial;
    ASSERT_TRUE(reader.AtEnd());
  }
}

// Decoding into one reused label must overwrite every field: a stale path
// tail, port or side would survive into the next label otherwise.
TEST_F(DataLabelTest, DecodeIntoReusedLabelMatchesFreshDecode) {
  const std::vector<EdgeLabel> deep = {
      EdgeLabel::Prod(0, 2), EdgeLabel::Rec(0, 0, 5), EdgeLabel::Prod(2, 1),
      EdgeLabel::Rec(1, 1, 4000), EdgeLabel::Prod(4, 3),
      EdgeLabel::Rec(0, 1, 77), EdgeLabel::Prod(7, 5)};
  auto path = [&](size_t depth, std::vector<EdgeLabel> tail = {}) {
    std::vector<EdgeLabel> out(deep.begin(), deep.begin() + depth);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  };
  auto both = [](std::vector<EdgeLabel> producer, int producer_port,
                 std::vector<EdgeLabel> consumer, int consumer_port) {
    return DataLabel{PortLabel{std::move(producer), producer_port},
                     PortLabel{std::move(consumer), consumer_port}};
  };
  const std::vector<DataLabel> sequence = {
      // Both sides sharing a long prefix, then deep recursive suffixes.
      both(path(7), 2, path(5, {EdgeLabel::Rec(1, 0, 9)}), 1),
      // Producer only, shorter than the path before it.
      DataLabel{PortLabel{path(2), 0}, std::nullopt},
      // Consumer only, with an empty path.
      DataLabel{std::nullopt, PortLabel{{}, 2}},
      // Both sides with an empty shared prefix.
      both({EdgeLabel::Prod(1, 0)}, 1, {EdgeLabel::Rec(0, 1, 3)}, 0),
      // Both sides equal up to the port, so every edge is shared.
      both(path(7), 0, path(7), 2),
      // Consumer only, deep, after a two-sided label.
      DataLabel{std::nullopt, PortLabel{path(7, {EdgeLabel::Rec(1, 1, 1)}), 1}},
      // Both sides with empty paths.
      both({}, 2, {}, 0),
      // Producer only, deep.
      DataLabel{PortLabel{path(6), 1}, std::nullopt},
      // Neither side.
      DataLabel{},
      both(path(3, {EdgeLabel::Prod(5, 0)}), 1, path(1), 0),
  };
  DataLabel scratch;
  // Twice through, so every label also follows the last one.
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < sequence.size(); ++i) {
      BitWriter writer = codec_.Encode(sequence[i]);
      BitReader fresh_reader(writer);
      const DataLabel fresh = codec_.Decode(&fresh_reader);
      ASSERT_EQ(fresh, sequence[i]) << "label " << i;
      BitReader reader(writer);
      codec_.Decode(&reader, &scratch);
      ASSERT_TRUE(reader.AtEnd()) << "label " << i;
      ASSERT_EQ(scratch, fresh) << "round " << round << " label " << i;
    }
  }
}

// A permissive decode that fails partway through leaves the reused label
// in some state; the next valid decode must still yield exactly its label.
TEST_F(DataLabelTest, FailedDecodeDoesNotLeakIntoTheNextLabel) {
  DataLabel truncated_source;
  truncated_source.producer = PortLabel{
      {EdgeLabel::Prod(0, 2), EdgeLabel::Rec(0, 0, 300), EdgeLabel::Prod(3, 4),
       EdgeLabel::Rec(1, 1, 12)},
      2};
  truncated_source.consumer = PortLabel{
      {EdgeLabel::Prod(0, 2), EdgeLabel::Rec(0, 0, 300), EdgeLabel::Prod(6, 1)},
      1};
  const BitWriter truncated = codec_.Encode(truncated_source);
  std::vector<DataLabel> valid(3);
  valid[0].producer = PortLabel{{EdgeLabel::Prod(1, 1)}, 0};
  valid[1].consumer = PortLabel{{}, 2};
  valid[2].producer = PortLabel{{EdgeLabel::Rec(0, 1, 2)}, 1};
  valid[2].consumer = PortLabel{{EdgeLabel::Prod(2, 0)}, 0};
  for (int64_t cut = 1; cut < truncated.size_bits(); ++cut) {
    for (const DataLabel& next : valid) {
      DataLabel scratch;
      // Fill the scratch with a full decode first, so the failed decode
      // starts from engaged sides and long paths.
      BitReader full(truncated);
      codec_.Decode(&full, &scratch);
      BitReader partial(&truncated.words(), 0, cut);
      partial.set_permissive();
      codec_.Decode(&partial, &scratch);
      ASSERT_TRUE(partial.failed() || !partial.AtEnd()) << "cut " << cut;
      BitWriter writer = codec_.Encode(next);
      BitReader reader(writer);
      codec_.Decode(&reader, &scratch);
      ASSERT_TRUE(reader.AtEnd());
      ASSERT_EQ(scratch, next) << "cut " << cut;
    }
  }
}

TEST_F(DataLabelTest, IterationCostIsLogarithmic) {
  // The only unbounded label component is the recursion iteration index,
  // encoded with Elias-gamma: 2*floor(log2 i)+1 bits.
  auto bits_for_iteration = [&](int iteration) {
    DataLabel label;
    label.consumer = PortLabel{{EdgeLabel::Rec(0, 0, iteration)}, 0};
    return codec_.Encode(label).size_bits();
  };
  int64_t at_16 = bits_for_iteration(16);
  int64_t at_256 = bits_for_iteration(256);
  int64_t at_4096 = bits_for_iteration(4096);
  EXPECT_EQ(at_256 - at_16, 8);    // 4 doublings * 2 bits
  EXPECT_EQ(at_4096 - at_256, 8);  // another 4 doublings
}

TEST_F(DataLabelTest, DataLabelToString) {
  DataLabel label;
  label.consumer = PortLabel{{EdgeLabel::Prod(0, 2)}, 1};
  EXPECT_EQ(label.ToString(), "(-, {(1,3),2})");
}

}  // namespace
}  // namespace fvl
