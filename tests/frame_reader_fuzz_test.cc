// Seeded mutation fuzzing of serve::FrameReader, the decoder that sits on
// every byte a crserved client sends. Valid frames come from the Encode*
// functions; each case then flips bytes, truncates, or splices streams and
// feeds the result in random chunk sizes. The properties checked on every
// input:
//   * each frame Next returns re-encodes to exactly the bytes it consumed;
//   * a protocol violation sets failed() and error(), drops the buffer,
//     and the reader stays failed through any further Feed / Next;
//   * nothing crashes or reads out of bounds (the asan_frame_reader_fuzz
//     ctest entry runs this binary under AddressSanitizer).
// Seeds and iteration budgets are fixed, so every run sees the same inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/random.h"

namespace conservation::serve {
namespace {

constexpr int kIterations = 20000;

// Re-encodes a decoded frame with the matching Encode* function.
std::string Reencode(const Frame& frame) {
  std::string out;
  switch (frame.type) {
    case FrameType::kAppend:
      EncodeAppend(frame.append.tenant_id, frame.append.a.data(),
                   frame.append.b.data(),
                   static_cast<int64_t>(frame.append.a.size()), &out);
      break;
    case FrameType::kAck:
      EncodeAck(frame.ack, &out);
      break;
    case FrameType::kPing:
      EncodePing(&out);
      break;
    case FrameType::kStats:
      EncodeStatsRequest(&out);
      break;
    case FrameType::kStatsReply:
      EncodeStatsReply(frame.stats, &out);
      break;
  }
  return out;
}

// One valid frame of a random type with random field values. Append counts
// include the values a client may legally or illegally send (NaN, -0.0,
// infinity, negatives): the frame layer carries them bit for bit and leaves
// validation to the daemon.
std::string RandomFrame(util::Rng* rng) {
  std::string out;
  switch (rng->UniformInt(0, 4)) {
    case 0: {
      const int64_t m = rng->UniformInt(1, 6);
      std::vector<double> a(static_cast<size_t>(m));
      std::vector<double> b(static_cast<size_t>(m));
      const double specials[] = {0.0, -0.0, 1.0, -3.5,
                                 std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()};
      for (size_t k = 0; k < a.size(); ++k) {
        a[k] = rng->Bernoulli(0.2) ? specials[rng->UniformInt(0, 5)]
                                   : std::floor(rng->Uniform(0.0, 1000.0));
        b[k] = rng->Bernoulli(0.2) ? specials[rng->UniformInt(0, 5)]
                                   : std::floor(rng->Uniform(0.0, 1000.0));
      }
      EncodeAppend(static_cast<uint64_t>(rng->engine()()), a.data(), b.data(),
                   m, &out);
      break;
    }
    case 1: {
      AckFrame ack;
      ack.tenant_id = rng->engine()();
      ack.status = static_cast<AckStatus>(rng->UniformInt(0, 3));
      ack.accepted_ticks = static_cast<uint32_t>(rng->UniformInt(0, 70000));
      ack.queued_ticks = rng->engine()();
      EncodeAck(ack, &out);
      break;
    }
    case 2:
      EncodePing(&out);
      break;
    case 3:
      EncodeStatsRequest(&out);
      break;
    default: {
      StatsReplyFrame stats;
      stats.tenants = rng->engine()();
      stats.ticks_ingested = rng->engine()();
      stats.ticks_processed = rng->engine()();
      stats.batches_rejected = rng->engine()();
      EncodeStatsReply(stats, &out);
      break;
    }
  }
  return out;
}

// A stream of 1-4 concatenated valid frames.
std::string RandomStream(util::Rng* rng) {
  std::string stream;
  const int64_t frames = rng->UniformInt(1, 4);
  for (int64_t f = 0; f < frames; ++f) stream += RandomFrame(rng);
  return stream;
}

struct FeedResult {
  int frames = 0;
  bool failed = false;
};

// Feeds `stream` to a fresh reader in random chunk sizes, draining Next
// after every chunk, and checks the reader's contract on the way.
FeedResult FeedAndCheck(const std::string& stream, util::Rng* rng) {
  FrameReader reader;
  FeedResult result;
  size_t fed = 0;
  size_t decoded_to = 0;  // stream offset of the next undecoded frame
  while (fed < stream.size() && !reader.failed()) {
    const size_t chunk = std::min<size_t>(
        stream.size() - fed, static_cast<size_t>(rng->UniformInt(1, 64)));
    reader.Feed(stream.data() + fed, chunk);
    fed += chunk;
    Frame frame;
    while (reader.Next(&frame)) {
      const std::string bytes = Reencode(frame);
      EXPECT_LE(decoded_to + bytes.size(), fed);
      EXPECT_EQ(bytes, stream.substr(decoded_to, bytes.size()))
          << "frame at offset " << decoded_to << " does not re-encode to "
          << "the bytes it was decoded from";
      decoded_to += bytes.size();
      ++result.frames;
    }
    if (!reader.failed()) {
      EXPECT_EQ(reader.buffered(), fed - decoded_to);
    }
  }
  result.failed = reader.failed();
  if (reader.failed()) {
    EXPECT_FALSE(reader.error().empty());
    EXPECT_EQ(reader.buffered(), 0u);
    // Poisoned for good: more bytes, even a valid frame, decode nothing.
    std::string ping;
    EncodePing(&ping);
    reader.Feed(ping.data(), ping.size());
    Frame frame;
    EXPECT_FALSE(reader.Next(&frame));
    EXPECT_TRUE(reader.failed());
    EXPECT_EQ(reader.buffered(), 0u);
  }
  return result;
}

TEST(FrameReaderFuzz, UnmutatedStreamsDecodeCompletely) {
  util::Rng rng(20260101);
  for (int it = 0; it < kIterations; ++it) {
    const std::string stream = RandomStream(&rng);
    const FeedResult result = FeedAndCheck(stream, &rng);
    ASSERT_FALSE(result.failed) << "iteration " << it;
    ASSERT_GE(result.frames, 1) << "iteration " << it;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FrameReaderFuzz, ByteFlips) {
  util::Rng rng(20260102);
  int failures = 0;
  int frames = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::string stream = RandomStream(&rng);
    const int64_t flips = rng.UniformInt(1, 4);
    for (int64_t f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1));
      stream[at] = static_cast<char>(
          static_cast<uint8_t>(stream[at]) ^
          static_cast<uint8_t>(rng.UniformInt(1, 255)));
    }
    const FeedResult result = FeedAndCheck(stream, &rng);
    failures += result.failed ? 1 : 0;
    frames += result.frames;
    if (::testing::Test::HasFailure()) return;
  }
  // Both outcomes must be exercised, or the mutations are not reaching
  // the decoder's checks.
  EXPECT_GT(failures, 0);
  EXPECT_GT(frames, 0);
}

TEST(FrameReaderFuzz, Truncations) {
  util::Rng rng(20260103);
  int frames = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::string stream = RandomStream(&rng);
    stream.resize(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1)));
    const FeedResult result = FeedAndCheck(stream, &rng);
    // A prefix of a valid stream is never a violation: the reader waits.
    ASSERT_FALSE(result.failed) << "iteration " << it;
    frames += result.frames;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(frames, 0);
}

TEST(FrameReaderFuzz, SplicesAndInsertions) {
  util::Rng rng(20260104);
  int failures = 0;
  int frames = 0;
  for (int it = 0; it < kIterations; ++it) {
    const std::string head = RandomStream(&rng);
    const std::string tail = RandomStream(&rng);
    // A prefix of one stream joined to a suffix of another, with a few
    // random bytes inserted at the seam half of the time.
    std::string stream = head.substr(0, static_cast<size_t>(rng.UniformInt(
                                            0, static_cast<int64_t>(
                                                   head.size()))));
    if (rng.Bernoulli(0.5)) {
      const int64_t junk = rng.UniformInt(1, 8);
      for (int64_t k = 0; k < junk; ++k) {
        stream.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
    }
    stream += tail.substr(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tail.size()) - 1)));
    const FeedResult result = FeedAndCheck(stream, &rng);
    failures += result.failed ? 1 : 0;
    frames += result.frames;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(failures, 0);
  EXPECT_GT(frames, 0);
}

}  // namespace
}  // namespace conservation::serve
