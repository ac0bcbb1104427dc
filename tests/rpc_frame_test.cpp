// nowsched-rpc v1 framing under adversity: round-trips, partial delivery
// split at every byte boundary, truncation, oversized-length rejection,
// garbage magic/version/reserved bytes, and a NOWSCHED_FUZZ_CASES-tiered
// random-split battery. The contract under test: malformed input yields
// DecodeStatus::kError with a diagnostic — never a crash, hang, or silent
// resync — and fragmentation never changes what decodes.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_cases.h"
#include "rpc/frame.h"
#include "util/rng.h"

namespace nowsched {
namespace {

using rpc::DecodeStatus;
using rpc::Frame;
using rpc::FrameDecoder;

using nowsched::testing::fuzz_cases;

std::string wire(std::uint8_t type, const std::string& payload) {
  return rpc::encode_frame(type, payload);
}

TEST(RpcFrame, EncodesHeaderLayoutExactly) {
  const std::string bytes = wire(7, "hi");
  ASSERT_EQ(bytes.size(), rpc::kHeaderSize + 2);
  EXPECT_EQ(bytes.substr(0, 4), "NWRP");
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), rpc::kProtocolVersion);
  EXPECT_EQ(static_cast<unsigned char>(bytes[5]), 7);
  EXPECT_EQ(bytes[6], '\0');
  EXPECT_EQ(bytes[7], '\0');
  // Little-endian length.
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 2);
  EXPECT_EQ(bytes[9], '\0');
  EXPECT_EQ(bytes[10], '\0');
  EXPECT_EQ(bytes[11], '\0');
  EXPECT_EQ(bytes.substr(12), "hi");
}

TEST(RpcFrame, RoundTripsSingleAndEmptyPayload) {
  for (const std::string& payload : {std::string("nowsched-submit v1\nx=1\n"),
                                     std::string(), std::string(1000, 'z')}) {
    FrameDecoder decoder;
    decoder.append(wire(3, payload));
    Frame frame;
    ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
    EXPECT_EQ(frame.type, 3);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(RpcFrame, DecodesBackToBackFramesFromOneAppend) {
  FrameDecoder decoder;
  decoder.append(wire(1, "first") + wire(2, "second") + wire(3, ""));
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, 1);
  EXPECT_EQ(frame.payload, "first");
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, 2);
  EXPECT_EQ(frame.payload, "second");
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, 3);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore);
}

TEST(RpcFrame, SplitAtEveryByteBoundaryDecodesIdentically) {
  // Two frames; the stream is cut into [0,k) + [k,end) for EVERY k. Any
  // fragmentation-sensitive bug (header straddling a read, payload split,
  // frame boundary split) shows up as a k where decoding diverges.
  const std::string stream = wire(9, "payload-one\nline2\n") + wire(10, "xy");
  for (std::size_t k = 0; k <= stream.size(); ++k) {
    FrameDecoder decoder;
    std::vector<Frame> got;
    for (const std::string& part :
         {stream.substr(0, k), stream.substr(k)}) {
      decoder.append(part);
      Frame frame;
      while (decoder.next(frame) == DecodeStatus::kFrame) got.push_back(frame);
    }
    ASSERT_EQ(got.size(), 2u) << "split at " << k;
    EXPECT_EQ(got[0].type, 9) << "split at " << k;
    EXPECT_EQ(got[0].payload, "payload-one\nline2\n") << "split at " << k;
    EXPECT_EQ(got[1].type, 10) << "split at " << k;
    EXPECT_EQ(got[1].payload, "xy") << "split at " << k;
  }
}

TEST(RpcFrame, TruncatedFrameReportsNeedMoreNotError) {
  const std::string bytes = wire(4, "truncated-payload");
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    FrameDecoder decoder;
    decoder.append(bytes.substr(0, k));
    Frame frame;
    EXPECT_EQ(decoder.next(frame), DecodeStatus::kNeedMore) << "prefix " << k;
    EXPECT_TRUE(decoder.error().empty());
  }
}

TEST(RpcFrame, GarbageMagicIsATypedError) {
  std::string bytes = wire(1, "x");
  bytes[0] = 'X';
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kError);
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);
}

TEST(RpcFrame, WrongVersionIsATypedError) {
  std::string bytes = wire(1, "x");
  bytes[4] = 2;
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kError);
  EXPECT_NE(decoder.error().find("version"), std::string::npos);
}

TEST(RpcFrame, NonzeroReservedBytesAreATypedError) {
  for (const int offset : {6, 7}) {
    std::string bytes = wire(1, "x");
    bytes[static_cast<std::size_t>(offset)] = 1;
    FrameDecoder decoder;
    decoder.append(bytes);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), DecodeStatus::kError);
    EXPECT_NE(decoder.error().find("reserved"), std::string::npos);
  }
}

TEST(RpcFrame, OversizedDeclaredLengthRejectedBeforePayloadArrives) {
  // Header declares kMaxPayload + 1: the decoder must reject on the header
  // alone — waiting for 16 MiB that will never come is the hang this guards.
  std::string bytes = wire(1, "");
  const std::uint32_t huge = rpc::kMaxPayload + 1;
  bytes[8] = static_cast<char>(huge & 0xff);
  bytes[9] = static_cast<char>((huge >> 8) & 0xff);
  bytes[10] = static_cast<char>((huge >> 16) & 0xff);
  bytes[11] = static_cast<char>((huge >> 24) & 0xff);
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kError);
  EXPECT_NE(decoder.error().find("cap"), std::string::npos);
}

TEST(RpcFrame, EncodeRejectsOversizedPayload) {
  EXPECT_THROW(rpc::encode_frame(1, std::string(rpc::kMaxPayload + 1, 'a')),
               std::length_error);
}

TEST(RpcFrame, PoisonedDecoderStaysPoisonedAndIgnoresAppends) {
  std::string bytes = wire(1, "x");
  bytes[0] = '?';
  FrameDecoder decoder;
  decoder.append(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), DecodeStatus::kError);
  const std::string reason = decoder.error();
  decoder.append(wire(2, "perfectly valid"));  // must not resync
  EXPECT_EQ(decoder.next(frame), DecodeStatus::kError);
  EXPECT_EQ(decoder.error(), reason);
}

TEST(RpcFrame, RandomSplitBatteryPreservesEveryFrame) {
  // Tiered fuzz: random frame sequences delivered in random fragments must
  // decode to exactly the encoded sequence, regardless of fragmentation.
  const int cases = fuzz_cases(200);
  util::Rng rng(20260809);
  for (int c = 0; c < cases; ++c) {
    const std::size_t frames = 1 + rng.next_below(5);
    std::string stream;
    std::vector<Frame> expected(frames);
    for (std::size_t f = 0; f < frames; ++f) {
      expected[f].type = static_cast<std::uint8_t>(rng.next_below(256));
      const std::size_t len = rng.next_below(512);
      expected[f].payload.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        expected[f].payload[i] = static_cast<char>(rng.next_below(256));
      }
      stream += rpc::encode_frame(expected[f].type, expected[f].payload);
    }

    FrameDecoder decoder;
    std::vector<Frame> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk = 1 + rng.next_below(64);
      const std::size_t end = std::min(stream.size(), pos + chunk);
      decoder.append(std::string_view(stream).substr(pos, end - pos));
      pos = end;
      Frame frame;
      while (decoder.next(frame) == DecodeStatus::kFrame) {
        got.push_back(std::move(frame));
      }
    }
    ASSERT_EQ(got.size(), frames) << "case " << c;
    for (std::size_t f = 0; f < frames; ++f) {
      EXPECT_EQ(got[f].type, expected[f].type) << "case " << c;
      EXPECT_EQ(got[f].payload, expected[f].payload) << "case " << c;
    }
  }
}

TEST(RpcFrame, RandomGarbageNeverCrashesOrFalselyDecodes) {
  // Pure noise: the decoder must reach kError or kNeedMore, never emit a
  // frame whose bytes were not a valid encoding, and never throw.
  const int cases = fuzz_cases(200);
  util::Rng rng(977);
  for (int c = 0; c < cases; ++c) {
    const std::size_t len = rng.next_below(256);
    std::string noise(len, '\0');
    for (std::size_t i = 0; i < len; ++i) {
      noise[i] = static_cast<char>(rng.next_below(256));
    }
    // Avoid the astronomically-unlikely-but-valid case of noise that forms
    // a real header: force a bad magic byte when 12+ bytes are present.
    if (len >= 12 && noise.compare(0, 4, "NWRP") == 0) noise[0] = '!';
    FrameDecoder decoder;
    decoder.append(noise);
    Frame frame;
    const DecodeStatus status = decoder.next(frame);
    EXPECT_TRUE(status == DecodeStatus::kError || status == DecodeStatus::kNeedMore)
        << "case " << c;
  }
}

}  // namespace
}  // namespace nowsched
