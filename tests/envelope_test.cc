// The shared checksummed envelope (src/common/envelope.h) behind LYRASNAP,
// LYRASHRD, LYRAFED_ and LYRAPOL_: one decode gate, one set of error
// classes. The length-lie table is the regression test for a wrapped bounds
// check — a 20-byte image whose u64 payload size is near 2^64 used to pass
// `size < header + payload + checksum` and read far past the buffer. It is
// also built per-target under ASan+UBSan (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/envelope.h"
#include "src/rl/policy.h"
#include "src/svc/snapshot.h"

namespace lyra {
namespace {

// One persisted format: its magic and version, a valid image, and its public
// decoder reduced to a status.
struct Format {
  std::string magic;
  std::uint32_t version = 0;
  std::string image;
  std::function<Status(const std::string&)> decode;
};

std::vector<Format> AllFormats() {
  svc::ServiceSnapshot snapshot;
  svc::LoggedCommand advance;
  advance.kind = svc::CommandKind::kAdvance;
  advance.stamp = 100.0;
  snapshot.commands.push_back(advance);
  snapshot.horizon = 100.0;
  const std::string snap_image = svc::EncodeSnapshot(snapshot);

  svc::MultiSnapshot multi;
  multi.submit_seq = 3;
  multi.shard_images = {snap_image, snap_image};

  svc::FedSnapshot fed;
  svc::FedClusterImage cluster;
  cluster.name = "train0";
  cluster.kind = 1;
  cluster.image = snap_image;
  fed.clusters.push_back(cluster);

  return {
      {"LYRASNAP", svc::kSnapshotVersion, snap_image,
       [](const std::string& image) {
         return svc::DecodeSnapshot(image, "test").status();
       }},
      {"LYRASHRD", svc::kMultiSnapshotVersion, svc::EncodeMultiSnapshot(multi),
       [](const std::string& image) {
         return svc::DecodeMultiSnapshot(image, "test").status();
       }},
      {"LYRAFED_", svc::kFedSnapshotVersion, svc::EncodeFedSnapshot(fed),
       [](const std::string& image) {
         return svc::DecodeFedSnapshot(image, "test").status();
       }},
      {"LYRAPOL_", rl::kPolicyVersion, rl::PolicyNet().Encode(),
       [](const std::string& image) {
         return rl::PolicyNet::Decode(image).status();
       }},
  };
}

std::string WithPayloadSize(std::string image, std::uint64_t size) {
  for (int i = 0; i < 8; ++i) {
    image[12 + i] = static_cast<char>((size >> (8 * i)) & 0xff);
  }
  return image;
}

TEST(Envelope, IntactImagesDecode) {
  for (const Format& format : AllFormats()) {
    SCOPED_TRACE(format.magic);
    ASSERT_EQ(format.image.compare(0, 8, format.magic), 0);
    EXPECT_TRUE(format.decode(format.image).ok());
    EXPECT_TRUE(OpenEnvelope(format.image, format.magic, format.version, "t").ok());
    EXPECT_EQ(OpenEnvelope(format.image, format.magic, 0, "t").status().code(),
              StatusCode::kInvalidArgument)
        << "version 0 is never valid";
  }
}

// Every lie about the payload size is DataLoss, never an out-of-bounds
// read: sizes that wrap the old `pos + size + 8` sum, and off-by-one sizes
// either side of the true one.
TEST(Envelope, PayloadSizeLiesAreRejectedForEveryFormat) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const Format& format : AllFormats()) {
    const std::uint64_t exact = format.image.size() - kEnvelopeOverhead;
    const std::string header_only = format.image.substr(0, 20);
    const struct {
      const char* name;
      std::string image;
    } rows[] = {
        {"header-only, 2^64-28", WithPayloadSize(header_only, kMax - 27)},
        {"header-only, 2^64-1", WithPayloadSize(header_only, kMax)},
        {"full, 2^64-28", WithPayloadSize(format.image, kMax - 27)},
        {"full, 2^64-1", WithPayloadSize(format.image, kMax)},
        {"full, exact+1", WithPayloadSize(format.image, exact + 1)},
        {"full, exact-1", WithPayloadSize(format.image, exact - 1)},
    };
    for (const auto& row : rows) {
      SCOPED_TRACE(format.magic + " " + row.name);
      const Status decoded = format.decode(row.image);
      EXPECT_EQ(decoded.code(), StatusCode::kDataLoss) << decoded.message();
      const Status opened =
          OpenEnvelope(row.image, format.magic, format.version, "t").status();
      EXPECT_EQ(opened.code(), StatusCode::kDataLoss) << opened.message();
    }
  }
}

// One error-class table for all four formats: InvalidArgument for the
// header (short, magic, version), DataLoss for the body (truncation,
// checksum, trailing bytes).
TEST(Envelope, ErrorClassesMatchAcrossFormats) {
  for (const Format& format : AllFormats()) {
    SCOPED_TRACE(format.magic);
    const std::string& image = format.image;

    std::string bad_magic = image;
    bad_magic[0] = 'X';
    EXPECT_EQ(format.decode(bad_magic).code(), StatusCode::kInvalidArgument);

    std::string bad_version = image;
    bad_version[8] = 0x7f;
    EXPECT_EQ(format.decode(bad_version).code(), StatusCode::kInvalidArgument);

    EXPECT_EQ(format.decode(image.substr(0, 19)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(format.decode(image.substr(0, 27)).code(), StatusCode::kDataLoss);
    EXPECT_EQ(format.decode(image.substr(0, image.size() / 2)).code(),
              StatusCode::kDataLoss);

    std::string flipped = image;
    flipped[image.size() / 2] =
        static_cast<char>(flipped[image.size() / 2] ^ 0x5a);
    EXPECT_EQ(format.decode(flipped).code(), StatusCode::kDataLoss);

    std::string bad_checksum = image;
    bad_checksum.back() = static_cast<char>(bad_checksum.back() ^ 0x01);
    EXPECT_EQ(format.decode(bad_checksum).code(), StatusCode::kDataLoss);

    EXPECT_EQ(format.decode(image + "junk").code(), StatusCode::kDataLoss);
    EXPECT_EQ(format.decode(image + std::string(1, '\0')).code(),
              StatusCode::kDataLoss);
  }
}

TEST(Envelope, SealOpenRoundTrip) {
  const std::string payload("pay\0load", 8);
  const std::string image = SealEnvelope("ABCDEFGH", 7, payload);
  EXPECT_EQ(image.size(), payload.size() + kEnvelopeOverhead);
  StatusOr<std::string> opened = OpenEnvelope(image, "ABCDEFGH", 7, "t");
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened.value(), payload);

  StatusOr<std::string> empty =
      OpenEnvelope(SealEnvelope("ABCDEFGH", 7, ""), "ABCDEFGH", 7, "t");
  ASSERT_TRUE(empty.ok()) << empty.status().message();
  EXPECT_TRUE(empty.value().empty());
}

TEST(Envelope, FileHelpers) {
  const std::string path = testing::TempDir() + "/lyra_envelope_" +
                           std::to_string(::getpid()) + ".bin";
  const std::string bytes("a\0b\xff", 4);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  StatusOr<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read.value(), bytes);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc::LoadSnapshot(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc::LoadMultiSnapshot(path).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(svc::LoadFedSnapshot(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rl::PolicyNet::Load(path).status().code(), StatusCode::kNotFound);
}

TEST(Envelope, ReaderIsBoundsChecked) {
  std::string payload;
  PutU32(payload, 5);
  payload += "abc";  // claims 5 bytes, holds 3
  Reader reader(payload);
  std::string s;
  EXPECT_EQ(reader.Str(&s).code(), StatusCode::kDataLoss);

  Reader blob(payload);
  std::uint32_t length = 0;
  ASSERT_TRUE(blob.U32(&length).ok());
  EXPECT_EQ(blob.Bytes(&s, std::numeric_limits<std::uint64_t>::max()).code(),
            StatusCode::kDataLoss);
  ASSERT_TRUE(blob.Bytes(&s, 3).ok());
  EXPECT_EQ(s, "abc");
  EXPECT_TRUE(blob.AtEnd());
  std::uint8_t byte = 0;
  EXPECT_EQ(blob.U8(&byte).code(), StatusCode::kDataLoss);
}

// A LYRAPOL header may name any shape up to hidden 4096 x 64 layers, about
// 8.5G parameters per head. The decoder must compare the payload size with
// that shape before it builds either head, so this 40-byte payload is
// rejected at once instead of allocating hundreds of GB.
TEST(Envelope, PolicyShapeIsCheckedBeforeConstruction) {
  std::string payload;
  PutU32(payload, static_cast<std::uint32_t>(rl::kFeatureCount));
  PutU32(payload, 4096);  // hidden
  PutU32(payload, 64);    // layers
  PutU64(payload, 1);     // seed
  PutF64(payload, 0.05);  // learning rate
  PutU32(payload, 1);     // priority head: one parameter...
  PutF64(payload, 0.5);   // ...which is all the payload holds
  ASSERT_EQ(payload.size(), 40u);
  const std::string image = SealEnvelope("LYRAPOL_", rl::kPolicyVersion, payload);

  const auto start = std::chrono::steady_clock::now();
  const Status decoded = rl::PolicyNet::Decode(image).status();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(decoded.code(), StatusCode::kDataLoss) << decoded.message();
  EXPECT_LT(seconds, 1.0);
}

// The size check's closed-form count agrees with the heads actually built.
TEST(Envelope, PolicyParameterCountMatchesConstructedHeads) {
  for (const int hidden : {1, 3, 8}) {
    for (const int layers : {1, 2, 3}) {
      rl::PolicyOptions options;
      options.hidden = hidden;
      options.layers = layers;
      const rl::PolicyNet policy(options);
      EXPECT_EQ(static_cast<std::uint64_t>(policy.num_parameters()),
                2 * LstmNetwork::ParameterCount(static_cast<std::uint64_t>(hidden),
                                                static_cast<std::uint64_t>(layers)))
          << hidden << "x" << layers;
      ASSERT_TRUE(rl::PolicyNet::Decode(policy.Encode()).ok()) << hidden << "x" << layers;
    }
  }
}

}  // namespace
}  // namespace lyra
