// The checksummed envelope every persisted Lyra file uses (LYRASNAP,
// LYRASHRD, LYRAFED_ and LYRAPOL_), plus the little-endian field codec the
// payloads are written in and the file I/O around them.
//
// Envelope layout (all integers little-endian):
//   magic  8 bytes, format-specific
//   u32    version (decoders accept exactly one)
//   u64    payload size
//   bytes  payload
//   u64    FNV-1a of the payload (src/common/hash.h)
//
// OpenEnvelope is the single decode gate for untrusted images. Its error
// classes: InvalidArgument for a short header, a wrong magic or an
// unsupported version; DataLoss for a truncated image, a checksum mismatch
// or bytes after the checksum. The payload size is checked against the
// image size without arithmetic that can wrap, so a hostile size field can
// never read past the image.
#ifndef SRC_COMMON_ENVELOPE_H_
#define SRC_COMMON_ENVELOPE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace lyra {

// Magic + version + size + checksum around a payload.
inline constexpr std::size_t kEnvelopeOverhead = 8 + 4 + 8 + 8;

// `magic` must be exactly 8 bytes.
std::string SealEnvelope(std::string_view magic, std::uint32_t version,
                         std::string_view payload);

// Verifies magic, version, framing and checksum and returns the payload.
// `what` names the image in error messages (a path, "shard 3", ...).
StatusOr<std::string> OpenEnvelope(const std::string& image,
                                   std::string_view magic,
                                   std::uint32_t version,
                                   const std::string& what);

// Writes `bytes` to `path` + ".tmp" and renames it over `path`, so a crash
// mid-write never leaves a torn file at the target.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

// The whole file; NotFound when it cannot be opened.
StatusOr<std::string> ReadFile(const std::string& path);

// --- Little-endian field writers ------------------------------------------

void PutU8(std::string& out, std::uint8_t v);
void PutU32(std::string& out, std::uint32_t v);
void PutU64(std::string& out, std::uint64_t v);
void PutI64(std::string& out, std::int64_t v);
void PutF64(std::string& out, double v);  // IEEE-754 bit pattern
// u32 length + bytes.
void PutString(std::string& out, std::string_view s);

// Cursor over a payload; every read is bounds-checked, so a truncated or
// corrupted payload surfaces as DataLoss, never as an out-of-bounds access.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U8(std::uint8_t* v);
  Status U32(std::uint32_t* v);
  Status U64(std::uint64_t* v);
  Status I64(std::int64_t* v);
  Status F64(double* v);
  Status Bool(bool* v);
  // u32 length + bytes (PutString's framing).
  Status Str(std::string* v);
  // `length` raw bytes, with the length read separately (blobs that can
  // exceed the u32 framing).
  Status Bytes(std::string* v, std::uint64_t length);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace lyra

#endif  // SRC_COMMON_ENVELOPE_H_
