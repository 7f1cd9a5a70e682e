#include "src/common/envelope.h"

#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace lyra {
namespace {

constexpr std::size_t kHeaderSize = 8 + 4 + 8;

// Little-endian integer at `data`; the caller has checked the bounds.
template <typename T>
T LoadLe(const char* data) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return v;
}

Status Truncated() { return Status::DataLoss("payload truncated"); }

}  // namespace

std::string SealEnvelope(std::string_view magic, std::uint32_t version,
                         std::string_view payload) {
  LYRA_CHECK_EQ(magic.size(), 8u);
  std::string image;
  image.reserve(kEnvelopeOverhead + payload.size());
  image.append(magic);
  PutU32(image, version);
  PutU64(image, payload.size());
  image.append(payload);
  PutU64(image, Fnv1a(payload));
  return image;
}

StatusOr<std::string> OpenEnvelope(const std::string& image,
                                   std::string_view magic,
                                   std::uint32_t version,
                                   const std::string& what) {
  const std::string name(magic);
  if (image.size() < kHeaderSize || image.compare(0, 8, magic) != 0) {
    return Status::InvalidArgument("not a " + name + " image: " + what);
  }
  const std::uint32_t stored_version = LoadLe<std::uint32_t>(image.data() + 8);
  if (stored_version != version) {
    return Status::InvalidArgument(
        "unsupported " + name + " version " + std::to_string(stored_version) +
        " (expected " + std::to_string(version) + "): " + what);
  }
  // Compare the declared size against what the image can hold, never
  // `header + size + checksum` against the image: that sum wraps for sizes
  // near 2^64 and would let a 20-byte image claim a huge payload.
  const std::uint64_t payload_size = LoadLe<std::uint64_t>(image.data() + 12);
  if (image.size() < kEnvelopeOverhead ||
      payload_size > image.size() - kEnvelopeOverhead) {
    return Status::DataLoss(name + " image truncated: " + what);
  }
  if (payload_size < image.size() - kEnvelopeOverhead) {
    return Status::DataLoss(name + " image has trailing bytes: " + what);
  }
  std::string payload = image.substr(kHeaderSize, payload_size);
  const std::uint64_t stored_hash =
      LoadLe<std::uint64_t>(image.data() + kHeaderSize + payload_size);
  if (Fnv1a(payload) != stored_hash) {
    return Status::DataLoss(name + " checksum mismatch: " + what);
  }
  return payload;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + tmp);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), out);
  const bool closed = std::fclose(out) == 0;
  if (written != bytes.size() || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    return Status::DataLoss("read error: " + path);
  }
  return bytes;
}

void PutU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string& out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

void PutF64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

Status Reader::U8(std::uint8_t* v) {
  if (remaining() < 1) {
    return Truncated();
  }
  *v = static_cast<std::uint8_t>(data_[pos_++]);
  return Status::Ok();
}

Status Reader::U32(std::uint32_t* v) {
  if (remaining() < 4) {
    return Truncated();
  }
  *v = LoadLe<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return Status::Ok();
}

Status Reader::U64(std::uint64_t* v) {
  if (remaining() < 8) {
    return Truncated();
  }
  *v = LoadLe<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return Status::Ok();
}

Status Reader::I64(std::int64_t* v) {
  std::uint64_t u = 0;
  const Status status = U64(&u);
  *v = static_cast<std::int64_t>(u);
  return status;
}

Status Reader::F64(double* v) {
  std::uint64_t bits = 0;
  const Status status = U64(&bits);
  std::memcpy(v, &bits, sizeof(*v));
  return status;
}

Status Reader::Bool(bool* v) {
  std::uint8_t byte = 0;
  const Status status = U8(&byte);
  *v = byte != 0;
  return status;
}

Status Reader::Str(std::string* v) {
  std::uint32_t length = 0;
  const Status status = U32(&length);
  if (!status.ok()) {
    return status;
  }
  return Bytes(v, length);
}

Status Reader::Bytes(std::string* v, std::uint64_t length) {
  if (remaining() < length) {
    return Truncated();
  }
  v->assign(data_.substr(pos_, static_cast<std::size_t>(length)));
  pos_ += static_cast<std::size_t>(length);
  return Status::Ok();
}

}  // namespace lyra
