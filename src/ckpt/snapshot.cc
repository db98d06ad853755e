#include "ckpt/snapshot.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace mde::ckpt {

namespace {

constexpr char kMagic[8] = {'M', 'D', 'E', 'C', 'K', 'P', 'T', '\0'};

/// Little-endian encode helpers shared by the header and section payloads.
void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool TakeU32(std::string_view data, size_t* pos, uint32_t* out) {
  if (4 > data.size() - *pos) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[*pos + i]))
         << (8 * i);
  }
  *pos += 4;
  *out = v;
  return true;
}

bool TakeU64(std::string_view data, size_t* pos, uint64_t* out) {
  if (8 > data.size() - *pos) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[*pos + i]))
         << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

bool TakeString(std::string_view data, size_t* pos, std::string* out) {
  uint32_t len = 0;
  if (!TakeU32(data, pos, &len)) return false;
  if (len > data.size() - *pos) return false;
  out->assign(data.data() + *pos, len);
  *pos += len;
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Table generated once from the reflected IEEE 802.3 polynomial.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xffffffffu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void SectionWriter::PutU32(uint32_t v) { AppendU32(&buf_, v); }
void SectionWriter::PutU64(uint64_t v) { AppendU64(&buf_, v); }

void SectionWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void SectionWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void SectionWriter::PutRngState(const Rng::State& s) {
  for (uint64_t w : s) PutU64(w);
}

void SectionWriter::PutU64Vec(const std::vector<uint64_t>& v) {
  PutU64(v.size());
  for (uint64_t x : v) PutU64(x);
}

void SectionWriter::PutSizeVec(const std::vector<size_t>& v) {
  PutU64(v.size());
  for (size_t x : v) PutU64(static_cast<uint64_t>(x));
}

void SectionWriter::PutDoubleVec(const std::vector<double>& v) {
  PutU64(v.size());
  for (double x : v) PutDouble(x);
}

void SectionWriter::PutBytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

bool SectionReader::Take(void* out, size_t n) {
  if (!status_.ok()) return false;
  if (n > data_.size() - pos_) {
    Fail("section truncated");
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

void SectionReader::Fail(const std::string& what) {
  if (status_.ok()) status_ = Status::InvalidArgument("checkpoint: " + what);
}

uint8_t SectionReader::U8() {
  uint8_t v = 0;
  Take(&v, 1);
  return v;
}

uint32_t SectionReader::U32() {
  if (!status_.ok()) return 0;
  uint32_t v = 0;
  if (!TakeU32(data_, &pos_, &v)) Fail("section truncated");
  return v;
}

uint64_t SectionReader::U64() {
  if (!status_.ok()) return 0;
  uint64_t v = 0;
  if (!TakeU64(data_, &pos_, &v)) Fail("section truncated");
  return v;
}

double SectionReader::Double() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return status_.ok() ? v : 0.0;
}

std::string SectionReader::String() {
  if (!status_.ok()) return {};
  std::string s;
  if (!TakeString(data_, &pos_, &s)) Fail("section truncated");
  return s;
}

Rng::State SectionReader::RngState() {
  Rng::State s{};
  for (uint64_t& w : s) w = U64();
  return s;
}

std::vector<uint64_t> SectionReader::U64Vec() {
  const uint64_t n = U64();
  if (!status_.ok() || n > remaining() / 8) {
    Fail("vector length exceeds section");
    return {};
  }
  std::vector<uint64_t> v(n);
  for (uint64_t& x : v) x = U64();
  return v;
}

std::vector<size_t> SectionReader::SizeVec() {
  const std::vector<uint64_t> raw = U64Vec();
  return std::vector<size_t>(raw.begin(), raw.end());
}

std::vector<double> SectionReader::DoubleVec() {
  const uint64_t n = U64();
  if (!status_.ok() || n > remaining() / 8) {
    Fail("vector length exceeds section");
    return {};
  }
  std::vector<double> v(n);
  for (double& x : v) x = Double();
  return v;
}

Status SectionReader::ExpectEnd() {
  MDE_RETURN_NOT_OK(status_);
  if (remaining() != 0) {
    return Status::InvalidArgument("checkpoint: trailing bytes in section");
  }
  return Status::OK();
}

SectionWriter* SnapshotWriter::AddSection(const std::string& name) {
  sections_.emplace_back(name, SectionWriter{});
  return &sections_.back().second;
}

std::string SnapshotWriter::Finish() {
  std::string out(kMagic, sizeof(kMagic));
  AppendU32(&out, kFormatVersion);
  AppendU32(&out, static_cast<uint32_t>(engine_.size()));
  out.append(engine_);
  AppendU32(&out, static_cast<uint32_t>(sections_.size()));
  for (auto& [name, w] : sections_) {
    AppendU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
    AppendU64(&out, w.bytes().size());
    out.append(w.bytes());
  }
  AppendU32(&out, Crc32(out.data(), out.size()));
  sections_.clear();
  return out;
}

Result<SnapshotReader> SnapshotReader::Parse(std::string bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 4 + 4 + 4) {
    return Status::InvalidArgument("checkpoint: too short");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("checkpoint: bad magic");
  }
  const size_t body = bytes.size() - 4;
  uint32_t stored_crc = 0;
  {
    size_t pos = body;
    TakeU32(bytes, &pos, &stored_crc);
  }
  const uint32_t actual_crc = Crc32(bytes.data(), body);
  if (stored_crc != actual_crc) {
    return Status::FailedPrecondition("checkpoint: CRC mismatch (corrupt)");
  }

  SnapshotReader r;
  r.bytes_ = std::move(bytes);
  const std::string_view data(r.bytes_.data(), body);
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  if (!TakeU32(data, &pos, &version)) {
    return Status::InvalidArgument("checkpoint: truncated header");
  }
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        "checkpoint: unsupported format version " + std::to_string(version));
  }
  if (!TakeString(data, &pos, &r.engine_)) {
    return Status::InvalidArgument("checkpoint: truncated engine name");
  }
  uint32_t count = 0;
  if (!TakeU32(data, &pos, &count)) {
    return Status::InvalidArgument("checkpoint: truncated section count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    uint64_t len = 0;
    // Subtraction form: a wrapped `pos + len` must not pass the bound.
    if (!TakeString(data, &pos, &name) || !TakeU64(data, &pos, &len) ||
        len > data.size() - pos) {
      return Status::InvalidArgument("checkpoint: truncated section");
    }
    r.sections_.push_back({std::move(name), pos, len});
    pos += len;
  }
  return r;
}

bool SnapshotReader::has_section(const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

Result<SectionReader> SnapshotReader::section(const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) {
      return SectionReader(std::string_view(bytes_.data() + s.offset,
                                            s.length));
    }
  }
  return Status::NotFound("checkpoint: no section '" + name + "'");
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return Status::Internal("cannot open " + tmp);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!f) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

}  // namespace mde::ckpt
