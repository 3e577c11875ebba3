// Bounded binary (de)serialization for snapshot payloads.
//
// BinaryWriter appends little-endian fixed-width scalars and length-prefixed
// containers to an in-memory buffer; BinaryReader parses the same layout with
// hard bounds checks. A reader never throws and never reads past the end:
// the first malformed field latches a descriptive error, every later read
// returns a zero value, and callers check status() once at the end — the
// pattern that lets checkpoint restore reject truncated or corrupted
// payloads with a Status instead of a CHECK.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fastft {
namespace common {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range.
[[nodiscard]] uint32_t Crc32(const void* data, size_t size);

class BinaryWriter {
 public:
  /// Pre-sizes the buffer (e.g. to the previous snapshot's size) so
  /// multi-megabyte payloads don't pay geometric-growth copies.
  void Reserve(size_t capacity) { buffer_.reserve(capacity); }

  void WriteBytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  void WriteU8(uint8_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteBytes(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteBytes(s.data(), s.size());
  }
  void WriteVecDouble(const std::vector<double>& v) {
    WriteU64(v.size());
    WriteBytes(v.data(), v.size() * sizeof(double));
  }
  void WriteVecInt(const std::vector<int>& v) {
    WriteU64(v.size());
    for (int x : v) WriteI32(x);
  }
  void WriteVecU64(const std::vector<uint64_t>& v) {
    WriteU64(v.size());
    WriteBytes(v.data(), v.size() * sizeof(uint64_t));
  }

  [[nodiscard]] const std::string& buffer() const { return buffer_; }
  [[nodiscard]] std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Parses a BinaryWriter buffer. Borrows the bytes; the underlying storage
/// must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  /// Copies `size` raw bytes (no length prefix) into dst; fails the reader
  /// if fewer remain.
  bool ReadRaw(void* dst, size_t size) {
    if (failed_) return false;
    if (data_.size() - pos_ < size) {
      Fail("truncated payload: expected " + std::to_string(size) +
           " raw bytes at byte " + std::to_string(pos_) + " of " +
           std::to_string(data_.size()));
      return false;
    }
    // An empty destination may be null (e.g. an empty vector's data()), and
    // memcpy's pointers must be valid even for a zero length.
    if (size > 0) std::memcpy(dst, data_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  uint8_t ReadU8() { return ReadScalar<uint8_t>("u8"); }
  bool ReadBool() { return ReadU8() != 0; }
  uint32_t ReadU32() { return ReadScalar<uint32_t>("u32"); }
  uint64_t ReadU64() { return ReadScalar<uint64_t>("u64"); }
  int32_t ReadI32() { return ReadScalar<int32_t>("i32"); }
  int64_t ReadI64() { return ReadScalar<int64_t>("i64"); }
  double ReadDouble() { return ReadScalar<double>("double"); }

  std::string ReadString() {
    uint64_t size = ReadLength(1);
    std::string out;
    if (failed_) return out;
    out.assign(data_.data() + pos_, size);
    pos_ += size;
    return out;
  }
  std::vector<double> ReadVecDouble() {
    uint64_t count = ReadLength(sizeof(double));
    std::vector<double> out;
    if (failed_) return out;
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), data_.data() + pos_, count * sizeof(double));
    }
    pos_ += count * sizeof(double);
    return out;
  }
  std::vector<int> ReadVecInt() {
    uint64_t count = ReadLength(sizeof(int32_t));
    std::vector<int> out;
    if (failed_) return out;
    out.reserve(count);
    for (uint64_t i = 0; i < count; ++i) out.push_back(ReadI32());
    return out;
  }
  std::vector<uint64_t> ReadVecU64() {
    uint64_t count = ReadLength(sizeof(uint64_t));
    std::vector<uint64_t> out;
    if (failed_) return out;
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), data_.data() + pos_, count * sizeof(uint64_t));
    }
    pos_ += count * sizeof(uint64_t);
    return out;
  }

  /// Records an out-of-band failure (e.g. a semantic validation error found
  /// by the caller mid-parse) so status() reports it.
  void Fail(const std::string& message) {
    if (failed_) return;
    failed_ = true;
    error_ = message;
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] size_t remaining() const {
    return failed_ ? 0 : data_.size() - pos_;
  }

  /// OK when every read so far stayed in bounds; otherwise a descriptive
  /// InvalidArgument naming the first offending field. (ReadRaw and the
  /// Read* family deliberately stay discardable: the documented pattern is
  /// to read a whole payload and check status() once at the end.)
  [[nodiscard]] Status status() const {
    if (!failed_) return Status::OK();
    return Status::InvalidArgument(error_);
  }

 private:
  template <typename T>
  T ReadScalar(const char* what) {
    if (failed_) return T{};
    if (data_.size() - pos_ < sizeof(T)) {
      Fail("truncated payload: expected " + std::string(what) + " at byte " +
           std::to_string(pos_) + " of " + std::to_string(data_.size()));
      return T{};
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a u64 element count and validates that `count * element_size`
  /// bytes actually remain, so a corrupted length can never trigger a
  /// multi-gigabyte allocation or an out-of-bounds copy.
  uint64_t ReadLength(size_t element_size) {
    uint64_t count = ReadU64();
    if (failed_) return 0;
    if (count > (data_.size() - pos_) / element_size) {
      Fail("corrupted length " + std::to_string(count) + " at byte " +
           std::to_string(pos_) + ": only " +
           std::to_string(data_.size() - pos_) + " bytes remain");
      return 0;
    }
    return count;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace common
}  // namespace fastft
