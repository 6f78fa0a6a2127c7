// Bounds-checked big-endian byte buffer reader/writer, used by the BGP
// (RFC 4271) and BMP (RFC 7854) wire codecs.
//
// The reader never throws: out-of-bounds reads set a sticky error flag and
// return zeros, so codecs can decode speculatively and check ok() once.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ef::net {

class BufWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void bytes(const std::vector<std::uint8_t>& data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Overwrites a previously written 16-bit length field at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }
  void patch_u32(std::size_t offset, std::uint32_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 24);
    buf_[offset + 1] = static_cast<std::uint8_t>(v >> 16);
    buf_[offset + 2] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 3] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class BufReader {
 public:
  BufReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit BufReader(const std::vector<std::uint8_t>& buf)
      : BufReader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!require(4)) return 0;  // atomic: no partial-word reads
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }
  std::uint64_t u64() {
    if (!require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }
  /// Copies `len` bytes into `out`; zero-fills on underflow. `out` may be
  /// null when `len` is 0 (an empty vector's data()), which memcpy and
  /// memset do not allow.
  void bytes(std::uint8_t* out, std::size_t len) {
    if (len == 0) return;
    if (!require(len)) {
      std::memset(out, 0, len);
      return;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  void skip(std::size_t len) {
    if (require(len)) pos_ += len;
  }

  /// A sub-reader over the next `len` bytes (consumed from this reader).
  BufReader sub(std::size_t len) {
    if (!require(len)) return BufReader(nullptr, 0);
    BufReader r(data_ + pos_, len);
    pos_ += len;
    return r;
  }

  std::size_t remaining() const { return len_ - pos_; }
  bool ok() const { return ok_; }
  /// Marks the reader failed (e.g. semantic error found by a codec).
  void fail() { ok_ = false; }

 private:
  bool require(std::size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ef::net
