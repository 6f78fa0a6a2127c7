#include "audit/journal.h"

#include <array>

#include "net/bytes.h"

namespace ef::audit {

namespace {

// Slicing-by-8 tables: table[0] is the classic bytewise CRC table, and
// table[k][b] is the CRC of byte b followed by k zero bytes, so one
// lookup per byte of an 8-byte word advances the CRC by the whole word.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Little-endian word load from any alignment; compilers fold it into one
// load on little-endian hosts.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

constexpr std::size_t kFrameHeader = 12;  // magic + length + crc

std::vector<std::uint8_t> frame_header(std::span<const std::uint8_t> record) {
  net::BufWriter w;
  w.u32(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(record.size()));
  w.u32(crc32(record.data(), record.size()));
  return w.take();
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::vector<std::uint8_t>& data) {
  return crc32(data.data(), data.size());
}

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> record) {
  std::vector<std::uint8_t> frame = frame_header(record);
  frame.insert(frame.end(), record.begin(), record.end());
  return frame;
}

JournalWriter::JournalWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  net::BufWriter w;
  w.u32(kJournalMagic);
  const auto header = w.take();
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  bytes_ = header.size();
}

std::uint32_t JournalWriter::append(std::span<const std::uint8_t> record) {
  // Header, then the payload from the caller's buffer: a multi-megabyte
  // record is never copied into a frame.
  const auto header = frame_header(record);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.write(reinterpret_cast<const char*>(record.data()),
             static_cast<std::streamsize>(record.size()));
  if (out_.good()) {
    ++records_;
    bytes_ += header.size() + record.size();
  }
  return read_u32(header.data() + 8);
}

std::optional<std::vector<std::uint8_t>> JournalReader::load(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  // A regular file is sized and read in one call. A stream that cannot
  // seek (a pipe) is read in chunks until it ends.
  std::streamoff size = -1;
  if (in.seekg(0, std::ios::end)) {
    size = in.tellg();
    in.seekg(0, std::ios::beg);
  }
  in.clear();
  if (size >= 0) {
    bytes.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    return bytes;
  }
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  while (in) {
    const std::size_t have = bytes.size();
    bytes.resize(have + kChunk);
    in.read(reinterpret_cast<char*>(bytes.data() + have), kChunk);
    bytes.resize(have + static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

JournalReader::JournalReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  if (bytes_.size() < 4 || read_u32(bytes_.data()) != kJournalMagic) {
    stats_.bad_header = true;
    // Keep scanning anyway — frames may still be recoverable.
  } else {
    pos_ = 4;
  }
}

std::optional<std::vector<std::uint8_t>> JournalReader::next() {
  while (true) {
    // Scan to the next frame magic. A linear byte scan is only entered
    // after corruption; the happy path lands on a magic immediately.
    std::size_t m = pos_;
    while (m + 4 <= bytes_.size() && read_u32(bytes_.data() + m) != kFrameMagic) {
      ++m;
    }
    if (m + 4 > bytes_.size()) {
      // No further frame start. Any leftover bytes are a cut-off frame
      // (or corruption indistinguishable from one).
      if (pending_incomplete_ || m < bytes_.size()) {
        stats_.truncated_tail = true;
      }
      pos_ = bytes_.size();
      return std::nullopt;
    }
    if (m != pos_) ++stats_.corrupt_skipped;  // garbage gap resynced over
    pos_ = m;

    if (bytes_.size() - pos_ < kFrameHeader) {
      stats_.truncated_tail = true;
      pos_ = bytes_.size();
      return std::nullopt;
    }
    const std::uint32_t length = read_u32(bytes_.data() + pos_ + 4);
    const std::uint32_t crc = read_u32(bytes_.data() + pos_ + 8);
    if (length > bytes_.size() - pos_ - kFrameHeader) {
      // Payload extends past end of file: a truncated final append, or a
      // corrupted length field. Resync past this magic; if nothing else
      // follows, the end-of-stream path above reports the truncation.
      pending_incomplete_ = true;
      pos_ += 4;
      continue;
    }
    const std::uint8_t* payload = bytes_.data() + pos_ + kFrameHeader;
    if (crc32(payload, length) != crc) {
      ++stats_.corrupt_skipped;
      pos_ += 4;  // rescan inside the bad frame; lands on the next real one
      continue;
    }

    if (pending_incomplete_) {
      // The earlier incomplete candidate was corruption, not truncation —
      // an intact frame followed it.
      ++stats_.corrupt_skipped;
      pending_incomplete_ = false;
    }
    std::vector<std::uint8_t> record(payload, payload + length);
    pos_ += kFrameHeader + length;
    ++stats_.records;
    last_crc_ = crc;
    return record;
  }
}

}  // namespace ef::audit
