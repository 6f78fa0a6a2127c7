// Append-only snapshot journal: length-prefixed, CRC32-guarded frames.
//
// File layout:
//   u32 file magic "EFJ1"
//   frame*: u32 frame magic "EFRF" | u32 payload length | u32 CRC32(payload)
//           | payload bytes
//
// A journal is written by a live controller and read back much later,
// possibly after a crash mid-append or storage corruption. The reader
// therefore never aborts: a truncated tail ends the stream cleanly, and a
// frame whose CRC fails is skipped by rescanning for the next frame magic,
// so every intact record survives.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ef::audit {

inline constexpr std::uint32_t kJournalMagic = 0x45464A31;  // "EFJ1"
inline constexpr std::uint32_t kFrameMagic = 0x45465246;    // "EFRF"

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), as used by zip/png.
/// Computed slicing-by-8: eight table lookups per 8-byte word.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);
std::uint32_t crc32(const std::vector<std::uint8_t>& data);

/// Appends framed records to a journal file. Creates/truncates the file
/// and writes the file header on construction.
class JournalWriter {
 public:
  explicit JournalWriter(const std::string& path);

  /// False if the file could not be opened or a write failed.
  bool ok() const { return out_.good(); }

  /// Writes one frame: the 12-byte header, then `record` itself.
  /// Returns the frame's CRC32, which names the record (delta records
  /// link to their chain's keyframe by it; see CycleJournal).
  std::uint32_t append(std::span<const std::uint8_t> record);
  void flush() { out_.flush(); }

  std::size_t records_written() const { return records_; }
  std::size_t bytes_written() const { return bytes_; }

 private:
  std::ofstream out_;
  std::size_t records_ = 0;
  std::size_t bytes_ = 0;
};

/// One framed record, encoded to bytes (used by the writer; exposed for
/// tests and benchmarks that frame into memory).
std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> record);

struct JournalReadStats {
  std::size_t records = 0;          // intact records returned
  std::size_t corrupt_skipped = 0;  // frames dropped (CRC/garbage resync)
  bool truncated_tail = false;      // file ends mid-frame
  bool bad_header = false;          // file magic missing
};

/// Scans a journal byte image and yields the intact records in order.
class JournalReader {
 public:
  /// Reads a whole journal file; nullopt when the file cannot be opened.
  static std::optional<std::vector<std::uint8_t>> load(
      const std::string& path);

  explicit JournalReader(std::vector<std::uint8_t> bytes);

  /// Next intact record, or nullopt at end of journal.
  std::optional<std::vector<std::uint8_t>> next();

  const JournalReadStats& stats() const { return stats_; }

  /// CRC32 of the record next() returned last (JournalWriter::append's
  /// return value when it was written).
  std::uint32_t last_crc() const { return last_crc_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::uint32_t last_crc_ = 0;
  bool pending_incomplete_ = false;
  JournalReadStats stats_;
};

}  // namespace ef::audit
