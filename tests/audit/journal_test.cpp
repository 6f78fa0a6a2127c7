// Journal framing robustness: round-trips, truncated tails, corrupt
// frames — the reader must recover every intact record in all cases.
#include "audit/journal.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "audit/snapshot.h"
#include "net/bytes.h"

namespace ef::audit {
namespace {

std::vector<std::uint8_t> record_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

/// An in-memory journal image: header + one frame per record.
std::vector<std::uint8_t> make_journal(
    const std::vector<std::vector<std::uint8_t>>& records) {
  net::BufWriter w;
  w.u32(kJournalMagic);
  std::vector<std::uint8_t> bytes = w.take();
  for (const auto& record : records) {
    const auto frame = encode_frame(record);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

std::vector<std::vector<std::uint8_t>> drain(JournalReader& reader) {
  std::vector<std::vector<std::uint8_t>> records;
  while (auto record = reader.next()) records.push_back(*record);
  return records;
}

TEST(Crc32Test, KnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3 / zip / png).
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

/// Bit-at-a-time CRC-32, straight from the polynomial: the reference the
/// table-driven implementation must agree with.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicingMatchesBytewiseAtEveryLengthAndOffset) {
  // Lengths cross the 8-byte word boundary in every residue, and every
  // start offset exercises a different alignment of the word loads.
  std::vector<std::uint8_t> buffer(8 + 257);
  std::uint32_t x = 0x12345678u;
  for (std::uint8_t& b : buffer) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(crc32(data, len), bitwise_crc32(data, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(JournalTest, AppendWritesTheEncodedFrames) {
  const std::vector<std::vector<std::uint8_t>> records = {
      record_of("alpha"), record_of(""), std::vector<std::uint8_t>(300, 7)};
  const std::string path = testing::TempDir() + "journal_append_frames.efj";
  {
    JournalWriter writer(path);
    for (const auto& record : records) writer.append(record);
    EXPECT_EQ(writer.bytes_written(), make_journal(records).size());
  }
  EXPECT_EQ(JournalReader::load(path), make_journal(records));
  std::remove(path.c_str());
}

TEST(JournalTest, LoadReadsAPipeToItsEnd) {
  // A FIFO cannot be sized up front; load() reads it in chunks until the
  // writer closes it. 200 KB spans several chunks.
  const std::vector<std::uint8_t> image =
      make_journal({std::vector<std::uint8_t>(200'000, 0x5A)});
  const std::string path = testing::TempDir() + "journal_load_pipe.efj";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  });
  const auto loaded = JournalReader::load(path);
  writer.join();
  EXPECT_EQ(loaded, image);
  std::remove(path.c_str());
}

TEST(JournalTest, RoundTripMultiRecord) {
  const std::vector<std::vector<std::uint8_t>> records = {
      record_of("first"), record_of(""), record_of("third record"),
      std::vector<std::uint8_t>(1000, 0xAB)};
  JournalReader reader(make_journal(records));
  EXPECT_EQ(drain(reader), records);
  EXPECT_EQ(reader.stats().records, 4u);
  EXPECT_EQ(reader.stats().corrupt_skipped, 0u);
  EXPECT_FALSE(reader.stats().truncated_tail);
  EXPECT_FALSE(reader.stats().bad_header);
}

TEST(JournalTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "journal_file_roundtrip.efj";
  {
    JournalWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.append(record_of("alpha"));
    writer.append(record_of("beta"));
    writer.flush();
    EXPECT_EQ(writer.records_written(), 2u);
  }
  auto bytes = JournalReader::load(path);
  ASSERT_TRUE(bytes.has_value());
  JournalReader reader(std::move(*bytes));
  const auto records = drain(reader);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], record_of("alpha"));
  EXPECT_EQ(records[1], record_of("beta"));
  std::remove(path.c_str());
}

TEST(JournalTest, TruncatedFinalFrameKeepsEarlierRecords) {
  const std::vector<std::vector<std::uint8_t>> records = {
      record_of("intact one"), record_of("intact two"),
      record_of("this one gets cut off mid-payload")};
  std::vector<std::uint8_t> bytes = make_journal(records);
  bytes.resize(bytes.size() - 10);  // cut into the last payload

  JournalReader reader(std::move(bytes));
  const auto recovered = drain(reader);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0], records[0]);
  EXPECT_EQ(recovered[1], records[1]);
  EXPECT_TRUE(reader.stats().truncated_tail);
}

TEST(JournalTest, TruncatedMidHeader) {
  std::vector<std::uint8_t> bytes =
      make_journal({record_of("whole"), record_of("cut")});
  // Leave only 6 bytes of the second frame (magic + half the length).
  const std::size_t first_frame = 4 + 12 + 5;
  bytes.resize(first_frame + 6);

  JournalReader reader(std::move(bytes));
  const auto recovered = drain(reader);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0], record_of("whole"));
  EXPECT_TRUE(reader.stats().truncated_tail);
}

TEST(JournalTest, BitFlippedMiddleFrameIsSkipped) {
  const std::vector<std::vector<std::uint8_t>> records = {
      record_of("before corruption"), record_of("the corrupted middle"),
      record_of("after corruption")};
  std::vector<std::uint8_t> bytes = make_journal(records);
  // Flip one bit in the middle frame's payload.
  const std::size_t middle_payload = 4 + 12 + records[0].size() + 12 + 3;
  bytes[middle_payload] ^= 0x10;

  JournalReader reader(std::move(bytes));
  const auto recovered = drain(reader);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0], records[0]);
  EXPECT_EQ(recovered[1], records[2]);
  EXPECT_GE(reader.stats().corrupt_skipped, 1u);
  EXPECT_FALSE(reader.stats().truncated_tail);
}

TEST(JournalTest, CorruptedLengthFieldIsSkipped) {
  const std::vector<std::vector<std::uint8_t>> records = {
      record_of("first"), record_of("second"), record_of("third")};
  std::vector<std::uint8_t> bytes = make_journal(records);
  // Smash the middle frame's length field to a huge value.
  const std::size_t middle_len_field = 4 + 12 + records[0].size() + 4;
  bytes[middle_len_field] = 0x7F;

  JournalReader reader(std::move(bytes));
  const auto recovered = drain(reader);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0], records[0]);
  EXPECT_EQ(recovered[1], records[2]);
  EXPECT_GE(reader.stats().corrupt_skipped, 1u);
}

TEST(JournalTest, BadHeaderStillRecoversFrames) {
  std::vector<std::uint8_t> bytes = make_journal({record_of("survivor")});
  bytes[0] = 0x00;  // destroy the file magic

  JournalReader reader(std::move(bytes));
  const auto recovered = drain(reader);
  EXPECT_TRUE(reader.stats().bad_header);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0], record_of("survivor"));
}

TEST(JournalTest, EmptyAndGarbageInputs) {
  {
    JournalReader reader(std::vector<std::uint8_t>{});
    EXPECT_EQ(drain(reader).size(), 0u);
    EXPECT_TRUE(reader.stats().bad_header);
  }
  {
    JournalReader reader(std::vector<std::uint8_t>(64, 0x5A));
    EXPECT_EQ(drain(reader).size(), 0u);
  }
}

// --- Snapshot wire format ------------------------------------------------

CycleSnapshot sample_snapshot() {
  CycleSnapshot s;
  s.when = net::SimTime::minutes(90);
  s.allocator.overload_threshold = 0.93;
  s.allocator.allow_prefix_splitting = true;
  s.allocator.max_overrides = 17;
  s.decision.compare_med_across_as = true;
  s.decision.prefer_oldest = false;

  s.interfaces = {{telemetry::InterfaceId(0), net::Bandwidth::gbps(40), false},
                  {telemetry::InterfaceId(3), net::Bandwidth::gbps(10), true}};
  const net::IpAddr peer_v4 = *net::IpAddr::parse("192.0.2.1");
  const net::IpAddr peer_v6 = *net::IpAddr::parse("2001:db8::99");
  s.egress = {{peer_v4, telemetry::InterfaceId(0), bgp::PeerType::kPrivatePeer},
              {peer_v6, telemetry::InterfaceId(3), bgp::PeerType::kTransit}};
  const net::Prefix p4 = *net::Prefix::parse("100.64.0.0/24");
  const net::Prefix p6 = *net::Prefix::parse("2001:db8:1::/48");
  s.demand = {{p4, net::Bandwidth::mbps(123.456)},
              {p6, net::Bandwidth::gbps(2.5)}};

  bgp::Route route;
  route.prefix = p4;
  route.attrs.origin = bgp::Origin::kEgp;
  route.attrs.as_path = bgp::AsPath{bgp::AsNumber(65001), bgp::AsNumber(64999)};
  route.attrs.next_hop = peer_v4;
  route.attrs.med = bgp::Med(42);
  route.attrs.has_med = true;
  route.attrs.local_pref = bgp::LocalPref(340);
  route.attrs.has_local_pref = true;
  route.attrs.communities = {bgp::Community(64998, 1), bgp::Community(65000, 7)};
  route.learned_from = bgp::PeerId(12);
  route.peer_type = bgp::PeerType::kPrivatePeer;
  route.neighbor_as = bgp::AsNumber(65001);
  route.neighbor_router_id = bgp::RouterId(0x0a000001);
  route.learned_at = net::SimTime::seconds(17);
  s.routes.push_back(route);
  route.prefix = p6;
  route.attrs.next_hop = peer_v6;
  route.attrs.communities.clear();
  s.routes.push_back(route);

  core::Override o;
  o.prefix = p4;
  o.rate = net::Bandwidth::mbps(123.456);
  o.next_hop = peer_v6;
  o.as_path = bgp::AsPath{bgp::AsNumber(65002)};
  o.from_interface = telemetry::InterfaceId(0);
  o.target_interface = telemetry::InterfaceId(3);
  o.from_type = bgp::PeerType::kPrivatePeer;
  o.target_type = bgp::PeerType::kTransit;
  s.allocated = {o};
  s.applied = {o};
  s.projected_load = {{telemetry::InterfaceId(0), net::Bandwidth::gbps(39)},
                      {telemetry::InterfaceId(3), net::Bandwidth::zero()}};
  s.final_load = s.projected_load;
  s.overloaded_interfaces = 1;
  s.unresolved_overload = net::Bandwidth::mbps(1.5);
  s.unroutable = net::Bandwidth::kbps(10);
  s.safety.dropped_invalid_route = 2;
  s.safety.dropped_by_budget = 1;
  s.added = 3;
  s.removed = 1;
  s.retained_by_hysteresis = 4;
  s.perf_overrides = 5;
  s.dirty_prefixes = 37;
  s.escalations = 2;
  s.full_fallbacks = 1;
  s.incremental_cycle = true;
  s.allocation_wall_ns = 123456789;
  return s;
}

TEST(SnapshotWireTest, RoundTripsExactly) {
  const CycleSnapshot original = sample_snapshot();
  const auto bytes = original.serialize();
  const auto decoded = CycleSnapshot::deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(SnapshotWireTest, SerializationIsDeterministic) {
  EXPECT_EQ(sample_snapshot().serialize(), sample_snapshot().serialize());
}

TEST(SnapshotWireTest, RejectsUnknownVersion) {
  auto bytes = sample_snapshot().serialize();
  bytes[1] = 99;  // version lives in the first two (big-endian) bytes
  EXPECT_FALSE(CycleSnapshot::deserialize(bytes).has_value());
}

TEST(SnapshotWireTest, V1SnapshotsStillDeserialize) {
  // A v1 blob is a v2 blob minus the 33-byte incremental-annotation
  // trailer (u64 dirty + u64 escalations + u64 fallbacks + u8 flag +
  // u64 wall ns), with the version halfword saying 1. Journals written
  // before the bump must keep reading, with the annotations defaulted.
  const CycleSnapshot original = sample_snapshot();
  auto bytes = original.serialize();
  ASSERT_GT(bytes.size(), 33u);
  bytes.resize(bytes.size() - 33);
  bytes[0] = 0;
  bytes[1] = 1;  // big-endian u16 version

  const auto decoded = CycleSnapshot::deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, 1u);
  EXPECT_EQ(decoded->dirty_prefixes, 0u);
  EXPECT_EQ(decoded->escalations, 0u);
  EXPECT_EQ(decoded->full_fallbacks, 0u);
  EXPECT_FALSE(decoded->incremental_cycle);
  EXPECT_EQ(decoded->allocation_wall_ns, 0u);

  // Everything that is a decision input survives unchanged.
  CycleSnapshot expect = original;
  expect.version = 1;
  expect.dirty_prefixes = 0;
  expect.escalations = 0;
  expect.full_fallbacks = 0;
  expect.incremental_cycle = false;
  expect.allocation_wall_ns = 0;
  EXPECT_EQ(*decoded, expect);
}

TEST(SnapshotWireTest, V2RejectsMissingAnnotationTrailer) {
  // A blob claiming v2 but cut at the v1 length must fail loudly, not
  // silently default the annotations.
  auto bytes = sample_snapshot().serialize();
  bytes.resize(bytes.size() - 33);
  EXPECT_FALSE(CycleSnapshot::deserialize(bytes).has_value());
}

TEST(SnapshotWireTest, RejectsTruncatedBytes) {
  const auto bytes = sample_snapshot().serialize();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{5},
                                 bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(CycleSnapshot::deserialize(cut).has_value()) << keep;
  }
}

}  // namespace
}  // namespace ef::audit
