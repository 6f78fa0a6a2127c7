// CycleJournal / CycleSnapshotReader: keyframes plus delta records must
// read back as exactly the full records serialize_cycle() would have
// written, and damage must cost whole chains, never a wrong snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "audit/cycle_journal.h"
#include "synthetic_pop.h"
#include "net/bytes.h"
#include "net/rng.h"

namespace ef::audit {
namespace {

std::string temp_journal(const std::string& name) {
  return testing::TempDir() + "cycle_journal_" + name + ".efj";
}

/// Byte range of one frame's payload inside a journal image.
struct FrameAt {
  std::size_t offset = 0;  // of the frame magic
  std::size_t length = 0;  // payload bytes
};

std::uint32_t load_u32(const std::vector<std::uint8_t>& bytes,
                       std::size_t at) {
  net::BufReader r(bytes.data() + at, 4);
  return r.u32();
}

std::vector<FrameAt> frames_of(const std::vector<std::uint8_t>& image) {
  std::vector<FrameAt> frames;
  for (std::size_t at = 4; at + 12 <= image.size();) {
    const std::size_t length = load_u32(image, at + 4);
    frames.push_back({at, length});
    at += 12 + length;
  }
  return frames;
}

std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& image,
                                     const FrameAt& frame) {
  const auto begin = image.begin() + static_cast<std::ptrdiff_t>(
                                         frame.offset + 12);
  return {begin, begin + static_cast<std::ptrdiff_t>(frame.length)};
}

/// A journal written from SyntheticPop cycles, with the full record
/// serialize_cycle() produced for every cycle, keyed by the cycle's time.
struct Recording {
  std::vector<std::uint8_t> image;
  std::map<net::SimTime, std::vector<std::uint8_t>> expected;
  std::size_t keyframes = 0;
  std::size_t deltas = 0;
};

/// Records `cycles` cycles of seed `seed`; `before(pop, c)` runs ahead
/// of cycle c (hold cycles, demand switches, log invalidations, events).
template <class Before>
Recording record(std::uint64_t seed, int cycles, bool timing,
                 const std::string& name, Before&& before) {
  SyntheticPop pop(seed);
  Recording out;
  const std::string path = temp_journal(name);
  {
    CycleJournal journal(path, timing);
    for (int c = 0; c < cycles; ++c) {
      before(pop, journal, c);
      pop.advance();
      const core::Controller::CycleRecord cycle = pop.record();
      out.expected[cycle.stats.when] = serialize_cycle(cycle, timing);
      journal.append(cycle);
    }
    journal.flush();
    EXPECT_TRUE(journal.ok());
    out.keyframes = journal.keyframes();
    out.deltas = journal.deltas();
  }
  out.image = JournalReader::load(path).value_or(std::vector<std::uint8_t>{});
  std::remove(path.c_str());
  return out;
}

Recording plain(std::uint64_t seed, int cycles, const std::string& name) {
  return record(seed, cycles, false, name,
                [](SyntheticPop& pop, CycleJournal&, int c) {
                  if (c == 20) pop.switch_demand();
                });
}

/// Drains `reader`, checking every snapshot against the full record of
/// its cycle; returns the cycles' times in the order they came back.
std::vector<net::SimTime> read_and_check(CycleSnapshotReader& reader,
                                         const Recording& recording) {
  std::vector<net::SimTime> seen;
  while (const CycleSnapshot* snapshot = reader.next()) {
    const auto it = recording.expected.find(snapshot->when);
    EXPECT_NE(it, recording.expected.end());
    if (it == recording.expected.end()) break;
    EXPECT_EQ(snapshot->serialize(), it->second)
        << "cycle at " << snapshot->when.seconds_value() << "s";
    seen.push_back(snapshot->when);
  }
  return seen;
}

TEST(CycleJournal, ReaderRebuildsEveryCycleBitForBit) {
  // 170 recorded cycles per seed put keyframes at 0 (first record), 64
  // (chain full), 70 (demand matrix switched), 100 (demand change log
  // invalidated: kTooOld) and 164 (chain full again); every other record
  // is a delta. Hold cycles move the inputs between recorded cycles, and
  // ladder events sit between cycle records without breaking a chain.
  std::size_t holds = 0;
  std::size_t events = 0;
  std::size_t emptied_prefixes = 0;  // delta groups with no natural route
  std::size_t peer_removals = 0;
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::size_t seed_events = 0;
    const Recording recording = record(
        seed, 170, seed % 2 == 0, "oracle",
        [&](SyntheticPop& pop, CycleJournal& journal, int c) {
          if (c % 7 == 3) {
            pop.mutate();
            ++holds;
          }
          if (c == 70) pop.switch_demand();
          if (c == 100) pop.invalidate_demand_log();
          if (c % 11 == 5) {
            FailsafeEvent event;
            event.when = net::SimTime::seconds(60 * c);
            event.reason = "synthetic";
            journal.append_event(event.serialize());
            ++seed_events;
          }
          if (c > 0) coverage.observe(pop.record());
          if (c == 169) peer_removals += pop.peer_removals();
        });
    EXPECT_EQ(recording.keyframes, 5u) << "seed " << seed;
    EXPECT_EQ(recording.deltas, 165u) << "seed " << seed;

    CycleSnapshotReader reader(recording.image);
    const std::vector<net::SimTime> seen = read_and_check(reader, recording);
    ASSERT_FALSE(testing::Test::HasFailure()) << "seed " << seed;
    EXPECT_EQ(seen.size(), 170u);
    EXPECT_EQ(reader.stats().keyframes, 5u);
    EXPECT_EQ(reader.stats().deltas, 165u);
    EXPECT_EQ(reader.stats().deltas_skipped, 0u);
    EXPECT_EQ(reader.stats().undecodable, 0u);
    EXPECT_EQ(reader.failsafe_events().size(), seed_events);
    events += seed_events;

    JournalReader frames(recording.image);
    while (const auto bytes = frames.next()) {
      if (const auto delta = CycleDelta::deserialize(*bytes)) {
        for (const std::uint32_t count : delta->route_counts) {
          if (count == 0) ++emptied_prefixes;
        }
      }
    }
  }
  EXPECT_GT(holds, 0u);
  EXPECT_GT(events, 0u);
  EXPECT_GT(emptied_prefixes, 0u);
  EXPECT_GT(peer_removals, 0u);
  EXPECT_GT(coverage.controller_routes, 0u);
  EXPECT_GT(coverage.unresolved_routes, 0u);
  EXPECT_GT(coverage.v6_routes, 0u);
  EXPECT_GT(coverage.timed_cycles, 0u);
}

// Damage to one delta in the middle of a chain costs the rest of that
// chain, reported as skipped deltas; the next keyframe resumes the
// stream, and nothing yielded is built on the wrong base.
void expect_lost_chain_tail(const std::vector<std::uint8_t>& image,
                            const Recording& recording,
                            std::size_t undecodable) {
  CycleSnapshotReader reader(image);
  const std::vector<net::SimTime> seen = read_and_check(reader, recording);
  // Cycles 0..7 (keyframe and deltas before the damage) and 20..29 (the
  // next chain); delta 8 is gone and deltas 9..19 have no predecessor.
  ASSERT_EQ(seen.size(), 18u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const std::size_t cycle = i < 8 ? i + 1 : i + 13;
    EXPECT_EQ(seen[i], net::SimTime::seconds(60 * static_cast<int>(cycle)));
  }
  EXPECT_EQ(reader.stats().deltas_skipped, 11u);
  EXPECT_EQ(reader.stats().undecodable, undecodable);
  EXPECT_EQ(reader.stats().keyframes, 2u);
  if (undecodable == 0) {
    EXPECT_GE(reader.journal_stats().corrupt_skipped, 1u);
  }
}

TEST(CycleJournal, DamagedDeltaCostsTheRestOfItsChain) {
  const Recording recording = plain(3, 30, "damaged");
  ASSERT_EQ(recording.keyframes, 2u);
  const std::vector<FrameAt> frames = frames_of(recording.image);
  ASSERT_EQ(frames.size(), 30u);
  const std::size_t payload_at = frames[8].offset + 12;
  const std::size_t payload_end = payload_at + frames[8].length;
  {
    SCOPED_TRACE("corrupt byte");
    std::vector<std::uint8_t> image = recording.image;
    image[payload_at + frames[8].length / 2] ^= 0x5A;
    expect_lost_chain_tail(image, recording, 0);
  }
  {
    // Cut the tail of frame 8's payload out of the file: its length
    // field now runs into frame 9, whose magic the reader resyncs on.
    SCOPED_TRACE("truncated frame");
    std::vector<std::uint8_t> image = recording.image;
    image.erase(image.begin() + static_cast<std::ptrdiff_t>(payload_end - 16),
                image.begin() + static_cast<std::ptrdiff_t>(payload_end));
    expect_lost_chain_tail(image, recording, 0);
  }
  {
    // A frame whose CRC holds but whose delta body is cut short (what a
    // writer bug would leave): it decodes as nothing, and the chain
    // breaks.
    SCOPED_TRACE("intact but undecodable");
    std::vector<std::uint8_t> payload = payload_of(recording.image, frames[8]);
    payload.resize(payload.size() / 2);
    std::vector<std::uint8_t> image(
        recording.image.begin(),
        recording.image.begin() +
            static_cast<std::ptrdiff_t>(frames[8].offset));
    const std::vector<std::uint8_t> frame = encode_frame(payload);
    image.insert(image.end(), frame.begin(), frame.end());
    image.insert(image.end(),
                 recording.image.begin() + static_cast<std::ptrdiff_t>(
                                               frames[9].offset),
                 recording.image.end());
    expect_lost_chain_tail(image, recording, 1);
  }
}

TEST(CycleJournal, DeltaOnTheWrongBaseIsNeverApplied) {
  // Two chains that share cycle times: deltas of the second journal
  // spliced after the first's keyframe link to a different keyframe CRC.
  const Recording a = plain(3, 6, "base_a");
  const Recording b = plain(4, 6, "base_b");
  const std::vector<FrameAt> fa = frames_of(a.image);
  const std::vector<FrameAt> fb = frames_of(b.image);
  std::vector<std::uint8_t> image(
      a.image.begin(),
      a.image.begin() + static_cast<std::ptrdiff_t>(fa[1].offset));
  image.insert(image.end(),
               b.image.begin() + static_cast<std::ptrdiff_t>(fb[1].offset),
               b.image.end());
  CycleSnapshotReader reader(image);
  const std::vector<net::SimTime> seen = read_and_check(reader, a);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(reader.stats().deltas_skipped, 5u);
}

/// One random edit of `bytes`: bit flips, a byte run inserted or
/// deleted, a truncation, or a u32 overwritten with an extreme value.
void mutate(std::vector<std::uint8_t>& bytes, net::Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0: {
      const auto flips = rng.uniform_int(1, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        bytes[pick(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
    case 1: {
      const std::size_t at = pick(bytes.size());
      const auto run = rng.uniform_int(1, 16);
      for (std::int64_t i = 0; i < run; ++i) {
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<std::uint8_t>(rng.next_u64()));
      }
      break;
    }
    case 2: {
      const std::size_t at = pick(bytes.size());
      const std::size_t run = std::min<std::size_t>(
          bytes.size() - at, static_cast<std::size_t>(rng.uniform_int(1, 16)));
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + run));
      break;
    }
    case 3:
      bytes.resize(pick(bytes.size()));
      break;
    default: {
      if (bytes.size() < 4) break;
      const std::size_t at = pick(bytes.size() - 3);
      const std::uint8_t fill = rng.bernoulli(0.5) ? 0xFF : 0x00;
      for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = fill;
      break;
    }
  }
}

TEST(CycleJournal, MutatedDeltaBytesNeverCrashTheReader) {
  // Seeded mutation loop over delta records, each framed with a valid CRC
  // so it reaches the delta decoder and the chain logic. The reader must
  // neither crash nor lose count: every intact frame is a snapshot, an
  // event, a skipped delta or an undecodable record. (CI's UBSan job
  // runs this test too.)
  const Recording recording = plain(9, 12, "mutate");
  const std::vector<FrameAt> frames = frames_of(recording.image);
  ASSERT_EQ(frames.size(), 12u);
  net::Rng rng(20250601);
  std::size_t decoded = 0;
  std::size_t applied = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const std::size_t victim =
        1 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    std::vector<std::uint8_t> payload =
        payload_of(recording.image, frames[victim]);
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits && !payload.empty(); ++e) {
      mutate(payload, rng);
    }
    if (CycleDelta::deserialize(payload)) ++decoded;

    std::vector<std::uint8_t> image(
        recording.image.begin(),
        recording.image.begin() +
            static_cast<std::ptrdiff_t>(frames[victim].offset));
    const std::vector<std::uint8_t> frame = encode_frame(payload);
    image.insert(image.end(), frame.begin(), frame.end());
    if (victim + 1 < frames.size()) {
      image.insert(image.end(),
                   recording.image.begin() + static_cast<std::ptrdiff_t>(
                                                 frames[victim + 1].offset),
                   recording.image.end());
    }
    CycleSnapshotReader reader(std::move(image));
    std::size_t snapshots = 0;
    while (reader.next()) ++snapshots;
    const CycleReadStats& stats = reader.stats();
    ASSERT_EQ(stats.keyframes + stats.deltas, snapshots);
    ASSERT_EQ(snapshots + stats.deltas_skipped + stats.undecodable +
                  reader.failsafe_events().size() +
                  reader.audit_events().size(),
              reader.journal_stats().records);
    // Everything before the victim is intact and always yields.
    ASSERT_GE(snapshots, victim);
    if (snapshots == frames.size()) ++applied;
  }
  // The loop reached the decoder's accept path, not only its rejects.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(applied, 0u);
}

}  // namespace
}  // namespace ef::audit
