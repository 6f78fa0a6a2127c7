#include "net/ip.h"

#include <gtest/gtest.h>

#include <ostream>

namespace ef::net {
namespace {

TEST(IpAddr, DefaultIsV4Zero) {
  IpAddr a;
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.v4_value(), 0u);
  EXPECT_EQ(a.to_string(), "0.0.0.0");
}

TEST(IpAddr, V4FromHostOrder) {
  IpAddr a = IpAddr::v4(0xC0000201);
  EXPECT_EQ(a.to_string(), "192.0.2.1");
  EXPECT_EQ(a.v4_value(), 0xC0000201u);
}

TEST(IpAddr, ParseV4) {
  auto a = IpAddr::parse("203.0.113.7");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v4());
  EXPECT_EQ(a->v4_value(), (203u << 24) | (113u << 8) | 7u);
}

TEST(IpAddr, ParseV4Boundaries) {
  EXPECT_TRUE(IpAddr::parse("0.0.0.0").has_value());
  EXPECT_TRUE(IpAddr::parse("255.255.255.255").has_value());
  EXPECT_EQ(IpAddr::parse("255.255.255.255")->v4_value(), 0xFFFFFFFFu);
}

struct MalformedCase {
  const char* text;
};

// Without a printer gtest shows a case as the bytes of its pointer, which
// moves from run to run under ASLR; ctest names the case after that value.
void PrintTo(const MalformedCase& c, std::ostream* os) {
  *os << '"' << c.text << '"';
}

class MalformedAddressTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedAddressTest, Rejected) {
  EXPECT_FALSE(IpAddr::parse(GetParam().text).has_value())
      << "should reject: " << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedAddressTest,
    ::testing::Values(
        MalformedCase{""}, MalformedCase{"1.2.3"}, MalformedCase{"1.2.3.4.5"},
        MalformedCase{"256.1.1.1"}, MalformedCase{"1.2.3.999"},
        MalformedCase{"01.2.3.4"}, MalformedCase{"a.b.c.d"},
        MalformedCase{"1.2.3.4."}, MalformedCase{".1.2.3.4"},
        MalformedCase{"1..2.3"}, MalformedCase{"2001:db8:::1"},
        MalformedCase{"2001:db8::1::2"}, MalformedCase{"12345::"},
        MalformedCase{"1:2:3:4:5:6:7"}, MalformedCase{"1:2:3:4:5:6:7:8:9"},
        MalformedCase{"g::1"}));

struct V6RoundTrip {
  const char* in;
  const char* canonical;
};

// Names the case by its input alone: the canonical form is what is checked.
void PrintTo(const V6RoundTrip& c, std::ostream* os) {
  *os << '"' << c.in << '"';
}

class V6FormatTest : public ::testing::TestWithParam<V6RoundTrip> {};

TEST_P(V6FormatTest, ParsesAndCanonicalizes) {
  auto a = IpAddr::parse(GetParam().in);
  ASSERT_TRUE(a.has_value()) << GetParam().in;
  EXPECT_TRUE(a->is_v6());
  EXPECT_EQ(a->to_string(), GetParam().canonical);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, V6FormatTest,
    ::testing::Values(
        V6RoundTrip{"::", "::"}, V6RoundTrip{"::1", "::1"},
        V6RoundTrip{"1::", "1::"},
        V6RoundTrip{"2001:db8::1", "2001:db8::1"},
        V6RoundTrip{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
        V6RoundTrip{"fe80:0:0:0:1:0:0:1", "fe80::1:0:0:1"},
        V6RoundTrip{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
        V6RoundTrip{"0:0:1:0:0:0:0:0", "0:0:1::"},
        V6RoundTrip{"2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"}));

TEST(IpAddr, V6ParseFormatRoundTripStable) {
  // Canonical output must re-parse to the same address.
  for (const char* text :
       {"2001:db8::1", "fe80::1:0:0:1", "::", "::1", "1::",
        "1:2:3:4:5:6:7:8"}) {
    auto a = IpAddr::parse(text);
    ASSERT_TRUE(a.has_value());
    auto b = IpAddr::parse(a->to_string());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b) << text;
  }
}

TEST(IpAddr, BitIndexing) {
  IpAddr a = IpAddr::v4(0x80000001);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_FALSE(a.bit(30));
  EXPECT_TRUE(a.bit(31));
}

TEST(IpAddr, MaskedClearsHostBits) {
  IpAddr a = *IpAddr::parse("203.0.113.255");
  EXPECT_EQ(a.masked(24).to_string(), "203.0.113.0");
  EXPECT_EQ(a.masked(25).to_string(), "203.0.113.128");
  EXPECT_EQ(a.masked(0).to_string(), "0.0.0.0");
  EXPECT_EQ(a.masked(32), a);
}

TEST(IpAddr, MaskedV6) {
  IpAddr a = *IpAddr::parse("2001:db8:ffff:ffff::1");
  EXPECT_EQ(a.masked(32).to_string(), "2001:db8::");
  EXPECT_EQ(a.masked(48).to_string(), "2001:db8:ffff::");
}

TEST(IpAddr, MaskedClampsOutOfRange) {
  IpAddr a = *IpAddr::parse("10.1.2.3");
  EXPECT_EQ(a.masked(99), a);     // clamped to 32
  EXPECT_EQ(a.masked(-5).v4_value(), 0u);  // clamped to 0
}

TEST(IpAddr, OrderingSeparatesFamilies) {
  IpAddr v4 = *IpAddr::parse("255.255.255.255");
  IpAddr v6 = *IpAddr::parse("::1");
  EXPECT_NE(v4, v6);
  EXPECT_TRUE(v4 < v6 || v6 < v4);
}

TEST(IpAddr, HashDistinguishesFamilies) {
  // 1.2.3.4 as v4 vs the v6 address with the same leading bytes.
  IpAddr v4 = IpAddr::v4(0x01020304);
  std::array<std::uint8_t, 16> bytes{1, 2, 3, 4};
  IpAddr v6 = IpAddr::v6(bytes);
  EXPECT_NE(std::hash<IpAddr>{}(v4), std::hash<IpAddr>{}(v6));
}

TEST(IpAddr, AddressBits) {
  EXPECT_EQ(address_bits(Family::kV4), 32);
  EXPECT_EQ(address_bits(Family::kV6), 128);
}

}  // namespace
}  // namespace ef::net
