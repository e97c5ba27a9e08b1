//===- tests/SupportTest.cpp - support library unit tests -----------------===//
//
// Part of briggs-regalloc. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/ParseNumber.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <set>

using namespace ra;

namespace {

TEST(BitVectorTest, BasicSetTestReset) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_TRUE(BV.none());
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVectorTest, TestAndSet) {
  BitVector BV(10);
  EXPECT_TRUE(BV.testAndSet(3));
  EXPECT_FALSE(BV.testAndSet(3));
  EXPECT_TRUE(BV.test(3));
}

TEST(BitVectorTest, SetAllRespectsTailBits) {
  BitVector BV(70);
  BV.setAll();
  EXPECT_EQ(BV.count(), 70u);
  BV.resize(75);
  EXPECT_EQ(BV.count(), 70u) << "new bits default to false";
}

TEST(BitVectorTest, ResizeWithValueTrue) {
  BitVector BV(10);
  BV.resize(80, true);
  EXPECT_EQ(BV.count(), 70u);
  for (unsigned I = 0; I < 10; ++I)
    EXPECT_FALSE(BV.test(I));
  for (unsigned I = 10; I < 80; ++I)
    EXPECT_TRUE(BV.test(I));
}

TEST(BitVectorTest, SetOperations) {
  BitVector A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);
  EXPECT_TRUE(A.intersects(B));
  BitVector U = A;
  EXPECT_TRUE(U.unionWith(B));
  EXPECT_FALSE(U.unionWith(B)) << "second union changes nothing";
  EXPECT_EQ(U.count(), 3u);
  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));
  BitVector S = A;
  S.subtract(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(1));
}

TEST(BitVectorTest, FindFirstAndNext) {
  BitVector BV(200);
  EXPECT_EQ(BV.findFirst(), -1);
  BV.set(7);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findFirst(), 7);
  EXPECT_EQ(BV.findNext(7), 64);
  EXPECT_EQ(BV.findNext(64), 199);
  EXPECT_EQ(BV.findNext(199), -1);
}

TEST(BitVectorTest, ForEachMatchesReferenceSet) {
  Rng R(123);
  BitVector BV(500);
  std::set<unsigned> Ref;
  for (int I = 0; I < 200; ++I) {
    unsigned Bit = unsigned(R.nextBelow(500));
    BV.set(Bit);
    Ref.insert(Bit);
  }
  std::set<unsigned> Seen;
  BV.forEachSetBit([&](unsigned Bit) { Seen.insert(Bit); });
  EXPECT_EQ(Seen, Ref);
  EXPECT_EQ(BV.count(), Ref.size());
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind UF(6);
  EXPECT_EQ(UF.numSets(), 6u);
  UF.unite(0, 1);
  UF.unite(2, 3);
  EXPECT_EQ(UF.numSets(), 4u);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_FALSE(UF.connected(1, 2));
  UF.unite(1, 3);
  EXPECT_TRUE(UF.connected(0, 2));
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, UniteIsIdempotent) {
  UnionFind UF(4);
  unsigned R1 = UF.unite(0, 1);
  unsigned R2 = UF.unite(0, 1);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, GrowAddsSingletons) {
  UnionFind UF(2);
  unsigned Id = UF.grow();
  EXPECT_EQ(Id, 2u);
  EXPECT_EQ(UF.numSets(), 3u);
  EXPECT_FALSE(UF.connected(0, Id));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, RangesRespectBounds) {
  Rng R(1);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(7), 7u);
    int64_t V = R.nextInRange(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(TableTest, FormattingHelpers) {
  EXPECT_EQ(Table::withCommas(0), "0");
  EXPECT_EQ(Table::withCommas(999), "999");
  EXPECT_EQ(Table::withCommas(596713), "596,713");
  EXPECT_EQ(Table::withCommas(-1234567), "-1,234,567");
  EXPECT_EQ(Table::fixed(1.349, 2), "1.35");
  EXPECT_EQ(Table::pctImprovement(101, 49), "51");
  EXPECT_EQ(Table::pctImprovement(0, 0), "0");
  EXPECT_EQ(Table::pctImprovement(100, 100), "0");
}

TEST(TableTest, RendersAlignedColumns) {
  Table T({"Name", "Value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(Out.find("| a      |     1 |"), std::string::npos);
  EXPECT_NE(Out.find("| longer |    22 |"), std::string::npos);
}

TEST(TimerTest, AccumulatesTime) {
  Timer T;
  T.start();
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I < 100000; ++I)
    Sink += I;
  T.stop();
  EXPECT_GT(T.seconds(), 0.0);
  double First = T.seconds();
  T.start();
  T.stop();
  EXPECT_GE(T.seconds(), First);
  T.reset();
  EXPECT_EQ(T.seconds(), 0.0);
}

TEST(StatusTest, DefaultConstructedIsOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Ok);
  EXPECT_EQ(S.toString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(StatusCode::NonConvergence, "no coloring");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::NonConvergence);
  EXPECT_EQ(S.message(), "no coloring");
  EXPECT_EQ(S.toString(), "non-convergence: no coloring");
}

TEST(StatusTest, ContextRendersOutermostFirst) {
  // Innermost call sites push first; the rendering walks back out.
  Status S = Status::error(StatusCode::AuditFailure, "r3 double-booked");
  S.addContext("pass 2");
  S.addContext("@dgefa");
  EXPECT_EQ(S.toString(), "audit-failure: @dgefa: pass 2: r3 double-booked");
}

TEST(StatusTest, AddContextIsNoOpOnOk) {
  Status S;
  S.addContext("should vanish");
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.toString(), "ok");
}

TEST(ParseNumberTest, UnsignedAcceptsExactlyTheRange) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V).ok());
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_FALSE(parseUnsigned("18446744073709551616", V).ok());
  EXPECT_EQ(V, UINT64_MAX) << "a refused value leaves the output alone";

  unsigned U = 0;
  EXPECT_TRUE(parseUnsigned("0042", U, 1, 42).ok());
  EXPECT_EQ(U, 42u);
  EXPECT_FALSE(parseUnsigned("43", U, 1, 42).ok());
  EXPECT_FALSE(parseUnsigned("0", U, 1, 42).ok());
  EXPECT_FALSE(parseUnsigned("4294967296", U).ok());
  EXPECT_FALSE(parseUnsigned("5", U, 0, 4).ok()) << "digit above Max";

  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.0"})
    EXPECT_FALSE(parseUnsigned(Bad, U).ok()) << "'" << Bad << "'";
  Status S = parseUnsigned("-1", U, 0, 1024);
  EXPECT_EQ(S.code(), StatusCode::InvalidInput);
  EXPECT_EQ(S.toString(),
            "invalid-input: expected an integer in [0, 1024], got '-1'");
}

TEST(ParseNumberTest, NonNegativeRefusesSignsJunkAndNonFinite) {
  double D = -1;
  EXPECT_TRUE(parseNonNegative("0.01", D).ok());
  EXPECT_EQ(D, 0.01);
  EXPECT_TRUE(parseNonNegative(".5", D).ok());
  EXPECT_EQ(D, 0.5);
  EXPECT_TRUE(parseNonNegative("250", D).ok());
  EXPECT_EQ(D, 250.0);
  for (const char *Bad :
       {"", "-1", "+1", " 1", "1 ", "1ms", "inf", "nan", "1e400"})
    EXPECT_FALSE(parseNonNegative(Bad, D).ok()) << "'" << Bad << "'";
  EXPECT_EQ(D, 250.0);
}

} // namespace
