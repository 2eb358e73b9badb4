// Tests for psn::trace: contacts, traces, I/O, descriptive statistics.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "psn/trace/contact.hpp"
#include "psn/trace/contact_trace.hpp"
#include "psn/trace/trace_io.hpp"
#include "psn/trace/trace_stats.hpp"

namespace psn::trace {
namespace {

TEST(ContactTest, MakeNormalizesEndpoints) {
  const auto c = Contact::make(5, 2, 10.0, 20.0);
  EXPECT_EQ(c.a, 2u);
  EXPECT_EQ(c.b, 5u);
  EXPECT_DOUBLE_EQ(c.duration(), 10.0);
}

TEST(ContactTest, RejectsSelfContact) {
  EXPECT_THROW((void)Contact::make(3, 3, 0.0, 1.0), std::invalid_argument);
}

TEST(ContactTest, RejectsReversedInterval) {
  EXPECT_THROW((void)Contact::make(1, 2, 5.0, 4.0), std::invalid_argument);
}

TEST(ContactTest, RejectsNaNTimes) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)Contact::make(0, 1, kNaN, kNaN), std::invalid_argument);
  EXPECT_THROW((void)Contact::make(0, 1, 5.0, kNaN), std::invalid_argument);
  EXPECT_THROW((void)Contact::make(0, 1, kNaN, 8.0), std::invalid_argument);
}

TEST(ContactTest, OverlapSemantics) {
  const auto c = Contact::make(0, 1, 10.0, 20.0);
  EXPECT_TRUE(c.overlaps(15.0, 16.0));
  EXPECT_TRUE(c.overlaps(5.0, 11.0));
  EXPECT_TRUE(c.overlaps(19.0, 30.0));
  EXPECT_FALSE(c.overlaps(20.0, 30.0));  // half-open: end not included.
  EXPECT_FALSE(c.overlaps(0.0, 10.0));   // start-of-window exclusive end.
}

TEST(ContactTest, PeerAndInvolves) {
  const auto c = Contact::make(3, 7, 0.0, 1.0);
  EXPECT_TRUE(c.involves(3));
  EXPECT_TRUE(c.involves(7));
  EXPECT_FALSE(c.involves(5));
  EXPECT_EQ(c.peer(3), 7u);
  EXPECT_EQ(c.peer(7), 3u);
}

TEST(ContactTrace, SortsContacts) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 50.0, 60.0),
      Contact::make(1, 2, 10.0, 20.0),
      Contact::make(0, 2, 30.0, 40.0),
  };
  const ContactTrace trace(cs, 3, 100.0);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[0].start, 10.0);
  EXPECT_DOUBLE_EQ(trace[1].start, 30.0);
  EXPECT_DOUBLE_EQ(trace[2].start, 50.0);
}

TEST(ContactTrace, NormalizesHandBuiltEndpoints) {
  // Contact::make normalizes; an aggregate-built contact may not, and the
  // trace restores a < b, which the space-time graph's build relies on.
  const ContactTrace trace({Contact{5, 2, 10.0, 20.0}}, 6, 100.0);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].a, 2u);
  EXPECT_EQ(trace[0].b, 5u);
}

TEST(ContactTrace, ClipsToWindow) {
  std::vector<Contact> cs{
      Contact::make(0, 1, -5.0, 5.0),    // clipped at 0
      Contact::make(0, 1, 95.0, 150.0),  // clipped at t_max
      Contact::make(1, 2, 200.0, 300.0), // dropped entirely
  };
  const ContactTrace trace(cs, 3, 100.0);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace[0].start, 0.0);
  EXPECT_DOUBLE_EQ(trace[1].end, 100.0);
}

TEST(ContactTrace, RejectsOutOfRangeNode) {
  std::vector<Contact> cs{Contact::make(0, 5, 0.0, 1.0)};
  EXPECT_THROW(ContactTrace(cs, 3, 100.0), std::invalid_argument);
}

TEST(ContactTrace, RejectsBadTimesAndNonFiniteWindows) {
  // A NaN time passes the window clip and a NaN t_max passes a plain
  // `t_max <= 0` check; either would put contacts in arbitrary graph
  // steps (a NaN window once merged contacts at 5-8 s and 500-800 s).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Aggregate-built contacts skip Contact::make's check; a reversed one
  // once counted a negative duration.
  EXPECT_THROW(ContactTrace({Contact{0, 1, kNaN, kNaN}}, 2, 60.0),
               std::invalid_argument);
  EXPECT_THROW(ContactTrace({Contact{0, 1, 5.0, kNaN}}, 2, 60.0),
               std::invalid_argument);
  EXPECT_THROW(ContactTrace({Contact{0, 1, 50.0, 10.0}}, 2, 60.0),
               std::invalid_argument);
  const std::vector<Contact> cs{Contact::make(0, 1, 5.0, 8.0),
                                Contact::make(0, 1, 500.0, 800.0)};
  for (const double t_max : {kNaN, kInf, -kInf, 0.0, -1.0})
    EXPECT_THROW(ContactTrace(cs, 2, t_max), std::invalid_argument) << t_max;
}

TEST(ContactTrace, ContactCountsBothEndpoints) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 1.0),
      Contact::make(0, 2, 2.0, 3.0),
  };
  const ContactTrace trace(cs, 4, 10.0);
  const auto counts = trace.contact_counts();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(ContactTrace, RatesArePerSecond) {
  std::vector<Contact> cs{Contact::make(0, 1, 0.0, 1.0)};
  const ContactTrace trace(cs, 2, 100.0);
  const auto rates = trace.contact_rates();
  EXPECT_DOUBLE_EQ(rates[0], 0.01);
  EXPECT_DOUBLE_EQ(rates[1], 0.01);
}

TEST(ContactTrace, WindowShiftsTimes) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 10.0, 20.0),
      Contact::make(1, 2, 40.0, 55.0),
  };
  const ContactTrace trace(cs, 3, 100.0);
  const auto cut = trace.window(30.0, 60.0);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_DOUBLE_EQ(cut[0].start, 10.0);  // 40 - 30
  EXPECT_DOUBLE_EQ(cut[0].end, 25.0);    // 55 - 30
  EXPECT_DOUBLE_EQ(cut.t_max(), 30.0);
}

TEST(ContactTrace, TotalContactTime) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 10.0),
      Contact::make(1, 2, 20.0, 25.0),
  };
  const ContactTrace trace(cs, 3, 100.0);
  EXPECT_DOUBLE_EQ(trace.total_contact_time(), 15.0);
}

TEST(TraceIo, RoundTrip) {
  // Times that need more than the stream default's 6 significant digits
  // must come back bit-identical, as must t_max.
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.5, 10.25),
      Contact::make(1, 2, 20.0, 25.0),
      Contact::make(2, 3, 1234.5678, 10799.75),
      Contact::make(3, 4, 0.1, 1.0 / 3.0),
  };
  const ContactTrace trace(cs, 5, 10800.125);
  std::stringstream ss;
  write_trace(ss, trace);
  const auto back = read_trace(ss);
  EXPECT_EQ(back.num_nodes(), 5u);
  EXPECT_EQ(back.t_max(), trace.t_max());
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) EXPECT_EQ(back[i], trace[i]);
}

TEST(TraceIo, WholeSecondsPrintWithoutFraction) {
  const ContactTrace trace({Contact::make(0, 1, 20.0, 25.0)}, 2, 100.0);
  std::stringstream ss;
  write_trace(ss, trace);
  EXPECT_EQ(ss.str(), "# psn-trace v1\n# nodes 2\n# tmax 100\n0 1 20 25\n");
}

TEST(TraceIo, MissingHeaderFails) {
  std::stringstream ss("0 1 0.0 1.0\n");
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, MalformedLineFails) {
  std::stringstream ss("# nodes 3\n# tmax 10\n0 zebra 0.0 1.0\n");
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, NodeIdBeyondNodeIdRangeFails) {
  // 2^32 must not wrap to node 0 and pass as contact 0-1.
  std::stringstream ss("# nodes 2\n# tmax 10\n4294967296 1 0 10\n");
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, SelfContactFails) {
  std::stringstream ss("# nodes 3\n# tmax 10\n1 1 0.0 1.0\n");
  EXPECT_THROW((void)read_trace(ss), std::runtime_error);
}

TEST(TraceIo, CommentsIgnored) {
  std::stringstream ss(
      "# psn-trace v1\n# nodes 3\n# tmax 10\n# a comment\n\n0 1 0 1\n");
  const auto trace = read_trace(ss);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceStats, MedianSplitHalvesPopulation) {
  // Node 0 contacts everyone often; node 3 rarely.
  std::vector<Contact> cs;
  for (int i = 0; i < 9; ++i)
    cs.push_back(Contact::make(0, 1, i * 10.0, i * 10.0 + 1.0));
  for (int i = 0; i < 5; ++i)
    cs.push_back(Contact::make(2, 3, i * 10.0 + 2.0, i * 10.0 + 3.0));
  const ContactTrace trace(cs, 4, 100.0);
  const auto rc = classify_rates(trace);
  EXPECT_TRUE(rc.is_in(0));
  EXPECT_TRUE(rc.is_in(1));
  EXPECT_FALSE(rc.is_in(2));
  EXPECT_FALSE(rc.is_in(3));
}

TEST(TraceStats, ContactsPerBin) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 5.0, 6.0),
      Contact::make(0, 1, 65.0, 66.0),
      Contact::make(1, 2, 70.0, 71.0),
  };
  const ContactTrace trace(cs, 3, 120.0);
  const auto hist = contacts_per_bin(trace, 60.0);
  ASSERT_EQ(hist.bin_count(), 2u);
  EXPECT_DOUBLE_EQ(hist.count(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.count(1), 2.0);
}

TEST(TraceStats, ContactCountCdf) {
  std::vector<Contact> cs{Contact::make(0, 1, 0.0, 1.0)};
  const ContactTrace trace(cs, 3, 10.0);
  const auto cdf = contact_count_cdf(trace);
  EXPECT_DOUBLE_EQ(cdf.at(0.0), 1.0 / 3.0);  // node 2 has zero contacts.
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 1.0);
}

TEST(TraceStats, InterContactTimes) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 10.0),
      Contact::make(0, 1, 30.0, 35.0),
      Contact::make(0, 1, 100.0, 110.0),
  };
  const ContactTrace trace(cs, 2, 200.0);
  const auto gaps = all_inter_contact_times(trace);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 20.0);
  EXPECT_DOUBLE_EQ(gaps[1], 65.0);
}

TEST(TraceStats, OverlappingContactsYieldNoGap) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 10.0),
      Contact::make(0, 1, 5.0, 20.0),
  };
  const ContactTrace trace(cs, 2, 100.0);
  EXPECT_TRUE(all_inter_contact_times(trace).empty());
}

TEST(TraceStats, AllInterContactTimesAggregates) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 1.0),
      Contact::make(0, 1, 11.0, 12.0),
      Contact::make(2, 3, 0.0, 1.0),
      Contact::make(2, 3, 21.0, 22.0),
  };
  const ContactTrace trace(cs, 4, 100.0);
  const auto gaps = all_inter_contact_times(trace);
  ASSERT_EQ(gaps.size(), 2u);
}

TEST(TraceStats, MeanIntercontactMatrix) {
  std::vector<Contact> cs{
      Contact::make(0, 1, 0.0, 1.0),
      Contact::make(0, 1, 11.0, 12.0),
      Contact::make(0, 1, 31.0, 32.0),
      Contact::make(1, 2, 5.0, 6.0),
  };
  const ContactTrace trace(cs, 3, 100.0);
  const auto m = mean_intercontact_matrix(trace);
  // Pair (0,1): gaps 10 and 19 -> mean 14.5.
  EXPECT_DOUBLE_EQ(m[0 * 3 + 1], 14.5);
  EXPECT_DOUBLE_EQ(m[1 * 3 + 0], 14.5);
  // Pair (1,2): met once -> optimistic stand-in t_max.
  EXPECT_DOUBLE_EQ(m[1 * 3 + 2], 100.0);
  // Pair (0,2): never met -> infinity.
  EXPECT_TRUE(std::isinf(m[0 * 3 + 2]));
}

}  // namespace
}  // namespace psn::trace
