// Self-tests of the benchmark's own plumbing: the percentile naming rule
// and the quartiles, the output digest, and the seeded arrival schedule.
// Built and run by run.py --self-test (or ctest in the build directory).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "arrivals.hpp"
#include "digest.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b)); }

void test_percentile_rule() {
  using perfbench::highest_nameable_percentile;
  using perfbench::percentile_nameable;
  expect(!percentile_nameable(19, 50), "19 samples cannot name p50");
  expect(percentile_nameable(20, 50), "20 samples name p50");
  expect(!percentile_nameable(99, 90), "99 samples cannot name p90");
  expect(percentile_nameable(100, 90), "100 samples name p90");
  expect(!percentile_nameable(199, 95), "199 samples cannot name p95");
  expect(percentile_nameable(200, 95), "200 samples name p95");
  expect(highest_nameable_percentile(10) == 0.0, "10 samples name nothing");
  expect(highest_nameable_percentile(39) == 50.0, "39 samples: p50");
  expect(highest_nameable_percentile(40) == 75.0, "40 samples: p75");
  expect(highest_nameable_percentile(120) == 90.0, "120 samples: p90");
  expect(highest_nameable_percentile(1000) == 99.0, "1000 samples: p99");
  expect(highest_nameable_percentile(10000) == 99.9, "10000 samples: p99.9");
}

void test_quartiles() {
  // Reference values from Python: statistics.quantiles(data, n=4).
  const std::vector<double> ten = {5, 1, 9, 3, 7, 2, 8, 4, 10, 6};
  expect(near(perfbench::percentile(ten, 25.0), 2.75) &&
             near(perfbench::percentile(ten, 50.0), 5.5) &&
             near(perfbench::percentile(ten, 75.0), 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  const std::vector<double> five = {0.5, 0.1, 0.4, 0.2, 0.3};
  expect(near(perfbench::percentile(five, 25.0), 0.15) &&
             near(perfbench::percentile(five, 50.0), 0.3) &&
             near(perfbench::percentile(five, 75.0), 0.45),
         "quartiles of 0.1..0.5 are 0.15, 0.3, 0.45");
  expect(near(perfbench::median(ten), 5.5), "median of 1..10 is 5.5");
  expect(near(perfbench::percentile(ten, 99.0), 10.0),
         "percentile(99) of ten samples clamps to the maximum");
  expect(near(perfbench::percentile({4.0}, 90.0), 4.0),
         "a single sample is every percentile");
  expect(perfbench::percentile({}, 50.0) == 0.0, "empty sample percentile is 0");
}

void test_digest() {
  using perfbench::Digest;
  // FNV-1a 64 reference vectors.
  expect(Digest().value() == 0xcbf29ce484222325ull, "empty digest is the basis");
  expect(Digest().add_bytes("a", 1).value() == 0xaf63dc4c8601ec8cull,
         "FNV-1a 64 of \"a\"");
  expect(Digest().add_bytes("foobar", 6).value() == 0x85944171f73967e8ull,
         "FNV-1a 64 of \"foobar\"");
  expect(Digest().add(1.0).value() == Digest().add(1.0).value(),
         "equal doubles digest equally");
  expect(Digest().add(0.0).value() != Digest().add(-0.0).value(),
         "digest sees the sign of zero");
  expect(Digest().add(std::uint64_t{1}).value() !=
             Digest().add(std::uint64_t{2}).value(),
         "different integers differ");
  expect(Digest().add("ab").add("c").value() != Digest().add("a").add("bc").value(),
         "strings are length-prefixed");
  expect(Digest().add_bytes("a", 1).hex() == "af63dc4c8601ec8c",
         "hex is sixteen lowercase digits");
}

void test_arrivals() {
  using perfbench::poisson_schedule;
  const auto a = poisson_schedule(42, 500, 60.0);
  const auto b = poisson_schedule(42, 500, 60.0);
  const auto c = poisson_schedule(43, 500, 60.0);
  expect(a == b, "equal seeds give identical schedules");
  expect(a != c, "different seeds give different schedules");
  expect(a.size() == 500, "schedule has the requested length");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] >= a[i - 1];
  expect(sorted && a.front() >= 0.0 && a.back() < 60.0,
         "schedule is non-decreasing inside the window");
  std::size_t first_half = 0;
  for (const double t : a) first_half += t < 30.0 ? 1 : 0;
  expect(first_half > 200 && first_half < 300,
         "arrivals spread evenly over the window");

  perfbench::InputRng x(7), y(7);
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && x.next() == y.next();
  expect(same, "InputRng is deterministic in its seed");
  perfbench::InputRng z(9);
  bool in_range = true;
  for (int i = 0; i < 1000; ++i) in_range = in_range && z.index(3) < 3;
  expect(in_range, "InputRng::index stays in range");
  expect(perfbench::derive_seed(1, 2, 3) == perfbench::derive_seed(1, 2, 3) &&
             perfbench::derive_seed(1, 2, 3) != perfbench::derive_seed(1, 2, 4) &&
             perfbench::derive_seed(1, 2, 3) != perfbench::derive_seed(1, 3, 3),
         "derive_seed separates streams and indices");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_quartiles();
  test_digest();
  test_arrivals();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
