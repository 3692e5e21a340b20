// Selftest of the benchmark's own helpers (src/stats.h): percentile
// selection with its sample count, span self time, and the backlog test of
// an open-loop serve step. Exits nonzero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "stats.h"

namespace {

int g_failed = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
    ++g_failed;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  using perfbench::median;
  CHECK(std::isnan(median({})));
  CHECK(near(median({3.0}), 3.0));
  CHECK(near(median({4.0, 1.0}), 2.5));
  CHECK(near(median({5.0, 1.0, 3.0}), 3.0));
  CHECK(near(median(one_to(10)), 5.5));
}

void test_tail() {
  using perfbench::tail;
  // Enough samples: the cap percentile by nearest rank, with ten beyond.
  perfbench::Tail t = tail(one_to(2000));
  CHECK(t.n == 2000);
  CHECK(near(t.value, 1980.0));
  CHECK(near(t.q, 0.99));
  // 1000 samples: rank 990 leaves exactly ten beyond.
  t = tail(one_to(1000));
  CHECK(near(t.value, 990.0));
  CHECK(near(t.q, 0.99));
  // 500 samples: p99 would leave five beyond; pulled down to rank 490.
  t = tail(one_to(500));
  CHECK(near(t.value, 490.0));
  CHECK(near(t.q, 0.98));
  // 20 samples: rank 10 is the lowest still at or above the median rank.
  t = tail(one_to(20));
  CHECK(near(t.value, 10.0));
  CHECK(near(t.q, 0.5));
  // Fewer than 20: no informative percentile; the maximum with q = 1.
  t = tail(one_to(19));
  CHECK(near(t.value, 19.0));
  CHECK(near(t.q, 1.0));
  t = tail(one_to(3));
  CHECK(near(t.value, 3.0));
  CHECK(t.n == 3);
  t = tail({});
  CHECK(t.n == 0);
  CHECK(std::isnan(t.value));
  // A lower cap is honoured when it has ten beyond it.
  t = tail(one_to(100), 0.5);
  CHECK(near(t.value, 50.0));
}

void test_self_times() {
  using perfbench::Span;
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping: covered 5)
  // and a grandchild [2, 3] under the first child.
  std::vector<Span> s = {
      {"eig.root", -1, 0.0, 10.0},
      {"sbr.a", 0, 1.0, 4.0},
      {"bc.b", 0, 3.0, 6.0},
      {"la.c", 1, 2.0, 3.0},
  };
  std::vector<double> self = perfbench::self_times(s);
  CHECK(self.size() == 4);
  CHECK(near(self[0], 5.0));
  CHECK(near(self[1], 2.0));
  CHECK(near(self[2], 3.0));
  CHECK(near(self[3], 1.0));
  // A child reaching outside its parent is clipped to the parent.
  s = {{"p", -1, 0.0, 2.0}, {"c", 0, 1.0, 5.0}};
  self = perfbench::self_times(s);
  CHECK(near(self[0], 1.0));
  CHECK(near(self[1], 4.0));
  // Disjoint children are summed; a childless span keeps its duration.
  s = {{"p", -1, 0.0, 10.0}, {"c", 0, 1.0, 2.0}, {"d", 0, 5.0, 7.0}};
  self = perfbench::self_times(s);
  CHECK(near(self[0], 7.0));
  CHECK(near(self[2], 2.0));
}

void test_backlog() {
  using perfbench::backlog_growing;
  const double rate = 100.0;
  std::vector<std::pair<double, double>> flat;
  std::vector<std::pair<double, double>> grow;
  std::vector<std::pair<double, double>> saw;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 1e-3;
    flat.emplace_back(t, 8.0);
    grow.emplace_back(t, 0.2 * rate * t);  // backlog grows at 20% of rate
    saw.emplace_back(t, (i % 50) < 25 ? 2.0 : 12.0);  // batches drain it
  }
  CHECK(!backlog_growing(flat, rate));
  CHECK(backlog_growing(grow, rate));
  CHECK(!backlog_growing(saw, rate));
  // A fill-up transient in the first 20% of the step is ignored.
  std::vector<std::pair<double, double>> fill;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 1e-3;
    fill.emplace_back(t, t < 0.15 ? 100.0 * t : 15.0);
  }
  CHECK(!backlog_growing(fill, rate));
  CHECK(!backlog_growing({}, rate));
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_self_times();
  test_backlog();
  if (g_failed == 0) std::printf("selftest: all checks passed\n");
  return g_failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
