/**
 * @file
 * Self-tests of the benchmark's own arithmetic: quartiles (against
 * values Python's statistics.quantiles(data, n=4) prints), nearest-rank
 * and interpolated quantiles, the round cost and slow factor the rates
 * are built on, self time of nested spans, and failure share.
 *
 * Built by perfbench/CMakeLists.txt; run with
 *   python3 perfbench/run.py --selftest
 * Exit status 0 when every check holds.
 */

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "reference.h"
#include "span.h"
#include "stats.h"

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL %s\n", what.c_str());
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

void
testQuartiles()
{
    using perfbench::quartiles;
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
    auto q = quartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
    expectNear(q[0], 2.75, "q1 of 1..10");
    expectNear(q[1], 5.5, "median of 1..10");
    expectNear(q[2], 8.25, "q3 of 1..10");
    // statistics.quantiles([1.5, 2.0, 7.25], n=4) -> [1.5, 2.0, 7.25]
    q = quartiles({2.0, 7.25, 1.5});
    expectNear(q[0], 1.5, "q1 of three");
    expectNear(q[1], 2.0, "median of three");
    expectNear(q[2], 7.25, "q3 of three");
    // statistics.quantiles([3, 1], n=4) -> [0.5, 2.0, 3.5] (extrapolates)
    q = quartiles({3, 1});
    expectNear(q[0], 0.5, "q1 of two");
    expectNear(q[1], 2.0, "median of two");
    expectNear(q[2], 3.5, "q3 of two");
    // statistics.quantiles([0.9, 1.0, 1.1, 1.2, 5.0], n=4)
    //   -> [0.95, 1.1, 3.1]
    q = quartiles({0.9, 1.0, 1.1, 1.2, 5.0});
    expectNear(q[0], 0.95, "q1 with outlier");
    expectNear(q[1], 1.1, "median with outlier");
    expectNear(q[2], 3.1, "q3 with outlier");
    bool threw = false;
    try {
        quartiles({1.0});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "quartiles of one value must throw");
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    expectNear(perfbench::percentile(v, 99.0), 99.0, "p99 of 1..100");
    expectNear(perfbench::percentile(v, 100.0), 100.0, "p100 of 1..100");
    expectNear(perfbench::percentile(v, 50.0), 50.0, "p50 of 1..100");
    expectNear(perfbench::percentile({7.0}, 99.0), 7.0, "p99 of one");
    expectNear(perfbench::percentile({}, 99.0), 0.0, "p99 of none");
}

void
testQuantile()
{
    using perfbench::quantile;
    // numpy.quantile([1, 2, 3, 4, 5], q) with linear interpolation.
    const std::vector<double> v = {5, 3, 1, 4, 2};
    expectNear(quantile(v, 0.0), 1.0, "q0 is the minimum");
    expectNear(quantile(v, 0.1), 1.4, "q0.1 of 1..5");
    expectNear(quantile(v, 0.25), 2.0, "q0.25 of 1..5");
    expectNear(quantile(v, 0.5), 3.0, "q0.5 of 1..5");
    expectNear(quantile(v, 1.0), 5.0, "q1 is the maximum");
    // Never outside the sample, unlike the exclusive quartiles.
    expectNear(quantile({3, 1}, 0.1), 1.2, "q0.1 of two");
    expectNear(quantile({7}, 0.1), 7.0, "quantile of one");
    expectNear(quantile({}, 0.1), 0.0, "quantile of none");
}

void
testRoundCost()
{
    // Position 0 ran 1.0 s in four rounds and 2.0 s (a noisy burst) in
    // one; position 1 ran 0.5 s, 0.6 s, 0.5 s, 3.0 s, 0.5 s. The bursts
    // are left out position by position.
    const std::vector<std::vector<double>> by_position = {
        {1.0, 1.0, 2.0, 1.0, 1.0},
        {0.5, 0.6, 0.5, 3.0, 0.5},
    };
    expectNear(perfbench::roundCostS(by_position), 1.5,
               "round cost skips bursts");
    // Positions need not have been timed equally often.
    expectNear(perfbench::roundCostS({{2.0, 4.0}, {1.0}}),
               2.2 + 1.0, "round cost of uneven positions");
    expectNear(perfbench::roundCostS({}), 0.0, "round cost of nothing");
}

void
testSlowFactor()
{
    using perfbench::kQuietChaseS;
    using perfbench::kQuietComputeS;
    using perfbench::slowFactor;
    expectNear(slowFactor(kQuietChaseS, kQuietComputeS), 1.0,
               "quiet machine");
    expectNear(slowFactor(8.0 * kQuietChaseS, kQuietComputeS), 2.0,
               "chase weighs 1/3");
    expectNear(slowFactor(kQuietChaseS, 8.0 * kQuietComputeS), 4.0,
               "compute weighs 2/3");
    expectNear(slowFactor(2.0 * kQuietChaseS, 2.0 * kQuietComputeS), 2.0,
               "uniformly twice as slow");
}

void
testSelfTime()
{
    using perfbench::SpanRecorder;
    SpanRecorder rec(true);
    const auto root = rec.intern("root");
    const auto child = rec.intern("child");
    const auto leaf = rec.intern("leaf");
    const auto renamed = rec.intern("renamed");

    // root [0,100) > child [10,40) > leaf [15,25); child [50,70);
    // root's other child [80,90) closes renamed.
    rec.beginAt(root, 0);
    rec.beginAt(child, 10);
    rec.beginAt(leaf, 15);
    rec.endAt(25);
    rec.endAt(40);
    rec.beginAt(child, 50);
    rec.endAt(70);
    rec.beginAt(child, 80);
    rec.endAt(90, renamed);
    rec.endAt(100);

    expect(rec.totals(root).calls == 1, "root calls");
    expect(rec.totals(root).busyNs == 100, "root busy");
    expect(rec.totals(root).selfNs == 100 - 30 - 20 - 10, "root self");
    expect(rec.totals(child).calls == 2, "child calls (rename excluded)");
    expect(rec.totals(child).busyNs == 50, "child busy");
    expect(rec.totals(child).selfNs == 50 - 10, "child self");
    expect(rec.totals(leaf).selfNs == 10, "leaf self");
    expect(rec.totals(renamed).calls == 1 && rec.totals(renamed).busyNs == 10,
           "renamed span totals");

    const auto &spans = rec.spans();
    expect(spans.size() == 5, "all spans kept");
    expect(spans[0].parent == -1 && spans[1].parent == 0 &&
               spans[2].parent == 1 && spans[3].parent == 0,
           "parents");
    expect(spans[4].name == renamed, "kept span carries its new name");

    // A disabled recorder records nothing; a capped one keeps totals.
    SpanRecorder off(false);
    const auto x = off.intern("x");
    off.beginAt(x, 0);
    off.endAt(5);
    expect(off.totals(x).calls == 0 && off.spans().empty(),
           "disabled recorder is inert");
    SpanRecorder capped(true, 1);
    const auto y = capped.intern("y");
    capped.beginAt(y, 0);
    capped.beginAt(y, 1);
    capped.endAt(3);
    capped.endAt(10);
    expect(capped.spans().size() == 1 && capped.dropped() == 1,
           "cap drops spans");
    expect(capped.totals(y).calls == 2 && capped.totals(y).busyNs == 12 &&
               capped.totals(y).selfNs == 10,
           "totals stay exact past the cap");

    std::ostringstream os;
    rec.writeChromeTrace(os);
    expect(os.str().find("\"name\":\"renamed\"") != std::string::npos,
           "chrome trace names spans");
}

void
testFailureShare()
{
    expectNear(perfbench::failureShare(0, 0), 0.0, "nothing attempted");
    expectNear(perfbench::failureShare(0, 12), 0.0, "no failures");
    expectNear(perfbench::failureShare(3, 12), 0.25, "quarter failed");
    expectNear(perfbench::failureShare(20, 12), 1.0, "share is capped");
    expectNear(perfbench::ratio(1.0, 0.0), 0.0, "ratio over zero");
}

} // namespace

int
main()
{
    testQuartiles();
    testPercentile();
    testQuantile();
    testRoundCost();
    testSlowFactor();
    testSelfTime();
    testFailureShare();
    if (g_failures != 0) {
        std::printf("%d self-test check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("all self-tests passed\n");
    return 0;
}
