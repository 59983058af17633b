/**
 * @file
 * Stall-detector tests: a grace period held open past the threshold
 * must be detected within 2x the threshold, with a report naming the
 * reader epochs holding it open; a healthy domain must never report.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "fault/fault_injector.h"
#include "rcu/rcu_domain.h"
#include "rcu/stall_detector.h"

namespace prudence {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Latch that records when the first stall report arrives.
struct StallLatch
{
    std::mutex m;
    std::condition_variable cv;
    bool fired = false;
    StallReport report;
    Clock::time_point when;

    void
    arm(StallDetector& detector)
    {
        detector.set_callback([this](const StallReport& r) {
            std::lock_guard<std::mutex> lock(m);
            if (!fired) {
                fired = true;
                report = r;
                when = Clock::now();
                cv.notify_all();
            }
        });
    }

    bool
    wait_until(Clock::time_point deadline)
    {
        std::unique_lock<std::mutex> lock(m);
        return cv.wait_until(lock, deadline, [this] { return fired; });
    }
};

TEST(StallDetector, DetectsReaderHoldingGpOpen)
{
    const auto threshold = 200ms;

    RcuConfig cfg;
    cfg.background_gp_thread = true;
    cfg.gp_interval = std::chrono::microseconds{100};
    RcuDomain domain(cfg);

    // A reader parks inside a read-side critical section; the
    // background detector's advance() cannot complete.
    std::atomic<bool> release{false};
    std::atomic<bool> in_section{false};
    std::thread reader([&] {
        domain.read_lock();
        in_section.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(1ms);
        domain.read_unlock();
    });
    while (!in_section.load(std::memory_order_acquire))
        std::this_thread::sleep_for(1ms);

    StallDetectorConfig scfg;
    scfg.threshold = threshold;
    scfg.log_to_stderr = false;
    StallDetector detector(domain, scfg);
    StallLatch latch;
    latch.arm(detector);

    const auto start = Clock::now();
    // The acceptance bound: detection within 2x the threshold. Wait a
    // little longer so a miss fails the assertion, not the wait.
    ASSERT_TRUE(latch.wait_until(start + 4 * threshold))
        << "no stall detected at all";
    EXPECT_LE(latch.when - start, 2 * threshold)
        << "stall detected too late";

    EXPECT_GE(detector.stalls_detected(), 1u);
    EXPECT_GT(latch.report.target_epoch, 0u);
    EXPECT_GE(latch.report.stalled_for.count(),
              std::chrono::milliseconds(threshold).count());
    // The parked reader's snapshot epoch is below the stalled target.
    ASSERT_FALSE(latch.report.reader_epochs.empty());
    for (GpEpoch e : latch.report.reader_epochs) {
        EXPECT_GT(e, 0u);
        EXPECT_LT(e, latch.report.target_epoch);
    }

    release.store(true, std::memory_order_release);
    reader.join();

    // With the reader gone the grace period completes and last_report
    // stays stable.
    domain.synchronize();
    EXPECT_EQ(detector.last_report().target_epoch,
              latch.report.target_epoch);
}

TEST(StallDetector, QuietOnHealthyDomain)
{
    RcuConfig cfg;
    cfg.background_gp_thread = true;
    cfg.gp_interval = std::chrono::microseconds{100};
    RcuDomain domain(cfg);

    StallDetectorConfig scfg;
    scfg.threshold = 50ms;
    scfg.log_to_stderr = false;
    StallDetector detector(domain, scfg);

    // Plenty of grace periods, all fast.
    auto deadline = Clock::now() + 200ms;
    while (Clock::now() < deadline) {
        domain.read_lock();
        domain.read_unlock();
        domain.synchronize();
    }
    EXPECT_EQ(detector.stalls_detected(), 0u);
    EXPECT_EQ(detector.last_report().target_epoch, 0u);
}

TEST(StallDetector, DetectsInjectedGpDelay)
{
    const auto threshold = 150ms;

    auto& fi = fault::FaultInjector::instance();
    fi.reset(77);
    fault::SitePolicy p;
    p.one_shot = true;
    p.delay_ns = 3ull * 150 * 1000000;  // 3x the threshold
    fi.arm(fault::SiteId::kGpDelay, p);

    RcuConfig cfg;
    cfg.background_gp_thread = true;
    cfg.gp_interval = std::chrono::microseconds{100};
    RcuDomain domain(cfg);

    StallDetectorConfig scfg;
    scfg.threshold = threshold;
    scfg.log_to_stderr = false;
    StallDetector detector(domain, scfg);
    StallLatch latch;
    latch.arm(detector);

    const auto start = Clock::now();
    ASSERT_TRUE(latch.wait_until(start + 4 * threshold))
        << "injected stall not detected";
    EXPECT_LE(latch.when - start, 2 * threshold);
    EXPECT_GE(detector.stalls_detected(), 1u);

    fi.reset(0);
}

}  // namespace
}  // namespace prudence
