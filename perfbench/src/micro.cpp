/// \file micro.cpp
/// Busy time of each layer's hot call, single thread, no grid: the BusyList
/// reservation at a few hundred live spans, CDR encode/decode of the echo
/// request body, a blocking-queue push/pop, a 1 MiB scatter-gather gather,
/// and the redistribution plan of the gridccm_fanout shape. Each figure is
/// the median of several timed batches.

#include "corba/cdr.hpp"
#include "fabric/busylist.hpp"
#include "gridccm/distribution.hpp"
#include "osal/queue.hpp"
#include "testbed.hpp"

namespace perfbench {

using namespace padico;

namespace {

constexpr int kBatches = 7;

/// Median over batches of (batch wall ns / \p per_batch); \p batch runs
/// one batch and returns a value that keeps the work observable.
template <typename F>
double ns_per_call(std::size_t per_batch, F&& batch) {
    std::vector<double> v;
    std::uint64_t sink = 0;
    for (int b = 0; b < kBatches; ++b) {
        const std::int64_t t0 = wall_ns();
        sink += batch();
        v.push_back(static_cast<double>(wall_ns() - t0) /
                    static_cast<double>(per_batch));
    }
    // Publish the sink so the batches cannot be optimized away.
    static std::atomic<std::uint64_t> keep{0};
    keep.fetch_add(sink, std::memory_order_relaxed);
    return median(std::move(v));
}

} // namespace

void micro_hot_calls(Metrics& m) {
    {
        // Reservations arrive in time order with gaps between them, so
        // spans never coalesce; pruning behind a trailing horizon keeps
        // about kLive spans live, as the fabric's watermark does.
        constexpr std::size_t kCalls = 200000;
        constexpr SimTime kLive = 300;
        m.set("fabric.busylist_reserve_ns",
              ns_per_call(kCalls, [] {
                  fabric::BusyList list;
                  SimTime t = 0;
                  std::uint64_t acc = 0;
                  for (std::size_t i = 0; i < kCalls; ++i) {
                      // Every fourth booking lands in an older gap.
                      const SimTime earliest =
                          (i % 4 == 3) ? t - 40 * 10 : t;
                      acc += static_cast<std::uint64_t>(
                          list.reserve(earliest, 4));
                      t += 10;
                      if (i % 64 == 0) list.prune(t - kLive * 10);
                  }
                  return acc + list.spans();
              }),
              "ns");
    }
    const auto request = [] { return echo_request_body(7, 1, 42); };
    {
        constexpr std::size_t kCalls = 200000;
        m.set("corba.cdr_encode_req_ns", ns_per_call(kCalls, [&] {
                  std::uint64_t acc = 0;
                  for (std::size_t i = 0; i < kCalls; ++i)
                      acc += request().size();
                  return acc;
              }),
              "ns");
        const util::Message body = request();
        m.set("corba.cdr_decode_req_ns", ns_per_call(kCalls, [&] {
                  std::uint64_t acc = 0;
                  for (std::size_t i = 0; i < kCalls; ++i) {
                      corba::cdr::Decoder d(body);
                      acc += d.get_u64();
                      acc += d.get_u64();
                      acc += d.get_bool();
                      acc += d.get_string().size();
                      acc += d.get_bytes_msg(d.remaining()).size();
                  }
                  return acc;
              }),
              "ns");
    }
    {
        constexpr std::size_t kCalls = 500000;
        osal::BlockingQueue<int> q;
        m.set("osal.queue_pushpop_ns", ns_per_call(kCalls, [&] {
                  std::uint64_t acc = 0;
                  for (std::size_t i = 0; i < kCalls; ++i) {
                      q.push(static_cast<int>(i));
                      acc += static_cast<std::uint64_t>(*q.try_pop());
                  }
                  return acc;
              }),
              "ns");
    }
    {
        // A 1 MiB message of 16 segments, as a chunked stream delivers it.
        util::Message msg;
        for (int i = 0; i < 16; ++i)
            msg.append(util::Segment(util::make_buf(util::ByteBuf(64u << 10))));
        constexpr std::size_t kCalls = 200;
        const double ns = ns_per_call(kCalls, [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < kCalls; ++i)
                acc += msg.gather().size();
            return acc;
        });
        m.set("util.message_gather_us_per_mb",
              ns * 1e-3 / (static_cast<double>(msg.size()) / 1e6), "us/MB");
    }
    {
        // The gridccm_fanout shape: block-cyclic(4096) over 2 -> block over 2.
        constexpr std::size_t kCalls = 2000;
        m.set("gridccm.plan_compute_us",
              ns_per_call(kCalls, [] {
                  std::uint64_t acc = 0;
                  for (std::size_t i = 0; i < kCalls; ++i)
                      acc += gridccm::compute_plan(
                                 gridccm::Distribution::block_cyclic(4096), 2,
                                 gridccm::Distribution::block(), 2, 64 * 1024)
                                 .fragments.size();
                  return acc;
              }) * 1e-3,
              "us");
    }
}

} // namespace perfbench
