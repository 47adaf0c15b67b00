#include "testbed.hpp"

#include <exception>

namespace perfbench {

Counts counts_of(padico::ptm::Runtime& rt, const padico::corba::Orb* orb) {
    const padico::ptm::TrafficCounters st = rt.stats();
    Counts c;
    for (const auto& [name, seg] : st.by_segment) {
        c.msgs += seg.messages;
        c.bytes += seg.bytes;
    }
    c.route_hits = st.route_cache.hits;
    c.route_misses = st.route_cache.misses;
    c.demux_dropped = rt.engine().demux().dropped_pending();
    for (const auto& [name, f] : st.fabric_by_segment) {
        c.tx_packets += f.tx_packets;
        c.tx_span_high_water =
            std::max(c.tx_span_high_water, f.tx_span_high_water);
        c.pruned_spans += f.tx_pruned_spans + f.rx_pruned_spans;
        c.fast_hits += f.route_fast_hits;
        c.fast_misses += f.route_fast_misses;
    }
    if (orb != nullptr) {
        const auto s = orb->server_stats();
        c.frames = s.frames;
        c.ready_queue_high_water = s.ready_queue_high_water;
        c.peak_threads = s.peak_threads;
    }
    return c;
}

void guarded(Ctx& ctx, const char* who, const std::function<void()>& body,
             const std::function<void()>& always) {
    try {
        body();
    } catch (const std::exception& e) {
        ctx.tally.attempt();
        ctx.tally.fail(std::string(who) + ": " + e.what());
    }
    if (always) always();
}

} // namespace perfbench
