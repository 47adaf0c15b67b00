/// \file main.cpp
/// perfbench: the wall-clock cost of simulating the paper's three paths.
///
///   perfbench --workload rpc_small|stream_share|gridccm_fanout
///             --seed N --seconds S --trace 0|1 [--trace-out FILE]
///
/// --trace 0 measures the end-to-end metrics over several set-up/measure/
/// tear-down sessions. --trace 1 records spans and prints the per-layer
/// metrics: the layer ladders, each layer's hot-call busy time, counters
/// from the program's public stats, set-up spans, and the tracing
/// overhead. The last stdout line is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

/// Set-up/measure/tear-down cycles of an untraced run.
constexpr int kSessions = 16;
/// setup_s is this quantile of the sessions' set-ups (see e2e_metrics).
constexpr double kSetupQuantile = 0.1;
constexpr double kWarmupS = 2.0;
/// Spans kept per traced phase (workload, then ladders): about 8 MB of
/// trace-event JSON each.
constexpr std::size_t kSpanBudget = 50000;

struct Workload {
    const char* name;
    WorkloadFn run;
};
constexpr Workload kWorkloads[] = {
    {"rpc_small", run_rpc_small},
    {"stream_share", run_stream_share},
    {"gridccm_fanout", run_gridccm_fanout},
};

int usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload rpc_small|stream_share|"
                 "gridccm_fanout --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n";
    return 2;
}

/// Runs sessions of \p each seconds until at least \p count ran and their
/// timed windows add up to count * each. Sessions that stop early (the
/// gridccm_fanout invocation cap) are made up by more sessions, so every
/// workload measures for the same time.
void measure(const Workload& wl, Ctx& ctx, int count, double each,
             Result& r) {
    const double want = 0.98 * count * each;
    const std::int64_t give_up =
        wall_ns() + static_cast<std::int64_t>(3 * count * each * 1e9);
    double timed = 0;
    while (static_cast<int>(r.sessions().size()) < count ||
           (timed < want && wall_ns() < give_up)) {
        wl.run(ctx, each, r);
        timed += r.sessions().back().wall_s;
    }
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/// Every session's set-up time, seconds.
std::vector<double> setup_samples(const Result& r) {
    std::vector<double> v;
    for (const Session& s : r.sessions()) v.push_back(s.setup_s);
    return v;
}

/// End-to-end metrics of a workload result. Each timing figure is the
/// run's best session: the lowest median latency, the least CPU per
/// operation, the fastest rate. Interference from outside the benchmark
/// (CPU the hypervisor steals, in bursts of seconds) only ever makes a
/// session slower, so the best session is the steadiest estimate of what
/// the simulator itself costs. For the same reason setup_s is a low
/// quantile of the sessions' set-ups, not the lowest: a set-up is under a
/// millisecond, so one lucky outlier must not decide it.
///
/// \p gated gets the metrics steady enough to gate a change on. \p shown
/// gets the rest: throughput and p99 are means and tails, which a steal
/// burst moves even in a run's best session (see perfbench/LAYERS.md).
void e2e_metrics(Result& r, Metrics& gated, Metrics& shown) {
    std::vector<double> setup = setup_samples(r);
    std::vector<double> rate, p50, p99, mb, cpu;
    for (Session s : r.sessions()) {
        const double ops = static_cast<double>(s.ops);
        rate.push_back(s.wall_s > 0 ? ops / s.wall_s : 0);
        p50.push_back(quantile(s.op_wall_us, 0.50));
        p99.push_back(quantile(s.op_wall_us, 0.99));
        mb.push_back(s.wall_s > 0 ? s.payload_bytes / 1e6 / s.wall_s : 0);
        cpu.push_back(ops > 0 ? s.cpu_s * 1e6 / ops : 0);
    }
    gated.set("setup_s", quantile(setup, kSetupQuantile), "s");
    gated.set("op_wall_us_p50", quantile(p50, 0), "us");
    gated.set("cpu_us_per_op", quantile(cpu, 0), "us");
    gated.set("peak_rss_mb", peak_rss_mb(), "MB");
    shown.set("e2e.ops_per_s", quantile(rate, 1), "1/s");
    shown.set("e2e.sim_mb_per_s", quantile(mb, 1), "MB/s");
    shown.set("e2e.op_wall_us_p99", quantile(p99, 0), "us");
}

void count_metrics(const Result& r, Metrics& m) {
    const Counts& c = r.counts();
    const std::uint64_t ops = r.ops();
    m.set("ops.traced", static_cast<double>(ops), "count");
    m.set("padicotm.msgs_per_op", ratio(c.msgs, ops), "count");
    m.set("padicotm.bytes_per_op", ratio(c.bytes, ops), "B");
    m.set("padicotm.route_lookups",
          static_cast<double>(c.route_hits + c.route_misses), "count");
    m.set("padicotm.route_cache_hit_ratio",
          ratio(c.route_hits, c.route_hits + c.route_misses), "ratio");
    m.set("padicotm.demux_dropped", static_cast<double>(c.demux_dropped),
          "count");
    m.set("fabric.tx_packets_per_op", ratio(c.tx_packets, ops), "count");
    m.set("fabric.tx_span_high_water",
          static_cast<double>(c.tx_span_high_water), "count");
    m.set("fabric.pruned_spans_per_msg", ratio(c.pruned_spans, c.tx_packets),
          "count");
    m.set("fabric.route_lookups",
          static_cast<double>(c.fast_hits + c.fast_misses), "count");
    m.set("fabric.route_fast_hit_ratio",
          ratio(c.fast_hits, c.fast_hits + c.fast_misses), "ratio");
    m.set("svc.frames_per_op", ratio(c.frames, ops), "count");
    m.set("svc.ready_queue_high_water",
          static_cast<double>(c.ready_queue_high_water), "count");
    m.set("svc.peak_threads", static_cast<double>(c.peak_threads), "count");
}

void print_ladder(const Metrics& m) {
    std::printf("rpc_small ladder (4 B echo, same GIOP bytes per rung):\n");
    std::printf("  %-18s %12s %12s %14s %14s\n", "rung", "wall p50 us",
                "virt us", "self wall us", "self virt us");
    const char* rows[][2] = {
        {"fabric.rtt", "fabric.rtt_self"},
        {"madeleine.rtt", "madeleine.rtt_self"},
        {"padicotm.rtt", "padicotm.rtt_self"},
        {"corba.giop_rtt", "svc_corba.rtt_self"},
        {"corba.invoke_rtt", "corba_stub.rtt_self"},
        {"mpi.rtt", "mpi.rtt_self"},
    };
    for (const auto& r : rows) {
        const std::string rung = r[0], self = r[1];
        std::printf("  %-18s %12.3f %12.3f %14.3f %14.3f\n", rung.c_str(),
                    m.get(rung + "_wall_us"), m.get(rung + "_virt_us"),
                    m.get(self + "_wall_us"), m.get(self + "_virt_us"));
    }
    std::printf("  self-time sum: wall %.3f us, virtual %.3f us "
                "(pinned RTT %.3f us)\n",
                m.get("ladder.rpc_self_wall_sum_us"),
                m.get("ladder.rpc_self_virt_sum_us"),
                padico::to_usec(pins::kRpcRtt));
}

void print_json(const Ctx& ctx, const Metrics& m) {
    const bool correct = ctx.tally.failed() == 0 && ctx.tally.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(ctx.tally.attempted()),
                static_cast<unsigned long long>(ctx.tally.failed()));
    bool first = true;
    for (const Metric& x : m.all()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", x.name.c_str(),
                    std::isfinite(x.value) ? x.value : 0.0, x.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int main(int argc, char** argv) {
    Ctx ctx;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                ctx.opt.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                ctx.opt.seed = std::stoull(v);
                have_seed = true;
            } else if (a == "--seconds") {
                ctx.opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                ctx.opt.trace = v == "1";
            } else if (a == "--trace-out") {
                ctx.opt.trace_path = v;
            } else if (a == "--pin-skew-ns") {
                ctx.opt.pin_skew_ns = std::stoll(v);
            } else {
                return usage(("unknown option " + a).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + a).c_str());
        }
    }
    const Workload* wl = nullptr;
    for (const Workload& w : kWorkloads)
        if (have_workload && ctx.opt.workload == w.name) wl = &w;
    if (wl == nullptr) return usage("unknown or missing --workload");
    if (!have_seed) return usage("missing --seed");
    if (!(ctx.opt.seconds > 0)) return usage("--seconds must be positive");

    // An unmeasured warm-up session first: the host's scheduling of the
    // simulator's thread hand-offs settles after a second or two of load.
    {
        Result warm;
        wl->run(ctx, std::min(kWarmupS, 0.2 * ctx.opt.seconds), warm);
    }
    const double each = ctx.opt.seconds / kSessions;
    Metrics m;
    if (!ctx.opt.trace) {
        Result r;
        measure(*wl, ctx, kSessions, each, r);
        Metrics shown;
        e2e_metrics(r, m, shown);
        std::vector<double> rates;
        std::size_t samples = 0, fewest = SIZE_MAX;
        for (const Session& s : r.sessions()) {
            samples += s.op_wall_us.size();
            fewest = std::min(fewest, s.op_wall_us.size());
            rates.push_back(static_cast<double>(s.ops) / s.wall_s);
        }
        std::printf("%s: %llu timed ops; %zu op latency samples over %zu "
                    "sessions (fewest in one session: %zu); timings are the "
                    "best session's\n",
                    wl->name, static_cast<unsigned long long>(r.ops()),
                    samples, r.sessions().size(), fewest);
        std::vector<double> setup = setup_samples(r);
        std::printf("setup_s over %zu set-ups: min %.6g, p10 %.6g, median "
                    "%.6g, max %.6g\n",
                    setup.size(), quantile(setup, 0), quantile(setup, 0.1),
                    quantile(setup, 0.5), quantile(setup, 1));
        std::printf("per-session ops/s: min %.6g, quartiles %.6g / %.6g / "
                    "%.6g, max %.6g\n",
                    quantile(rates, 0), quantile(rates, 0.25),
                    quantile(rates, 0.5), quantile(rates, 0.75),
                    quantile(rates, 1));
        for (const Metric& x : shown.all())
            std::printf("%s (best session, not gated): %.6g %s\n",
                        x.name.c_str(), x.value, x.unit.c_str());
        print_json(ctx, m);
        return 0;
    }

    // Traced run: a quarter of the untraced run's sessions untraced, then as
    // many traced (their difference is the tracing overhead), then the
    // ladders and hot-call timings.
    ThreadSampler threads;
    Result plain, traced;
    measure(*wl, ctx, kSessions / 4, each, plain);
    Tracer::get().start(kSpanBudget);
    measure(*wl, ctx, kSessions / 4, each, traced);
    Metrics e_plain, e_traced, shown;
    e2e_metrics(plain, e_plain, m);
    e2e_metrics(traced, e_traced, shown);
    m.set("trace.op_wall_us_p50", e_traced.get("op_wall_us_p50"), "us");
    m.set("trace.overhead_op_wall_us_p50",
          e_traced.get("op_wall_us_p50") - e_plain.get("op_wall_us_p50"),
          "us");
    m.set("trace.overhead_cpu_us_per_op",
          e_traced.get("cpu_us_per_op") - e_plain.get("cpu_us_per_op"), "us");
    m.set("trace.op_self_us", Tracer::get().median_self_us("op"), "us");
    count_metrics(traced, m);

    Tracer::get().start(kSpanBudget);
    ladder_rpc(ctx, m);
    ladder_stream(ctx, m);
    ladder_gridccm(ctx, m);
    Tracer::get().stop();
    micro_hot_calls(m);

    const Tracer& t = Tracer::get();
    m.set("fabric.grid_build_us", t.median_dur_us("fabric.grid_build"), "us");
    m.set("padicotm.runtime_init_us", t.median_dur_us("padicotm.runtime_init"),
          "us");
    m.set("corba.resolve_us", t.median_dur_us("corba.resolve"), "us");
    m.set("mpi.world_create_us", t.median_dur_us("mpi.world_create"), "us");
    m.set("ccm.deploy_ms", t.median_dur_us("ccm.deploy") * 1e-3, "ms");
    m.set("osal.threads_peak", threads.peak(), "count");
    m.set("trace.spans", static_cast<double>(t.snapshot().size()), "count");

    print_ladder(m);
    if (!ctx.opt.trace_path.empty()) {
        if (t.write_chrome_json(ctx.opt.trace_path))
            std::printf("trace: %s (%llu spans past the in-memory budget "
                        "were not recorded)\n",
                        ctx.opt.trace_path.c_str(),
                        static_cast<unsigned long long>(t.dropped()));
        else
            std::cerr << "perfbench: cannot write " << ctx.opt.trace_path
                      << "\n";
    }
    print_json(ctx, m);
    return 0;
}
