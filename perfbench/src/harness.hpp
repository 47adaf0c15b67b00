#pragma once
/// \file harness.hpp
/// Measurement plumbing shared by the perfbench workloads: wall/CPU clocks,
/// the operation tally that turns failed output checks into failed
/// operations, sample statistics, the pinned virtual-time values, and the
/// span tracer whose Chrome trace-event export backs the per-layer numbers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/simtime.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks and process resources

inline std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// User + system CPU seconds of the whole benchmark process.
double cpu_s();
/// Peak resident set of the benchmark process, MB (1e6 bytes).
double peak_rss_mb();
/// OS threads currently alive in the benchmark process.
int os_threads();

/// Samples os_threads() every few milliseconds while alive; keeps the max.
class ThreadSampler {
public:
    ThreadSampler();
    ~ThreadSampler();
    ThreadSampler(const ThreadSampler&) = delete;
    ThreadSampler& operator=(const ThreadSampler&) = delete;
    int peak() const { return peak_.load(); }

private:
    std::atomic<bool> stop_{false};
    std::atomic<int> peak_{0};
    std::unique_ptr<std::thread> thread_;
};

// ---------------------------------------------------------------------------
// Seeded inputs

inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Run context: options, the operation tally, pinned virtual values.

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Test seam for the self-test: added to every pinned virtual value, so
    /// a deliberately wrong pin must surface as failed operations.
    padico::SimTime pin_skew_ns = 0;
    std::string trace_path; ///< Chrome trace-event output (traced runs)
};

/// Counts checked operations. A failed output check, a drifted virtual
/// pin or an exception marks the operation failed.
class Tally {
public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /// Record one failed operation; each distinct reason goes to stderr
    /// once.
    void fail(const std::string& why);
    /// check(ok, why): fail(why) when !ok; returns ok.
    bool check(bool ok, const char* why) {
        if (!ok) fail(why);
        return ok;
    }
    /// One operation whose virtual duration \p got must equal \p want.
    bool check_virtual(padico::SimTime got, padico::SimTime want,
                       const std::string& what);
    std::uint64_t attempted() const { return attempted_.load(); }
    std::uint64_t failed() const { return failed_.load(); }

private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::mutex mu_;
    std::set<std::string> reported_;
};

struct Ctx {
    Options opt;
    Tally tally;
    /// Expected value of a pinned virtual duration (includes the skew seam).
    padico::SimTime pin(padico::SimTime exact) const {
        return exact + opt.pin_skew_ns;
    }
};

/// Pinned virtual durations of the single-flow paths (nanoseconds). They
/// are the reproduction's output: a wall-clock change must not move them.
namespace pins {
/// omniORB-4 echo(u32) round trip on Myrinet-2000 (19.862 us half RTT).
inline constexpr padico::SimTime kRpcRtt = 39724;
/// rpc_small ladder rungs (the same GIOP request/reply bytes on each).
inline constexpr padico::SimTime kFabricRtt = 14324;
inline constexpr padico::SimTime kMadeleineRtt = 19124;
inline constexpr padico::SimTime kPadicotmRtt = 19724;
inline constexpr padico::SimTime kGiopRtt = 29724;
inline constexpr padico::SimTime kMpiRtt = 23391;
/// The DESIGN.md §7 cost model of the same round trip (two messages), split
/// by the layer each rpc_small rung adds. The rung pins above are measured
/// values; these terms come from the calibration constants, so each
/// layer's self time (a rung minus the one below) is checked on its own.
namespace model {
/// Myrinet-2000: 7 us hardware latency each way plus the wire time of the
/// request and reply bytes.
inline constexpr padico::SimTime kFabric = 2 * 7000 + 324;
/// Madeleine: 1.2 us to send and 1.2 us to receive each message.
inline constexpr padico::SimTime kMadeleine = 2 * (1200 + 1200);
/// PadicoTM: 0.3 us demux per message.
inline constexpr padico::SimTime kPadicotm = 2 * 300;
/// Server core and ORB server: omniORB-4's 5 us per message, both ways.
inline constexpr padico::SimTime kSvcCorba = 2 * 5000;
/// Client stub: the same 5 us per message on the caller's side.
inline constexpr padico::SimTime kCorbaStub = 2 * 5000;
static_assert(kFabric + kMadeleine + kPadicotm + kSvcCorba + kCorbaStub ==
                  kRpcRtt,
              "the cost model must add up to the pinned echo round trip");
} // namespace model
/// stream ladder rungs: one window of 16 one-way 1 MiB messages plus its
/// acknowledgement, single flow.
inline constexpr padico::SimTime kFabricStream = 69919060;
inline constexpr padico::SimTime kMadeleineStream = 70173860;
inline constexpr padico::SimTime kMpiStream = 70192137;
/// The CORBA oneway rung is not bit-deterministic: each of the first 15
/// requests' 5 us server charge is either absorbed by the next delivery's
/// clock merge or lands after it, depending on which server thread runs
/// first. Its window is this floor plus k * kCorbaStreamStep, k in [0, 15].
inline constexpr padico::SimTime kCorbaStream = 70272828;
inline constexpr padico::SimTime kCorbaStreamStep = 5000;
} // namespace pins

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile q in [0,1] of \p v (sorted in place).
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    const std::vector<Metric>& all() const { return list_; }
    double get(const std::string& name) const;

private:
    std::vector<Metric> list_;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own files around the public
// calls it makes. Each span has a name, start, end, parent (the enclosing
// span on the same thread) and operation id; spans stay in memory and are
// written at exit as Chrome trace-event JSON.

struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t children_ns = 0; ///< time covered by direct children
    std::int32_t parent = -1;     ///< index in the same thread's buffer
    std::uint32_t tid = 0;
    std::uint64_t op = 0;
};

class Tracer {
public:
    static Tracer& get();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    /// Record from now on, at most \p budget more spans (keeps memory and
    /// the exported file bounded; later phases get their own budget).
    /// Call while no recorded thread is running.
    void start(std::size_t budget) {
        budget_ = budget;
        used_.store(0);
        on_.store(true);
    }
    void stop() { on_.store(false); }

    /// Open a span on the calling thread; returns its handle (-1 when off
    /// or over the span budget).
    std::int32_t begin(const char* name, std::uint64_t op);
    void end(std::int32_t handle);

    /// Every recorded span, all threads.
    std::vector<Span> snapshot() const;
    /// Spans not recorded because a phase's budget was spent.
    std::uint64_t dropped() const { return dropped_.load(); }

    /// Write the spans as Chrome trace-event JSON; false on I/O failure.
    bool write_chrome_json(const std::string& path) const;

    /// Median self time (span minus its children), microseconds, of every
    /// span with this name; 0 when none was recorded.
    double median_self_us(const std::string& name) const;
    /// Median duration, microseconds, of every span with this name.
    double median_dur_us(const std::string& name) const;

private:
    struct Buffer {
        std::uint32_t tid = 0;
        std::vector<Span> spans;
        std::int32_t open = -1; ///< innermost open span
    };
    Buffer& local();

    std::atomic<bool> on_{false};
    std::size_t budget_ = 0;
    std::atomic<std::size_t> used_{0};
    std::atomic<std::uint64_t> dropped_{0};
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// RAII span.
class Scope {
public:
    explicit Scope(const char* name, std::uint64_t op = 0)
        : h_(Tracer::get().on() ? Tracer::get().begin(name, op) : -1) {}
    ~Scope() {
        if (h_ >= 0) Tracer::get().end(h_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    std::int32_t h_;
};

// ---------------------------------------------------------------------------
// Workload results

/// Counters read from the program's public stats at the end of a session.
struct Counts {
    std::uint64_t msgs = 0;           ///< padicotm messages posted
    std::uint64_t bytes = 0;          ///< padicotm bytes posted
    std::uint64_t route_hits = 0;     ///< padicotm route cache
    std::uint64_t route_misses = 0;
    std::uint64_t demux_dropped = 0;
    std::uint64_t tx_packets = 0;     ///< fabric
    std::uint64_t tx_span_high_water = 0;
    std::uint64_t pruned_spans = 0;
    std::uint64_t fast_hits = 0;      ///< fabric lock-free route lookups
    std::uint64_t fast_misses = 0;
    std::uint64_t frames = 0;         ///< svc frames dispatched
    std::uint64_t ready_queue_high_water = 0;
    std::uint64_t peak_threads = 0;   ///< svc server threads

    void merge(const Counts& o);
};

/// What one set-up/measure/tear-down session measured.
struct Session {
    double setup_s = 0;
    std::uint64_t ops = 0;      ///< completed timed operations
    double wall_s = 0;          ///< timed wall time
    double cpu_s = 0;           ///< process CPU over the timed window
    double payload_bytes = 0;   ///< simulated payload delivered (timed)
    std::vector<double> op_wall_us; ///< one per closed-loop operation
};

/// What one workload run measured. Simulated processes report into the
/// current session from their own threads; end_session() closes it.
class Result {
public:
    void add_timed(std::uint64_t n_ops, double wall, double cpu,
                   double bytes) {
        std::lock_guard<std::mutex> lk(mu_);
        cur_.ops += n_ops;
        cur_.wall_s += wall;
        cur_.cpu_s += cpu;
        cur_.payload_bytes += bytes;
    }
    void add_setup(double s) {
        std::lock_guard<std::mutex> lk(mu_);
        cur_.setup_s = s;
    }
    void add_latencies(const std::vector<double>& us) {
        std::lock_guard<std::mutex> lk(mu_);
        cur_.op_wall_us.insert(cur_.op_wall_us.end(), us.begin(), us.end());
    }
    void add_counts(const Counts& c) {
        std::lock_guard<std::mutex> lk(mu_);
        counts_.merge(c);
    }
    void end_session() {
        std::lock_guard<std::mutex> lk(mu_);
        done_.push_back(std::move(cur_));
        cur_ = Session{};
    }

    const std::vector<Session>& sessions() const { return done_; }
    const Counts& counts() const { return counts_; }
    std::uint64_t ops() const {
        std::uint64_t n = 0;
        for (const Session& s : done_) n += s.ops;
        return n;
    }

private:
    std::mutex mu_;
    Session cur_;
    std::vector<Session> done_;
    Counts counts_;
};

/// One set-up/measure/tear-down session of a workload, measuring for at
/// most \p seconds; appends a Session to \p out.
using WorkloadFn = void (*)(Ctx& ctx, double seconds, Result& out);

void run_rpc_small(Ctx& ctx, double seconds, Result& out);
void run_stream_share(Ctx& ctx, double seconds, Result& out);
void run_gridccm_fanout(Ctx& ctx, double seconds, Result& out);

// Per-layer ladders (traced runs). Each appends its rungs' metrics.
void ladder_rpc(Ctx& ctx, Metrics& m);
void ladder_stream(Ctx& ctx, Metrics& m);
void ladder_gridccm(Ctx& ctx, Metrics& m);
// Busy time of each layer's hot call, single thread, no grid.
void micro_hot_calls(Metrics& m);

} // namespace perfbench
