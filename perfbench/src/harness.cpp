#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace perfbench {

double cpu_s() {
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB on Linux
}

int os_threads() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    return 0;
}

ThreadSampler::ThreadSampler() {
    thread_ = std::make_unique<std::thread>([this] {
        while (!stop_.load()) {
            const int n = os_threads() - 1; // not counting the sampler
            int seen = peak_.load();
            while (n > seen && !peak_.compare_exchange_weak(seen, n)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
}

ThreadSampler::~ThreadSampler() {
    stop_.store(true);
    thread_->join();
}

void Tally::fail(const std::string& why) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lk(mu_);
    if (reported_.size() < 32 && reported_.insert(why).second)
        std::cerr << "perfbench: check failed: " << why << "\n";
}

bool Tally::check_virtual(padico::SimTime got, padico::SimTime want,
                          const std::string& what) {
    attempt();
    if (got == want) return true;
    fail(what + ": virtual " + std::to_string(got) + " ns, pinned " +
         std::to_string(want) + " ns");
    return false;
}

double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
    for (auto& m : list_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    list_.push_back(Metric{name, value, unit});
}

double Metrics::get(const std::string& name) const {
    for (const auto& m : list_)
        if (m.name == name) return m.value;
    return 0.0;
}

void Counts::merge(const Counts& o) {
    msgs += o.msgs;
    bytes += o.bytes;
    route_hits += o.route_hits;
    route_misses += o.route_misses;
    demux_dropped += o.demux_dropped;
    tx_packets += o.tx_packets;
    tx_span_high_water = std::max(tx_span_high_water, o.tx_span_high_water);
    pruned_spans += o.pruned_spans;
    fast_hits += o.fast_hits;
    fast_misses += o.fast_misses;
    frames += o.frames;
    ready_queue_high_water =
        std::max(ready_queue_high_water, o.ready_queue_high_water);
    peak_threads += o.peak_threads;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer& Tracer::get() {
    static Tracer t;
    return t;
}

Tracer::Buffer& Tracer::local() {
    thread_local std::shared_ptr<Buffer> buf;
    if (!buf) {
        buf = std::make_shared<Buffer>();
        std::lock_guard<std::mutex> lk(mu_);
        buf->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
        buffers_.push_back(buf);
    }
    return *buf;
}

std::int32_t Tracer::begin(const char* name, std::uint64_t op) {
    if (used_.fetch_add(1, std::memory_order_relaxed) >= budget_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return -1;
    }
    Buffer& b = local();
    Span s;
    s.name = name;
    s.op = op;
    s.tid = b.tid;
    s.parent = b.open;
    s.start_ns = wall_ns();
    b.spans.push_back(s);
    b.open = static_cast<std::int32_t>(b.spans.size() - 1);
    return b.open;
}

void Tracer::end(std::int32_t handle) {
    Buffer& b = local();
    Span& s = b.spans[static_cast<std::size_t>(handle)];
    s.end_ns = wall_ns();
    b.open = s.parent;
    if (s.parent >= 0)
        b.spans[static_cast<std::size_t>(s.parent)].children_ns +=
            s.end_ns - s.start_ns;
}

std::vector<Span> Tracer::snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_)
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::vector<std::shared_ptr<Buffer>> bufs;
    {
        std::lock_guard<std::mutex> lk(mu_);
        bufs = buffers_;
    }
    std::int64_t t0 = 0;
    for (const auto& b : bufs)
        for (const Span& s : b->spans)
            if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    bool first = true;
    for (const auto& b : bufs) {
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            const Span& s = b->spans[i];
            if (s.end_ns == 0) continue; // still open at export
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%u.%zu\","
                "\"parent\":\"%s\",\"op\":%llu,\"self_us\":%.3f}}",
                first ? "" : ",", s.name, s.tid,
                static_cast<double>(s.start_ns - t0) * 1e-3,
                static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid, i,
                s.parent < 0
                    ? ""
                    : (std::to_string(s.tid) + "." + std::to_string(s.parent))
                          .c_str(),
                static_cast<unsigned long long>(s.op),
                static_cast<double>(s.end_ns - s.start_ns - s.children_ns) *
                    1e-3);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

double Tracer::median_self_us(const std::string& name) const {
    std::vector<double> v;
    for (const Span& s : snapshot())
        if (s.end_ns != 0 && name == s.name)
            v.push_back(
                static_cast<double>(s.end_ns - s.start_ns - s.children_ns) *
                1e-3);
    return median(std::move(v));
}

double Tracer::median_dur_us(const std::string& name) const {
    std::vector<double> v;
    for (const Span& s : snapshot())
        if (s.end_ns != 0 && name == s.name)
            v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    return median(std::move(v));
}

} // namespace perfbench
