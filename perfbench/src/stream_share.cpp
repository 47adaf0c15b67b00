/// \file stream_share.cpp
/// Workload stream_share: the paper's concurrent benchmark, run long. One
/// client process runs two threads against one peer over one Myrinet NIC
/// pair: one streams 1 MiB MPI messages, the other 1 MiB omniORB oneways.
/// Each stream is a closed loop of windows: kWindow messages, the last one
/// asking for an acknowledgement (an MPI ack, or a synchronous CORBA call
/// as the flush). The receiver checks every message's length, sequence
/// number and seed-derived sentinel bytes.
///
/// Its ladder streams the same 1 MiB messages one way, single flow, one
/// layer lower on each rung: raw fabric ports, Madeleine, MPI over
/// PadicoTM, and omniORB oneways over PadicoTM.

#include <cstring>

#include "corba/stub.hpp"
#include "madeleine/madeleine.hpp"
#include "mpi/mpi.hpp"
#include "osal/sync.hpp"
#include "testbed.hpp"

namespace perfbench {

using namespace padico;
using fabric::Process;

namespace {

constexpr std::size_t kMsg = 1u << 20;
constexpr std::uint64_t kWindow = 8;
constexpr const char* kEndpoint = "perf-sink";
constexpr const char* kSinkType = "IDL:Sink:1.0";

/// Message header, ahead of the shared body: sequence number within the
/// stream, seed-derived sentinel, flags.
struct Header {
    std::uint64_t seq = 0;
    std::uint64_t sentinel = 0;
    std::uint64_t flags = 0;
};
constexpr std::uint64_t kAck = 1;  ///< receiver acknowledges this message
constexpr std::uint64_t kStop = 2; ///< end of stream (header only)
constexpr std::size_t kBody = kMsg - sizeof(Header);

std::uint64_t sentinel(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t seq) {
    return mix64(seed ^ (stream << 56) ^ seq);
}

/// Seed-derived byte at offset \p off of the body.
std::uint8_t body_byte(std::uint64_t seed, std::size_t off) {
    return static_cast<std::uint8_t>(mix64(seed ^ (off >> 3)) >>
                                     ((off & 7) * 8));
}

/// The stream body, shared by every message of a stream (the fabric moves
/// messages by reference, as the zero-copy ORB profiles do).
util::Segment make_body(std::uint64_t seed) {
    util::ByteBuf b(kBody);
    for (std::size_t off = 0; off < kBody; ++off) b.data()[off] = body_byte(seed, off);
    return util::Segment(util::make_buf(std::move(b)));
}

util::Message make_msg(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t seq, std::uint64_t flags,
                       const util::Segment& body) {
    Header h{seq, sentinel(seed, stream, seq), flags};
    util::Message m = util::to_message(util::ByteBuf(&h, sizeof h));
    if ((flags & kStop) == 0) m.append(body);
    return m;
}

/// Receiver-side check of one message: whole length, header and four body
/// probes at sequence-derived offsets. Returns the header.
Header verify(Ctx& ctx, const util::Message& m, std::uint64_t stream,
              std::uint64_t want_seq, const char* what) {
    Header h;
    ctx.tally.attempt();
    if (!ctx.tally.check(m.size() >= sizeof h, what)) return h;
    m.copy_out(0, &h, sizeof h);
    if (h.flags & kStop) {
        ctx.tally.check(m.size() == sizeof h, what);
        return h;
    }
    bool ok = m.size() == kMsg && h.seq == want_seq &&
              h.sentinel == sentinel(ctx.opt.seed, stream, h.seq);
    for (std::uint64_t k = 0; ok && k < 4; ++k) {
        const std::size_t off = mix64(h.seq * 4 + k) % kBody;
        std::uint8_t got = 0;
        m.copy_out(sizeof h + off, &got, 1);
        ok = got == body_byte(ctx.opt.seed, off);
    }
    ctx.tally.check(ok, what);
    return h;
}

/// CORBA receiver: take(header fields, octet sequence) -> bool.
class SinkServant : public corba::Servant {
public:
    SinkServant(Ctx& ctx, std::uint64_t stream) : ctx_(&ctx), stream_(stream) {}
    std::string interface() const override { return kSinkType; }
    void dispatch(const std::string& op, corba::cdr::Decoder& in,
                  corba::cdr::Encoder& out) override {
        if (op != "take") throw RemoteError("BAD_OPERATION");
        Header h;
        h.seq = in.get_u64();
        h.sentinel = in.get_u64();
        h.flags = in.get_u64();
        util::Message body = in.get_seq_msg<std::uint8_t>();
        util::Message whole = util::to_message(util::ByteBuf(&h, sizeof h));
        whole.append(body);
        const std::uint64_t failed = ctx_->tally.failed();
        verify(*ctx_, whole, stream_, next_seq_++, "corba stream message");
        corba::skel::ret(out, ctx_->tally.failed() == failed);
    }

private:
    Ctx* ctx_;
    std::uint64_t stream_;
    std::uint64_t next_seq_ = 0; ///< frames of a connection arrive in order
};

util::Message corba_args(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t seq, const util::Segment& body) {
    corba::cdr::Encoder e(true);
    e.put_u64(seq);
    e.put_u64(sentinel(seed, stream, seq));
    e.put_u64(0);
    e.put_seq_shared<std::uint8_t>(body, body.size());
    return e.take();
}

/// Streams one CORBA window: oneways, then the flushing synchronous call.
void corba_window(Ctx& ctx, corba::ObjectRef& ref, std::uint64_t stream,
                  std::uint64_t& seq, std::uint64_t n,
                  const util::Segment& body) {
    for (std::uint64_t k = 0; k + 1 < n; ++k) {
        Scope s("corba.oneway", seq);
        ref.oneway("take", corba_args(ctx.opt.seed, stream, seq++, body));
    }
    Scope s("corba.invoke", seq);
    util::Message r =
        ref.invoke("take", corba_args(ctx.opt.seed, stream, seq++, body));
    ctx.tally.check(corba::cdr::decode_one<bool>(std::move(r)),
                    "corba stream flush reply");
}

/// Streams one MPI window and waits for its acknowledgement.
void mpi_window(Ctx& ctx, mpi::Comm& comm, int peer, std::uint64_t stream,
                std::uint64_t& seq, std::uint64_t n,
                const util::Segment& body) {
    for (std::uint64_t k = 0; k < n; ++k) {
        Scope s("mpi.send_msg", seq);
        comm.send_msg(make_msg(ctx.opt.seed, stream, seq, k + 1 == n ? kAck : 0,
                               body),
                      peer, 0);
        ++seq;
    }
    Scope s("mpi.recv_bytes", seq);
    char ack = 0;
    comm.recv_bytes(&ack, 1, peer, 1);
    ctx.tally.check(ack == 'k', "mpi stream ack");
}

/// MPI receiver: verifies until the stop message, acknowledging on request.
void mpi_sink(Ctx& ctx, mpi::Comm& comm, int peer, std::uint64_t stream) {
    for (std::uint64_t seq = 0;; ++seq) {
        util::Message m = comm.recv_msg(peer, 0);
        const Header h = verify(ctx, m, stream, seq, "mpi stream message");
        if (h.flags & kStop) return;
        if (h.flags & kAck) comm.send_bytes("k", 1, peer, 1);
    }
}

constexpr std::uint64_t kMpiStream = 1;
constexpr std::uint64_t kCorbaStream = 2;

void session(Ctx& ctx, double seconds, Result& out,
             const util::Segment& body) {
    const std::int64_t t_start = wall_ns();
    auto tb = build_testbed(2);
    osal::Event up, done;

    tb->grid.spawn(*tb->nodes[0], [&](Process& proc) {
        auto rt = start_runtime(proc);
        corba::Orb orb(*rt, corba::profile_omniorb4());
        guarded(ctx, "stream_share server", [&] {
            {
                Scope s("corba.serve");
                orb.serve(kEndpoint);
            }
            const corba::IOR ior =
                orb.activate(std::make_shared<SinkServant>(ctx, kCorbaStream));
            proc.grid().register_service(
                "perf/sink-key", static_cast<fabric::ProcessId>(ior.key));
            std::shared_ptr<mpi::World> world;
            {
                Scope s("mpi.world_create");
                world = mpi::World::create(*rt, "perf-share", {0, 1});
            }
            up.set();
            mpi_sink(ctx, world->world(), 1, kMpiStream);
            done.wait();
            out.add_counts(counts_of(*rt, &orb));
        });
        orb.shutdown();
    });

    tb->grid.spawn(*tb->nodes[1], [&](Process& proc) {
        guarded(
            ctx, "stream_share client",
            [&] {
                auto rt = start_runtime(proc);
                corba::Orb orb(*rt, corba::profile_omniorb4());
                std::shared_ptr<mpi::World> world;
                {
                    Scope s("mpi.world_create");
                    world = mpi::World::create(*rt, "perf-share", {0, 1});
                }
                mpi::Comm& comm = world->world();
                up.wait();
                corba::ObjectRef ref;
                std::uint64_t mpi_seq = 0, corba_seq = 0;
                {
                    Scope s("corba.resolve");
                    ref = orb.resolve(corba::IOR{
                        kEndpoint, proc.grid().wait_service("perf/sink-key"),
                        kSinkType});
                    corba_window(ctx, ref, kCorbaStream, corba_seq, 1, body);
                }
                mpi_window(ctx, comm, 0, kMpiStream, mpi_seq, 1, body);
                out.add_setup(static_cast<double>(wall_ns() - t_start) * 1e-9);

                // Both streams start together and run closed-loop windows
                // until the deadline.
                osal::Barrier start(2);
                const std::int64_t deadline =
                    wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
                std::vector<double> mpi_lat, corba_lat;
                auto stream = [&](std::vector<double>& lat, auto&& window) {
                    start.arrive_and_wait();
                    for (std::int64_t now = wall_ns(); now < deadline;) {
                        {
                            Scope op("op");
                            window();
                        }
                        const std::int64_t t1 = wall_ns();
                        lat.push_back(static_cast<double>(t1 - now) * 1e-3 /
                                      static_cast<double>(kWindow));
                        now = t1;
                    }
                };
                std::thread mpi_thread([&] {
                    Process::bind_to_thread(&proc);
                    guarded(ctx, "mpi stream", [&] {
                        stream(mpi_lat, [&] {
                            mpi_window(ctx, comm, 0, kMpiStream, mpi_seq,
                                       kWindow, body);
                        });
                    });
                    comm.send_msg(make_msg(ctx.opt.seed, kMpiStream, mpi_seq,
                                           kStop, body),
                                  0, 0);
                });
                const double cpu0 = cpu_s();
                const std::int64_t w0 = wall_ns();
                stream(corba_lat, [&] {
                    corba_window(ctx, ref, kCorbaStream, corba_seq, kWindow,
                                 body);
                });
                mpi_thread.join();
                const std::int64_t w1 = wall_ns();
                const std::uint64_t msgs =
                    (mpi_lat.size() + corba_lat.size()) * kWindow;
                out.add_timed(msgs, static_cast<double>(w1 - w0) * 1e-9,
                              cpu_s() - cpu0,
                              static_cast<double>(msgs) * kMsg);
                out.add_latencies(mpi_lat);
                out.add_latencies(corba_lat);
                out.add_counts(counts_of(*rt, nullptr));
            },
            [&] { done.set(); });
    });
    tb->grid.join_all();
    out.end_session();
}

// ---------------------------------------------------------------------------
// Ladder: single-flow windows of kRungMsgs messages plus an acknowledgement.

constexpr std::uint64_t kRungMsgs = 16;
constexpr int kRungWindows = 6; ///< measured, after one warm-up window

struct StreamRung {
    std::vector<double> wall_us_per_msg;
    std::vector<SimTime> virt_window;
};

/// Client-side window loop of a rung.
template <typename F>
void measure_windows(Process& proc, const char* span, StreamRung& out,
                     F&& window) {
    window();
    for (int w = 0; w < kRungWindows; ++w) {
        const SimTime v0 = proc.now();
        const std::int64_t w0 = wall_ns();
        {
            Scope s(span, static_cast<std::uint64_t>(w));
            window();
        }
        out.wall_us_per_msg.push_back(static_cast<double>(wall_ns() - w0) *
                                      1e-3 / static_cast<double>(kRungMsgs));
        out.virt_window.push_back(proc.now() - v0);
    }
}

constexpr std::uint64_t kRungStream = 3;
constexpr std::uint64_t kRungTotal = (kRungWindows + 1) * kRungMsgs;

template <typename Send, typename Recv>
void raw_stream_pair(Ctx& ctx, Process& proc, bool sender, StreamRung& out,
                     const char* span, const util::Segment& body, Send&& send,
                     Recv&& recv) {
    if (sender) {
        std::uint64_t seq = 0;
        measure_windows(proc, span, out, [&] {
            for (std::uint64_t k = 0; k < kRungMsgs; ++k, ++seq)
                send(make_msg(ctx.opt.seed, kRungStream, seq,
                              k + 1 == kRungMsgs ? kAck : 0, body));
            ctx.tally.check(recv().size() == 1, "stream rung ack");
        });
        return;
    }
    for (std::uint64_t seq = 0; seq < kRungTotal; ++seq) {
        const Header h =
            verify(ctx, recv(), kRungStream, seq, "stream rung message");
        if (h.flags & kAck) send(util::to_message(util::ByteBuf("k", 1)));
    }
}

StreamRung rung_fabric(Ctx& ctx, const util::Segment& body) {
    StreamRung out;
    auto tb = build_testbed(2);
    fabric::NetworkSegment& seg = tb->grid.segment("myri0");
    const fabric::ChannelId ch = tb->grid.channel_id("perf/fabric-stream");
    const auto run = [&](Process& proc, bool sender) {
        fabric::PortRef port =
            proc.machine().adapter_on(seg)->open(proc, "perfbench-raw");
        const fabric::ProcessId peer = sender ? 0 : 1;
        raw_stream_pair(
            ctx, proc, sender, out, "ladder.fabric_stream", body,
            [&](util::Message m) {
                proc.clock().set(port->send(peer, ch, std::move(m), proc.now()));
            },
            [&] {
                auto pkt = port->recv_from(peer, ch);
                PADICO_CHECK(pkt.has_value(), "fabric port closed");
                proc.clock().merge(pkt->deliver_time);
                return std::move(pkt->payload);
            });
    };
    tb->grid.spawn(*tb->nodes[0], [&](Process& p) { run(p, false); });
    tb->grid.spawn(*tb->nodes[1], [&](Process& p) { run(p, true); });
    tb->grid.join_all();
    return out;
}

StreamRung rung_madeleine(Ctx& ctx, const util::Segment& body) {
    StreamRung out;
    auto tb = build_testbed(2);
    fabric::NetworkSegment& seg = tb->grid.segment("myri0");
    const fabric::ChannelId ch = tb->grid.channel_id("perf/mad-stream");
    const auto run = [&](Process& proc, bool sender) {
        mad::Endpoint ep(proc, seg);
        const fabric::ProcessId peer = sender ? 0 : 1;
        raw_stream_pair(
            ctx, proc, sender, out, "ladder.madeleine_stream", body,
            [&](util::Message m) { ep.send(peer, ch, std::move(m)); },
            [&] { return ep.recv(peer, ch); });
    };
    tb->grid.spawn(*tb->nodes[0], [&](Process& p) { run(p, false); });
    tb->grid.spawn(*tb->nodes[1], [&](Process& p) { run(p, true); });
    tb->grid.join_all();
    return out;
}

StreamRung rung_mpi(Ctx& ctx, const util::Segment& body) {
    StreamRung out;
    auto tb = build_testbed(2);
    fabric::run_spmd(tb->grid, {tb->nodes[0], tb->nodes[1]},
                     [&](Process& proc, int rank, int) {
        auto rt = start_runtime(proc);
        auto world = mpi::World::create(*rt, "perf-stream", {0, 1});
        mpi::Comm& comm = world->world();
        const int peer = 1 - rank;
        raw_stream_pair(
            ctx, proc, rank == 1, out, "ladder.mpi_stream", body,
            [&](util::Message m) { comm.send_msg(std::move(m), peer, 0); },
            [&] { return comm.recv_msg(peer, 0); });
    });
    tb->grid.join_all();
    return out;
}

StreamRung rung_corba(Ctx& ctx, const util::Segment& body) {
    StreamRung out;
    auto tb = build_testbed(2);
    osal::Event up, done;
    tb->grid.spawn(*tb->nodes[0], [&](Process& proc) {
        auto rt = start_runtime(proc);
        corba::Orb orb(*rt, corba::profile_omniorb4());
        orb.serve(kEndpoint);
        const corba::IOR ior =
            orb.activate(std::make_shared<SinkServant>(ctx, kRungStream));
        proc.grid().register_service("perf/sink-key",
                                     static_cast<fabric::ProcessId>(ior.key));
        up.set();
        done.wait();
        orb.shutdown();
    });
    tb->grid.spawn(*tb->nodes[1], [&](Process& proc) {
        guarded(
            ctx, "corba stream rung",
            [&] {
                auto rt = start_runtime(proc);
                corba::Orb orb(*rt, corba::profile_omniorb4());
                up.wait();
                corba::ObjectRef ref = orb.resolve(corba::IOR{
                    kEndpoint, proc.grid().wait_service("perf/sink-key"),
                    kSinkType});
                std::uint64_t seq = 0;
                measure_windows(proc, "ladder.corba_oneway_stream", out, [&] {
                    corba_window(ctx, ref, kRungStream, seq, kRungMsgs, body);
                });
            },
            [&] { done.set(); });
    });
    tb->grid.join_all();
    return out;
}

} // namespace

void run_stream_share(Ctx& ctx, double seconds, Result& out) {
    // Input generation, outside the session's set-up window.
    const util::Segment body = make_body(ctx.opt.seed);
    session(ctx, seconds, out, body);
}

void ladder_stream(Ctx& ctx, Metrics& m) {
    const util::Segment body = make_body(ctx.opt.seed);
    struct Step {
        const char* rung;
        StreamRung samples;
        SimTime pin;
        SimTime step = 0; ///< allowed lattice above the pin (see pins::)
    };
    Step steps[] = {
        {"fabric.stream", rung_fabric(ctx, body), pins::kFabricStream},
        {"madeleine.stream", rung_madeleine(ctx, body), pins::kMadeleineStream},
        {"mpi.stream", rung_mpi(ctx, body), pins::kMpiStream},
        {"corba.oneway_stream", rung_corba(ctx, body), pins::kCorbaStream,
         pins::kCorbaStreamStep},
    };
    for (Step& s : steps) {
        std::vector<double> virt_us;
        for (SimTime v : s.samples.virt_window) {
            const SimTime pin = ctx.pin(s.pin);
            const SimTime above = v - pin;
            const bool on_lattice =
                s.step > 0 && above >= 0 && above % s.step == 0 &&
                above / s.step <= static_cast<SimTime>(kRungMsgs) - 1;
            ctx.tally.check_virtual(on_lattice ? pin : v, pin, s.rung);
            virt_us.push_back(to_usec(v) / static_cast<double>(kRungMsgs));
        }
        const double virt = median(virt_us);
        m.set(std::string(s.rung) + "_wall_us", median(s.samples.wall_us_per_msg),
              "us");
        m.set(std::string(s.rung) + "_virt_mb_s",
              virt > 0 ? static_cast<double>(kMsg) / virt : 0.0, "sim_MB/s");
        m.set(std::string(s.rung) + "_virt_us", virt, "sim_us");
    }
    // Self times per message: Madeleine over the raw port, and each
    // personality (with PadicoTM under it) over Madeleine.
    const auto self = [&](const char* layer, const char* upper,
                          const char* lower) {
        m.set(std::string(layer) + "_self_wall_us",
              m.get(std::string(upper) + "_wall_us") -
                  m.get(std::string(lower) + "_wall_us"),
              "us");
        m.set(std::string(layer) + "_self_virt_us",
              m.get(std::string(upper) + "_virt_us") -
                  m.get(std::string(lower) + "_virt_us"),
              "sim_us");
    };
    self("madeleine.stream", "madeleine.stream", "fabric.stream");
    self("mpi.stream", "mpi.stream", "madeleine.stream");
    self("corba.oneway_stream", "corba.oneway_stream", "madeleine.stream");
}

} // namespace perfbench
