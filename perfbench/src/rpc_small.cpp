/// \file rpc_small.cpp
/// Workload rpc_small: one client invokes omniORB-4 echo(u32) on a server
/// on the other node of a 2-node Myrinet testbed, closed loop. Every reply
/// is checked, and so is every round trip's virtual time against the
/// pinned 39.724 us.
///
/// Its ladder sends the same request/reply bytes between the same two
/// nodes, entered one layer lower on each rung: raw fabric ports,
/// Madeleine, a PadicoTM VLink, a raw GIOP frame through the ORB's server
/// core, and a full corba::call. MPI over the same PadicoTM is a side rung.

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

constexpr const char* kEndpoint = "perf-echo";
constexpr const char* kEchoType = "IDL:Echo:1.0";

class EchoServant : public corba::Servant {
public:
    std::string interface() const override { return kEchoType; }
    void dispatch(const std::string& op, corba::cdr::Decoder& in,
                  corba::cdr::Encoder& out) override {
        if (op != "echo") throw RemoteError("BAD_OPERATION");
        corba::skel::ret(out, corba::skel::arg<std::uint32_t>(in));
    }
};

/// Serve an echo servant on \p orb and publish its object key.
corba::IOR serve_echo(Process& proc, corba::Orb& orb) {
    {
        Scope s("corba.serve");
        orb.serve(kEndpoint);
    }
    corba::IOR ior = orb.activate(std::make_shared<EchoServant>());
    proc.grid().register_service("perf/echo-key",
                                 static_cast<fabric::ProcessId>(ior.key));
    return ior;
}

corba::IOR echo_ior(Process& proc) {
    return corba::IOR{kEndpoint, proc.grid().wait_service("perf/echo-key"),
                      kEchoType};
}

std::uint32_t echo_value(std::uint64_t seed, std::uint64_t session,
                         std::uint64_t i) {
    return static_cast<std::uint32_t>(mix64(seed ^ (session << 40) ^ i));
}

void session(Ctx& ctx, double seconds, Result& out, std::uint64_t sess) {
    const std::int64_t t_start = wall_ns();
    auto tb = build_testbed(2);
    osal::Event up, done;

    tb->grid.spawn(*tb->nodes[0], [&](Process& proc) {
        auto rt = start_runtime(proc);
        corba::Orb orb(*rt, corba::profile_omniorb4());
        guarded(ctx, "rpc_small server", [&] {
            serve_echo(proc, orb);
            up.set();
            done.wait();
            out.add_counts(counts_of(*rt, &orb));
        });
        orb.shutdown();
    });

    tb->grid.spawn(*tb->nodes[1], [&](Process& proc) {
        guarded(
            ctx, "rpc_small client",
            [&] {
                auto rt = start_runtime(proc);
                corba::Orb orb(*rt, corba::profile_omniorb4());
                up.wait();
                corba::ObjectRef ref;
                {
                    // Resolution is lazy: the first call opens the VLink.
                    Scope s("corba.resolve");
                    ref = orb.resolve(echo_ior(proc));
                    const std::uint32_t v = echo_value(ctx.opt.seed, sess, 0);
                    ctx.tally.attempt();
                    ctx.tally.check(
                        corba::call<std::uint32_t>(ref, "echo", v) == v,
                        "warm-up echo value");
                }
                out.add_setup(static_cast<double>(wall_ns() - t_start) * 1e-9);

                std::vector<double> lat;
                const std::int64_t deadline =
                    wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
                const double cpu0 = cpu_s();
                const std::int64_t w0 = wall_ns();
                std::int64_t now = w0;
                for (std::uint64_t i = 1; now < deadline; ++i) {
                    const std::uint32_t v = echo_value(ctx.opt.seed, sess, i);
                    const SimTime v0 = proc.now();
                    std::uint32_t r = 0;
                    {
                        Scope op("op", i);
                        Scope c("corba.call", i);
                        r = corba::call<std::uint32_t>(ref, "echo", v);
                    }
                    const std::int64_t t1 = wall_ns();
                    const SimTime rtt = proc.now() - v0;
                    lat.push_back(static_cast<double>(t1 - now) * 1e-3);
                    now = t1;
                    if (ctx.tally.check(r == v, "echo value"))
                        ctx.tally.check_virtual(rtt, ctx.pin(pins::kRpcRtt),
                                                "rpc_small round trip");
                    else
                        ctx.tally.attempt();
                }
                out.add_timed(lat.size(), static_cast<double>(now - w0) * 1e-9,
                              cpu_s() - cpu0, 8.0 * static_cast<double>(lat.size()));
                out.add_latencies(lat);
                out.add_counts(counts_of(*rt, nullptr));
            },
            [&] { done.set(); });
    });
    tb->grid.join_all();
    out.end_session();
}

// ---------------------------------------------------------------------------
// Ladder

constexpr int kWarm = 50;
constexpr int kRtts = 2000;

/// GIOP request and reply frames of echo(v), byte for byte what ObjectRef
/// and the ORB put on the wire, so every rung moves the same bytes.
util::Message framed(corba::giop::MsgType type, util::Message body) {
    corba::giop::Header h;
    h.msg_type = static_cast<std::uint8_t>(type);
    h.body_len = body.size();
    util::Message wire = util::to_message(util::ByteBuf(&h, sizeof h));
    wire.append(body);
    return wire;
}

util::Message reply_body(std::uint64_t id, std::uint32_t v) {
    corba::cdr::Encoder rep(true);
    rep.put_u64(id);
    rep.put_u8(static_cast<std::uint8_t>(corba::giop::ReplyStatus::NoException));
    rep.put_message(corba::cdr::encode(true, v));
    return rep.take();
}

/// The frames of one ladder: request i carries request id i+1 (as
/// ObjectRef numbers them) and the seed-derived value.
struct Frames {
    std::vector<util::Message> req, rep;
    std::vector<util::ByteBuf> req_flat, rep_flat;

    Frames(std::uint64_t seed, std::uint64_t key) {
        for (int i = 0; i < kWarm + kRtts; ++i) {
            const auto id = static_cast<std::uint64_t>(i) + 1;
            const std::uint32_t v = echo_value(seed, 999, id);
            req.push_back(framed(corba::giop::MsgType::Request,
                                 echo_request_body(id, key, v)));
            rep.push_back(
                framed(corba::giop::MsgType::Reply, reply_body(id, v)));
            req_flat.push_back(req.back().gather());
            rep_flat.push_back(rep.back().gather());
        }
    }
};

bool same_bytes(const util::Message& got, const util::ByteBuf& want) {
    if (got.size() != want.size()) return false;
    std::uint8_t buf[256];
    if (want.size() > sizeof buf) return got.gather() == want;
    got.copy_out(0, buf, want.size());
    return std::memcmp(buf, want.data(), want.size()) == 0;
}

struct Rung {
    std::vector<double> wall_us;
    std::vector<SimTime> virt;
};

/// Client side of one rung: kWarm unmeasured then kRtts measured round
/// trips of \p one(i), each inside a span named \p span.
template <typename F>
void measure(Process& proc, const char* span, Rung& out, F&& one) {
    for (int i = 0; i < kWarm; ++i) one(i);
    out.wall_us.reserve(kRtts);
    for (int i = kWarm; i < kWarm + kRtts; ++i) {
        const SimTime v0 = proc.now();
        const std::int64_t w0 = wall_ns();
        {
            Scope s(span, static_cast<std::uint64_t>(i));
            one(i);
        }
        out.wall_us.push_back(static_cast<double>(wall_ns() - w0) * 1e-3);
        out.virt.push_back(proc.now() - v0);
    }
}

/// Raw fabric: each side opens its Myrinet adapter itself.
Rung rung_fabric(Ctx& ctx, const Frames& fr) {
    Rung out;
    auto tb = build_testbed(2);
    fabric::NetworkSegment& seg = tb->grid.segment("myri0");
    const fabric::ChannelId ch = tb->grid.channel_id("perf/fabric");
    const auto body = [&](Process& proc, bool client) {
        fabric::PortRef port =
            proc.machine().adapter_on(seg)->open(proc, "perfbench-raw");
        const fabric::ProcessId peer = client ? 0 : 1;
        auto send = [&](const util::Message& m) {
            proc.clock().set(port->send(peer, ch, m, proc.now()));
        };
        auto recv = [&](const util::ByteBuf& want, const char* what) {
            auto pkt = port->recv_from(peer, ch);
            PADICO_CHECK(pkt.has_value(), "fabric port closed");
            proc.clock().merge(pkt->deliver_time);
            ctx.tally.check(same_bytes(pkt->payload, want), what);
        };
        if (client) {
            measure(proc, "ladder.fabric", out, [&](int i) {
                send(fr.req[i]);
                recv(fr.rep_flat[i], "fabric reply bytes");
            });
        } else {
            for (int i = 0; i < kWarm + kRtts; ++i) {
                recv(fr.req_flat[i], "fabric request bytes");
                send(fr.rep[i]);
            }
        }
    };
    tb->grid.spawn(*tb->nodes[0], [&](Process& p) { body(p, false); });
    tb->grid.spawn(*tb->nodes[1], [&](Process& p) { body(p, true); });
    tb->grid.join_all();
    return out;
}

/// Madeleine endpoints on the Myrinet segment.
Rung rung_madeleine(Ctx& ctx, const Frames& fr) {
    Rung out;
    auto tb = build_testbed(2);
    fabric::NetworkSegment& seg = tb->grid.segment("myri0");
    const fabric::ChannelId ch = tb->grid.channel_id("perf/mad");
    const auto body = [&](Process& proc, bool client) {
        mad::Endpoint ep(proc, seg);
        const fabric::ProcessId peer = client ? 0 : 1;
        if (client) {
            measure(proc, "ladder.madeleine", out, [&](int i) {
                ep.send(peer, ch, fr.req[i]);
                ctx.tally.check(same_bytes(ep.recv(peer, ch), fr.rep_flat[i]),
                                "madeleine reply bytes");
            });
        } else {
            for (int i = 0; i < kWarm + kRtts; ++i) {
                ctx.tally.check(same_bytes(ep.recv(peer, ch), fr.req_flat[i]),
                                "madeleine request bytes");
                ep.send(peer, ch, fr.rep[i]);
            }
        }
    };
    tb->grid.spawn(*tb->nodes[0], [&](Process& p) { body(p, false); });
    tb->grid.spawn(*tb->nodes[1], [&](Process& p) { body(p, true); });
    tb->grid.join_all();
    return out;
}

/// A PadicoTM VLink carrying the GIOP frames as plain stream bytes.
Rung rung_padicotm(Ctx& ctx, const Frames& fr) {
    Rung out;
    auto tb = build_testbed(2);
    osal::Event up;
    tb->grid.spawn(*tb->nodes[0], [&](Process& proc) {
        auto rt = start_runtime(proc);
        ptm::VLinkListener listener(*rt, "perf-vlink");
        up.set();
        ptm::VLink link = listener.accept();
        for (int i = 0; i < kWarm + kRtts; ++i) {
            ctx.tally.check(same_bytes(link.read_msg(fr.req_flat[i].size()),
                                       fr.req_flat[i]),
                            "padicotm request bytes");
            link.write(fr.rep[i]);
        }
        link.close();
    });
    tb->grid.spawn(*tb->nodes[1], [&](Process& proc) {
        auto rt = start_runtime(proc);
        up.wait();
        ptm::VLink link = ptm::VLink::connect(*rt, "perf-vlink");
        measure(proc, "ladder.padicotm", out, [&](int i) {
            link.write(fr.req[i]);
            ctx.tally.check(same_bytes(link.read_msg(fr.rep_flat[i].size()),
                                       fr.rep_flat[i]),
                            "padicotm reply bytes");
        });
        link.close();
    });
    tb->grid.join_all();
    return out;
}

/// Either a raw GIOP frame through the ORB's server core (\p stub false)
/// or a full corba::call (\p stub true), against the same echo server.
Rung rung_corba(Ctx& ctx, const Frames& fr, bool stub) {
    Rung out;
    auto tb = build_testbed(2);
    osal::Event up, done;
    tb->grid.spawn(*tb->nodes[0], [&](Process& proc) {
        auto rt = start_runtime(proc);
        corba::Orb orb(*rt, corba::profile_omniorb4());
        serve_echo(proc, orb);
        up.set();
        done.wait();
        orb.shutdown();
    });
    tb->grid.spawn(*tb->nodes[1], [&](Process& proc) {
        guarded(
            ctx, "corba rung",
            [&] {
                auto rt = start_runtime(proc);
                up.wait();
                const corba::IOR ior = echo_ior(proc);
                if (stub) {
                    corba::Orb orb(*rt, corba::profile_omniorb4());
                    corba::ObjectRef ref = orb.resolve(ior);
                    measure(proc, "ladder.corba_invoke", out, [&](int i) {
                        const std::uint32_t v = echo_value(
                            ctx.opt.seed, 999, static_cast<std::uint64_t>(i) + 1);
                        ctx.tally.check(
                            corba::call<std::uint32_t>(ref, "echo", v) == v,
                            "corba invoke echo value");
                    });
                    return;
                }
                ptm::VLink link = ptm::VLink::connect(*rt, ior.endpoint);
                measure(proc, "ladder.corba_giop", out, [&](int i) {
                    link.write(fr.req[i]);
                    auto reply = corba::giop::recv_message(link);
                    ctx.tally.check(
                        reply.has_value() &&
                            reply->first == corba::giop::MsgType::Reply &&
                            sizeof(corba::giop::Header) + reply->second.size() ==
                                fr.rep_flat[i].size() &&
                            same_bytes(framed(corba::giop::MsgType::Reply,
                                              reply->second),
                                       fr.rep_flat[i]),
                        "raw GIOP reply bytes");
                });
                link.close();
            },
            [&] { done.set(); });
    });
    tb->grid.join_all();
    return out;
}

/// MPI over the same PadicoTM: the other personality's round trip.
Rung rung_mpi(Ctx& ctx, const Frames& fr) {
    Rung out;
    auto tb = build_testbed(2);
    fabric::run_spmd(tb->grid, {tb->nodes[0], tb->nodes[1]},
                     [&](Process& proc, int rank, int) {
        auto rt = start_runtime(proc);
        std::shared_ptr<mpi::World> world;
        {
            Scope s("mpi.world_create");
            world = mpi::World::create(*rt, "perf-rtt", {0, 1});
        }
        mpi::Comm& comm = world->world();
        if (rank == 1) {
            measure(proc, "ladder.mpi", out, [&](int i) {
                comm.send_msg(fr.req[i], 0, 0);
                ctx.tally.check(same_bytes(comm.recv_msg(0, 0), fr.rep_flat[i]),
                                "mpi reply bytes");
            });
        } else {
            for (int i = 0; i < kWarm + kRtts; ++i) {
                ctx.tally.check(same_bytes(comm.recv_msg(1, 0), fr.req_flat[i]),
                                "mpi request bytes");
                comm.send_msg(fr.rep[i], 1, 0);
            }
        }
    });
    tb->grid.join_all();
    return out;
}

/// Checks every measured round trip against the rung's pin; returns the
/// rung's (single) virtual RTT.
SimTime check_pin(Ctx& ctx, const Rung& r, SimTime exact,
                  const std::string& what) {
    for (SimTime v : r.virt) ctx.tally.check_virtual(v, ctx.pin(exact), what);
    return r.virt.empty() ? 0 : r.virt.front();
}

} // namespace

util::Message echo_request_body(std::uint64_t id, std::uint64_t key,
                                std::uint32_t v) {
    corba::cdr::Encoder req(true);
    req.put_u64(id);
    req.put_u64(key);
    req.put_bool(true);
    req.put_string("echo");
    req.put_message(corba::cdr::encode(true, v));
    return req.take();
}

void run_rpc_small(Ctx& ctx, double seconds, Result& out) {
    session(ctx, seconds, out, out.sessions().size());
}

void ladder_rpc(Ctx& ctx, Metrics& m) {
    // The object key is the first one an ORB mints.
    const Frames fr(ctx.opt.seed, 1);
    struct Step {
        const char* rung;      ///< metric prefix of the rung
        const char* layer;     ///< metric prefix of the layer it adds
        Rung samples;
        SimTime pin;
        SimTime model;         ///< the layer's cost-model self time
    };
    Step steps[] = {
        {"fabric.rtt", "fabric.rtt_self", rung_fabric(ctx, fr),
         pins::kFabricRtt, pins::model::kFabric},
        {"madeleine.rtt", "madeleine.rtt_self", rung_madeleine(ctx, fr),
         pins::kMadeleineRtt, pins::model::kMadeleine},
        {"padicotm.rtt", "padicotm.rtt_self", rung_padicotm(ctx, fr),
         pins::kPadicotmRtt, pins::model::kPadicotm},
        {"corba.giop_rtt", "svc_corba.rtt_self", rung_corba(ctx, fr, false),
         pins::kGiopRtt, pins::model::kSvcCorba},
        {"corba.invoke_rtt", "corba_stub.rtt_self", rung_corba(ctx, fr, true),
         pins::kRpcRtt, pins::model::kCorbaStub},
    };
    // Each layer's virtual self time must be its cost-model term. The
    // self-time sums equal the top rung by construction; they are reported
    // for the ladder table, not checked.
    double prev_wall = 0;
    SimTime prev_virt = 0;
    for (Step& s : steps) {
        const double wall = median(s.samples.wall_us);
        const SimTime virt = check_pin(ctx, s.samples, s.pin, s.rung);
        ctx.tally.check_virtual(virt - prev_virt, ctx.pin(s.model), s.layer);
        m.set(std::string(s.rung) + "_wall_us", wall, "us");
        m.set(std::string(s.rung) + "_virt_us", to_usec(virt), "sim_us");
        m.set(std::string(s.layer) + "_wall_us", wall - prev_wall, "us");
        m.set(std::string(s.layer) + "_virt_us", to_usec(virt - prev_virt),
              "sim_us");
        prev_wall = wall;
        prev_virt = virt;
    }
    m.set("ladder.rpc_self_wall_sum_us", prev_wall, "us");
    m.set("ladder.rpc_self_virt_sum_us", to_usec(prev_virt), "sim_us");

    const Rung mpi = rung_mpi(ctx, fr);
    const double mpi_wall = median(mpi.wall_us);
    const SimTime mpi_virt = check_pin(ctx, mpi, pins::kMpiRtt, "mpi.rtt");
    m.set("mpi.rtt_wall_us", mpi_wall, "us");
    m.set("mpi.rtt_virt_us", to_usec(mpi_virt), "sim_us");
    m.set("mpi.rtt_self_wall_us", mpi_wall - m.get("padicotm.rtt_wall_us"),
          "us");
    m.set("mpi.rtt_self_virt_us",
          to_usec(mpi_virt) - m.get("padicotm.rtt_virt_us"), "sim_us");
}

} // namespace perfbench
