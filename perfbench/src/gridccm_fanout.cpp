/// \file gridccm_fanout.cpp
/// Workload gridccm_fanout: the Fig. 8 shape with an interleaved client.
/// A 2-member client group, laid out block-cyclic, invokes a 2-member
/// parallel component (MicoCCM profile, as in Fig. 8) laid out block, closed
/// loop. Each call carries a 256 KiB int32 vector; every server member
/// checks its slice against the seed pattern, then runs the Fig. 8
/// MPI_Barrier. Set-up includes a real ccm Deployer::deploy.
///
/// Its ladder splits one parallel invocation into a plain CORBA invocation
/// of one member's slice and a client-side MPI barrier.

#include <set>

#include "ccm/deployer.hpp"
#include "corba/stub.hpp"
#include "gridccm/component.hpp"
#include "osal/sync.hpp"
#include "testbed.hpp"

namespace perfbench {

using namespace padico;
using fabric::Process;
using gridccm::Distribution;

namespace {

constexpr std::size_t kGlobal = 64 * 1024; ///< int32 elements: 256 KiB
constexpr std::size_t kGrain = 4096;        ///< client block-cyclic grain
constexpr int kMembers = 2;
/// Timed invocations per session at most. The component servers'
/// ServerCore spawns a spare worker for every member barrier and joins the
/// retired ones only at shutdown, so each invocation leaves an exited,
/// unjoined thread behind until the session tears down. The cap keeps a
/// session far below the process's thread-mapping limit and makes peak
/// memory a function of work done, not of speed.
constexpr std::uint64_t kMaxCalls = 2000;

std::int32_t element(std::uint64_t seed, std::uint64_t call, std::size_t g) {
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(mix64(seed)) +
        static_cast<std::uint32_t>(g) * 2654435761u +
        static_cast<std::uint32_t>(call) * 40503u);
}

/// Server-side slice checks. Simulated processes are threads of this OS
/// process, so the component reports straight into the run's tally.
struct SliceChecks {
    Ctx* ctx = nullptr;
    std::mutex mu;
    std::uint64_t checks = 0;
    std::set<std::uint64_t> failed_calls;
};
SliceChecks g_checks;

/// The parallel component under test. Invocation k of a deployment carries
/// element(seed, k, g) at global index g.
class PerfComp : public gridccm::ParallelComponent {
public:
    PerfComp() {
        declare_parallel_facet(
            R"(<parallel-interface component="PerfComp" facet="xfer"
                                   distribution="block">
                 <operation name="xfer" argument="block" collective="true"/>
               </parallel-interface>)",
            {{"xfer", [this](const gridccm::OpContext& ctx, util::Message arg) {
                  check(ctx, arg);
                  if (ctx.comm != nullptr) ctx.comm->barrier();
                  return util::Message();
              }}});
    }
    std::string type() const override { return "PerfComp"; }

private:
    void check(const gridccm::OpContext& ctx, const util::Message& arg) {
        const std::uint64_t call = calls_++;
        std::vector<std::int32_t> got(arg.size() / sizeof(std::int32_t));
        arg.copy_out(0, got.data(), got.size() * sizeof(std::int32_t));
        bool ok = ctx.elem_size == sizeof(std::int32_t) &&
                  ctx.global_len == kGlobal &&
                  arg.size() == ctx.local_len * sizeof(std::int32_t);
        std::size_t i = 0;
        for (const auto& iv : Distribution::block().intervals(
                 ctx.member_rank, ctx.member_size, ctx.global_len)) {
            for (std::size_t g = iv.lo; ok && g < iv.hi; ++g, ++i)
                ok = i < got.size() &&
                     got[i] == element(g_checks.ctx->opt.seed, call, g);
        }
        ok = ok && i == got.size();
        std::lock_guard<std::mutex> lk(g_checks.mu);
        ++g_checks.checks;
        if (!ok) g_checks.failed_calls.insert(call);
    }

    std::uint64_t calls_ = 0;
};

void install_component() {
    static std::once_flag once;
    std::call_once(once, [] {
        ccm::ComponentRegistry::register_type(
            "PerfComp", [] { return std::make_unique<PerfComp>(); });
    });
}

/// Client rank \p r's block-cyclic share of invocation \p call.
std::vector<std::int32_t> client_block(std::uint64_t seed, std::uint64_t call,
                                       int r) {
    const Distribution dist = Distribution::block_cyclic(kGrain);
    std::vector<std::int32_t> local;
    local.reserve(dist.local_size(r, kMembers, kGlobal));
    for (const auto& iv : dist.intervals(r, kMembers, kGlobal))
        for (std::size_t g = iv.lo; g < iv.hi; ++g)
            local.push_back(element(seed, call, g));
    return local;
}

/// Per-rung samples of the ladder's gridccm session.
struct FanoutLadder {
    static constexpr int kInvokes = 150;
    static constexpr int kBarriers = 300;
    std::vector<double> invoke_wall_us, barrier_wall_us;
    std::vector<double> invoke_virt_us, barrier_virt_us;
};

/// One deployment: set-up, then either a timed closed loop (\p lad null)
/// or the ladder's fixed invocation and barrier counts, then tear-down.
void session(Ctx& ctx, double seconds, Result& out, FanoutLadder* lad) {
    const std::int64_t t_start = wall_ns();
    install_component();
    const corba::OrbProfile profile = corba::profile_mico();
    auto tb = build_testbed(2 * kMembers);
    auto& front = tb->grid.add_machine("front");
    tb->grid.attach(front, tb->grid.segment("eth0"));
    const std::uint64_t checks0 = [] {
        std::lock_guard<std::mutex> lk(g_checks.mu);
        g_checks.failed_calls.clear();
        return g_checks.checks;
    }();

    for (int i = 0; i < kMembers; ++i)
        tb->grid.spawn(*tb->nodes[static_cast<std::size_t>(i)],
                       [&profile](Process& proc) {
                           ccm::component_server_main(proc, profile);
                       });

    corba::IOR home;
    std::mutex home_mu;
    osal::Event home_ready, done;
    std::atomic<std::uint64_t> calls{0};

    tb->grid.spawn(front, [&](Process& proc) {
        auto rt = start_runtime(proc);
        corba::Orb orb(*rt, profile);
        ccm::Deployer deployer(orb);
        ccm::Deployment dep;
        guarded(ctx, "gridccm deployer", [&] {
            {
                Scope s("ccm.deploy");
                dep = deployer.deploy(ccm::Assembly::parse(
                    R"(<assembly name="perf-fanout">
                         <component id="pc" type="PerfComp" parallel="2"/>
                       </assembly>)"));
            }
            std::lock_guard<std::mutex> lk(home_mu);
            home = deployer.facet_of(dep, ccm::PortAddr{"pc", "xfer"});
        });
        home_ready.set();
        done.wait();
        guarded(ctx, "gridccm teardown", [&] {
            deployer.teardown(dep);
            for (int i = 0; i < kMembers; ++i)
                ccm::connect_component_server(
                    orb, tb->nodes[static_cast<std::size_t>(i)]->name())
                    .shutdown();
        });
        out.add_counts(counts_of(*rt, nullptr));
    });

    osal::Latch clients_done(kMembers);
    for (int r = 0; r < kMembers; ++r) {
        tb->grid.spawn(*tb->nodes[static_cast<std::size_t>(kMembers + r)],
                       [&, r](Process& proc) {
            guarded(ctx, "gridccm client", [&] {
                auto rt = start_runtime(proc);
                corba::Orb orb(*rt, profile);
                home_ready.wait();
                proc.grid().register_service(
                    "perf/fanout-client/" + std::to_string(r), proc.id());
                std::vector<fabric::ProcessId> members;
                for (int i = 0; i < kMembers; ++i)
                    members.push_back(proc.grid().wait_service(
                        "perf/fanout-client/" + std::to_string(i)));
                std::shared_ptr<mpi::World> world;
                {
                    Scope s("mpi.world_create");
                    world = mpi::World::create(*rt, "perf-fanout", members);
                }
                mpi::Comm& comm = world->world();
                corba::IOR h;
                {
                    std::lock_guard<std::mutex> lk(home_mu);
                    h = home;
                }
                std::unique_ptr<gridccm::ParallelStub> stub;
                const auto invoke = [&](std::uint64_t call) {
                    const auto local = client_block(ctx.opt.seed, call, r);
                    const std::int64_t w0 = wall_ns();
                    const SimTime v0 = proc.now();
                    std::vector<std::int32_t> res;
                    {
                        Scope op("op", call);
                        Scope s("gridccm.invoke", call);
                        res = stub->invoke<std::int32_t>(
                            "xfer", std::span<const std::int32_t>(local),
                            kGlobal);
                    }
                    if (r == 0) {
                        ctx.tally.attempt();
                        ctx.tally.check(res.empty(), "void result carried data");
                        calls.fetch_add(1);
                    }
                    return std::make_pair(
                        static_cast<double>(wall_ns() - w0) * 1e-3,
                        to_usec(proc.now() - v0));
                };
                {
                    Scope s("gridccm.bind");
                    stub = std::make_unique<gridccm::ParallelStub>(
                        orb, comm, h, Distribution::block_cyclic(kGrain));
                    invoke(0);
                    comm.barrier();
                }
                if (r == 0)
                    out.add_setup(static_cast<double>(wall_ns() - t_start) *
                                  1e-9);

                std::vector<double> lat;
                if (lad != nullptr) {
                    for (int k = 1; k <= FanoutLadder::kInvokes; ++k) {
                        const auto [w, v] = invoke(static_cast<std::uint64_t>(k));
                        if (r == 0) {
                            lad->invoke_wall_us.push_back(w);
                            lad->invoke_virt_us.push_back(v);
                        }
                    }
                    for (int k = 0; k < FanoutLadder::kBarriers; ++k) {
                        const std::int64_t w0 = wall_ns();
                        const SimTime v0 = proc.now();
                        {
                            Scope s("ladder.mpi_barrier");
                            comm.barrier();
                        }
                        if (r == 0) {
                            lad->barrier_wall_us.push_back(
                                static_cast<double>(wall_ns() - w0) * 1e-3);
                            lad->barrier_virt_us.push_back(
                                to_usec(proc.now() - v0));
                        }
                    }
                } else {
                    const std::int64_t deadline =
                        wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
                    const double cpu0 = cpu_s();
                    const std::int64_t w0 = wall_ns();
                    for (std::uint64_t call = 1;; ++call) {
                        // Rank 0 decides for the group: a parallel
                        // invocation is collective.
                        std::int32_t go =
                            wall_ns() < deadline && call <= kMaxCalls ? 1 : 0;
                        comm.bcast_bytes(&go, sizeof go, 0);
                        if (go == 0) break;
                        lat.push_back(invoke(call).first);
                    }
                    if (r == 0)
                        out.add_timed(lat.size(),
                                      static_cast<double>(wall_ns() - w0) * 1e-9,
                                      cpu_s() - cpu0,
                                      static_cast<double>(lat.size()) *
                                          kGlobal * sizeof(std::int32_t));
                }
                comm.barrier();
                out.add_latencies(lat);
                out.add_counts(counts_of(*rt, nullptr));
            });
            clients_done.count_down();
            if (r == 0) {
                clients_done.wait();
                done.set();
            }
        });
    }
    tb->grid.join_all();
    out.end_session();

    // Every member checked every invocation, and none failed.
    std::lock_guard<std::mutex> lk(g_checks.mu);
    for (std::size_t k = 0; k < g_checks.failed_calls.size(); ++k)
        ctx.tally.fail("gridccm server slice check");
    ctx.tally.attempt();
    ctx.tally.check(g_checks.checks - checks0 == kMembers * calls.load(),
                    "gridccm members did not check every invocation");
}

/// One member's slice through a plain CORBA invocation (Mico profile).
class SliceSink : public corba::Servant {
public:
    explicit SliceSink(Ctx& ctx) : ctx_(&ctx) {}
    std::string interface() const override { return "IDL:SliceSink:1.0"; }
    void dispatch(const std::string& op, corba::cdr::Decoder& in,
                  corba::cdr::Encoder& out) override {
        if (op != "take") throw RemoteError("BAD_OPERATION");
        const std::uint64_t call = in.get_u64();
        const auto v = in.get_seq<std::int32_t>();
        bool ok = v.size() == kGlobal / kMembers;
        for (std::size_t g = 0; ok && g < v.size(); ++g)
            ok = v[g] == element(ctx_->opt.seed, call, g);
        corba::skel::ret(out, ok);
    }

private:
    Ctx* ctx_;
};

std::vector<double> slice_invokes(Ctx& ctx, std::vector<double>& virt_us) {
    std::vector<double> wall_us;
    auto tb = build_testbed(2);
    osal::Event up, done;
    tb->grid.spawn(*tb->nodes[0], [&](Process& proc) {
        auto rt = start_runtime(proc);
        corba::Orb orb(*rt, corba::profile_mico());
        orb.serve("perf-slice");
        const corba::IOR ior = orb.activate(std::make_shared<SliceSink>(ctx));
        proc.grid().register_service("perf/slice-key",
                                     static_cast<fabric::ProcessId>(ior.key));
        up.set();
        done.wait();
        orb.shutdown();
    });
    tb->grid.spawn(*tb->nodes[1], [&](Process& proc) {
        guarded(
            ctx, "slice rung",
            [&] {
                auto rt = start_runtime(proc);
                corba::Orb orb(*rt, corba::profile_mico());
                up.wait();
                corba::ObjectRef ref = orb.resolve(corba::IOR{
                    "perf-slice", proc.grid().wait_service("perf/slice-key"),
                    "IDL:SliceSink:1.0"});
                for (int k = 0; k <= FanoutLadder::kInvokes; ++k) {
                    const auto call = static_cast<std::uint64_t>(k);
                    std::vector<std::int32_t> slice(kGlobal / kMembers);
                    for (std::size_t g = 0; g < slice.size(); ++g)
                        slice[g] = element(ctx.opt.seed, call, g);
                    const std::int64_t w0 = wall_ns();
                    const SimTime v0 = proc.now();
                    bool ok = false;
                    {
                        Scope s("ladder.corba_slice_invoke", call);
                        ok = corba::call<bool>(ref, "take", call, slice);
                    }
                    ctx.tally.attempt();
                    ctx.tally.check(ok, "slice invoke content");
                    if (k == 0) continue; // warm-up: opens the connection
                    wall_us.push_back(static_cast<double>(wall_ns() - w0) *
                                      1e-3);
                    virt_us.push_back(to_usec(proc.now() - v0));
                }
            },
            [&] { done.set(); });
    });
    tb->grid.join_all();
    return wall_us;
}

} // namespace

void run_gridccm_fanout(Ctx& ctx, double seconds, Result& out) {
    g_checks.ctx = &ctx;
    session(ctx, seconds, out, nullptr);
}

void ladder_gridccm(Ctx& ctx, Metrics& m) {
    g_checks.ctx = &ctx;
    Result scratch;
    FanoutLadder lad;
    session(ctx, 0, scratch, &lad);
    std::vector<double> slice_virt;
    const std::vector<double> slice_wall = slice_invokes(ctx, slice_virt);

    const double inv_w = median(lad.invoke_wall_us);
    const double inv_v = median(lad.invoke_virt_us);
    const double sl_w = median(slice_wall);
    const double sl_v = median(slice_virt);
    const double bar_w = median(lad.barrier_wall_us);
    const double bar_v = median(lad.barrier_virt_us);
    m.set("gridccm.invoke_wall_us", inv_w, "us");
    m.set("gridccm.invoke_virt_us", inv_v, "sim_us");
    m.set("corba.slice_invoke_wall_us", sl_w, "us");
    m.set("corba.slice_invoke_virt_us", sl_v, "sim_us");
    m.set("mpi.barrier_wall_us", bar_w, "us");
    m.set("mpi.barrier_virt_us", bar_v, "sim_us");
    // What the parallel layer adds over one member's plain invocation plus
    // the group barrier: planning, fan-out and agreement collectives.
    m.set("gridccm.invoke_self_wall_us", inv_w - sl_w - bar_w, "us");
    m.set("gridccm.invoke_self_virt_us", inv_v - sl_v - bar_v, "sim_us");
    const auto pc = gridccm::plan_cache_stats();
    m.set("gridccm.plan_cache_hit_ratio",
          pc.hits + pc.misses == 0
              ? 0.0
              : static_cast<double>(pc.hits) /
                    static_cast<double>(pc.hits + pc.misses),
          "ratio");
    m.set("gridccm.plan_lookups", static_cast<double>(pc.hits + pc.misses),
          "count");
}

} // namespace perfbench
