#pragma once
/// \file testbed.hpp
/// The paper's testbed (dual-PIII nodes on Myrinet-2000 plus switched
/// Fast-Ethernet) and helpers every perfbench workload shares: set-up
/// spans, reading the program's public counters, and a guard that keeps a
/// failing simulated process from leaving its peers blocked forever.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "corba/orb.hpp"
#include "fabric/grid.hpp"
#include "harness.hpp"

namespace perfbench {

struct Testbed {
    padico::fabric::Grid grid;
    std::vector<padico::fabric::Machine*> nodes;

    explicit Testbed(int n) {
        auto& myri = grid.add_segment("myri0",
                                      padico::fabric::NetTech::Myrinet2000);
        auto& eth = grid.add_segment("eth0",
                                     padico::fabric::NetTech::FastEthernet);
        for (int i = 0; i < n; ++i) {
            auto& m = grid.add_machine("node" + std::to_string(i), 2);
            m.set_attr("pool", "cluster");
            grid.attach(m, myri);
            grid.attach(m, eth);
            nodes.push_back(&m);
        }
    }
};

/// Build a testbed inside a "fabric.grid_build" span.
inline std::unique_ptr<Testbed> build_testbed(int n) {
    Scope s("fabric.grid_build");
    return std::make_unique<Testbed>(n);
}

/// Start a PadicoTM runtime inside a "padicotm.runtime_init" span.
inline std::unique_ptr<padico::ptm::Runtime> start_runtime(
    padico::fabric::Process& proc) {
    Scope s("padicotm.runtime_init");
    return std::make_unique<padico::ptm::Runtime>(proc);
}

/// Public counters of one runtime (and of its ORB's server core, if any).
Counts counts_of(padico::ptm::Runtime& rt, const padico::corba::Orb* orb);

/// CDR body of the GIOP request echo(\p v) with request id \p id to object
/// key \p key, byte for byte what ObjectRef sends (rpc_small's ladder and
/// the CDR hot-call timing both use it).
padico::util::Message echo_request_body(std::uint64_t id, std::uint64_t key,
                                        std::uint32_t v);

/// Runs \p body; any exception becomes one failed operation. \p always
/// runs afterwards either way (it releases peers waiting on this process).
void guarded(Ctx& ctx, const char* who, const std::function<void()>& body,
             const std::function<void()>& always = {});

} // namespace perfbench
