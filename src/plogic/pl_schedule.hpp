// pl_schedule.hpp — the static firing structure of a PL netlist.
//
// In a live marked graph every gate fires exactly once per wave, and a
// wave's firings can be ordered by the token-free edges alone: a marked edge
// hands its consumer a token from an earlier wave (or the initial marking).
// This file computes that order once per netlist, the gates that can never
// fire, and a structural safety check, for simulators that evaluate waves
// as a static sweep instead of an event loop (sim::pl_simulator).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plogic/pl_flat.hpp"
#include "plogic/pl_netlist.hpp"

namespace plee::pl {

struct firing_schedule {
    /// Topological order of the token-free edges.  Gates on or behind a
    /// token-free cycle are absent: they can never fire.
    std::vector<gate_id> order;
    /// Per gate: can never fire — absent from `order`, or without inputs and
    /// not a source with somewhere to send its stimulus.
    std::vector<std::uint8_t> never_fires;
    /// True when some gate can never fire (the netlist cannot run every gate
    /// every wave; a simulator must check readiness per firing).
    bool any_never_fires = false;
};

firing_schedule make_firing_schedule(const pl_netlist& pl,
                                     const flat_topology& topo);

/// Structural marked-graph safety: an edge can hold two tokens unless some
/// cycle through it carries exactly one (a cycle's token count never
/// changes, so such a cycle bounds the edge); an edge on no cycle fails too.
/// Edges whose producer never fires carry no deposits and are skipped; a
/// token-free cycle is a liveness failure, not a safety one.  With
/// `!schedule.any_never_fires` this decides what marked_graph::verify()
/// decides.  Returns a description of the first unsafe edge, or "" when
/// every edge is bounded by one token.
std::string find_unsafe_edge(const pl_netlist& pl, const flat_topology& topo,
                             const firing_schedule& schedule);

}  // namespace plee::pl
