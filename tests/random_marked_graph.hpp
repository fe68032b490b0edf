// random_marked_graph.hpp — the random marked graphs shared by the
// structural-check differential (test_pl_schedule.cpp: find_unsafe_edge and
// the never-firing test against marked_graph::verify()) and the simulator
// differential (test_sim_queue.cpp: the wave sweep against the heap oracle).
//
// A graph is a ring of compute gates plus random chords, live or not, safe
// or not.  Every edge goes through an edge_adder, so a caller decides what
// kind of edge it becomes: an acknowledge by default, or a data edge with a
// pin and an initial value.

#pragma once

#include <cstddef>
#include <functional>
#include <random>

#include "plogic/pl_netlist.hpp"

namespace plee::pl::testing {

/// Adds one edge from -> to, marked or not.
using edge_adder = std::function<void(pl_netlist&, gate_id from, gate_id to, bool marked)>;

inline void add_ack(pl_netlist& pl, gate_id from, gate_id to, bool marked) {
    pl.add_ack_edge(from, to, marked);
}

/// Appends a ring of `n` compute gates, gate i joined to gate i + 1, the
/// first `tokens` ring edges marked.
inline void add_ring(pl_netlist& pl, std::size_t n, std::size_t tokens,
                     const edge_adder& add = add_ack) {
    const gate_id first = static_cast<gate_id>(pl.num_gates());
    for (std::size_t i = 0; i < n; ++i) pl.add_gate(gate_kind::compute);
    for (std::size_t i = 0; i < n; ++i) {
        add(pl, static_cast<gate_id>(first + i),
            static_cast<gate_id>(first + (i + 1) % n), i < tokens);
    }
}

/// A ring of 2-8 gates with 0-2 tokens; in half the graphs 1-2 dangling
/// gates with a one-way edge to or from the ring; then up to 2n random
/// chords between any two gates (self-loops included), a third of them
/// marked, which may close a dangling edge into a cycle.
inline pl_netlist random_marked_graph(std::mt19937_64& rng,
                                      const edge_adder& add = add_ack) {
    pl_netlist pl;
    const std::size_t n = 2 + rng() % 7;
    add_ring(pl, n, rng() % 3, add);
    const std::size_t dangling = rng() % 2 == 0 ? 0 : 1 + rng() % 2;
    for (std::size_t d = 0; d < dangling; ++d) {
        const gate_id g = pl.add_gate(gate_kind::compute);
        const gate_id r = static_cast<gate_id>(rng() % n);
        const bool inward = rng() % 2 == 0;
        const bool marked = rng() % 3 == 0;
        if (inward) {
            add(pl, r, g, marked);
        } else {
            add(pl, g, r, marked);
        }
    }
    const std::size_t gates = pl.num_gates();
    const std::size_t extra = rng() % (2 * n);
    for (std::size_t i = 0; i < extra; ++i) {
        const bool marked = rng() % 3 == 0;
        const gate_id to = static_cast<gate_id>(rng() % gates);
        const gate_id from = static_cast<gate_id>(rng() % gates);
        add(pl, from, to, marked);
    }
    return pl;
}

}  // namespace plee::pl::testing
