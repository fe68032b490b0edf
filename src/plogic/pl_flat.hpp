// pl_flat.hpp — CSR (compressed sparse row) flattening of a pl_netlist.
//
// Graph passes over a PL netlist visit every gate's in_edges / out_edges.
// In pl_netlist those live as one std::vector per gate, scattered with the
// rest of the (string-carrying) pl_gate records.  flat_topology rebuilds the
// same adjacency once per netlist as offset + flat-id arrays: one contiguous
// edge-id pool per relation, indexed by [off[g], off[g+1]), plus a
// per-edge consumer array.
//
// The flattening is purely structural (no per-run state).  It serves the
// firing schedule analysis and the structural safety check
// (pl_schedule.hpp), and sim::pl_simulator's deadlock diagnostic and
// waveform trace; the simulator's sweeps read their own per-gate refs.

#pragma once

#include <cstdint>
#include <vector>

#include "plogic/pl_netlist.hpp"

namespace plee::pl {

struct flat_topology {
    flat_topology() = default;
    explicit flat_topology(const pl_netlist& pl);

    // --- Per-edge arrays, indexed by edge_id -------------------------------
    std::vector<gate_id> edge_to;  ///< consumer gate of each edge

    // --- CSR adjacency, indexed by gate_id ---------------------------------
    // Gate g's incoming edges are in_flat[in_off[g] .. in_off[g+1]).
    std::vector<std::uint32_t> in_off;
    std::vector<edge_id> in_flat;
    // Outgoing edges: out_flat[out_off[g] .. out_off[g+1]).
    std::vector<std::uint32_t> out_off;
    std::vector<edge_id> out_flat;

    std::size_t num_data_edges = 0;  ///< edges with edge_kind::data
};

}  // namespace plee::pl
