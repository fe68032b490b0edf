#include "plogic/pl_flat.hpp"

namespace plee::pl {

flat_topology::flat_topology(const pl_netlist& pl) {
    const std::size_t num_gates = pl.num_gates();
    const std::size_t num_edges = pl.num_edges();

    edge_to.resize(num_edges);
    for (edge_id e = 0; e < num_edges; ++e) {
        const pl_edge& edge = pl.edge(e);
        edge_to[e] = edge.to;
        if (edge.kind == edge_kind::data) ++num_data_edges;
    }

    in_off.assign(num_gates + 1, 0);
    out_off.assign(num_gates + 1, 0);
    for (gate_id g = 0; g < num_gates; ++g) {
        const pl_gate& gate = pl.gate(g);
        in_off[g + 1] = in_off[g] + static_cast<std::uint32_t>(gate.in_edges.size());
        out_off[g + 1] =
            out_off[g] + static_cast<std::uint32_t>(gate.out_edges.size());
    }
    in_flat.reserve(in_off[num_gates]);
    out_flat.reserve(out_off[num_gates]);
    for (gate_id g = 0; g < num_gates; ++g) {
        const pl_gate& gate = pl.gate(g);
        in_flat.insert(in_flat.end(), gate.in_edges.begin(), gate.in_edges.end());
        out_flat.insert(out_flat.end(), gate.out_edges.begin(), gate.out_edges.end());
    }
}

}  // namespace plee::pl
