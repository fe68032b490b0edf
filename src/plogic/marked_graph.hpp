// marked_graph.hpp — marked graphs and the live/safe verification theory.
//
// "A PL netlist can be thought of as a marked graph with data tokens flowing
// throughout the graph. ... for correct operation of a PL system, the marked
// graph equivalent had to be both live and safe" (Section 2).
//
//  * well-formed: every edge lies on a directed cycle ("every signal must be
//    part of a directed circuit");
//  * live:        no directed cycle is token-free (firing can always
//    continue; a liveness problem means "no token circulation");
//  * safe:        no edge can ever hold more than one token.  For a live
//    marked graph, the maximum occupancy of an edge equals the minimum token
//    count over directed cycles through it (Commoner et al. 1971 / Murata),
//    so safety reduces to: every edge lies on a cycle carrying exactly one
//    token.
//
// The checks run in O(V·E/64) using bitset reachability over the token-free
// subgraph, which keeps full verification practical even for the
// multi-thousand-gate CPU benchmarks.
//
// verify() is the oracle, off the job path: tests, examples and
// `plee_fleet --report` call it, and tests hold pl_simulator's structural
// check (pl::find_unsafe_edge plus never-firing gates) to it.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace plee::pl {

using node_id = std::uint32_t;

struct mg_edge {
    node_id from = 0;
    node_id to = 0;
    int tokens = 0;
};

struct mg_report {
    bool well_formed = false;
    bool live = false;
    bool safe = false;
    /// Human-readable description of the first violation found, if any.
    std::string violation;

    bool ok() const { return well_formed && live && safe; }
};

/// A directed graph with a token marking on edges.
class marked_graph {
public:
    explicit marked_graph(std::size_t num_nodes = 0);

    node_id add_node();
    /// Adds an edge carrying `tokens` initial tokens; returns its index.
    std::size_t add_edge(node_id from, node_id to, int tokens);

    std::size_t num_nodes() const { return num_nodes_; }
    std::size_t num_edges() const { return edges_.size(); }
    const std::vector<mg_edge>& edges() const { return edges_; }

    /// Total tokens in the marking (invariant under firing on each cycle).
    int total_tokens() const;

    /// Fires `node`: requires one token on every in-edge; moves one token
    /// from each in-edge to each out-edge.  Returns false (no change) when
    /// the node is not enabled.  Used by the abstract token-flow tests.
    bool fire(node_id node);

    /// True when every in-edge of `node` carries at least one token.
    bool enabled(node_id node) const;

    /// Runs the full well-formed / live / safe analysis.
    mg_report verify() const;

private:
    std::size_t num_nodes_;
    std::vector<mg_edge> edges_;
    std::vector<std::vector<std::size_t>> out_edges_;  ///< per node
    std::vector<std::vector<std::size_t>> in_edges_;   ///< per node
};

}  // namespace plee::pl
