#include "plogic/pl_schedule.hpp"

#include <algorithm>

namespace plee::pl {

firing_schedule make_firing_schedule(const pl_netlist& pl,
                                     const flat_topology& topo) {
    const std::size_t num_gates = pl.num_gates();
    firing_schedule s;
    // Kahn over the token-free edges.
    std::vector<std::uint32_t> indeg(num_gates, 0);
    for (edge_id e = 0; e < pl.num_edges(); ++e) {
        if (!pl.edge(e).init_token) ++indeg[topo.edge_to[e]];
    }
    s.order.reserve(num_gates);
    for (gate_id g = 0; g < num_gates; ++g) {
        if (indeg[g] == 0) s.order.push_back(g);
    }
    for (std::size_t head = 0; head < s.order.size(); ++head) {
        const gate_id g = s.order[head];
        for (std::uint32_t i = topo.out_off[g]; i < topo.out_off[g + 1]; ++i) {
            const edge_id e = topo.out_flat[i];
            if (!pl.edge(e).init_token && --indeg[topo.edge_to[e]] == 0) {
                s.order.push_back(topo.edge_to[e]);
            }
        }
    }
    s.never_fires.assign(num_gates, 1);
    for (const gate_id g : s.order) {
        const pl_gate& gate = pl.gate(g);
        s.never_fires[g] = gate.in_edges.empty() &&
                           !(gate.kind == gate_kind::source && !gate.out_edges.empty());
    }
    s.any_never_fires = std::find(s.never_fires.begin(), s.never_fires.end(),
                                  std::uint8_t{1}) != s.never_fires.end();
    return s;
}

std::string find_unsafe_edge(const pl_netlist& pl, const flat_topology& topo,
                             const firing_schedule& schedule) {
    const std::size_t num_gates = pl.num_gates();
    const auto describe = [&](edge_id e) {
        const pl_edge& edge = pl.edge(e);
        return "edge " + std::to_string(e) + " ('" + pl.gate(edge.from).name +
               "' -> '" + pl.gate(edge.to).name +
               "') lies on no single-token cycle (marked-graph safety "
               "violation)";
    };

    // Fast path: a reverse edge whose marking complements this one closes
    // a two-gate cycle with exactly one token (an edge and its acknowledge).
    // rev_mask[x] has bit m set when x feeds the current gate u through an
    // edge of marking m; rev_stamp says which u the mask belongs to.
    std::vector<gate_id> rev_stamp(num_gates, k_invalid_gate);
    std::vector<std::uint8_t> rev_mask(num_gates, 0);
    std::vector<edge_id> slow;  ///< edges left to search, grouped by producer
    for (gate_id u = 0; u < num_gates; ++u) {
        if (schedule.never_fires[u]) continue;
        for (std::uint32_t i = topo.in_off[u]; i < topo.in_off[u + 1]; ++i) {
            const pl_edge& in = pl.edge(topo.in_flat[i]);
            if (rev_stamp[in.from] != u) {
                rev_stamp[in.from] = u;
                rev_mask[in.from] = 0;
            }
            rev_mask[in.from] |= in.init_token ? 2u : 1u;
        }
        for (std::uint32_t i = topo.out_off[u]; i < topo.out_off[u + 1]; ++i) {
            const edge_id e = topo.out_flat[i];
            const gate_id v = topo.edge_to[e];
            const std::uint8_t want = pl.edge(e).init_token ? 1u : 2u;
            if (rev_stamp[v] != u || (rev_mask[v] & want) == 0) slow.push_back(e);
        }
    }
    if (slow.empty()) return {};

    // The rest: reachability from each consumer back to its producer,
    // crossing no token (marked edge) or at most one (unmarked edge), for
    // k_batch producers at a time.  reach0[x] bit j: x reaches producer j
    // along token-free edges; reach1[x]: along a path with at most one
    // marked edge.
    constexpr std::size_t k_words = 4;
    constexpr std::size_t k_batch = 64 * k_words;
    std::vector<gate_id> targets;
    std::vector<std::uint32_t> slow_target(slow.size());
    for (std::size_t k = 0; k < slow.size(); ++k) {
        const gate_id u = pl.edge(slow[k]).from;
        if (targets.empty() || targets.back() != u) targets.push_back(u);
        slow_target[k] = static_cast<std::uint32_t>(targets.size() - 1);
    }

    // Successor lists by marking.  Closing over token-free successors walks
    // the reverse token-free order, so every successor is final before its
    // predecessors read it.  Gates off that order (on or behind a token-free
    // cycle) have only off-order token-free successors; they are closed
    // first, by iterating to a fixpoint.
    std::vector<std::uint32_t> free_off(num_gates + 1, 0);
    std::vector<std::uint32_t> marked_off(num_gates + 1, 0);
    std::vector<gate_id> free_to, marked_to;
    for (gate_id x = 0; x < num_gates; ++x) {
        for (std::uint32_t i = topo.out_off[x]; i < topo.out_off[x + 1]; ++i) {
            const edge_id e = topo.out_flat[i];
            (pl.edge(e).init_token ? marked_to : free_to).push_back(topo.edge_to[e]);
        }
        free_off[x + 1] = static_cast<std::uint32_t>(free_to.size());
        marked_off[x + 1] = static_cast<std::uint32_t>(marked_to.size());
    }
    std::vector<gate_id> unordered;
    {
        std::vector<std::uint8_t> ordered(num_gates, 0);
        for (const gate_id g : schedule.order) ordered[g] = 1;
        for (gate_id g = 0; g < num_gates; ++g) {
            if (!ordered[g]) unordered.push_back(g);
        }
    }
    const auto or_into = [](std::uint64_t* dst, const std::uint64_t* src) {
        bool changed = false;
        for (std::size_t w = 0; w < k_words; ++w) {
            changed = changed || (src[w] & ~dst[w]) != 0;
            dst[w] |= src[w];
        }
        return changed;
    };
    const auto close = [&](std::vector<std::uint64_t>& r) {
        const auto close_gate = [&](gate_id x) {
            bool changed = false;
            for (std::uint32_t i = free_off[x]; i < free_off[x + 1]; ++i) {
                changed = or_into(&r[x * k_words], &r[free_to[i] * k_words]) ||
                          changed;
            }
            return changed;
        };
        for (bool changed = true; changed;) {
            changed = false;
            for (const gate_id x : unordered) changed = close_gate(x) || changed;
        }
        for (auto it = schedule.order.rbegin(); it != schedule.order.rend(); ++it) {
            close_gate(*it);
        }
    };

    std::vector<std::uint64_t> reach0(num_gates * k_words), reach1;
    std::size_t k = 0;
    for (std::size_t base = 0; base < targets.size(); base += k_batch) {
        const std::size_t end = std::min(targets.size(), base + k_batch);
        std::fill(reach0.begin(), reach0.end(), 0);
        for (std::size_t j = base; j < end; ++j) {
            reach0[targets[j] * k_words + (j - base) / 64] |=
                std::uint64_t{1} << ((j - base) % 64);
        }
        close(reach0);
        reach1 = reach0;
        for (gate_id x = 0; x < num_gates; ++x) {
            for (std::uint32_t i = marked_off[x]; i < marked_off[x + 1]; ++i) {
                or_into(&reach1[x * k_words], &reach0[marked_to[i] * k_words]);
            }
        }
        close(reach1);
        for (; k < slow.size() && slow_target[k] < end; ++k) {
            const pl_edge& edge = pl.edge(slow[k]);
            const std::size_t j = slow_target[k] - base;
            const std::uint64_t word =
                (edge.init_token ? reach0 : reach1)[edge.to * k_words + j / 64];
            if (((word >> (j % 64)) & 1u) == 0) return describe(slow[k]);
        }
    }
    return {};
}

}  // namespace plee::pl
