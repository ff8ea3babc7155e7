// Corpus file for emmclint --self-test.  The `simpath_` name prefix
// opts this file into event-path scope, as if it lived in src/sim.
// The event core is flat storage; node-based and adapter containers
// must be flagged there, vector-backed structures must not.

#include <map>
#include <queue>
#include <set>
#include <vector>

struct Pending {
    long when;
    int slot;
};

std::map<long, int> g_byTime; // emmclint-expect: event-path-container

std::priority_queue<long> g_pq; // emmclint-expect: event-path-container

void
queueBad()
{
    std::multimap<long, Pending> order; // emmclint-expect: event-path-container
    (void)order;
    std::set<int> live; // emmclint-expect: event-path-container
    (void)live;
}

void
queueFine()
{
    // Flat storage is the idiom the rule protects: a vector heap, a
    // vector-of-vectors chunked arena, a slot freelist.
    std::vector<Pending> heap;
    std::vector<std::vector<Pending>> arena;
    std::vector<int> freelist;
    heap.reserve(64);
    arena.resize(8);
    freelist.clear();
}

// An explicitly justified exception stays possible:
std::multiset<int> g_model; // emmclint: allow(event-path-container)
