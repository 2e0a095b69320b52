package main

// Output checks computed apart from the program: a plain Go evaluation
// of the Sync PageRank recurrence, Dijkstra for SSSP and hop counts,
// and the properties every correct answer has. Each check returns nil
// or the first discrepancy it finds.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// tolerance is the relative error allowed between a float the program
// computed and the same value computed here: the two sum the same terms
// in different orders, which moves the last few bits only.
const tolerance = 1e-9

func near(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	return math.Abs(a-b) <= tolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// nodeSet lists the nodes that occur in some edge, which is the set the
// queries seed their working tables from.
func (g *graph) nodeSet() []int64 {
	seen := make(map[int64]bool)
	for _, e := range g.edges {
		seen[e.src] = true
		seen[e.dst] = true
	}
	out := make([]int64, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pageRankOracle evaluates the query's recurrence for iterations Sync
// rounds: Rank' = Rank + Delta, Delta' = 0.85 * sum over in-edges of
// Delta(src) * weight, starting from Rank = 0, Delta = 0.15. It
// returns Rank + Delta per node.
func pageRankOracle(g *graph, iterations int) map[int64]float64 {
	nodes := g.nodeSet()
	rank := make(map[int64]float64, len(nodes))
	delta := make(map[int64]float64, len(nodes))
	for _, n := range nodes {
		delta[n] = 0.15
	}
	for it := 0; it < iterations; it++ {
		next := make(map[int64]float64, len(nodes))
		for _, e := range g.edges {
			next[e.dst] += delta[e.src] * e.w
		}
		for _, n := range nodes {
			rank[n] += delta[n]
			next[n] *= 0.85
		}
		delta = next
	}
	out := make(map[int64]float64, len(nodes))
	for _, n := range nodes {
		out[n] = rank[n] + delta[n]
	}
	return out
}

// checkPageRank compares every node's rank with the oracle and checks
// that each rank is at least the teleport share 0.15 and that the ranks
// sum to at most the node count.
func checkPageRank(got, want map[int64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d nodes, want %d", len(got), len(want))
	}
	var sum float64
	for n, w := range want {
		v, ok := got[n]
		switch {
		case !ok:
			return fmt.Errorf("pagerank: node %d missing", n)
		case !near(v, w):
			return fmt.Errorf("pagerank: node %d rank %.17g, oracle %.17g", n, v, w)
		case v < 0.15:
			return fmt.Errorf("pagerank: node %d rank %.17g below 0.15", n, v)
		}
		sum += v
	}
	if sum > float64(len(want)) {
		return fmt.Errorf("pagerank: ranks sum to %g, more than %d nodes", sum, len(want))
	}
	return nil
}

// dijkstra returns the shortest distance from src to every node that
// occurs in an edge (+Inf when unreachable).
func dijkstra(g *graph, src int64) map[int64]float64 {
	adj := make(map[int64][]edge)
	for _, e := range g.edges {
		adj[e.src] = append(adj[e.src], e)
	}
	dist := make(map[int64]float64)
	for _, n := range g.nodeSet() {
		dist[n] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.n] {
			continue
		}
		for _, e := range adj[it.n] {
			if d := it.d + e.w; d < dist[e.dst] {
				dist[e.dst] = d
				heap.Push(pq, distItem{e.dst, d})
			}
		}
	}
	return dist
}

type distItem struct {
	n int64
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// checkSSSP compares every node's distance with Dijkstra's and checks
// the fix-point property: d(src) = 0 and d(v) <= d(u) + w on every
// edge u -> v.
func checkSSSP(g *graph, src int64, got, want map[int64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("sssp: %d nodes, want %d", len(got), len(want))
	}
	for n, w := range want {
		v, ok := got[n]
		if !ok {
			return fmt.Errorf("sssp: node %d missing", n)
		}
		if !near(v, w) {
			return fmt.Errorf("sssp: node %d distance %.17g, dijkstra %.17g", n, v, w)
		}
	}
	if got[src] != 0 {
		return fmt.Errorf("sssp: source distance %g, want 0", got[src])
	}
	for _, e := range g.edges {
		if du, dv := got[e.src], got[e.dst]; dv > du+e.w && !near(dv, du+e.w) {
			return fmt.Errorf("sssp: edge %d->%d: d(v)=%.17g > d(u)+w=%.17g", e.src, e.dst, dv, du+e.w)
		}
	}
	return nil
}

// dqOracle counts the nodes within hops clicks of root (every edge
// weighs one click).
func dqOracle(g *graph, root int64, hops int) int64 {
	var n int64
	for _, d := range dijkstra(g, root) {
		if d <= float64(hops) {
			n++
		}
	}
	return n
}

// checkDQ compares the count with the oracle's, which must be a strict
// subset of the nodes for the hop limit to mean anything.
func checkDQ(got, want int64, nodes int) error {
	if want <= 0 || want >= int64(nodes) {
		return fmt.Errorf("dq: oracle count %d is not a strict subset of %d nodes", want, nodes)
	}
	if got != want {
		return fmt.Errorf("dq: count %d, oracle %d", got, want)
	}
	return nil
}

// checkSame requires two per-node answers to be identical, bit for bit.
func checkSame(what string, got, want map[int64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d nodes, want %d", what, len(got), len(want))
	}
	for n, w := range want {
		if v, ok := got[n]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("%s: node %d reads %v, acknowledged %v", what, n, v, w)
		}
	}
	return nil
}

// perturbed copies m with one value moved: the smallest node whose
// value is finite and positive gains shift times its magnitude.
func perturbed(m map[int64]float64, shift float64) map[int64]float64 {
	out := make(map[int64]float64, len(m))
	pick := int64(math.MaxInt64)
	for n, v := range m {
		out[n] = v
		if v > 0 && !math.IsInf(v, 0) && n < pick {
			pick = n
		}
	}
	out[pick] += shift * out[pick]
	return out
}
