// Package graph provides the deterministic synthetic datasets standing
// in for the paper's three SNAP graphs (web-Google, Twitter ego
// networks, web-BerkStan — see DESIGN.md, substitutions) and a bulk
// loader into an edges(src, dst, weight) table.
package graph

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"strings"
)

// Edge is one weighted directed edge.
type Edge struct {
	Src, Dst int64
	Weight   float64
}

// Graph is an edge list over nodes 1..NumNodes.
type Graph struct {
	Name     string
	NumNodes int64
	Edges    []Edge
}

// GoogleWeb generates a preferential-attachment web graph: heavily
// skewed in-degree, small diameter, one giant component — the qualities
// of web-Google that matter to PageRank convergence. Weights are set to
// 1/outdegree (the paper's PageRank convention).
func GoogleWeb(nodes int64, avgOutDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{Name: "google-web", NumNodes: nodes}
	if nodes < 2 {
		return g
	}
	// Repeated-endpoint preferential attachment: new targets are chosen
	// from the endpoint pool so high-degree pages attract more links.
	pool := make([]int64, 0, nodes*int64(avgOutDeg))
	pool = append(pool, 1)
	seen := make(map[[2]int64]bool)
	for v := int64(2); v <= nodes; v++ {
		deg := 1 + rng.Intn(2*avgOutDeg-1) // mean ≈ avgOutDeg
		for i := 0; i < deg; i++ {
			var dst int64
			if rng.Float64() < 0.25 {
				dst = 1 + rng.Int63n(v-1) // uniform: keeps a long tail
			} else {
				dst = pool[rng.Intn(len(pool))]
			}
			if dst == v || seen[[2]int64{v, dst}] {
				continue
			}
			seen[[2]int64{v, dst}] = true
			g.Edges = append(g.Edges, Edge{Src: v, Dst: dst})
			pool = append(pool, dst)
		}
		pool = append(pool, v)
		// Occasional back-link keeps the graph strongly connected-ish,
		// as hyperlink graphs are within their core.
		if rng.Float64() < 0.3 {
			dst := 1 + rng.Int63n(nodes)
			if dst != v && !seen[[2]int64{dst, v}] {
				seen[[2]int64{dst, v}] = true
				g.Edges = append(g.Edges, Edge{Src: dst, Dst: v})
			}
		}
	}
	g.normalizeByOutDegree()
	return g
}

// TwitterEgo generates an ego-network-style social graph: dense
// clusters (circles) around hub accounts with sparse bridges and
// positive random path weights — the structure that makes SSSP traverse
// only a small active frontier, as on the Twitter dataset.
func TwitterEgo(nodes int64, clusterSize int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{Name: "twitter-ego", NumNodes: nodes}
	if clusterSize < 2 {
		clusterSize = 2
	}
	seen := make(map[[2]int64]bool)
	addEdge := func(s, d int64, w float64) {
		if s == d || s < 1 || d < 1 || s > nodes || d > nodes || seen[[2]int64{s, d}] {
			return
		}
		seen[[2]int64{s, d}] = true
		g.Edges = append(g.Edges, Edge{Src: s, Dst: d, Weight: w})
	}
	cs := int64(clusterSize)
	for base := int64(1); base <= nodes; base += cs {
		hub := base
		end := base + cs - 1
		if end > nodes {
			end = nodes
		}
		for v := base + 1; v <= end; v++ {
			// Bidirected hub spokes plus a few intra-cluster links.
			w := 1 + rng.Float64()*9
			addEdge(hub, v, w)
			addEdge(v, hub, 1+rng.Float64()*9)
			if rng.Float64() < 0.4 {
				u := base + 1 + rng.Int63n(end-base)
				addEdge(v, u, 1+rng.Float64()*9)
			}
		}
		// Bridge this cluster's hub to a previous hub so the graph is
		// reachable from node 1.
		if base > 1 {
			prevHub := 1 + cs*rng.Int63n((base-1+cs-1)/cs)
			if prevHub > nodes {
				prevHub = 1
			}
			addEdge(prevHub, hub, 1+rng.Float64()*9)
			addEdge(hub, prevHub, 1+rng.Float64()*9)
		}
	}
	return g
}

// BerkStan generates a two-community web graph with long chain paths:
// pages deep in a site hierarchy are many clicks away from the root,
// which is what the paper's descendant query explores on web-BerkStan.
// Weights are 1 (a click per edge). chainLen controls the depth of the
// deepest page chains.
func BerkStan(nodes int64, chainLen int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{Name: "berkstan-web", NumNodes: nodes}
	if nodes < 4 {
		return g
	}
	// Community split: [1, half] = "berkeley", (half, nodes] = "stanford".
	half := nodes / 2
	// A deterministic deep chain from node 1 so hop-sweep queries have a
	// well-defined long path: 1 -> 2 -> ... -> chainLen+1. Chain nodes
	// accept no other in-links — a shortcut would collapse the depth the
	// descendant-query sweep depends on.
	depth := int64(chainLen)
	if depth > half-1 {
		depth = half - 1
	}
	isChainInterior := func(d int64) bool { return d >= 2 && d <= depth+1 }
	seen := make(map[[2]int64]bool)
	addEdge := func(s, d int64) {
		if s == d || s < 1 || d < 1 || s > nodes || d > nodes || seen[[2]int64{s, d}] {
			return
		}
		if isChainInterior(d) && s != d-1 {
			return
		}
		seen[[2]int64{s, d}] = true
		g.Edges = append(g.Edges, Edge{Src: s, Dst: d, Weight: 1})
	}
	for v := int64(1); v <= depth; v++ {
		addEdge(v, v+1)
	}
	// Hierarchical tree links inside each community plus random
	// cross-links within the community.
	for v := int64(2); v <= nodes; v++ {
		lo, hi := int64(1), half
		if v > half {
			lo, hi = half+1, nodes
		}
		if v > lo {
			parent := lo + rng.Int63n(v-lo)
			addEdge(parent, v)
			if rng.Float64() < 0.5 {
				addEdge(v, parent)
			}
		}
		if rng.Float64() < 0.8 {
			u := lo + rng.Int63n(hi-lo+1)
			addEdge(v, u)
		}
	}
	// Sparse cross-community links (berkeley.edu pages linking
	// stanford.edu and back).
	for i := int64(0); i < nodes/50+1; i++ {
		addEdge(1+rng.Int63n(half), half+1+rng.Int63n(nodes-half))
		addEdge(half+1+rng.Int63n(nodes-half), 1+rng.Int63n(half))
	}
	return g
}

// normalizeByOutDegree sets every edge weight to 1/outdegree(src).
func (g *Graph) normalizeByOutDegree() {
	outdeg := make(map[int64]int, g.NumNodes)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	for i := range g.Edges {
		g.Edges[i].Weight = 1.0 / float64(outdeg[g.Edges[i].Src])
	}
}

// MaxInDegree reports the largest in-degree (tests use it to check the
// generated skew).
func (g *Graph) MaxInDegree() int {
	in := make(map[int64]int)
	max := 0
	for _, e := range g.Edges {
		in[e.Dst]++
		if in[e.Dst] > max {
			max = in[e.Dst]
		}
	}
	return max
}

// ReachableFrom counts nodes reachable from src (including src).
func (g *Graph) ReachableFrom(src int64) int {
	adj := make(map[int64][]int64)
	for _, e := range g.Edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
	}
	seen := map[int64]bool{src: true}
	queue := []int64{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return len(seen)
}

// Load bulk-inserts the graph into table (created if needed) through any
// database/sql handle, batching rows per INSERT.
func Load(ctx context.Context, db *sql.DB, table string, g *Graph, batch int) error {
	if batch <= 0 {
		batch = 500
	}
	create := fmt.Sprintf(
		"CREATE TABLE IF NOT EXISTS %s (src BIGINT, dst BIGINT, weight DOUBLE)", table)
	if _, err := db.ExecContext(ctx, create); err != nil {
		return fmt.Errorf("graph: create %s: %w", table, err)
	}
	var sb strings.Builder
	for start := 0; start < len(g.Edges); start += batch {
		end := start + batch
		if end > len(g.Edges) {
			end = len(g.Edges)
		}
		sb.Reset()
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i, e := range g.Edges[start:end] {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %g)", e.Src, e.Dst, e.Weight)
		}
		if _, err := db.ExecContext(ctx, sb.String()); err != nil {
			return fmt.Errorf("graph: load %s rows %d..%d: %w", table, start, end, err)
		}
	}
	return nil
}

// ByName builds one of the named datasets at the given scale, with
// generator-appropriate shape parameters.
func ByName(name string, nodes int64, seed int64) (*Graph, error) {
	switch strings.ToLower(name) {
	case "google-web", "google":
		return GoogleWeb(nodes, 5, seed), nil
	case "twitter-ego", "twitter":
		return TwitterEgo(nodes, 20, seed), nil
	case "berkstan-web", "berkstan":
		return BerkStan(nodes, 120, seed), nil
	default:
		return nil, fmt.Errorf("graph: unknown dataset %q", name)
	}
}
