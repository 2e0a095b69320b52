package main

// The benchmark's own inputs: three graph generators and three query
// texts. They are copies, not imports, of the program's bundled
// datasets and workload queries, so an edit to the program's generators
// or queries cannot shift what this benchmark measures. Everything here
// depends only on the seed.

import (
	"fmt"
	"math/rand"
)

// edge is one weighted directed edge.
type edge struct {
	src, dst int64
	w        float64
}

// graph is an edge list over nodes 1..nodes.
type graph struct {
	nodes int64
	edges []edge
}

// webGraph is a preferential-attachment web graph: a heavily skewed
// in-degree and a small diameter, so every PageRank round touches the
// whole working table. Weights are 1/outdegree(src).
func webGraph(nodes int64, avgOutDeg int, seed int64) *graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graph{nodes: nodes}
	pool := make([]int64, 0, nodes*int64(avgOutDeg))
	pool = append(pool, 1)
	seen := make(map[[2]int64]bool)
	for v := int64(2); v <= nodes; v++ {
		deg := 1 + rng.Intn(2*avgOutDeg-1)
		for i := 0; i < deg; i++ {
			var dst int64
			if rng.Float64() < 0.25 {
				dst = 1 + rng.Int63n(v-1)
			} else {
				dst = pool[rng.Intn(len(pool))]
			}
			if dst == v || seen[[2]int64{v, dst}] {
				continue
			}
			seen[[2]int64{v, dst}] = true
			g.edges = append(g.edges, edge{src: v, dst: dst})
			pool = append(pool, dst)
		}
		pool = append(pool, v)
		if rng.Float64() < 0.3 {
			dst := 1 + rng.Int63n(nodes)
			if dst != v && !seen[[2]int64{dst, v}] {
				seen[[2]int64{dst, v}] = true
				g.edges = append(g.edges, edge{src: dst, dst: v})
			}
		}
	}
	outdeg := make(map[int64]int, nodes)
	for _, e := range g.edges {
		outdeg[e.src]++
	}
	for i := range g.edges {
		g.edges[i].w = 1.0 / float64(outdeg[g.edges[i].src])
	}
	return g
}

// egoGraph is a clustered social graph: dense circles around hub
// accounts joined by sparse hub-to-hub bridges, with random positive
// path weights in [1, 10). SSSP over it advances a small frontier per
// round while every Sync round still rewrites the whole working table.
func egoGraph(nodes int64, clusterSize int, seed int64) *graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graph{nodes: nodes}
	seen := make(map[[2]int64]bool)
	add := func(s, d int64, w float64) {
		if s == d || s < 1 || d < 1 || s > nodes || d > nodes || seen[[2]int64{s, d}] {
			return
		}
		seen[[2]int64{s, d}] = true
		g.edges = append(g.edges, edge{src: s, dst: d, w: w})
	}
	cs := int64(clusterSize)
	for base := int64(1); base <= nodes; base += cs {
		hub := base
		end := min(base+cs-1, nodes)
		for v := base + 1; v <= end; v++ {
			add(hub, v, 1+rng.Float64()*9)
			add(v, hub, 1+rng.Float64()*9)
			if rng.Float64() < 0.4 {
				add(v, base+1+rng.Int63n(end-base), 1+rng.Float64()*9)
			}
		}
		if base > 1 {
			prevHub := 1 + cs*rng.Int63n((base-1+cs-1)/cs)
			add(prevHub, hub, 1+rng.Float64()*9)
			add(hub, prevHub, 1+rng.Float64()*9)
		}
	}
	return g
}

// chainGraph is a two-community web graph with a fixed chain
// 1 -> 2 -> ... -> chain+1 whose interior accepts no other in-links, so
// a hop search from node 1 needs at least chain rounds whatever the
// seed, each with a tiny frontier. Weights are 1 (one click per edge).
func chainGraph(nodes int64, chain int, seed int64) *graph {
	rng := rand.New(rand.NewSource(seed))
	g := &graph{nodes: nodes}
	half := nodes / 2
	depth := min(int64(chain), half-1)
	seen := make(map[[2]int64]bool)
	add := func(s, d int64) {
		if s == d || s < 1 || d < 1 || s > nodes || d > nodes || seen[[2]int64{s, d}] {
			return
		}
		if d >= 2 && d <= depth+1 && s != d-1 {
			return
		}
		seen[[2]int64{s, d}] = true
		g.edges = append(g.edges, edge{src: s, dst: d, w: 1})
	}
	for v := int64(1); v <= depth; v++ {
		add(v, v+1)
	}
	for v := int64(2); v <= nodes; v++ {
		lo, hi := int64(1), half
		if v > half {
			lo, hi = half+1, nodes
		}
		if v > lo {
			parent := lo + rng.Int63n(v-lo)
			add(parent, v)
			if rng.Float64() < 0.5 {
				add(v, parent)
			}
		}
		if rng.Float64() < 0.8 {
			add(v, lo+rng.Int63n(hi-lo+1))
		}
	}
	for i := int64(0); i < nodes/50+1; i++ {
		add(1+rng.Int63n(half), half+1+rng.Int63n(nodes-half))
		add(half+1+rng.Int63n(nodes-half), 1+rng.Int63n(half))
	}
	return g
}

// pageRankQuery is the paper's PageRank (Example 2) for a fixed number
// of iterations, returning every node's rank.
func pageRankQuery(iterations int) string {
	return fmt.Sprintf(`
WITH ITERATIVE PageRank(Node, Rank, Delta) AS (
  SELECT src, 0.0, 0.15
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT PageRank.Node,
         COALESCE(PageRank.Rank + PageRank.Delta, 0.15),
         COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0)
  FROM PageRank
  LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst
  LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src
  GROUP BY PageRank.Node
  UNTIL %d ITERATIONS
)
SELECT Node, Rank + Delta AS Rank FROM PageRank`, iterations)
}

// ssspQuery is the paper's single-source shortest paths (Example 3)
// from node 1, returning every node's distance.
func ssspQuery() string {
	return `
WITH ITERATIVE sssp(Node, Distance, Delta) AS (
  SELECT src, CASE WHEN src = 1 THEN 0.0 ELSE Infinity END,
         CASE WHEN src = 1 THEN 0.0 ELSE Infinity END
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT sssp.Node,
         LEAST(sssp.Distance, sssp.Delta),
         COALESCE(MIN(Neighbor.Distance + IncomingEdges.weight), Infinity)
  FROM sssp
  LEFT JOIN edges AS IncomingEdges ON sssp.Node = IncomingEdges.dst
  LEFT JOIN sssp AS Neighbor ON Neighbor.Node = IncomingEdges.src
  WHERE Neighbor.Delta != Infinity
  GROUP BY sssp.Node
  UNTIL 0 UPDATES
)
SELECT Node, LEAST(Distance, Delta) AS Distance FROM sssp`
}

// dqQuery is the Descendant Query: how many pages lie within hops
// clicks of root.
func dqQuery(root int64, hops int) string {
	return fmt.Sprintf(`
WITH ITERATIVE dq(Node, Hops, Delta) AS (
  SELECT src, CASE WHEN src = %d THEN 0.0 ELSE Infinity END,
         CASE WHEN src = %d THEN 0.0 ELSE Infinity END
  FROM (SELECT src FROM edges UNION SELECT dst AS src FROM edges) AS alledges
  GROUP BY src
  ITERATE
  SELECT dq.Node,
         LEAST(dq.Hops, dq.Delta),
         COALESCE(MIN(Neighbor.Hops + IncomingEdges.weight), Infinity)
  FROM dq
  LEFT JOIN edges AS IncomingEdges ON dq.Node = IncomingEdges.dst
  LEFT JOIN dq AS Neighbor ON Neighbor.Node = IncomingEdges.src
  WHERE Neighbor.Delta != Infinity
  GROUP BY dq.Node
  UNTIL 0 UPDATES
)
SELECT COUNT(*) FROM dq WHERE LEAST(dq.Hops, dq.Delta) <= %d`, root, root, hops)
}

// minFrontierPriority is the AsyncP priority for SSSP-like queries: the
// partition holding the node closest to the source runs first.
const minFrontierPriority = "SELECT 0 - MIN(Delta) FROM $PART WHERE Delta != Infinity"
