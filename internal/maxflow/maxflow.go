// Package maxflow implements Dinic's maximum-flow algorithm with integer
// capacities. An integral maximum flow is exactly what Lemmas 2 and 6 of the
// paper need: Ford–Fulkerson integrality turns the fractional LP assignment
// into an integral machine→job assignment without losing more than constant
// factors in load or mass.
package maxflow

import (
	"fmt"
	"math"
)

// Inf is the capacity used for uncapacitated edges.
const Inf = int64(math.MaxInt64 / 4)

// Graph is a flow network on vertices 0..n-1. Adjacency is stored as
// per-vertex linked lists threaded through flat edge arrays (head/tail/
// next), so AddEdge never allocates per vertex — graph construction is
// three amortized slice appends total, which matters because the Lemma 2
// rounding builds a fresh network per Monte Carlo trial. Lists preserve
// insertion order, so traversal (and hence the integral flow found) is
// identical to a slice-of-slices adjacency. The zero value is unusable;
// construct with New.
type Graph struct {
	n    int
	head []int32 // first edge id per vertex, -1 if none
	tail []int32 // last edge id per vertex (for ordered append)
	next []int32 // next edge id within the same vertex's list, -1 ends
	to   []int32
	cap  []int64 // residual capacity
	// level and iter are scratch for Dinic; iter holds each vertex's
	// current-arc edge id; queue is the BFS ring buffer.
	level []int32
	iter  []int32
	queue []int32
}

// New returns an empty flow network on n vertices.
func New(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset reinitializes the graph to n vertices with no edges, keeping every
// backing array for reuse. A hot loop that builds one network per trial
// (the Lemma 2 rounding) holds a Graph in its workspace and Resets it
// instead of allocating a fresh one.
func (g *Graph) Reset(n int) {
	g.n = n
	if cap(g.head) < n {
		g.head = make([]int32, n)
		g.tail = make([]int32, n)
		g.level = make([]int32, n)
		g.iter = make([]int32, n)
	}
	g.head = g.head[:n]
	g.tail = g.tail[:n]
	g.level = g.level[:n]
	g.iter = g.iter[:n]
	for i := range g.head {
		g.head[i] = -1
		g.tail[i] = -1
	}
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.next = g.next[:0]
}

// Reserve pre-sizes the edge arrays for the given number of AddEdge calls,
// eliminating growth reallocations when the caller knows the edge count.
func (g *Graph) Reserve(edges int) {
	if cap(g.to)-len(g.to) >= 2*edges {
		return
	}
	grow := func(a []int32) []int32 {
		b := make([]int32, len(a), len(a)+2*edges)
		copy(b, a)
		return b
	}
	g.to = grow(g.to)
	g.next = grow(g.next)
	c := make([]int64, len(g.cap), len(g.cap)+2*edges)
	copy(c, g.cap)
	g.cap = c
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge u->v with the given capacity and returns its
// identifier, usable with Flow after a MaxFlow call. The reverse edge is
// created automatically with zero capacity.
func (g *Graph) AddEdge(u, v int, capacity int64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("maxflow: negative capacity %d on edge (%d,%d)", capacity, u, v)
	}
	id := len(g.to)
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, capacity, 0)
	g.next = append(g.next, -1, -1)
	g.link(u, int32(id))
	g.link(v, int32(id+1))
	return id, nil
}

// link appends edge id to vertex u's adjacency list, keeping insertion
// order.
func (g *Graph) link(u int, id int32) {
	if g.tail[u] < 0 {
		g.head[u] = id
	} else {
		g.next[g.tail[u]] = id
	}
	g.tail[u] = id
}

// Flow returns the amount of flow routed through edge id by the last MaxFlow
// call (the reverse edge's residual capacity).
func (g *Graph) Flow(id int) int64 { return g.cap[id^1] }

// MaxFlow computes the maximum s-t flow. It may be called once per graph
// (capacities are consumed).
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	for g.bfs(s, t) {
		copy(g.iter, g.head)
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// bfs builds the level graph; reports whether t is reachable.
func (g *Graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	if cap(g.queue) < g.n {
		g.queue = make([]int32, 0, g.n)
	}
	queue := g.queue[:0]
	queue = append(queue, int32(s))
	g.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for id := g.head[v]; id >= 0; id = g.next[id] {
			if g.cap[id] > 0 && g.level[g.to[id]] < 0 {
				g.level[g.to[id]] = g.level[v] + 1
				queue = append(queue, g.to[id])
			}
		}
	}
	return g.level[t] >= 0
}

// dfs sends a blocking-flow augmentation of at most up units from v to t,
// resuming each vertex at its current arc (iter).
func (g *Graph) dfs(v, t int, up int64) int64 {
	if v == t {
		return up
	}
	for id := g.iter[v]; id >= 0; id = g.next[id] {
		g.iter[v] = id
		w := int(g.to[id])
		if g.cap[id] <= 0 || g.level[w] != g.level[v]+1 {
			continue
		}
		d := g.dfs(w, t, min64(up, g.cap[id]))
		if d > 0 {
			g.cap[id] -= d
			g.cap[id^1] += d
			return d
		}
	}
	g.iter[v] = -1
	g.level[v] = -1
	return 0
}

// MinCut returns the source side of a minimum s-t cut after MaxFlow has run:
// the set of vertices reachable from s in the residual graph.
func (g *Graph) MinCut(s int) []bool {
	side := make([]bool, g.n)
	stack := []int{s}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for id := g.head[v]; id >= 0; id = g.next[id] {
			w := int(g.to[id])
			if g.cap[id] > 0 && !side[w] {
				side[w] = true
				stack = append(stack, w)
			}
		}
	}
	return side
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
